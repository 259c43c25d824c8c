"""One rule decides what a cascade did before a global minute t:
`Cascade.count_before(t)`, the number of comments with `origin + time <
t`, and `Cascade.latest_before(t)`, the latest such event.

Every cross-cascade reader asks it: the active-candidate filter, recency
(RCHR and every tie-break), the COX covariate and risk sets, NN's
cascade representative and the scratch intensity scorers (their tests
are in test_states_at.py).  Read on the relative axis instead
(`time < t - origin`), the rule can count a comment as before its own
global minute, because `(origin + x) - origin` may round above x; then a
comment was its own COX covariate.
"""

import numpy as np

from hawkesfeed.baselines import _cox_design, cox_covariate
from hawkesfeed.core import ACTIVITY_HORIZON, Cascade, Event, event_content
from hawkesfeed.features import FeatureStore
from hawkesfeed.rank_eval import NNRanker, RecencyRanker, candidate_cascades

from conftest import latest_before_scan, random_corpus, stretched

# at origin 3.0, (3.0 + X) - 3.0 rounds above X
ORIGIN, X = 3.0, 1.9336138302337527
POST, COMMENT = [0.1, 0.2, 0.3], [0.9, 0.8, 0.7]


def content_store(dim=3):
    return FeatureStore(pair_names=[], content_names=[f"c{i}" for i in range(dim)],
                        normalized=True)


def rounding_cascade():
    return Cascade("leak", Event(0.0, "ana", POST), [Event(X, "bo", COMMENT)], 10.0,
                   origin=ORIGIN)


def test_a_comment_is_not_its_own_cox_covariate():
    assert (ORIGIN + X) - ORIGIN > X
    c = rounding_cascade()
    features = np.array([0, 1, 2])
    assert cox_covariate(c, ORIGIN + X, content_store(), features).tolist() == POST


def test_a_comment_target_row_holds_its_cascade_before_it():
    c = rounding_cascade()
    other = Cascade("other", Event(0.0, "cy", [0.5, 0.5, 0.5]),
                    [Event(0.5, "di", [0.4, 0.4, 0.4])], 10.0)
    design = _cox_design([c, other], content_store(), np.array([0, 1, 2]))
    # in time order: other's comment at 0.5, then c's comment at ORIGIN + X
    assert design.sizes.tolist() == [1, 2]
    assert design.rows[design.targets[1]].tolist() == POST
    assert design.rows[design.targets[0]].tolist() == [0.5, 0.5, 0.5]


def test_a_comment_is_not_in_its_own_nn_representative():
    c = rounding_cascade()
    assert NNRanker(content_store()).representative(c, ORIGIN + X).tolist() == POST


def test_every_reader_agrees_with_latest_before_at_and_after_each_event():
    # stretched by 288, the 720-minute horizon spans 2.5 drawn minutes
    store, features = content_store(), np.array([0, 2])
    nn = NNRanker(store)
    probed = rounded = 0
    for seed in range(6):
        cascades = stretched(random_corpus(
            n_cascades=10, seed=seed, content_dim=3, window_end=12.0,
            origin_spacing=0.7 + 0.1 * seed), 288.0)
        instants = sorted({c.origin + e.time for c in cascades for e in c.events})
        for at in instants:
            for t in (at, float(np.nextafter(at, np.inf))):
                latest = {}
                for c in cascades:
                    last = latest[c.cascade_id] = c.latest_before(t)
                    assert last is latest_before_scan(c, t), (c.cascade_id, t)
                    assert c.count_before(t) == sum(
                        c.origin + e.time < t for e in c.comments), (c.cascade_id, t)
                    rounded += any(c.origin + e.time == t and t - c.origin > e.time
                                   for e in c.events)
                    cov = cox_covariate(c, t, store, features)
                    want = (np.zeros(2) if last is None
                            else event_content(last, 3)[features])
                    assert cov.tolist() == want.tolist(), (c.cascade_id, t)
                    prefix = [e for e in c.events if c.origin + e.time < t]
                    rep = nn.representative(c, t)
                    want = (np.mean([e.content_features for e in prefix], axis=0)
                            if prefix else np.zeros(3))
                    assert rep.tolist() == want.tolist(), (c.cascade_id, t)

                def recency(c):
                    last = latest[c.cascade_id]
                    return -np.inf if last is None else c.origin + last.time

                served = RecencyRanker().rank("ana", t, cascades)
                assert served == sorted(cascades,
                                        key=lambda c: (-recency(c), c.cascade_id))
                active = candidate_cascades(cascades, t, "active")
                assert active == [
                    c for c in cascades
                    if c.origin < t < c.origin + c.window_end
                    and t - recency(c) <= ACTIVITY_HORIZON
                ]
                probed += 1
    assert probed > 500
    # the probes include comments whose relative minute rounds above their own
    assert rounded > 10
