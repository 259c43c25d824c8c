"""The replay walks the corpus's own cascades, whole.

`walk_minutes` hands every ranker the caller's cascades, later comments
included, and a ranker reads what one did before t only through
`Cascade.count_before(t)` or `Cascade.latest_before(t)`.  The replay once
grew a post-only copy of each cascade a comment at a time; that loop is
kept in conftest.py (`replay_copies`), and every ranker's trace must equal
its trace there.  Since nothing is copied or grown, a long cascade costs
time linear in its comments, and a repeated cascade id, which the copies
silently merged, is refused.
"""

import copy
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed.baselines import _cox_design, fit_cox
from hawkesfeed.core import Cascade, Event, corpus_participants
from hawkesfeed.errors import ConfigError
from hawkesfeed.features import annotate_corpus, build_feature_store, demo_lexicon
from hawkesfeed.fit import FitConfig
from hawkesfeed.rank_eval import RecencyRanker, evaluate, evaluate_group, make_ranker

from conftest import (
    WORDS,
    direct_store,
    make_cascade,
    replay_copies,
    text_corpus,
)

RANKERS = ("RCHR", "NN", "COX-LNG", "HWK", "HWK-ALL")


@pytest.fixture(scope="module")
def fitted():
    """Each ranker built by `make_ranker` on one text training corpus, the
    store it was annotated from and the training users."""
    train, _ = text_corpus(7)
    store = build_feature_store(train, lexicon=demo_lexicon())
    train = annotate_corpus(train, store)
    config = FitConfig(post_decay_rate=0.1, comment_decay_rate=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a capped fit still builds its ranker
        rankers = {name: make_ranker(name, train, store, config) for name in RANKERS}
    return rankers, store, corpus_participants(train)


GRID = (0.2, 0.5, 1.0, 1.25, 1.9336138302337527, 2.3, 2.9, 3.7, 4.4)
ORIGINS = (0.0, 0.1, 0.7, 2.9, 3.0, 1000.1)


@st.composite
def corpora(draw):
    """Up to six five-minute cascades with comments on a shared grid of
    relative minutes.  The first two share an origin and a comment minute,
    and at that comment `(origin + time) - origin != time`."""
    shared = draw(st.sampled_from(ORIGINS[2:]))
    first = draw(st.sampled_from([x for x in GRID if (shared + x) - shared != x]))
    n = draw(st.integers(2, 6))
    origins = [shared, shared] + draw(st.lists(st.sampled_from(ORIGINS),
                                               min_size=n - 2, max_size=n - 2))
    plans = []
    for i, origin in enumerate(origins):
        times = set(draw(st.lists(st.sampled_from(GRID), min_size=0 if i > 1 else 1,
                                  max_size=6)))
        plans.append((origin, sorted(times | {first} if i < 2 else times)))
    return plans, draw(st.integers(0, 2 ** 16))


def build(plans, seed, users):
    """Cascades with seeded publishers and lexicon text, content left empty."""
    rng = np.random.default_rng(seed)

    def event(t):
        text = " ".join(rng.choice(WORDS, size=int(rng.integers(3, 10))))
        return Event(t, users[int(rng.integers(len(users)))], np.zeros(0), text)

    return [Cascade(f"h{i}", event(0.0), [event(t) for t in times], 5.0, origin=origin)
            for i, (origin, times) in enumerate(plans)]


@settings(max_examples=25, deadline=None)
@given(drawn=corpora())
def test_traces_equal_the_replay_on_growing_copies(fitted, drawn):
    rankers, store, users = fitted
    test = annotate_corpus(build(*drawn, users), store)
    minutes = [c.origin + e.time for c in test for e in c.comments]
    assert len(set(minutes)) < len(minutes)  # comments share a minute
    for policy in ("all", "active"):
        for name in RANKERS:
            got = evaluate_group(copy.deepcopy(rankers[name]), test, policy=policy)
            assert got.rank_trace == replay_copies(copy.deepcopy(rankers[name]), test,
                                                   policy), (name, policy)


def test_a_repeated_cascade_id_is_refused():
    a = make_cascade([(1.0, "bo"), (3.0, "cy")], cascade_id="A")
    again = make_cascade([(2.0, "bo")], cascade_id="A", origin=0.5)
    b = make_cascade([(1.5, "cy")], cascade_id="B", origin=0.25)
    store = direct_store()
    with pytest.raises(ConfigError, match="'A' appears twice"):
        evaluate_group(RecencyRanker(), [a, again, b])
    with pytest.raises(ConfigError, match="'A' appears twice"):
        evaluate("RCHR", [a, b], [a, again, b])
    with pytest.raises(ConfigError, match="'A' appears twice"):
        fit_cox([a, again, b], store)
    assert len(evaluate_group(RecencyRanker(), [a, b]).rank_trace) == 3


def long_cascade(n):
    rng = np.random.default_rng(n)
    return make_cascade([(0.01 * (i + 1), "bo", rng.uniform(size=2)) for i in range(n)],
                        window_end=0.01 * (n + 2), origin=3.7)


def seconds_per_comment(run, cascade):
    """Best of five runs, per comment of the cascade."""
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        run(cascade)
        best = min(best, time.perf_counter() - start)
    return best / len(cascade.comments)


def test_a_long_cascade_costs_time_linear_in_its_comments():
    # a copy grown a comment at a time made both about twice as slow per
    # comment at 5,000 comments as at 500
    store = direct_store()
    runs = {
        "RCHR replay": lambda c: evaluate_group(RecencyRanker(), [c]),
        "COX design": lambda c: _cox_design([c], store, np.arange(2)),
    }
    short, long = long_cascade(500), long_cascade(5000)
    for name, run in runs.items():
        assert seconds_per_comment(run, long) < 1.5 * seconds_per_comment(run, short), name
