"""RCHR, NN and COX serve exactly what the functions they once forwarded to
served, and NN's profiles are exactly the old profiles.

The oracles (`rank_rchr`, `rank_nn`, `rank_cox`, `comment_profiles`,
`update_profile`, `cascade_representative`) are kept in conftest.  Corpora
sit on whole minutes and draw contents from {0, 0.5, 1}, so recency,
profile distances and linear scores tie exactly and the tie-break is
exercised.  Some events carry no content: the store's content map fills
most of them, through `annotate_corpus` as `evaluate` does, and the rest
read zeros.
"""

import numpy as np

from hawkesfeed.baselines import CoxParams, cox_covariate
from hawkesfeed.core import comment_stream, event_content
from hawkesfeed.features import FeatureStore, annotate_corpus, content_key
from hawkesfeed.rank_eval import CoxRanker, NNRanker, RecencyRanker, evaluate_group

from conftest import (
    USERS,
    cascade_representative,
    comment_profiles,
    make_cascade,
    rank_cox,
    rank_nn,
    rank_rchr,
    recency_scan,
    strip_some_content,
    update_profile,
)

def grid(rng):
    return rng.integers(0, 3, size=2) / 2.0


def tied_corpus(rng, prefix, users, n=8):
    """Whole-minute times and origins, contents on a coarse grid."""
    cascades = []
    for i in range(n):
        times = sorted({float(x) for x in rng.integers(1, 15, size=rng.integers(0, 6))})
        rows = [(t, users[int(rng.integers(len(users)))], grid(rng)) for t in times]
        cascades.append(make_cascade(rows, cascade_id=f"{prefix}{i}",
                                     poster=users[i % len(users)], window_end=20.0,
                                     origin=float(rng.integers(0, 8)),
                                     post_content=grid(rng)))
    return strip_some_content(cascades, int(rng.integers(1 << 30)))


def has_ties(scores):
    return len(set(scores)) < len(scores)


class Checked:
    """Serves `ranker`'s order after requiring it to be the oracle's; counts
    the ranks whose oracle scores tie."""

    def __init__(self, ranker, oracle, scores):
        self.ranker, self.oracle, self.scores = ranker, oracle, scores
        self.ranks = self.tied = 0

    def rank(self, user, t, candidates):
        served = self.ranker.rank(user, t, candidates)
        assert served == self.oracle(user, t, candidates)  # the same objects
        self.ranks += 1
        self.tied += has_ties(self.scores(user, t, candidates))
        return served

    def absorb(self, cascade, event, t):
        self.ranker.absorb(cascade, event, t)


def assert_same_profiles(profiles, oracle):
    assert profiles.keys() == oracle.keys()
    for user, profile in oracle.items():
        assert np.array_equal(profiles[user], profile), user


def replay_against_oracles(seed):
    """Replays one random group through RCHR, COX and NN beside their
    oracles; returns the tied ranks of each and NN's fallback count."""
    rng = np.random.default_rng(seed)
    train = tied_corpus(rng, "tr", USERS)
    # "ed" never comments in training, so NN ranks by recency for that user
    test = tied_corpus(rng, "te", [*USERS, "ed"])
    if not any(c.comments for c in test):
        test[0] = make_cascade([(1.0, "ed")], cascade_id="te0", window_end=20.0)
    content = {content_key(c.cascade_id, idx): grid(rng)
               for c in train + test for idx, e in enumerate(c.events)
               if not e.content_features.size and rng.uniform() < 0.7}
    store = FeatureStore(pair_names=[], content_names=["c0", "c1"],
                         content=content, normalized=True)
    # the replays serve and absorb the events' own vectors
    test = annotate_corpus(test, store)
    recency_scores = lambda u, t, cs: [recency_scan(c, t) for c in cs]

    recency = Checked(RecencyRanker(), lambda u, t, cs: rank_rchr(cs, t),
                      recency_scores)
    evaluate_group(recency, test)

    params = CoxParams(weights=rng.integers(-2, 3, size=2).astype(float),
                       feature_names=["c0", "c1"], feature_indices=np.array([0, 1]))
    cox = Checked(CoxRanker(params, store),
                  lambda u, t, cs: rank_cox(params, cs, t, store),
                  lambda u, t, cs: [float(params.weights @ cox_covariate(
                      c, t, store, params.feature_indices)) for c in cs])
    evaluate_group(cox, test)

    nn = NNRanker(store, train)
    profiles = comment_profiles(annotate_corpus(train, store), store)
    assert_same_profiles(nn.profiles, profiles)

    def nn_scores(user, t, cascades):
        profile = profiles.get(user)
        if profile is None:
            return recency_scores(user, t, cascades)
        return [-float(np.linalg.norm(profile - cascade_representative(c, t, store)))
                for c in cascades]

    class CheckedNN(Checked):
        fallbacks = 0

        def rank(self, user, t, candidates):
            self.fallbacks += user not in profiles
            return super().rank(user, t, candidates)

        def absorb(self, cascade, event, t):
            super().absorb(cascade, event, t)
            v = event_content(event, store.content_dim)
            profiles[event.publisher] = update_profile(profiles.get(event.publisher), v)
            assert_same_profiles(nn.profiles, profiles)

    checked = CheckedNN(
        nn, lambda u, t, cs: rank_nn(u, cs, t, store, profiles.get(u)), nn_scores)
    evaluate_group(checked, test)

    for ranker in (recency, cox, checked):
        assert ranker.ranks == sum(len(c.comments) for c in test)
    return recency.tied, cox.tied, checked.tied, checked.fallbacks


def test_reference_rankers_serve_the_oracle_orders_and_profiles():
    counts = np.array([replay_against_oracles(seed) for seed in range(12)])
    # the corpora reach every ranker's tie-break and NN's fallback
    assert (counts.sum(axis=0) > 0).all(), counts.sum(axis=0)


def test_comment_stream_orders_by_time_then_id_then_index():
    late = make_cascade([(3.0, "bo"), (4.0, "cy")], cascade_id="b", origin=2.0)
    early = make_cascade([(5.0, "di"), (6.0, "bo")], cascade_id="a", origin=0.0)
    stream = comment_stream([late, early])
    assert [(t, c.cascade_id, i) for t, c, i, _ in stream] == [
        (5.0, "a", 0), (5.0, "b", 0), (6.0, "a", 1), (6.0, "b", 1)]
    assert [e for *_, e in stream] == [early.comments[0], late.comments[0],
                                       early.comments[1], late.comments[1]]
