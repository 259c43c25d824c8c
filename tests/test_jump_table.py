"""`JumpTable` against the jumps recomputed from scratch on every call.

The table keeps each (user, publisher) pair part and adds one content
score per event; the oracle in conftest.py takes both dot products every
time.  Intensities must be equal as floats, not close, and the served rank
traces identical, because a moved ulp can flip a near-tie.  The streaming
ranker moves its states in place while the oracle replaces them with
decayed copies; after every rank and absorb the two hold equal states.
"""

from collections import Counter

import numpy as np
import pytest

from hawkesfeed import core
from hawkesfeed.baselines import fit_hwk_em, order_candidates
from hawkesfeed.core import JumpTable, intensity
from hawkesfeed.rank_eval import (
    IntensityRanker,
    PairwiseRanker,
    candidate_cascades,
    evaluate_group,
    prioritize,
)
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import (
    USERS,
    comment_influence,
    composed_store,
    decayed_copy,
    direct_store,
    make_params,
    query_times,
    random_corpus,
    scratch_state_at,
    scratch_state_at_minute,
    strip_some_content,
)


class OracleRanker:
    """`IntensityRanker` as it was before the table, and before it moved its
    states in place: every jump recomputed, every state replaced by a
    decayed copy made without `IntensityState.advance`."""

    def __init__(self, params, store):
        self.params = params
        self.store = store
        self.states = {}

    def rank(self, user, t, candidates):
        self.states = {
            c.cascade_id: self.states.get(c.cascade_id, {}) for c in candidates
        }
        scores = []
        for c in candidates:
            users = self.states[c.cascade_id]
            s = users.get(user)
            if s is None:
                s = scratch_state_at_minute(user, c, t, self.params, self.store)
            else:
                s = decayed_copy(s, t, self.params)
            users[user] = s
            scores.append(s.intensity)
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        users = self.states.get(cascade.cascade_id, {})
        for user, s in users.items():
            s = decayed_copy(s, t, self.params)
            s.comment_term += comment_influence(user, event, self.params, self.store)
            users[user] = s


class Lockstep:
    """Drives a ranker and the oracle through one stream and checks the
    served order and every live state after each call."""

    def __init__(self, ranker, oracle):
        self.ranker = ranker
        self.oracle = oracle
        self.largest = 0

    def rank(self, user, t, candidates):
        served = self.ranker.rank(user, t, candidates)
        assert served == self.oracle.rank(user, t, candidates)
        self._compare()
        return served

    def absorb(self, cascade, event, t):
        self.ranker.absorb(cascade, event, t)
        self.oracle.absorb(cascade, event, t)
        self._compare()

    def _compare(self):
        # IntensityState compares every field, the two terms as floats
        assert self.ranker.states == self.oracle.states
        self.largest = max(self.largest,
                           sum(map(len, self.ranker.states.values())))


def model_cases():
    for seed in (1, 2, 3):
        corpus = strip_some_content(
            random_corpus(n_cascades=6, seed=seed, mean_comments=8), seed)
        for content_dim in (0, 2):
            yield corpus, make_params(3, content_dim, seed=seed), \
                direct_store(3, content_dim, seed=seed)
            store = composed_store(corpus, content_dim)
            yield corpus, make_params(store.pair_dim, content_dim, seed=seed), store


def test_layouts_cover_both_stores_and_content():
    cases = list(model_cases())
    assert {bool(s.pairs) for _, _, s in cases} == {True, False}
    assert {p.content_dim for _, p, _ in cases} == {0, 2}
    events = [e for c in cases[0][0] for e in c.events]
    assert {e.content_features.size for e in events} == {0, 2}


def test_scratch_intensities_equal_the_oracle():
    for corpus, params, store in model_cases():
        shared = JumpTable(params, store)  # one table across calls, as a query does
        for c in corpus:
            assert c.origin == 0.0  # the global minute is the relative one
            for user in USERS:
                for t in query_times(c):
                    want = scratch_state_at(user, c, t, params, store)
                    got = shared.states_at(user, [c], t)[0]
                    assert got.post_term == want.post_term
                    assert got.comment_term == want.comment_term
                    assert intensity(user, c, t, params, store) == want.intensity


def test_streaming_absorb_equals_the_oracle():
    for corpus, params, store in model_cases():
        jumps = JumpTable(params, store)
        for c in corpus:
            for user in USERS:
                s = jumps.states_at(user, [c], 0.0)[0]
                want = scratch_state_at(user, c, 0.0, params, store)
                for e in c.comments:
                    s = jumps.absorb(s, e, e.time)
                    want = decayed_copy(want, e.time, params)
                    want.comment_term += comment_influence(user, e, params, store)
                    assert (s.post_term, s.comment_term) == (
                        want.post_term, want.comment_term)


def test_pairwise_model_jumps_equal_the_oracle():
    # HWK's feature model: two pair coordinates, no content whatever the
    # events carry
    corpus = random_corpus(n_cascades=10, seed=8, mean_comments=6)
    em = fit_hwk_em(corpus, post_decay_rate=0.05, comment_decay_rate=0.8)
    params, store = em.params.as_feature_model()
    jumps = JumpTable(params, store)
    for c in corpus:
        for user in USERS:
            for t in query_times(c):
                got = jumps.states_at(user, [c], t)[0]
                want = scratch_state_at(user, c, t, params, store)
                assert (got.post_term, got.comment_term) == (
                    want.post_term, want.comment_term)


def replay_corpus(n_users, n_cascades):
    """Generator config, training half and test half of a busy corpus."""
    config = random_sim_config(n_users=n_users, seed=3, n_cascades=n_cascades,
                               origin_spacing=0.5)
    corpus = simulate_corpus(config)
    return config, corpus[:len(corpus) // 2], corpus[len(corpus) // 2:]


@pytest.fixture(scope="module", params=[(12, 200), (6, 400)], ids=["12x200", "6x400"])
def replay(request):
    """A replay corpus larger than the benchmark's, with HWK fitted on its
    training half."""
    config, train, test = replay_corpus(*request.param)
    em = fit_hwk_em(train, post_decay_rate=config.params.post_decay_rate,
                    comment_decay_rate=config.params.comment_decay_rate)
    return config, em.params, test


@pytest.mark.parametrize("policy", ["all", "active"])
def test_feature_model_rank_traces_equal_the_oracle(replay, policy):
    config, _, test = replay
    lock = Lockstep(IntensityRanker(config.params, config.store),
                    OracleRanker(config.params, config.store))
    assert evaluate_group(lock, test, policy=policy).n_comments > 1000
    assert lock.largest > len(config.users)  # several cascades' states at once


@pytest.mark.parametrize("policy", ["all", "active"])
def test_pairwise_rank_traces_equal_the_oracle(replay, policy):
    _, hwk, test = replay
    lock = Lockstep(PairwiseRanker(hwk), OracleRanker(*hwk.as_feature_model()))
    assert evaluate_group(lock, test, policy=policy).n_comments > 1000


def test_scratch_queries_equal_the_oracle(replay):
    config, _, test = replay
    rng = np.random.default_rng(4)
    lo, hi = test[0].origin, test[-1].origin + test[-1].window_end
    for user, t in zip(rng.choice(config.users, 40), rng.uniform(lo, hi, 40)):
        candidates = candidate_cascades(test, t)
        scores = [scratch_state_at(user, c, t - c.origin, config.params,
                                   config.store).intensity for c in candidates]
        assert prioritize(user, t, candidates, {}, config.params, config.store) \
            == order_candidates(candidates, scores, t)


# ------------------------------------------------------------------- counting


class CountingStore:
    """Forwards `pair_vector` and counts its calls per (user, publisher)."""

    def __init__(self, store):
        self.store = store
        self.calls = Counter()

    def pair_vector(self, user, publisher):
        self.calls[user, publisher] += 1
        return self.store.pair_vector(user, publisher)


def test_replay_reads_each_pair_once_and_scores_each_comment_once(monkeypatch):
    config, _, test = replay_corpus(6, 60)
    scored = []
    real = core.event_content
    monkeypatch.setattr(core, "event_content",
                        lambda event, dim: (scored.append(event), real(event, dim))[1])
    store = CountingStore(config.store)
    absorbs = []

    class CountingRanker(IntensityRanker):
        def absorb(self, cascade, event, t):
            live, before = len(self.states.get(cascade.cascade_id, {})), len(scored)
            super().absorb(cascade, event, t)
            absorbs.append((live, scored[before:]))

    evaluate_group(CountingRanker(config.params, store), test)
    assert max(store.calls.values()) == 1
    assert max(live for live, _ in absorbs) > 1  # a comment reaches several states
    for live, calls in absorbs:
        assert len(calls) == (1 if live else 0)
