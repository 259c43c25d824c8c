"""The replay's candidate pool and the lazy recency tie-break.

`evaluate_group` filters each comment's candidates from a pool of the
cascades whose window is open, admitted by origin and dropped once the
window has closed, instead of scanning the whole group.
`order_candidates` reads a cascade's recency only when its score ties
another's.  Both must serve exactly what the full scan and the full
sort key serve.
"""

import numpy as np
import pytest

from hawkesfeed import baselines, rank_eval
from hawkesfeed.baselines import order_candidates
from hawkesfeed.rank_eval import RecencyRanker, candidate_cascades, evaluate_group
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import make_cascade


def replay_half(n_cascades, seed=3):
    """The test half of a busy simulated corpus."""
    config = random_sim_config(n_users=6, seed=seed, n_cascades=n_cascades,
                               origin_spacing=0.5)
    corpus = simulate_corpus(config)
    return corpus[len(corpus) // 2:]


@pytest.mark.parametrize("policy", ["all", "active"])
def test_pool_candidates_equal_a_full_scan(monkeypatch, policy):
    shadows = []
    real_shadow = rank_eval._shadow
    monkeypatch.setattr(rank_eval, "_shadow",
                        lambda c: shadows.append(real_shadow(c)) or shadows[-1])

    class ScanCheckingRanker(RecencyRanker):
        steps = 0

        def rank(self, user, t, candidates):
            everything = sorted(shadows, key=lambda c: (c.origin, c.cascade_id))
            assert candidates == candidate_cascades(everything, t, policy)
            self.steps += 1
            return super().rank(user, t, candidates)

    test = replay_half(200)
    # windows close while the stream still runs
    last = max(c.origin + c.comments[-1].time for c in test if c.comments)
    assert sum(c.origin + c.window_end < last for c in test) > len(test) // 2
    ranker = ScanCheckingRanker()
    metrics = evaluate_group(ranker, test, policy=policy)
    assert ranker.steps == metrics.n_comments > 1000
    assert len(shadows) == len(test)


def visits_per_comment(monkeypatch, n_cascades, policy):
    """Cascades the replay looks at per comment, keeping its pool and, under
    the "active" policy, filtering the comment's candidates from it; and
    the group size.  Under "all" the pool is served as it is."""
    visited = []
    real = rank_eval.candidate_cascades

    def counting(cascades, *args):
        visited.append(len(cascades))
        return real(cascades, *args)

    monkeypatch.setattr(rank_eval, "candidate_cascades", counting)
    test = replay_half(n_cascades)
    metrics = evaluate_group(RecencyRanker(), test, policy=policy)
    if policy == "active":
        assert len(visited) > metrics.n_comments  # each comment, and the pool
    else:
        assert len(visited) < metrics.n_comments  # the pool alone
    return sum(visited) / metrics.n_comments, len(test)


def test_replay_work_per_comment_does_not_grow_with_the_corpus(monkeypatch):
    # the same origin spacing and window, so the same density of open cascades
    for policy in ("all", "active"):
        small, n_small = visits_per_comment(monkeypatch, 100, policy)
        large, n_large = visits_per_comment(monkeypatch, 400, policy)
        assert n_large == 4 * n_small
        assert small < n_small / 2  # a scan would visit all of them
        assert large < 1.25 * small


def tied_corpus(seed):
    """Cascades whose newest comments often fall at the same wall minute."""
    rng = np.random.default_rng(seed)
    cascades = []
    for i in range(40):
        origin = float(rng.integers(0, 4))
        last = float(rng.integers(5, 9))
        cascades.append(make_cascade([(last - origin, "bo")], cascade_id=f"k{i:02d}",
                                     origin=origin, seed=i))
    return cascades


def test_lazy_tie_break_gives_the_full_key_order(monkeypatch):
    calls = []
    real = baselines._recency_key
    monkeypatch.setattr(baselines, "_recency_key",
                        lambda c, t: calls.append(c) or real(c, t))
    for seed in range(20):
        cascades = tied_corpus(seed)
        rng = np.random.default_rng(100 + seed)
        scores = rng.choice([0.0, 0.25, 1.5, 2.0], size=len(cascades)).tolist()
        for t in (4.5, 7.5, 20.0):  # before some newest comments, and after all
            want = sorted(zip(cascades, scores), key=lambda cs: (
                -cs[1], -real(cs[0], t), cs[0].cascade_id))
            recency = {real(c, t) for c in cascades}
            assert len(recency) < len(cascades)  # recency ties too
            calls.clear()
            assert order_candidates(cascades, scores, t) == [c for c, _ in want]
            assert calls  # the tied scores read their recency


def test_distinct_scores_read_no_recency(monkeypatch):
    calls = []
    monkeypatch.setattr(baselines, "_recency_key",
                        lambda c, t: calls.append(c) or 0.0)
    cascades = tied_corpus(0)
    scores = np.random.default_rng(1).permutation(len(cascades)).astype(float)
    served = order_candidates(cascades, scores.tolist(), 9.0)
    assert served == [cascades[i] for i in np.argsort(-scores)]
    assert calls == []
    # with one tie, only the two tied cascades read it
    scores[3] = scores[7]
    order_candidates(cascades, scores.tolist(), 9.0)
    assert sorted(c.cascade_id for c in calls) == ["k03", "k07"]
