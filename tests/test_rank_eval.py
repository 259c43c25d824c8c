import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hawkesfeed.baselines import fit_hwk_em, order_candidates
from hawkesfeed.core import (
    CANDIDATE_POLICIES,
    IntensityState,
    candidate_cascades,
    intensity,
)
from hawkesfeed.errors import ConfigError
from hawkesfeed.rank_eval import (
    IntensityRanker,
    NNRanker,
    PairwiseRanker,
    RecencyRanker,
    evaluate,
    evaluate_group,
    make_ranker,
    mean_activity,
    prioritize,
)
from hawkesfeed.fit import FitConfig
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import (
    direct_store,
    hwk_intensity_at_minute,
    make_cascade,
    make_params,
    scratch_state_at_minute,
    stretched,
    text_corpus,
)


class IdentityRanker:
    """Serves candidates exactly as handed (origin, id order)."""

    def rank(self, user, t, candidates):
        return list(candidates)

    def absorb(self, cascade, event, t):
        pass


class ReverseRanker:
    def rank(self, user, t, candidates):
        return list(reversed(candidates))

    def absorb(self, cascade, event, t):
        pass


class RecordingRanker(IdentityRanker):
    def __init__(self):
        self.seen = []

    def rank(self, user, t, candidates):
        self.seen.append((t, {c.cascade_id: c.count_before(t) for c in candidates}))
        return list(candidates)


def ids(cascades):
    return [c.cascade_id for c in cascades]


# ----------------------------------------------------------------- prioritize


def test_prioritize_orders_by_scratch_intensity():
    store = direct_store()
    params = make_params()
    a = make_cascade([(1.0, "bo"), (2.0, "cy")], cascade_id="A", origin=0.0)
    b = make_cascade([], cascade_id="B", origin=1.0)
    lam = {
        c.cascade_id: intensity("di", c, 4.0 - c.origin, params, store)
        for c in (a, b)
    }
    expected = sorted(["A", "B"], key=lambda k: -lam[k])
    assert ids(prioritize("di", 4.0, [a, b], {}, params, store)) == expected


def test_prioritize_prefers_supplied_states():
    store = direct_store()
    params = make_params()
    a = make_cascade([], cascade_id="A", origin=0.0)
    b = make_cascade([], cascade_id="B", origin=0.0)
    boosted = {"B": IntensityState("di", "B", 100.0, 0.0, 4.0)}
    assert ids(prioritize("di", 4.0, [a, b], boosted, params, store))[0] == "B"


def test_prioritize_ties_break_by_recency_then_id():
    store = direct_store()
    params = make_params(scale=0.0)  # all intensities zero
    a = make_cascade([(1.0, "bo")], cascade_id="A", origin=0.0)
    b = make_cascade([(2.0, "cy")], cascade_id="B", origin=0.0)
    c = make_cascade([], cascade_id="C", origin=0.0)
    assert ids(prioritize("di", 5.0, [a, c, b], {}, params, store)) == ["B", "A", "C"]


# ----------------------------------------------------------------- candidates


def test_candidate_window_bounds_are_strict():
    a = make_cascade([], cascade_id="A", origin=10.0, window_end=30.0)
    assert candidate_cascades([a], 10.0) == []
    assert ids(candidate_cascades([a], 10.5)) == ["A"]
    assert ids(candidate_cascades([a], 39.9)) == ["A"]
    assert candidate_cascades([a], 40.0) == []


def test_active_policy_requires_a_fresh_event():
    # stretched by 144, the 720-minute horizon spans 5 drawn minutes
    a = make_cascade([(1.0, "bo")], cascade_id="A", origin=0.0, window_end=30.0)
    b = make_cascade([(24.0, "cy")], cascade_id="B", origin=0.0, window_end=30.0)
    both = stretched([a, b], 144.0)
    assert ids(candidate_cascades(both, 25.0 * 144.0, "all")) == ["A", "B"]
    assert ids(candidate_cascades(both, 25.0 * 144.0, "active")) == ["B"]


def test_unknown_policy_is_rejected():
    with pytest.raises(ConfigError):
        candidate_cascades([], 1.0, policy="bogus")
    assert CANDIDATE_POLICIES == ("all", "active")


# -------------------------------------------------------------- mean activity


# Windows of 2,000 minutes outlast the 720-minute horizon, so these
# cascades stay active for the whole horizon after each event.


def test_mean_activity_hand_values():
    a = make_cascade([], cascade_id="A", origin=0.0, window_end=2000.0)
    assert mean_activity([a], (0.0, 720.0)) == pytest.approx(1.0)
    assert mean_activity([a], (0.0, 1440.0)) == pytest.approx(0.5)


def test_mean_activity_merges_overlapping_spans():
    # post at 0 and comment at 10 overlap; the union is [0, 730)
    a = make_cascade([(10.0, "bo")], cascade_id="A", origin=0.0, window_end=2000.0)
    assert mean_activity([a], (0.0, 730.0)) == pytest.approx(1.0)
    assert mean_activity([a], (0.0, 1460.0)) == pytest.approx(0.5)


def test_mean_activity_sums_cascades():
    a = make_cascade([], cascade_id="A", origin=0.0, window_end=2000.0)
    b = make_cascade([], cascade_id="B", origin=360.0, window_end=2000.0)
    expected = (720.0 + 720.0) / 1080.0
    assert mean_activity([a, b], (0.0, 1080.0)) == pytest.approx(expected)


def test_mean_activity_ends_when_the_window_closes():
    # the window closes at minute 35, long before the comment at minute 15
    # is 720 old: active on [5, 35), as the "active" candidates are
    a = make_cascade([(10.0, "bo")], cascade_id="A", origin=5.0, window_end=30.0)
    assert mean_activity([a], (0.0, 720.0)) == pytest.approx(30.0 / 720.0)
    # stretched by 180, a 4-minute horizon: [5, 9) and [15, 19), both
    # inside the window
    assert mean_activity(stretched([a], 180.0), (0.0, 40.0 * 180.0)) \
        == pytest.approx(0.2)
    assert ids(candidate_cascades([a], 34.9, "active")) == ["A"]
    assert candidate_cascades([a], 35.0, "active") == []


def test_mean_activity_matches_discretization(sim_setup):
    # [DERIVED] midpoint Riemann sum over a fine grid of the "active"
    # candidate count
    # stretched by 120, the 720-minute horizon spans 6 drawn minutes, and
    # by 720 one, shorter than some gaps between comments; the grid is
    # stretched with it
    _, corpus = sim_setup
    for k in (120.0, 720.0):
        cascades = stretched(corpus[:12], k)
        window = (0.0, 40.0 * k)
        exact = mean_activity(cascades, window)
        grid = np.arange(window[0] + 0.005 * k, window[1], 0.01 * k)
        count = [len(candidate_cascades(cascades, s, "active")) for s in grid]
        # some windows close inside the evaluation window
        assert any(c.origin + c.window_end < window[1] for c in cascades)
        assert abs(float(np.mean(count)) - exact) < 0.01
        if k == 720.0:  # the horizon, not only the window, ends some activity
            open_count = [len(candidate_cascades(cascades, s)) for s in grid]
            assert exact < float(np.mean(open_count)) - 0.01


def test_mean_activity_rejects_empty_window():
    a = make_cascade([], cascade_id="A")
    with pytest.raises(ConfigError):
        mean_activity([a], (5.0, 5.0))


# -------------------------------------------------------------- group replay


def replay_corpus():
    a = make_cascade([(2.0, "bo"), (4.0, "cy")], cascade_id="A", origin=0.0)
    b = make_cascade([(2.0, "di")], cascade_id="B", origin=1.0)
    return [a, b]


def test_evaluate_group_scores_identity_ranker():
    # candidates come ordered by (origin, id), so [A, B] at every comment
    metrics = evaluate_group(IdentityRanker(), replay_corpus())
    assert metrics.rank_trace == [0, 1, 0]
    assert metrics.ave_rank == pytest.approx(1.0 / 3.0)
    assert metrics.n_comments == 3
    expected_activity = mean_activity(replay_corpus(), (0.0, 4.0))
    assert metrics.mean_activity == pytest.approx(expected_activity)
    assert metrics.nave_rank == pytest.approx(metrics.ave_rank / expected_activity)


def test_evaluate_group_scores_reverse_ranker():
    metrics = evaluate_group(ReverseRanker(), replay_corpus())
    assert metrics.rank_trace == [1, 0, 1]
    assert metrics.ave_rank == pytest.approx(2.0 / 3.0)


def test_equal_time_comments_rank_before_any_absorb():
    a = make_cascade([(5.0, "bo")], cascade_id="A", origin=0.0)
    b = make_cascade([(3.0, "cy")], cascade_id="B", origin=2.0)
    ranker = RecordingRanker()
    evaluate_group(ranker, [a, b])
    assert len(ranker.seen) == 2
    for t, sizes in ranker.seen:
        assert t == 5.0
        assert sizes == {"A": 0, "B": 0}


def test_explicit_window_overrides_the_default():
    metrics = evaluate_group(IdentityRanker(), replay_corpus(), window=(0.0, 8.0))
    assert metrics.mean_activity == pytest.approx(
        mean_activity(replay_corpus(), (0.0, 8.0))
    )


def test_group_without_comments_is_an_error():
    quiet = [make_cascade([], cascade_id="A")]
    with pytest.raises(ConfigError):
        evaluate_group(IdentityRanker(), quiet)


def test_target_outside_candidates_is_an_error():
    # stretched by 144, the 720-minute horizon spans 5 drawn minutes
    a = make_cascade([(1.0, "bo"), (20.0, "cy")], cascade_id="A", window_end=30.0)
    with pytest.raises(ConfigError, match="fell out of the candidate set"):
        evaluate_group(IdentityRanker(), stretched([a], 144.0), policy="active")


def test_replay_does_not_mutate_the_input(sim_setup):
    _, corpus = sim_setup
    cascades = corpus[:6]
    before = [len(c.comments) for c in cascades]
    evaluate_group(RecencyRanker(), cascades)
    assert [len(c.comments) for c in cascades] == before


# ---------------------------------------------------------- streaming states


class ScratchRanker:
    """Scores every query from the cascade history; holds no state."""

    def __init__(self, params, store):
        self.params = params
        self.store = store

    def rank(self, user, t, candidates):
        return prioritize(user, t, candidates, {}, self.params, self.store)

    def absorb(self, cascade, event, t):
        pass


class CountedRanker:
    """Wraps an IntensityRanker and records what it was asked to hold."""

    def __init__(self, ranker):
        self.ranker = ranker
        self.cascades = {}
        self.ranked = set()
        self.peak_states = 0
        self.peak_candidates = 0

    def rank(self, user, t, candidates):
        # the harness hands out the cascades themselves
        self.cascades.update((c.cascade_id, c) for c in candidates)
        self.ranked.update((user, c.cascade_id) for c in candidates)
        self.peak_candidates = max(self.peak_candidates, len(candidates))
        served = self.ranker.rank(user, t, candidates)
        self._count()
        return served

    def absorb(self, cascade, event, t):
        self.ranker.absorb(cascade, event, t)
        self._count()

    def _count(self):
        live = sum(len(users) for users in self.ranker.states.values())
        self.peak_states = max(self.peak_states, live)


class ProbedRanker(CountedRanker):
    """After every absorb, checks each live state against a scratch
    intensity on what its cascade did up to the state's last touch."""

    def __init__(self, ranker):
        super().__init__(ranker)
        self.probed = set()

    def absorb(self, cascade, event, t):
        super().absorb(cascade, event, t)
        params, store = self.ranker.params, self.ranker.store
        for cid, users in self.ranker.states.items():
            c = self.cascades[cid]
            for user, state in users.items():
                assert (state.user, state.cascade_id) == (user, cid)
                # probe strictly after the last touch so the state's jump at
                # its own timestamp and the strict-left intensity see the
                # same event set
                touch = state.last_update_time
                probed = replace(state)  # the ranker's own state stays put
                probed.advance(touch + 0.25, params)
                seen = replace(c, comments=c.comments[
                    :c.count_before(math.nextafter(touch, math.inf))])
                expected = scratch_state_at_minute(user, seen, touch + 0.25,
                                                   params, store).intensity
                assert probed.intensity == pytest.approx(expected, rel=1e-9, abs=1e-12)
                self.probed.add((user, cid))


def test_streaming_and_scratch_ranker_traces_agree(sim_setup):
    config, corpus = sim_setup
    cascades = [c for c in corpus[:12] if c.comments]
    streaming = evaluate_group(
        IntensityRanker(config.params, config.store), cascades
    )
    scratch = evaluate_group(ScratchRanker(config.params, config.store), cascades)
    assert streaming.rank_trace == scratch.rank_trace
    assert streaming.ave_rank == scratch.ave_rank


def test_streaming_states_track_scratch_intensities(sim_setup):
    config, corpus = sim_setup
    cascades = [c for c in corpus[:8] if c.comments]
    ranker = ProbedRanker(IntensityRanker(config.params, config.store))
    evaluate_group(ranker, cascades)
    # every state the ranker ever held was probed while it was live
    assert ranker.probed == ranker.ranked


def test_ranker_states_stay_bounded_on_a_long_stream():
    config = random_sim_config(n_users=6, seed=1, n_cascades=100, horizon=10,
                               origin_spacing=2)
    cascades = [c for c in simulate_corpus(config) if c.comments]
    ranker = CountedRanker(IntensityRanker(config.params, config.store))
    streamed = evaluate_group(ranker, cascades)
    scratch = evaluate_group(ScratchRanker(config.params, config.store), cascades)
    assert streamed.rank_trace == scratch.rank_trace
    assert ranker.peak_states <= len(config.users) * ranker.peak_candidates


class ScratchPairwiseRanker:
    """The HWK baseline's former scratch ranker: `hwk_intensity` for every
    candidate at every query, on the global minute; holds no state."""

    def __init__(self, params):
        self.params = params

    def rank(self, user, t, candidates):
        scores = [hwk_intensity_at_minute(self.params, user, c, t) for c in candidates]
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        pass


@pytest.mark.parametrize("policy", CANDIDATE_POLICIES)
@pytest.mark.parametrize("n_cascades, horizon, spacing", [(40, 3.0, 0.5),
                                                          (60, 10.0, 2.0)])
def test_pairwise_ranker_matches_the_scratch_hwk_trace(policy, n_cascades,
                                                       horizon, spacing):
    # short three-minute cascades, and many overlapping ten-minute ones;
    # simulated events carry content, which the content-free model ignores
    config = random_sim_config(n_users=6, seed=5, n_cascades=n_cascades,
                               horizon=horizon, origin_spacing=spacing)
    corpus = simulate_corpus(config)
    split = int(0.7 * len(corpus))
    params = fit_hwk_em(corpus[:split],
                        post_decay_rate=config.params.post_decay_rate,
                        comment_decay_rate=config.params.comment_decay_rate).params
    test = [c for c in corpus[split:] if c.comments]
    streamed = evaluate_group(PairwiseRanker(params), test, policy=policy)
    scratch = evaluate_group(ScratchPairwiseRanker(params), test, policy=policy)
    assert len(set(streamed.rank_trace)) > 1
    assert streamed.rank_trace == scratch.rank_trace


# -------------------------------------------------------------- ranker builds


def two_group_corpus():
    train, test = [], []
    for gid, offset in (("g1", 0.0), ("g2", 100.0)):
        train.append(make_cascade([(1.0, "bo"), (3.0, "cy")],
                                  cascade_id=f"{gid}-tr0", poster="ana",
                                  origin=offset, group_id=gid))
        train.append(make_cascade([(2.0, "ana")],
                                  cascade_id=f"{gid}-tr1", poster="bo",
                                  origin=offset + 1.0, group_id=gid))
        test.append(make_cascade([(1.0, "cy"), (2.0, "ana")],
                                 cascade_id=f"{gid}-te0", poster="bo",
                                 origin=offset + 10.0, group_id=gid))
        test.append(make_cascade([(1.5, "bo")],
                                 cascade_id=f"{gid}-te1", poster="ana",
                                 origin=offset + 10.5, group_id=gid))
    return train, test


def test_evaluate_reports_each_group_in_order():
    train, test = two_group_corpus()
    report = evaluate("RCHR", train, test)
    assert report.ranker == "RCHR"
    assert [g.group_id for g in report.groups] == ["g1", "g2"]
    solo = evaluate_group(RecencyRanker(), [c for c in test if c.group_id == "g1"],
                          group_id="g1")
    assert report.groups[0].rank_trace == solo.rank_trace


def test_evaluate_requires_training_data_per_group():
    train, test = two_group_corpus()
    train = [c for c in train if c.group_id != "g2"]
    with pytest.raises(ConfigError):
        evaluate("RCHR", train, test)


def test_evaluate_drops_cascades_with_unseen_participants():
    train, test = two_group_corpus()
    test[0].comments[0].publisher = "stranger"
    with pytest.warns(UserWarning, match="stranger"):
        report = evaluate("RCHR", train, test)
    g1 = report.groups[0]
    assert g1.n_comments == 1  # only the second g1 test cascade survives


def test_evaluate_errors_when_nothing_is_scorable():
    train, test = two_group_corpus()
    train = [c for c in train if c.group_id == "g1"]
    test = [c for c in test if c.group_id == "g1"]
    for c in test:
        c.post.publisher = "stranger"
    with pytest.warns(UserWarning):
        with pytest.raises(ConfigError):
            evaluate("RCHR", train, test)


def test_evaluate_hwk_warns_when_the_em_stops_at_its_cap():
    train, test = text_corpus(1)
    with pytest.warns(UserWarning, match="pairwise EM stopped on its iteration cap"):
        capped = evaluate("HWK", train, test)
    assert capped.groups[0].n_comments > 0
    train, test = two_group_corpus()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an EM that meets its tolerance is silent
        evaluate("HWK", train, test)


def test_make_ranker_types_and_requirements():
    train, _ = two_group_corpus()
    store = direct_store()
    assert isinstance(make_ranker("RCHR", train), RecencyRanker)
    assert isinstance(make_ranker("NN", train, store), NNRanker)
    assert isinstance(make_ranker("HWK", train), PairwiseRanker)
    with pytest.raises(ConfigError):
        make_ranker("NN", train)
    with pytest.raises(ConfigError):
        make_ranker("HWK-ALL", train)
    with pytest.raises(ConfigError):
        make_ranker("COX-LNG", train, store)  # no lng: content names
    with pytest.raises(ConfigError):
        make_ranker("FANCY", train, store)


def test_make_ranker_reuses_supplied_model_weights(sim_setup):
    config, corpus = sim_setup
    ranker = make_ranker("HWK-ALL", corpus, config.store,
                         model_params=config.params)
    assert isinstance(ranker, IntensityRanker)
    assert ranker.params is config.params


def test_make_ranker_fits_the_masked_variants(sim_setup):
    config, corpus = sim_setup
    cfg = FitConfig(
        post_decay_rate=config.params.post_decay_rate,
        comment_decay_rate=config.params.comment_decay_rate,
        max_iterations=60,
    )
    ranker = make_ranker("HWK-ALL", corpus[:10], config.store, cfg)
    assert isinstance(ranker, IntensityRanker)
    assert ranker.params.post_pair_weights.size == config.store.pair_dim


def test_comment_profiles_follow_global_time_order():
    store = direct_store()
    early = make_cascade([(5.0, "bo", [1.0, 0.0])], cascade_id="B", origin=0.0)
    late = make_cascade([(1.0, "bo", [0.0, 1.0])], cascade_id="A", origin=10.0)
    profiles = NNRanker(store, [late, early]).profiles
    assert profiles["bo"] == pytest.approx([0.7, 0.3])


def test_end_to_end_model_ranker_evaluation(sim_setup):
    config, corpus = sim_setup
    train, test = corpus[:20], [c for c in corpus[20:] if c.comments]
    report = evaluate("HWK-ALL", train, test, config.store,
                      model_params=config.params)
    assert len(report.groups) == 1
    g = report.groups[0]
    assert g.group_id == "sim"
    assert g.n_comments == sum(len(c.comments) for c in test)
    assert 0.0 <= g.ave_rank < len(test)
