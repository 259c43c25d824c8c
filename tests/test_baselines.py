import math
import warnings

import numpy as np
import pytest

from hawkesfeed.baselines import (
    CoxParams,
    cox_covariate,
    cox_partial_log_likelihood,
    _cox_design,
    fit_cox,
    fit_hwk_em,
    order_candidates,
)
from hawkesfeed.baselines import PairwiseHawkesParams
from hawkesfeed.core import intensity
from hawkesfeed.errors import EstimationError
from hawkesfeed.features import FeatureStore
from hawkesfeed.rank_eval import CoxRanker, NNRanker, PairwiseRanker, RecencyRanker

from conftest import (
    hwk_intensity,
    hwk_log_likelihood,
    make_cascade,
    random_corpus,
    recency_scan,
)


def content_store(dim=1):
    """Events carry their own vectors; the store only fixes the manifest."""
    return FeatureStore(pair_names=[], content_names=[f"c{i}" for i in range(dim)],
                        normalized=True)


def ids(cascades):
    return [c.cascade_id for c in cascades]


def rchr(cascades, t):
    """RCHR's served order; recency ignores the user."""
    return RecencyRanker().rank("ana", t, cascades)


# -------------------------------------------------------------------- recency


def test_rchr_orders_by_last_event_before_t():
    a = make_cascade([(5.0, "bo")], cascade_id="A", origin=0.0)
    b = make_cascade([(1.0, "cy"), (6.0, "di")], cascade_id="B", origin=2.0)
    c = make_cascade([], cascade_id="C", origin=4.0)
    d = make_cascade([], cascade_id="D", origin=100.0)
    # last events before t=10 sit at 5, 8, 4 and nowhere
    assert ids(rchr([a, b, c, d], 10.0)) == ["B", "A", "C", "D"]


def test_rchr_ignores_events_at_or_after_t():
    b = make_cascade([(1.0, "cy"), (6.0, "di")], cascade_id="B", origin=2.0)
    a = make_cascade([(5.0, "bo")], cascade_id="A", origin=0.0)
    # B's second comment lands exactly at t=8 and must not count
    assert ids(rchr([a, b], 8.0)) == ["A", "B"]


def test_rchr_breaks_exact_ties_by_id():
    a = make_cascade([(8.0, "bo")], cascade_id="A", origin=0.0)
    b = make_cascade([(6.0, "cy")], cascade_id="B", origin=2.0)
    assert ids(rchr([b, a], 10.0)) == ["A", "B"]


def rchr_by_sort_key(cascades, t):
    """Recency as it once was: one `sorted` over a per-call recency key."""
    return sorted(cascades, key=lambda c: (-recency_scan(c, t), c.cascade_id))


def test_rchr_equals_the_sort_key_order():
    rng = np.random.default_rng(11)
    ties = bare = late = 0
    for _ in range(40):
        cascades = []
        for i in rng.permutation(10):
            # whole minutes, so newest events often tie across cascades
            origin = float(rng.integers(0, 4))
            times = sorted({float(x) for x in rng.integers(1, 7, size=rng.integers(0, 4))})
            cascades.append(make_cascade([(x, "bo") for x in times],
                                         cascade_id=f"k{i}", origin=origin))
        events = sorted({c.origin + e.time for c in cascades for e in c.events})
        for t in [*events, *(x - 0.5 for x in events), events[-1] + 1.0]:
            assert rchr(cascades, t) == rchr_by_sort_key(cascades, t)
            keys = [recency_scan(c, t) for c in cascades]
            ties += len(set(keys)) < len(keys)
            late += any(c.comments and c.origin + c.comments[-1].time >= t
                        for c in cascades)
        bare += any(not c.comments for c in cascades)
    assert ties and bare and late


def test_order_candidates_score_then_recency_then_id():
    a = make_cascade([(1.0, "bo")], cascade_id="A", origin=0.0)
    b = make_cascade([(3.0, "cy")], cascade_id="B", origin=0.0)
    c = make_cascade([(3.0, "di")], cascade_id="C", origin=0.0)
    assert ids(order_candidates([a, b, c], [1.0, 5.0, 5.0], 10.0)) == ["B", "C", "A"]
    # same score and recency: id decides
    assert ids(order_candidates([c, b], [2.0, 2.0], 2.0)) == ["B", "C"]


# ------------------------------------------------------------ nearest profile


def test_update_profile_moving_average_hand_values():
    ranker = NNRanker(content_store(2))
    c = make_cascade([(1.0, "bo", [1.0, 0.0]), (2.0, "bo", [0.0, 1.0]),
                      (3.0, "bo", [1.0, 1.0])], cascade_id="A", content_dim=2)
    profiles = []
    for e in c.comments:
        ranker.absorb(c, e, e.time)
        profiles.append(ranker.profiles["bo"])
    assert profiles[0].tolist() == [1.0, 0.0]
    assert profiles[1] == pytest.approx([0.7, 0.3])
    assert profiles[2] == pytest.approx([0.79, 0.51])
    # a profile is its own array, never the event's content
    assert profiles[0] is not c.comments[0].content_features


def test_cascade_representative_means_prior_content():
    ranker = NNRanker(content_store(2))
    c = make_cascade([(1.0, "bo", [0.0, 0.0]), (2.0, "cy", [1.0, 1.0]),
                      (9.0, "di", [1.0, 0.0])],
                     cascade_id="A", post_content=[0.2, 0.4], content_dim=2)
    rep = ranker.representative(c, 3.0)
    assert rep == pytest.approx([0.4, 0.4666666666666667])
    assert ranker.representative(c, 0.0).tolist() == [0.0, 0.0]


def test_nn_ranks_by_profile_distance():
    ranker = NNRanker(content_store(2))
    a = make_cascade([(1.0, "bo", [0.0, 0.0]), (2.0, "cy", [1.0, 1.0])],
                     cascade_id="A", post_content=[0.5, 0.5], content_dim=2)
    b = make_cascade([(1.0, "di", [1.0, 0.0])],
                     cascade_id="B", post_content=[1.0, 0.0], content_dim=2)
    ranker.profiles["ana"] = np.array([0.4, 0.4])
    # representatives at t=5: A -> [0.5, 0.5], B -> [1.0, 0.0]
    assert ids(ranker.rank("ana", 5.0, [b, a])) == ["A", "B"]
    ranker.profiles["ana"] = np.array([1.0, 0.0])
    assert ids(ranker.rank("ana", 5.0, [b, a])) == ["B", "A"]


def test_nn_without_profile_falls_back_to_recency():
    ranker = NNRanker(content_store(2))
    a = make_cascade([(5.0, "bo")], cascade_id="A")
    b = make_cascade([(7.0, "cy")], cascade_id="B")
    assert ids(ranker.rank("ana", 10.0, [a, b])) == ["B", "A"]


# ---------------------------------------------------------- proportional rates


def cox_corpus():
    rows_a = [(1.0, "bo", [1.0]), (4.0, "cy", [0.8]), (9.0, "bo", [0.9])]
    rows_b = [(2.0, "di", [0.1]), (7.0, "bo", [0.2])]
    rows_c = [(3.0, "cy", [0.5])]
    return [
        make_cascade(rows_a, cascade_id="A", poster="ana",
                     post_content=[0.7], content_dim=1),
        make_cascade(rows_b, cascade_id="B", poster="bo",
                     post_content=[0.3], content_dim=1),
        make_cascade(rows_c, cascade_id="C", poster="cy",
                     post_content=[0.5], content_dim=1),
    ]


def test_cox_covariate_is_freshest_prior_content():
    store = content_store(1)
    c = cox_corpus()[0]
    assert cox_covariate(c, 0.5, store, np.array([0])).tolist() == [0.7]
    assert cox_covariate(c, 4.5, store, np.array([0])).tolist() == [0.8]
    # nothing strictly before the origin
    assert cox_covariate(c, 0.0, store, np.array([0])).tolist() == [0.0]


def test_cox_partial_likelihood_at_zero_counts_risk_sets():
    # [DERIVED] with zero weights every term is -log(risk set size)
    store = content_store(1)
    corpus = cox_corpus()
    design = _cox_design(corpus, store, np.array([0]))
    expected = -sum(math.log(size) for size in design.sizes.tolist())
    assert cox_partial_log_likelihood(np.zeros(1), design) == pytest.approx(expected)
    # all three cascades start at origin 0 and stay active throughout
    assert design.sizes.tolist() == [3] * 6


def test_fit_cox_matches_grid_search():
    # [DERIVED] 1-d oracle: dense scan of the partial likelihood
    store = content_store(1)
    corpus = cox_corpus()
    design = _cox_design(corpus, store, np.array([0]))
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    values = [cox_partial_log_likelihood(np.array([g]), design) for g in grid]
    best = grid[int(np.argmax(values))]
    params = fit_cox(corpus, store)
    assert abs(float(params.weights[0]) - best) <= 0.05
    assert params.feature_names == ["c0"]


def test_fit_cox_warns_when_it_stops_at_max_iterations():
    store = content_store(1)
    corpus = cox_corpus()
    with pytest.warns(UserWarning, match="max_iterations=1 "):
        capped = fit_cox(corpus, store, max_iterations=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = fit_cox(corpus, store)
    # one accepted step from zero, short of the optimum
    assert 0.0 != capped.weights[0] != params.weights[0]


def test_fit_cox_caps_separable_data_with_a_warning():
    store = content_store(1)
    hot = make_cascade([(float(t), "bo", [1.0]) for t in range(1, 5)],
                       cascade_id="A", post_content=[1.0], content_dim=1)
    cold = make_cascade([], cascade_id="B", post_content=[0.0], content_dim=1)
    with pytest.warns(UserWarning):
        params = fit_cox([hot, cold], store)
    assert abs(params.weights[0]) == pytest.approx(20.0)


def test_fit_cox_rejects_singleton_risk_sets():
    store = content_store(1)
    far = [
        make_cascade([(1.0, "bo", [0.4])], cascade_id="A", origin=0.0,
                     post_content=[0.2], content_dim=1),
        make_cascade([(1.0, "cy", [0.6])], cascade_id="B", origin=10_000.0,
                     post_content=[0.8], content_dim=1),
    ]
    with pytest.raises(EstimationError):
        fit_cox(far, store)


def test_fit_cox_rejects_empty_inputs():
    store = content_store(1)
    quiet = [make_cascade([], cascade_id="A", post_content=[0.1], content_dim=1)]
    with pytest.raises(EstimationError):
        fit_cox(quiet, store)
    with pytest.raises(EstimationError):
        fit_cox(cox_corpus(), store, feature_indices=np.array([], dtype=int))


def test_rank_cox_orders_by_linear_score():
    store = content_store(1)
    corpus = cox_corpus()
    params = CoxParams(weights=np.array([2.0]), feature_names=["c0"],
                       feature_indices=np.array([0]))
    # freshest contents at t=5: A -> 0.8, B -> 0.1, C -> 0.5
    assert ids(CoxRanker(params, store).rank("ana", 5.0, corpus)) == ["A", "C", "B"]
    flipped = CoxParams(weights=np.array([-2.0]), feature_names=["c0"],
                        feature_indices=np.array([0]))
    assert ids(CoxRanker(flipped, store).rank("ana", 5.0, corpus)) == ["B", "C", "A"]


# ------------------------------------------------- pairwise excitation via EM


def em_decays(**kw):
    kw.setdefault("post_decay_rate", 0.05)
    kw.setdefault("comment_decay_rate", 0.8)
    return kw


def test_hwk_intensity_hand_value():
    params = PairwiseHawkesParams(
        post_rates={("bo", "ana"): 0.3},
        comment_rates={("bo", "cy"): 0.5},
        post_decay_rate=0.05,
        comment_decay_rate=0.8,
    )
    c = make_cascade([(2.0, "cy"), (4.0, "di")], cascade_id="A", poster="ana")
    expected = 0.3 * math.exp(-0.05 * 5.0) + 0.5 * math.exp(-0.8 * 3.0)
    model, store = params.as_feature_model()
    assert intensity("bo", c, 5.0, model, store) == pytest.approx(expected, rel=1e-12)
    # the di comment holds no rate for bo and adds nothing
    assert intensity("bo", c, 4.0, model, store) == pytest.approx(
        0.3 * math.exp(-0.05 * 4.0) + 0.5 * math.exp(-0.8 * 2.0), rel=1e-12
    )


def test_hwk_log_likelihood_matches_brute_force():
    # [DERIVED] rebuild the value user by user from the rate dictionaries
    corpus = random_corpus(n_cascades=5, seed=19)
    result = fit_hwk_em(corpus, max_iterations=3, **em_decays())
    params = result.params
    users = {u for u, _ in params.post_rates} | {u for u, _ in params.comment_rates}
    pd_, cd_ = params.post_decay_rate, params.comment_decay_rate
    expected = 0.0
    for c in corpus:
        for e in c.comments:
            expected += math.log(hwk_intensity(params, e.publisher, c, e.time))
        for u in users:
            integral = params.post_rates.get((u, c.post.publisher), 0.0) \
                * (1.0 - math.exp(-pd_ * c.window_end)) / pd_
            for e in c.comments:
                integral += params.comment_rates.get((u, e.publisher), 0.0) \
                    * (1.0 - math.exp(-cd_ * (c.window_end - e.time))) / cd_
            expected -= integral
    assert hwk_log_likelihood(corpus, params) == pytest.approx(expected, rel=1e-12)


def test_em_trace_is_monotone():
    for seed in (3, 19, 44):
        corpus = random_corpus(n_cascades=6, seed=seed)
        result = fit_hwk_em(corpus, max_iterations=2000, **em_decays())
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert result.converged


def test_em_closed_form_when_posts_are_the_only_parents():
    # [DERIVED] single-comment cascades pin every responsibility at the
    # post, so the rate is count over summed exposure after one step
    cascades = [
        make_cascade([(1.0 + 0.3 * i, "u")], cascade_id=f"c{i}", poster="p",
                     window_end=20.0 + i)
        for i in range(10)
    ]
    pd_ = 0.05
    result = fit_hwk_em(cascades, **em_decays(post_decay_rate=pd_))
    exposure = sum((1.0 - math.exp(-pd_ * (20.0 + i))) / pd_ for i in range(10))
    assert result.params.post_rates[("u", "p")] == pytest.approx(
        10.0 / exposure, abs=1e-8
    )
    assert result.params.comment_rates == {}
    assert result.converged


def test_em_only_creates_rates_for_observed_pairs():
    c1 = make_cascade([(1.0, "bo"), (2.0, "cy")], cascade_id="A", poster="ana")
    c2 = make_cascade([(1.0, "di")], cascade_id="B", poster="bo")
    result = fit_hwk_em([c1, c2], **em_decays())
    assert set(result.params.post_rates) == {("bo", "ana"), ("cy", "ana"),
                                             ("di", "bo")}
    # cy commented after bo, never the other way around
    assert set(result.params.comment_rates) == {("cy", "bo")}


def test_em_requires_comments():
    quiet = [make_cascade([], cascade_id="A")]
    with pytest.raises(EstimationError):
        fit_hwk_em(quiet, **em_decays())


def hwk_gradient(cascades, params):
    """Exact likelihood gradient in every stored rate."""
    pd_, cd_ = params.post_decay_rate, params.comment_decay_rate
    g_post = {k: 0.0 for k in params.post_rates}
    g_comment = {k: 0.0 for k in params.comment_rates}
    for c in cascades:
        g_mu = (1.0 - math.exp(-pd_ * c.window_end)) / pd_
        for k in g_post:
            if k[1] == c.post.publisher:
                g_post[k] -= g_mu
        for e in c.comments:
            g_a = (1.0 - math.exp(-cd_ * (c.window_end - e.time))) / cd_
            for k in g_comment:
                if k[1] == e.publisher:
                    g_comment[k] -= g_a
        for i, e in enumerate(c.comments):
            lam = hwk_intensity(params, e.publisher, c, e.time)
            key = (e.publisher, c.post.publisher)
            if key in g_post:
                g_post[key] += math.exp(-pd_ * e.time) / lam
            for prior in c.comments[:i]:
                k2 = (e.publisher, prior.publisher)
                if k2 in g_comment:
                    g_comment[k2] += math.exp(-cd_ * (e.time - prior.time)) / lam
    return g_post, g_comment


def test_em_fixed_point_is_stationary():
    # [DERIVED] at the fixed point the likelihood gradient vanishes on every
    # positive rate and pushes no zero rate upward
    corpus = random_corpus(n_cascades=6, seed=19)
    result = fit_hwk_em(corpus, tolerance=1e-12, max_iterations=3000,
                        **em_decays())
    g_post, g_comment = hwk_gradient(corpus, result.params)
    for rates, grads in ((result.params.post_rates, g_post),
                         (result.params.comment_rates, g_comment)):
        for k, rate in rates.items():
            if rate > 1e-10:
                assert abs(grads[k]) <= 1e-6, (k, rate, grads[k])
            else:
                assert grads[k] <= 1e-6, (k, rate, grads[k])


def test_rank_hwk_orders_by_intensity():
    params = PairwiseHawkesParams(
        post_rates={("bo", "ana"): 0.3, ("bo", "cy"): 0.05},
        comment_rates={},
        post_decay_rate=0.05,
        comment_decay_rate=0.8,
    )
    a = make_cascade([], cascade_id="A", poster="ana", origin=0.0)
    b = make_cascade([], cascade_id="B", poster="cy", origin=0.0)
    assert ids(PairwiseRanker(params).rank("bo", 2.0, [b, a])) == ["A", "B"]
