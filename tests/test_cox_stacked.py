"""The proportional-rates baseline on stacked risk sets against the loop
it replaced (the oracle in conftest): same covariates, same risk sets,
the same partial likelihood and gradient to rounding, the same fitted
objective and the same served rank traces."""

import warnings

import numpy as np
import pytest

from hawkesfeed import rank_eval
from hawkesfeed.baselines import (
    _cox_design,
    _cox_derivatives,
    cox_covariate,
    cox_partial_log_likelihood,
    fit_cox,
)
from hawkesfeed.core import Cascade, Event
from hawkesfeed.features import FeatureStore, build_feature_store, demo_lexicon
from hawkesfeed.rank_eval import evaluate

from conftest import (
    cox_covariate_scan,
    cox_design_loop,
    cox_gradient_loop,
    cox_hessian_loop,
    cox_partial_log_likelihood_loop,
    fit_cox_loop,
    random_corpus,
    text_corpus,
)

FEATURES = np.array([0, 2])


def content_store(dim=3):
    return FeatureStore(pair_names=[], content_names=[f"c{i}" for i in range(dim)],
                        normalized=True)


def corpora():
    """(corpus, activity horizon): risk sets from 1 to 14 cascades."""
    for seed in range(4):
        corpus = random_corpus(n_cascades=14, seed=seed, content_dim=3,
                               origin_spacing=3.0, mean_comments=6)
        for horizon in (720.0, 8.0, 1.0):
            yield corpus, horizon


def test_corpora_cover_small_and_pairwise_summed_risk_sets():
    sizes = np.concatenate([
        _cox_design(c, content_store(), FEATURES, h).sizes for c, h in corpora()
    ])
    # numpy sums 9 or more terms pairwise rather than one by one
    assert {1, 2} <= set(sizes.tolist()) and sizes.max() >= 9


# ------------------------------------------------------------------ covariate


def tied_cascade(rng, cascade_id, origin):
    """A cascade whose comments hold exact time ties, some without content."""
    c = Cascade(cascade_id, Event(0.0, "ana", rng.uniform(size=3)), [], 30.0,
                origin=origin)
    comments = []
    for t in np.repeat(np.round(rng.uniform(0.5, 29.5, 6), 1), 2).tolist():
        content = rng.uniform(size=3) if rng.uniform() < 0.5 else np.zeros(0)
        comments.append(Event(t, "bo", content))
    # assigned after construction, which refuses ties, as is `append`
    c.comments = tuple(sorted(comments, key=lambda e: e.time))
    return c


def test_cox_covariate_matches_the_linear_scan():
    rng = np.random.default_rng(11)
    cascades = random_corpus(n_cascades=6, seed=3, content_dim=3,
                             origin_spacing=7.5, mean_comments=6)
    cascades += [tied_cascade(rng, f"tie{i}", 4.0 * i) for i in range(4)]
    # what a content map would fill in, set on the events directly: the
    # tied cascades cannot pass the constructor annotate_corpus rebuilds
    # them with; the rest read zeros
    for c in cascades:
        for e in c.events:
            if not e.content_features.size and rng.uniform() < 0.5:
                e.content_features = rng.uniform(size=3)
    store = content_store()
    checked = 0
    for c in cascades:
        last = c.last_event_global()
        times = [c.origin + e.time for e in c.events]
        probes = (
            times                                    # exactly at an event
            + [t + 1e-9 for t in times]              # just after one
            + [c.origin - 1.0, c.origin - 1e-12]     # before the origin
            + [last + 1e-9, last + 5.0]              # after the last event
            + rng.uniform(c.origin, last + 1.0, 10).tolist()
        )
        for t in probes:
            got = cox_covariate(c, t, store, FEATURES)
            want = cox_covariate_scan(c, t, store, FEATURES)
            assert got.tolist() == want.tolist(), (c.cascade_id, t)
            checked += 1
    assert checked > 300


# ---------------------------------------------------------------- risk sets


def test_stacked_design_holds_the_loop_risk_sets():
    store = content_store()
    for corpus, horizon in corpora():
        design = _cox_design(corpus, store, FEATURES, horizon)
        loop = cox_design_loop(corpus, store, FEATURES, horizon)
        assert design.starts.size == design.targets.size == len(loop)
        assert design.sizes.tolist() == [rows.shape[0] for rows, _ in loop]
        assert (design.targets - design.starts).tolist() == [t for _, t in loop]
        assert np.array_equal(design.rows, np.vstack([rows for rows, _ in loop]))
        assert np.array_equal(design.segment,
                              np.repeat(np.arange(len(loop)), design.sizes))


def test_stacked_partial_likelihood_and_gradient_match_the_loop():
    store = content_store()
    rng = np.random.default_rng(12)
    worst_value = worst_grad = worst_hess = 0.0
    for corpus, horizon in corpora():
        design = _cox_design(corpus, store, FEATURES, horizon)
        loop = cox_design_loop(corpus, store, FEATURES, horizon)
        weights = [np.zeros(2), np.array([20.0, -20.0])]
        weights += list(rng.uniform(-20.0, 20.0, (20, 2)))
        weights += list(rng.uniform(-1.0, 1.0, (5, 2)))
        # exp of these scores overflows unless each risk set's max is shifted out
        weights += [np.array([1000.0, -1000.0]), np.array([900.0, 800.0])]
        for w in weights:
            value = cox_partial_log_likelihood(w, design)
            want = cox_partial_log_likelihood_loop(w, loop)
            worst_value = max(worst_value, abs(value - want) / max(1.0, abs(want)))
            grad, hess = _cox_derivatives(w, design)
            want_grad = cox_gradient_loop(w, loop)
            scale = max(1.0, np.abs(want_grad).max())
            worst_grad = max(worst_grad, np.abs(grad - want_grad).max() / scale)
            want_hess = cox_hessian_loop(w, loop)
            scale = max(1.0, np.abs(want_hess).max())
            worst_hess = max(worst_hess, np.abs(hess - want_hess).max() / scale)
    assert worst_value <= 1e-12
    assert worst_grad <= 1e-10
    assert worst_hess <= 1e-10


# ---------------------------------------------------------------------- fit


def test_fit_cox_reaches_the_loop_fit_objective():
    store = content_store()
    for corpus, horizon in corpora():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = fit_cox(corpus, store, FEATURES, activity_horizon=horizon)
            oracle = fit_cox_loop(corpus, store, FEATURES, max_iterations=20_000,
                                  activity_horizon=horizon)
        loop = cox_design_loop(corpus, store, FEATURES, horizon)
        value = cox_partial_log_likelihood_loop(params.weights, loop)
        want = cox_partial_log_likelihood_loop(oracle.weights, loop)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (horizon, value, want)
        assert params.feature_names == oracle.feature_names


def test_fit_cox_converges_in_a_few_newton_iterations():
    # on the first corpus gradient ascent stopped at its 500-iteration cap,
    # 2.2e-9 short of the optimum; a capped or failed fit warns
    store = content_store()
    for corpus, horizon in corpora():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_cox(corpus, store, FEATURES, max_iterations=29,
                    activity_horizon=horizon)


@pytest.mark.parametrize("fill", [0.0, 0.5])
def test_fit_cox_leaves_a_feature_constant_in_every_risk_set_at_zero(fill):
    # the likelihood is flat along such a weight; a bound would also reach
    # every test cascade's score through rank_cox
    store = content_store()
    for corpus, horizon in corpora():
        for c in corpus:
            for e in c.events:
                e.content_features[1] = fill
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = fit_cox(corpus, store, [0, 1, 2], activity_horizon=horizon)
            without = fit_cox(corpus, store, FEATURES, activity_horizon=horizon)
        assert params.weights[1] == 0.0
        # the same optimum: the objective to rounding, the flat weights looser
        loop = cox_design_loop(corpus, store, FEATURES, horizon)
        value = cox_partial_log_likelihood_loop(params.weights[FEATURES], loop)
        want = cox_partial_log_likelihood_loop(without.weights, loop)
        assert abs(value - want) <= 1e-12 * abs(want)
        np.testing.assert_allclose(params.weights[FEATURES], without.weights,
                                   rtol=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_evaluate_cox_traces_match_the_loop_fit(seed, monkeypatch):
    train, test = text_corpus(1000 + seed)
    store = build_feature_store(train, lexicon=demo_lexicon())
    names = ("COX-LNG", "COX-PSY")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = [evaluate(name, train, test, store) for name in names]
        monkeypatch.setattr(rank_eval, "fit_cox", fit_cox_loop)
        oracles = [evaluate(name, train, test, store) for name in names]
    for report, oracle in zip(reports, oracles):
        assert [g.group_id for g in report.groups] == [g.group_id for g in oracle.groups]
        for group, want in zip(report.groups, oracle.groups):
            assert group.n_comments > 0
            assert group.rank_trace == want.rank_trace
