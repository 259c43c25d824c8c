from dataclasses import replace

import numpy as np
import pytest

from hawkesfeed.errors import EstimationError
from hawkesfeed.fit import (
    FitConfig,
    cross_validate,
    fit,
    projected_gradient_norm,
)
from hawkesfeed.likelihood import (
    corpus_log_likelihood,
    gradient,
    objective,
    penalty_weights,
)
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import USERS, direct_store, make_params, random_corpus

WEIGHT_BLOCKS = ("post_pair_weights", "post_content_weights",
                 "comment_pair_weights", "comment_content_weights")


def flat_weights(params):
    return np.concatenate([getattr(params, n) for n in WEIGHT_BLOCKS])


def fit_config(**kw):
    kw.setdefault("post_decay_rate", 0.05)
    kw.setdefault("comment_decay_rate", 0.8)
    return FitConfig(**kw)


# -------------------------------------------------------------- convergence


def test_objective_trace_is_monotone():
    store = direct_store()
    corpus = random_corpus(n_cascades=8, seed=31)
    result = fit(corpus, store, USERS, fit_config(penalty=0.05))
    trace = np.array(result.objective_trace)
    # quadratic-model acceptance allows only this much slack per step
    slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack)
    assert result.converged
    assert result.final_objective == trace[-1]


def test_solution_beats_nearby_feasible_points():
    # [DERIVED] convex objective: the fitted point should be a global
    # minimizer, so no feasible perturbation may do better
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=17)
    config = fit_config(penalty=0.1, tolerance=1e-13, max_iterations=3000)
    result = fit(corpus, store, USERS, config)
    base = objective(corpus, result.params, store, USERS, penalty=0.1)
    rng = np.random.default_rng(7)
    theta = flat_weights(result.params)
    for _ in range(25):
        cand = np.maximum(theta + rng.normal(scale=0.02, size=theta.size), 0.0)
        perturbed = make_params()
        cuts = np.cumsum([3, 2, 3])
        for name, w in zip(WEIGHT_BLOCKS, np.split(cand, cuts)):
            setattr(perturbed, name, w)
        perturbed.post_decay_rate = config.post_decay_rate
        perturbed.comment_decay_rate = config.comment_decay_rate
        assert base <= objective(corpus, perturbed, store, USERS, penalty=0.1) \
            + 1e-8 * abs(base)


def test_projected_gradient_vanishes_at_solution():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=17)
    config = fit_config(penalty=0.1, tolerance=1e-13, max_iterations=3000)
    result = fit(corpus, store, USERS, config)
    grad = gradient(corpus, result.params, store, USERS)
    p = result.params
    z = np.repeat(penalty_weights(0.1),
                  [p.pair_dim, p.content_dim, p.pair_dim, p.content_dim])
    obj_grad = -grad + z
    norm = projected_gradient_norm(flat_weights(result.params), obj_grad)
    assert norm < 1e-4 * max(1.0, abs(result.final_objective))


def test_iteration_callback_sees_every_accepted_step():
    store = direct_store()
    corpus = random_corpus(n_cascades=4, seed=2)
    seen = []
    result = fit(corpus, store, USERS, fit_config(max_iterations=40),
                 on_iterate=lambda theta: seen.append(theta))
    assert len(seen) == len(result.objective_trace) - 1
    assert all(t.shape == (10,) for t in seen)


# ------------------------------------------------------------------ sparsity


def test_huge_penalty_collapses_all_weights_to_exact_zero():
    store = direct_store()
    corpus = random_corpus(n_cascades=5, seed=3)
    result = fit(corpus, store, USERS, fit_config(penalty=1e6))
    assert np.all(flat_weights(result.params) == 0.0)
    assert result.log_likelihood == -np.inf


def test_moderate_penalty_shrinks_the_solution():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=23)
    loose = fit(corpus, store, USERS, fit_config(penalty=0.0))
    tight = fit(corpus, store, USERS, fit_config(penalty=5.0))
    assert flat_weights(tight.params).sum() < flat_weights(loose.params).sum()


def test_masks_pin_excluded_coordinates_at_zero():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=5)
    pair_mask = np.array([True, False, True])
    content_mask = np.array([False, True])
    config = fit_config(pair_mask=pair_mask, content_mask=content_mask)
    result = fit(corpus, store, USERS, config)
    for name in ("post_pair_weights", "comment_pair_weights"):
        w = getattr(result.params, name)
        assert w[1] == 0.0
    for name in ("post_content_weights", "comment_content_weights"):
        w = getattr(result.params, name)
        assert w[0] == 0.0
    assert flat_weights(result.params).sum() > 0.0


def test_all_false_masks_leave_no_support():
    store = direct_store()
    corpus = random_corpus(n_cascades=4, seed=5)
    config = fit_config(pair_mask=np.zeros(3, bool), content_mask=np.zeros(2, bool))
    with pytest.raises(EstimationError):
        fit(corpus, store, USERS, config)


def test_mask_shape_mismatch_is_an_error():
    store = direct_store()
    corpus = random_corpus(n_cascades=4, seed=5)
    with pytest.raises(EstimationError):
        fit(corpus, store, USERS, fit_config(pair_mask=np.ones(7, bool)))


# ---------------------------------------------------------------- bad input


def test_fit_requires_comments():
    store = direct_store()
    corpus = [replace(c, comments=[]) for c in random_corpus(n_cascades=3, seed=1)]
    with pytest.raises(EstimationError):
        fit(corpus, store, USERS, fit_config())


def test_fit_requires_population():
    store = direct_store()
    corpus = random_corpus(n_cascades=3, seed=1)
    with pytest.raises(EstimationError):
        fit(corpus, store, [], fit_config())


def test_a_population_missing_a_commenter_is_refused():
    # the compensator would charge only the users given, and the fit would
    # report a likelihood that leaves the others out
    sim = random_sim_config(n_users=6, seed=3, n_cascades=20)
    corpus = simulate_corpus(sim)
    users = sim.users[:2]
    missing = {e.publisher for c in corpus for e in c.comments} - set(users)
    assert missing
    config = FitConfig(post_decay_rate=0.1, comment_decay_rate=6.0)
    params = replace(sim.params, post_decay_rate=0.1, comment_decay_rate=6.0)
    calls = [
        lambda: fit(corpus, sim.store, users, config),
        lambda: cross_validate(corpus, sim.store, users, config),
        lambda: corpus_log_likelihood(corpus, params, sim.store, users),
        lambda: gradient(corpus, params, sim.store, users),
        lambda: objective(corpus, params, sim.store, users),
    ]
    for call in calls:
        with pytest.raises(EstimationError, match="not in the population") as err:
            call()
        assert any(repr(u) in str(err.value) for u in missing)
    assert fit(corpus, sim.store, sim.users, config).converged


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        FitConfig(cv_folds=1)


# ------------------------------------------------------------------ recovery


def test_fit_on_simulated_data_dominates_the_generator(sim_setup):
    # the unpenalized optimum can never score below the generating weights
    # on its own training corpus; rough closeness is all 30 cascades buy
    config, corpus = sim_setup
    result = fit(
        corpus, config.store, config.users, FitConfig(
            post_decay_rate=config.params.post_decay_rate,
            comment_decay_rate=config.params.comment_decay_rate,
        ),
    )
    truth_ll = corpus_log_likelihood(corpus, config.params, config.store, config.users)
    assert result.log_likelihood >= truth_ll - 1e-9 * abs(truth_ll)
    truth = flat_weights(config.params)
    err = np.linalg.norm(flat_weights(result.params) - truth) / np.linalg.norm(truth)
    assert err < 0.7


# ----------------------------------------------------------- cross-validation


def test_cross_validation_scores_every_grid_point():
    store = direct_store()
    corpus = random_corpus(n_cascades=10, seed=41, origin_spacing=5.0)
    config = fit_config(penalty_grid=(0.0, 0.5), cv_folds=3, max_iterations=60)
    cv = cross_validate(corpus, store, USERS, config)
    assert [row["penalty"] for row in cv.table] == [0.0, 0.5]
    assert all(len(row["fold_log_likelihoods"]) == 3 for row in cv.table)
    best_row = max(cv.table, key=lambda r: r["mean_log_likelihood"])
    assert cv.best_penalty == best_row["penalty"]


def test_cross_validation_ties_prefer_the_larger_penalty():
    # both penalties collapse every weight, so held-out scores tie exactly
    store = direct_store()
    corpus = random_corpus(n_cascades=9, seed=41, origin_spacing=5.0)
    config = fit_config(penalty_grid=(1e6, 1e7), cv_folds=3, max_iterations=40)
    cv = cross_validate(corpus, store, USERS, config)
    lls = [row["mean_log_likelihood"] for row in cv.table]
    assert lls[0] == lls[1]
    assert cv.best_penalty == 1e7


def test_cross_validation_needs_enough_cascades():
    store = direct_store()
    corpus = random_corpus(n_cascades=3, seed=1)
    with pytest.raises(EstimationError):
        cross_validate(corpus, store, USERS, fit_config(cv_folds=5))
