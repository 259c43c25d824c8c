"""Projected Newton fit: stop reasons, singular Hessians, masks, the
monotone trace on the full text model, the box-bounded core on its own,
and `fit`'s iterates against the loop it was factored out of."""

import dataclasses

import numpy as np
import pytest

from hawkesfeed.core import corpus_participants
from hawkesfeed.features import (
    annotate_corpus,
    build_feature_store,
    demo_lexicon,
    feature_set_masks,
)
from hawkesfeed.fit import (
    FitConfig,
    _projected_newton,
    fit,
    projected_gradient_norm,
)
from hawkesfeed.likelihood import gradient, penalty_weights
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import USERS, direct_store, fit_loop, random_corpus


def fit_config(**kw):
    kw.setdefault("post_decay_rate", 0.05)
    kw.setdefault("comment_decay_rate", 0.8)
    return FitConfig(**kw)


def flat_weights(params):
    return np.concatenate([
        params.post_pair_weights, params.post_content_weights,
        params.comment_pair_weights, params.comment_content_weights,
    ])


# ---------------------------------------------------------- stop reasons


def test_iteration_cap_is_reported_as_not_converged():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=17)
    result = fit(corpus, store, USERS, fit_config(max_iterations=1))
    assert result.stop_reason == "iteration cap"
    assert result.converged is False
    assert result.iterations == 1
    assert result.projected_gradient_norm > 0.0


def test_converged_fit_reports_tolerance_and_its_gradient_norm():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=17)
    result = fit(corpus, store, USERS, fit_config(penalty=0.1))
    assert result.stop_reason == "tolerance" and result.converged
    grad = gradient(corpus, result.params, store, USERS)
    p = result.params
    z = np.repeat(penalty_weights(0.1),
                  [p.pair_dim, p.content_dim, p.pair_dim, p.content_dim])
    obj_grad = -grad + z
    expected = projected_gradient_norm(flat_weights(result.params), obj_grad)
    assert result.projected_gradient_norm == pytest.approx(expected, rel=1e-9, abs=1e-12)


# ------------------------------------------------------ Newton edge cases


def zero_column_case():
    # the column never loads any event or the compensator, so the Hessian
    # is singular there and the objective flat
    store = direct_store()
    for v in store.pairs.values():
        v[1] = 0.0
    return random_corpus(n_cascades=6, seed=5), store, USERS, fit_config()


def test_all_zero_pair_column_fits_to_exact_zero():
    result = fit(*zero_column_case())
    assert result.converged
    assert result.params.post_pair_weights[1] == 0.0
    assert result.params.comment_pair_weights[1] == 0.0
    assert flat_weights(result.params).sum() > 0.0


def nearly_unloaded_case():
    # fast comment decay on sparse cascades leaves the excitation columns
    # about 1e-8 of the post ones: their Newton steps overshoot zero, and
    # coupled into the free-set solve they would wreck the whole step
    store = direct_store(seed=11)
    corpus = random_corpus(n_cascades=4, seed=11, mean_comments=3)
    return corpus, store, USERS, fit_config(penalty=0.01, comment_decay_rate=6.0)


def test_nearly_unloaded_columns_are_sent_to_zero():
    result = fit(*nearly_unloaded_case())
    assert result.stop_reason == "tolerance"
    assert not result.params.comment_pair_weights.any()
    assert not result.params.comment_content_weights.any()
    assert result.projected_gradient_norm < 1e-4 * abs(result.final_objective)


PAIR_MASK = np.array([False, True, True])
CONTENT_MASK = np.array([True, False])


def masked_case():
    return random_corpus(n_cascades=6, seed=5), direct_store(), USERS, fit_config(
        penalty=0.05, pair_mask=PAIR_MASK, content_mask=CONTENT_MASK)


def test_masked_coordinates_stay_exactly_zero_at_every_iterate():
    masked = ~np.concatenate([PAIR_MASK, CONTENT_MASK, PAIR_MASK, CONTENT_MASK])
    seen = []
    result = fit(*masked_case(), on_iterate=seen.append)
    assert result.converged and seen
    assert all(np.all(theta[masked] == 0.0) for theta in seen)
    assert np.all(flat_weights(result.params)[masked] == 0.0)


def text_model_case():
    # the 70-coordinate model the CLI fits on a text corpus
    rng = np.random.default_rng(3)
    words = ["happy", "sad", "love", "we", "they", "you", "know", "quickly",
             "garden", "seeds", "afternoon", "very", "hear", "feel"]
    corpus = random_corpus(n_cascades=12, seed=29, content_dim=0, mean_comments=6)
    for c in corpus:
        for e in c.events:
            e.text = " ".join(rng.choice(words, size=int(rng.integers(3, 9))))
    store = build_feature_store(corpus, demo_lexicon())
    corpus = annotate_corpus(corpus, store)
    pair_mask, content_mask = feature_set_masks(
        "all", store.pair_names, store.content_names)
    assert 2 * (pair_mask.size + content_mask.size) == 70
    return corpus, store, corpus_participants(corpus), fit_config(
        pair_mask=pair_mask, content_mask=content_mask)


def test_text_model_trace_never_increases():
    result = fit(*text_model_case())
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert result.converged


# --------------------------------------------- bit for bit against the loop


def fit_sim_case():
    """A training split the size of the fit-sim benchmark's: 12 users, the
    12-coordinate model and about 12,700 excitation pairs in 3 cascades."""
    config = random_sim_config(n_users=12, seed=1, horizon=10.0,
                               origin_spacing=2.0, n_cascades=3)
    config = dataclasses.replace(config, seed=3)
    p = config.params
    return simulate_corpus(config), config.store, config.users, FitConfig(
        post_decay_rate=p.post_decay_rate, comment_decay_rate=p.comment_decay_rate)


def capped_case():
    return (random_corpus(n_cascades=6, seed=17), direct_store(), USERS,
            fit_config(max_iterations=1))


@pytest.mark.parametrize("case", [
    nearly_unloaded_case, zero_column_case, masked_case, text_model_case,
    fit_sim_case, capped_case,
], ids=lambda case: case.__name__)
def test_fit_takes_the_loop_iterates_bit_for_bit(case):
    cascades, store, users, config = case()
    seen, want_seen = [], []
    result = fit(cascades, store, users, config, on_iterate=seen.append)
    theta, trace, iterations, stop_reason = fit_loop(
        cascades, store, users, config, on_iterate=want_seen.append)
    assert result.objective_trace == trace
    assert flat_weights(result.params).tolist() == theta.tolist()
    assert (result.iterations, result.stop_reason) == (iterations, stop_reason)
    assert len(seen) == len(want_seen) == len(trace) - 1
    assert all(a.tolist() == b.tolist() for a, b in zip(seen, want_seen))


# ------------------------------------------------------ the core on a box


def quadratic(a, b):
    """f(x) = x^T a x / 2 - b^T x as a core objective."""
    def objective(x, order=0):
        f = float(0.5 * x @ a @ x - b @ x)
        return (f, a @ x - b, a) if order else f
    return objective


def test_core_pins_a_coordinate_at_its_upper_bound():
    # the unconstrained minimum (3, -1) lies above the box in x0, so x0
    # ends on upper with its gradient still pushing up, and x1 minimizes
    # the rest: 2 x1 + x0 = 1 at x0 = 1
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    b = a @ np.array([3.0, -1.0])
    theta, trace, it, stop_reason, g = _projected_newton(
        quadratic(a, b), np.zeros(2), -1.0, 1.0, 50, 1e-12)
    assert stop_reason == "tolerance" and it < 10
    assert theta[0] == 1.0
    # the free-set solve carries a 1e-10 ridge
    assert theta[1] == pytest.approx(0.0, abs=1e-9)
    assert g[0] < 0.0
    assert projected_gradient_norm(theta, g, lower=-1.0, upper=1.0) < 1e-9
    assert np.all(np.diff(trace) <= 0.0)


def test_core_stops_on_a_line_search_no_step_passes():
    # the probes never come in at or below the value at the start, so the
    # backtrack runs down to its smallest step and gives up
    grad = np.array([1.0, -2.0])

    def objective(x, order=0):
        return (0.0, grad, np.eye(2)) if order else 1.0

    start = np.array([0.5, 0.5])
    theta, trace, it, stop_reason, g = _projected_newton(
        objective, start, 0.0, 1.0, 50, 1e-9)
    assert stop_reason == "line search"
    assert it == 1 and trace == [0.0]
    assert theta.tolist() == start.tolist()
    assert g.tolist() == grad.tolist()
