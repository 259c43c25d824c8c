import math

import numpy as np
import pytest
from scipy.integrate import quad

from hawkesfeed.core import intensity
from hawkesfeed.errors import EstimationError
from hawkesfeed.likelihood import (
    build_corpus_terms,
    corpus_log_likelihood,
    flat_weights,
    gradient,
    log_likelihood_derivatives,
    objective,
    penalty_weights,
)

from conftest import (
    USERS,
    comment_influence,
    direct_store,
    make_cascade,
    make_params,
    post_influence,
    random_corpus,
)


def build_terms(cascades, params, store, users=USERS):
    return build_corpus_terms(
        cascades, store, users, params.post_decay_rate, params.comment_decay_rate
    )


def quadrature_log_likelihood(cascade, params, store, users):
    # [DERIVED] oracle: log intensities at the comments minus a numeric
    # integral of every population user's intensity over the window
    value = 0.0
    for c in cascade.comments:
        value += math.log(intensity(c.publisher, cascade, c.time, params, store))
    times = [c.time for c in cascade.comments]
    for u in users:
        integral, err = quad(
            lambda t: intensity(u, cascade, t, params, store),
            0.0, cascade.window_end, points=times, limit=200,
        )
        assert err < 1e-8
        value -= integral
    return value


# ---------------------------------------------------------------- hand values


def test_single_comment_cascade_hand_value():
    store = direct_store()
    params = make_params()
    cascade = make_cascade([(2.0, "bo")], window_end=10.0)
    t1, big_t = 2.0, 10.0
    wm, wa = params.post_decay_rate, params.comment_decay_rate
    lam1 = post_influence("bo", cascade.post, params, store) * math.exp(-wm * t1)
    comp = 0.0
    for u in USERS:
        comp += post_influence(u, cascade.post, params, store) \
            * (1.0 - math.exp(-wm * big_t)) / wm
        comp += comment_influence(u, cascade.comments[0], params, store) \
            * (1.0 - math.exp(-wa * (big_t - t1))) / wa
    expected = math.log(lam1) - comp
    got = corpus_log_likelihood([cascade], params, store, USERS)
    assert got == pytest.approx(expected, rel=1e-12)


def test_empty_cascade_is_minus_post_compensator():
    store = direct_store()
    params = make_params()
    cascade = make_cascade([], window_end=7.0)
    wm = params.post_decay_rate
    g = (1.0 - math.exp(-wm * 7.0)) / wm
    expected = -sum(
        post_influence(u, cascade.post, params, store) for u in USERS
    ) * g
    got = corpus_log_likelihood([cascade], params, store, USERS)
    assert got == pytest.approx(expected, rel=1e-12)


def test_compensator_matches_per_event_closed_form():
    # [DERIVED] reassemble the integral one influence at a time
    store = direct_store()
    params = make_params()
    corpus = random_corpus(n_cascades=4, seed=11)
    terms = build_terms(corpus, params, store)
    wm, wa = params.post_decay_rate, params.comment_decay_rate
    expected = 0.0
    for cascade in corpus:
        big_t = cascade.window_end
        for u in USERS:
            expected += post_influence(u, cascade.post, params, store) \
                * (1.0 - math.exp(-wm * big_t)) / wm
            for c in cascade.comments:
                expected += comment_influence(u, c, params, store) \
                    * (1.0 - math.exp(-wa * (big_t - c.time))) / wa
    got = float(terms.compensator @ flat_weights(params))
    assert got == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------------- oracles


def test_log_likelihood_matches_quadrature():
    store = direct_store()
    params = make_params()
    for seed in (1, 2, 3):
        corpus = random_corpus(n_cascades=3, seed=seed, mean_comments=4)
        for cascade in corpus:
            expected = quadrature_log_likelihood(cascade, params, store, USERS)
            got = corpus_log_likelihood([cascade], params, store, USERS)
            assert got == pytest.approx(expected, rel=1e-8)


def test_event_intensities_match_scratch_evaluation():
    store = direct_store()
    params = make_params()
    corpus = random_corpus(n_cascades=5, seed=9)
    terms = build_terms(corpus, params, store)
    lam = terms.design @ flat_weights(params)
    expected = [
        intensity(c.publisher, cascade, c.time, params, store)
        for cascade in corpus
        for c in cascade.comments
    ]
    assert lam == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_central_differences():
    store = direct_store()
    params = make_params(seed=4)
    corpus = random_corpus(n_cascades=4, seed=21)
    grad = gradient(corpus, params, store, USERS)
    blocks = ("post_pair_weights", "post_content_weights",
              "comment_pair_weights", "comment_content_weights")
    h = 1e-6
    fd = []
    for name in blocks:
        base = getattr(params, name)
        for i in range(base.size):
            for sign in (+1.0, -1.0):
                w = base.copy()
                w[i] += sign * h
                setattr(params, name, w)
                if sign > 0:
                    up = corpus_log_likelihood(corpus, params, store, USERS)
                else:
                    down = corpus_log_likelihood(corpus, params, store, USERS)
            setattr(params, name, base)
            fd.append((up - down) / (2 * h))
    fd = np.array(fd)
    assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-6


# ----------------------------------------------------------- floor semantics


def test_zero_weights_are_minus_inf_without_floor():
    store = direct_store()
    params = make_params(scale=0.0)
    corpus = random_corpus(n_cascades=2, seed=2)
    assert corpus_log_likelihood(corpus, params, store, USERS) == -math.inf
    terms = build_terms(corpus, params, store)
    value, grad, _ = log_likelihood_derivatives(terms, flat_weights(params))
    assert value == -math.inf and grad is None


def test_gradient_raises_at_minus_inf():
    store = direct_store()
    params = make_params(scale=0.0)
    corpus = random_corpus(n_cascades=2, seed=2)
    with pytest.raises(EstimationError):
        gradient(corpus, params, store, USERS)


def test_floor_clamps_dead_events_and_their_gradient():
    store = direct_store()
    params = make_params(scale=0.0)
    corpus = random_corpus(n_cascades=2, seed=2)
    terms = build_terms(corpus, params, store)
    floor = 1e-12
    value, grad, _ = log_likelihood_derivatives(terms, flat_weights(params), floor=floor)
    # zero weights: the compensator value vanishes and every event sits on
    # the floor, so only the compensator coefficients pull on the gradient
    assert value == pytest.approx(terms.n_events * math.log(floor))
    assert np.array_equal(grad, -terms.compensator)


def test_floor_is_inert_when_intensities_clear_it():
    store = direct_store()
    params = make_params()
    corpus = random_corpus(n_cascades=3, seed=6)
    terms = build_terms(corpus, params, store)
    theta = flat_weights(params)
    plain_value, plain_grad, _ = log_likelihood_derivatives(terms, theta)
    floored_value, floored_grad, _ = log_likelihood_derivatives(terms, theta, floor=1e-12)
    assert floored_value == plain_value
    assert np.array_equal(floored_grad, plain_grad)


# ----------------------------------------------------------------- convexity


def test_negative_log_likelihood_is_convex_along_chords():
    store = direct_store()
    corpus = random_corpus(n_cascades=3, seed=13)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p1 = make_params(seed=int(rng.integers(1, 10_000)),
                         scale=float(rng.uniform(0.05, 0.5)))
        p2 = make_params(seed=int(rng.integers(1, 10_000)),
                         scale=float(rng.uniform(0.05, 0.5)))
        mid = p1.scaled(0.5)
        for name in ("post_pair_weights", "post_content_weights",
                     "comment_pair_weights", "comment_content_weights"):
            setattr(mid, name, 0.5 * (getattr(p1, name) + getattr(p2, name)))
        f = lambda p: -corpus_log_likelihood(corpus, p, store, USERS)
        assert f(mid) <= 0.5 * f(p1) + 0.5 * f(p2) + 1e-9


# ----------------------------------------------------- penalty and objective


def test_penalty_broadcasts_scalar_to_blocks():
    assert penalty_weights(0.3).tolist() == [0.3] * 4
    assert penalty_weights([1, 2, 3, 4]).tolist() == [1, 2, 3, 4]


def test_penalty_rejects_bad_shapes_and_signs():
    with pytest.raises(ValueError):
        penalty_weights([1.0, 2.0])
    with pytest.raises(ValueError):
        penalty_weights(-0.1)


def test_objective_is_penalized_negative_log_likelihood():
    store = direct_store()
    params = make_params()
    corpus = random_corpus(n_cascades=3, seed=8)
    ll = corpus_log_likelihood(corpus, params, store, USERS)
    reg = 0.7 * sum(
        getattr(params, n).sum()
        for n in ("post_pair_weights", "post_content_weights",
                  "comment_pair_weights", "comment_content_weights")
    )
    assert objective(corpus, params, store, USERS, penalty=0.7) \
        == pytest.approx(-ll + reg, rel=1e-12)


def test_objective_with_block_penalties():
    store = direct_store()
    params = make_params()
    corpus = random_corpus(n_cascades=2, seed=8)
    z = [0.1, 0.0, 2.0, 0.5]
    ll = corpus_log_likelihood(corpus, params, store, USERS)
    reg = (z[0] * params.post_pair_weights.sum()
           + z[2] * params.comment_pair_weights.sum()
           + z[3] * params.comment_content_weights.sum())
    assert objective(corpus, params, store, USERS, penalty=z) \
        == pytest.approx(-ll + reg, rel=1e-12)
