"""Projected Newton fit: stop reasons, singular Hessians, masks and the
monotone trace on the full text model."""

import numpy as np
import pytest

from hawkesfeed.core import corpus_participants
from hawkesfeed.features import (
    annotate_corpus,
    build_feature_store,
    demo_lexicon,
    feature_set_masks,
)
from hawkesfeed.fit import FitConfig, fit, projected_gradient_norm
from hawkesfeed.likelihood import gradient, penalty_weights

from conftest import USERS, direct_store, random_corpus


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


def test_all_zero_pair_column_fits_to_exact_zero():
    # the column never loads any event or the compensator, so the Hessian
    # is singular there and the objective flat
    store = direct_store()
    for v in store.pairs.values():
        v[1] = 0.0
    corpus = random_corpus(n_cascades=6, seed=5)
    result = fit(corpus, store, USERS, fit_config())
    assert result.converged
    assert result.params.post_pair_weights[1] == 0.0
    assert result.params.comment_pair_weights[1] == 0.0
    assert flat_weights(result.params).sum() > 0.0


def test_nearly_unloaded_columns_are_sent_to_zero():
    # fast comment decay on sparse cascades leaves the excitation columns
    # about 1e-8 of the post ones: their Newton steps overshoot zero, and
    # coupled into the free-set solve they would wreck the whole step
    store = direct_store(seed=11)
    corpus = random_corpus(n_cascades=4, seed=11, mean_comments=3)
    result = fit(corpus, store, USERS,
                 fit_config(penalty=0.01, comment_decay_rate=6.0))
    assert result.stop_reason == "tolerance"
    assert not result.params.comment_pair_weights.any()
    assert not result.params.comment_content_weights.any()
    assert result.projected_gradient_norm < 1e-4 * abs(result.final_objective)


def test_masked_coordinates_stay_exactly_zero_at_every_iterate():
    store = direct_store()
    corpus = random_corpus(n_cascades=6, seed=5)
    pair_mask = np.array([False, True, True])
    content_mask = np.array([True, False])
    masked = ~np.concatenate([pair_mask, content_mask, pair_mask, content_mask])
    seen = []
    result = fit(corpus, store, USERS,
                 fit_config(penalty=0.05, pair_mask=pair_mask,
                            content_mask=content_mask),
                 on_iterate=seen.append)
    assert result.converged and seen
    assert all(np.all(theta[masked] == 0.0) for theta in seen)
    assert np.all(flat_weights(result.params)[masked] == 0.0)


def test_text_model_trace_never_increases():
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
    result = fit(corpus, store, corpus_participants(corpus),
                 fit_config(pair_mask=pair_mask, content_mask=content_mask))
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert result.converged
