"""The design-matrix likelihood against a slow reference.

The oracle walks every (comment, earlier comment) pair in plain Python,
so it shares nothing with the one-pass recursion that builds the design
rows: log-likelihood to 1e-12 relative, gradient to 1e-10.
"""

import math

import numpy as np
import pytest

from hawkesfeed.core import event_content
from hawkesfeed.features import FeatureStore, annotate_corpus, content_key
from hawkesfeed.likelihood import (
    build_corpus_terms,
    flat_weights,
    log_likelihood_derivatives,
)

from conftest import USERS, direct_store, make_cascade, make_params


def pair_oracle(cascades, params, store, users):
    """Event intensities, log-likelihood and flat gradient by double loop."""
    theta = np.concatenate([
        params.post_pair_weights, params.post_content_weights,
        params.comment_pair_weights, params.comment_content_weights,
    ])
    wm, wa = params.post_decay_rate, params.comment_decay_rate
    lams, loglik, grad = [], 0.0, np.zeros(theta.size)
    for cascade in cascades:
        post = cascade.post
        d0 = event_content(post, store.content_dim)
        contents = [event_content(c, store.content_dim) for c in cascade.comments]
        big_t = cascade.window_end
        for i, ci in enumerate(cascade.comments):
            decay = math.exp(-wm * ci.time)
            pair_post = decay * store.pair_vector(ci.publisher, post.publisher)
            pair_excite = np.zeros(store.pair_dim)
            content_excite = np.zeros(store.content_dim)
            for j in range(i):
                cj = cascade.comments[j]
                w = math.exp(-wa * (ci.time - cj.time))
                pair_excite += w * store.pair_vector(ci.publisher, cj.publisher)
                content_excite += w * contents[j]
            row = np.concatenate([pair_post, decay * d0, pair_excite, content_excite])
            lam = float(row @ theta)
            lams.append(lam)
            loglik += math.log(lam)
            grad += row / lam
        g_post = (1.0 - math.exp(-wm * big_t)) / wm
        for u in users:
            row = g_post * np.concatenate([
                store.pair_vector(u, post.publisher), d0,
                np.zeros(store.pair_dim), np.zeros(store.content_dim),
            ])
            for cj, dj in zip(cascade.comments, contents):
                g = (1.0 - math.exp(-wa * (big_t - cj.time))) / wa
                row += g * np.concatenate([
                    np.zeros(store.pair_dim), np.zeros(store.content_dim),
                    store.pair_vector(u, cj.publisher), dj,
                ])
            loglik -= float(row @ theta)
            grad -= row
    return np.array(lams), loglik, grad


def long_cascade(cascade_id, n, seed, window_end=60.0, content_dim=2):
    rng = np.random.default_rng(seed)
    times = np.unique(rng.uniform(0.1, window_end - 0.1, size=n))
    rows = [(float(t), USERS[int(rng.integers(len(USERS)))],
             rng.uniform(size=content_dim)) for t in times]
    return make_cascade(rows, cascade_id=cascade_id, poster=USERS[seed % 4],
                        window_end=window_end, content_dim=content_dim,
                        post_content=rng.uniform(size=content_dim))


def assert_matches_oracle(cascades, params, store):
    terms = build_corpus_terms(cascades, store, USERS, params.post_decay_rate,
                               params.comment_decay_rate)
    # the oracle reads each event's own vector, so it sees the corpus as
    # build_corpus_terms annotates it
    lam_ref, ll_ref, grad_ref = pair_oracle(annotate_corpus(cascades, store),
                                            params, store, USERS)
    theta = flat_weights(params)
    lam = terms.design @ theta
    value, grad, _ = log_likelihood_derivatives(terms, theta)
    assert terms.n_events == lam_ref.size
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    assert abs(value - ll_ref) <= 1e-12 * abs(ll_ref)
    assert np.max(np.abs(grad - grad_ref)) <= 1e-10 * np.max(np.abs(grad_ref))


@pytest.mark.parametrize("comment_decay", [0.01, 0.8, 6.0])
def test_long_cascades_with_repeated_commenters(comment_decay):
    # 4 users over 150+ comments: every commenter recurs dozens of times,
    # and fast decay spans many rebasing runs of the recursion
    cascades = [long_cascade(f"L{k}", 170 + 15 * k, seed=k) for k in range(3)]
    assert all(len(c.comments) >= 150 for c in cascades)
    params = make_params(seed=7, post_decay=0.05, comment_decay=comment_decay)
    assert_matches_oracle(cascades, params, direct_store())


def test_content_from_the_store_map():
    cascades = [long_cascade(f"M{k}", 150, seed=10 + k) for k in range(2)]
    content = {}
    for c in cascades:
        for idx, e in enumerate(c.events):
            if idx % 3:  # the rest fall back to zero vectors
                content[content_key(c.cascade_id, idx)] = e.content_features
            e.content_features = np.zeros(0)
    base = direct_store()
    store = FeatureStore(pair_names=base.pair_names,
                         content_names=base.content_names,
                         pairs=base.pairs, content=content, normalized=True)
    params = make_params(seed=8)
    assert_matches_oracle(cascades, params, store)


def test_empty_and_one_comment_cascades():
    store = direct_store()
    params = make_params(seed=9)
    empty = make_cascade([], cascade_id="E", window_end=12.0)
    single = make_cascade([(3.0, "cy")], cascade_id="S", poster="bo")
    assert_matches_oracle([empty, single], params, store)
    assert_matches_oracle([single], params, store)
    terms = build_corpus_terms([empty], store, USERS, 0.05, 0.8)
    assert terms.n_events == 0 and terms.design.shape == (0, 10)
    _, ll_ref, grad_ref = pair_oracle([empty], params, store, USERS)
    value, grad, _ = log_likelihood_derivatives(terms, flat_weights(params))
    assert value == pytest.approx(ll_ref, rel=1e-12)
    assert grad == pytest.approx(grad_ref, rel=1e-12)
