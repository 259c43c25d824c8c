"""The HWK EM on its sparse design against the pair-loop EM it replaced.

The oracle is the earlier implementation kept verbatim: a dict-keyed
E-step over every (comment, earlier comment) pair, the M-step as expected
counts over exposure, and the log-likelihood by a second pair loop.  The
design-matrix EM must follow it iterate by iterate.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hawkesfeed
from hawkesfeed.baselines import PairwiseHawkesParams, fit_hwk_em
from hawkesfeed.errors import EstimationError

from conftest import (USERS, hwk_intensity, hwk_log_likelihood, make_cascade,
                      random_corpus)


def oracle_log_likelihood(cascades, params):
    post_col = {}
    for (u, p), v in params.post_rates.items():
        post_col[p] = post_col.get(p, 0.0) + v
    comment_col = {}
    for (u, p), v in params.comment_rates.items():
        comment_col[p] = comment_col.get(p, 0.0) + v
    value = 0.0
    pd, cd = params.post_decay_rate, params.comment_decay_rate
    for c in cascades:
        g_post = (1.0 - np.exp(-pd * c.window_end)) / pd
        value -= post_col.get(c.post.publisher, 0.0) * g_post
        for e in c.comments:
            lam = hwk_intensity(params, e.publisher, c, e.time)
            value += -np.inf if lam <= 0 else np.log(lam)
            g_comment = (1.0 - np.exp(-cd * (c.window_end - e.time))) / cd
            value -= comment_col.get(e.publisher, 0.0) * g_comment
    return float(value)


def oracle_em(cascades, pd, cd, max_iterations=200, tolerance=1e-8,
              initial_rate=0.1):
    """(params, trace, iterations, converged) of the pair-loop EM."""
    post_exposure = {}
    comment_exposure = {}
    post_pairs = set()
    comment_pairs = set()
    for c in cascades:
        g_post = (1.0 - np.exp(-pd * c.window_end)) / pd
        post_exposure[c.post.publisher] = (
            post_exposure.get(c.post.publisher, 0.0) + g_post
        )
        seen = []
        for e in c.comments:
            post_pairs.add((e.publisher, c.post.publisher))
            for s in seen:
                comment_pairs.add((e.publisher, s))
            g_comment = (1.0 - np.exp(-cd * (c.window_end - e.time))) / cd
            comment_exposure[e.publisher] = (
                comment_exposure.get(e.publisher, 0.0) + g_comment
            )
            seen.append(e.publisher)
    params = PairwiseHawkesParams(
        post_rates={k: initial_rate for k in post_pairs},
        comment_rates={k: initial_rate for k in comment_pairs},
        post_decay_rate=pd,
        comment_decay_rate=cd,
    )
    trace = [oracle_log_likelihood(cascades, params)]
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        post_num = {}
        comment_num = {}
        for c in cascades:
            poster = c.post.publisher
            for i, e in enumerate(c.comments):
                phi0 = params.post_rates.get((e.publisher, poster), 0.0) * np.exp(
                    -pd * e.time
                )
                phi = [
                    params.comment_rates.get((e.publisher, prior.publisher), 0.0)
                    * np.exp(-cd * (e.time - prior.time))
                    for prior in c.comments[:i]
                ]
                norm = phi0 + sum(phi)
                if norm <= 0:
                    raise EstimationError("no possible parent")
                key = (e.publisher, poster)
                post_num[key] = post_num.get(key, 0.0) + phi0 / norm
                for prior, ph in zip(c.comments[:i], phi):
                    k2 = (e.publisher, prior.publisher)
                    comment_num[k2] = comment_num.get(k2, 0.0) + ph / norm
        params = PairwiseHawkesParams(
            post_rates={
                k: post_num.get(k, 0.0) / post_exposure[k[1]] for k in post_pairs
            },
            comment_rates={
                k: comment_num.get(k, 0.0) / comment_exposure[k[1]]
                for k in comment_pairs
            },
            post_decay_rate=pd,
            comment_decay_rate=cd,
        )
        trace.append(oracle_log_likelihood(cascades, params))
        if abs(trace[-1] - trace[-2]) < tolerance:
            converged = True
            break
    return params, trace, it, converged


def long_cascades(n_cascades=2, n_comments=100, seed=7):
    """Long cascades with a gap of thousands of decay lengths in the
    middle, so a 2.0 comment decay rebases many times.  Two users comment
    only before the gap and two only after it, so the counts that link
    across it underflow to exactly 0."""
    rng = np.random.default_rng(seed)
    cascades = []
    for k in range(n_cascades):
        times = np.sort(rng.uniform(0.5, 60.0, size=n_comments))
        times[n_comments // 2:] += 2000.0
        rows = [(float(t), USERS[2 * (i >= n_comments // 2) + int(rng.integers(2))])
                for i, t in enumerate(times)]
        cascades.append(make_cascade(rows, cascade_id=f"long{k}",
                                     poster=USERS[k % len(USERS)],
                                     window_end=2100.0))
    return cascades


def single_comment_cascades():
    return [
        make_cascade([(1.0 + 0.5 * i, USERS[i % 3])], cascade_id=f"one{i}",
                     poster=USERS[(i + 1) % 4], window_end=15.0 + i)
        for i in range(6)
    ]


CORPORA = {
    "random": (random_corpus(n_cascades=8, seed=5), 0.05, 0.8),
    "busy": (random_corpus(n_cascades=5, seed=21, mean_comments=20), 0.01, 3.0),
    "single comments": (single_comment_cascades(), 0.05, 0.8),
    "mixed": (random_corpus(n_cascades=4, seed=9) + single_comment_cascades()
              + [make_cascade([], cascade_id="quiet")], 0.05, 0.8),
    "long, fast decay": (long_cascades(), 0.02, 2.0),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_em_follows_the_pair_loop_iterate_by_iterate(name):
    corpus, pd, cd = CORPORA[name]
    # tolerance 0 never stops early, so both run every iteration
    params, trace, it, converged = oracle_em(corpus, pd, cd, max_iterations=60,
                                             tolerance=0.0)
    em = fit_hwk_em(corpus, pd, cd, max_iterations=60, tolerance=0.0)
    assert (em.iterations, em.converged, em.stop_reason) == (60, False, "iteration cap")
    assert len(em.log_likelihood_trace) == len(trace) == 61
    np.testing.assert_allclose(em.log_likelihood_trace, trace, rtol=1e-12, atol=0)
    assert set(em.params.post_rates) == set(params.post_rates)
    assert set(em.params.comment_rates) == set(params.comment_rates)
    for got, want in ((em.params.post_rates, params.post_rates),
                      (em.params.comment_rates, params.comment_rates)):
        for k, v in want.items():
            assert got[k] == pytest.approx(v, rel=1e-10, abs=1e-300), k
    # the trace is the log-likelihood of the iterates, to the last bit
    assert hwk_log_likelihood(corpus, em.params) == em.log_likelihood_trace[-1]


def test_long_corpus_keeps_links_whose_count_underflows():
    corpus, pd, cd = CORPORA["long, fast decay"]
    params, _, _, _ = oracle_em(corpus, pd, cd, max_iterations=1)
    em = fit_hwk_em(corpus, pd, cd, max_iterations=1)
    zeros = {k for k, v in params.comment_rates.items() if v == 0.0}
    # pairs seen only across the gap exist, with rate 0 after one step
    assert zeros
    assert {k for k, v in em.params.comment_rates.items() if v == 0.0} == zeros


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_em_stops_where_the_pair_loop_stops(name):
    corpus, pd, cd = CORPORA[name]
    _, trace, it, converged = oracle_em(corpus, pd, cd, max_iterations=400,
                                        tolerance=1e-6)
    em = fit_hwk_em(corpus, pd, cd, max_iterations=400, tolerance=1e-6)
    assert (em.iterations, em.converged) == (it, converged)
    np.testing.assert_allclose(em.log_likelihood_trace, trace, rtol=1e-12, atol=0)


def test_stop_reason():
    corpus, pd, cd = CORPORA["single comments"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        em = fit_hwk_em(corpus, pd, cd, max_iterations=5000, tolerance=1e-12)
    assert (em.stop_reason, em.converged) == ("tolerance", True)
    assert em.iterations < 5000
    with pytest.warns(UserWarning, match="max_iterations=3,"):
        em = fit_hwk_em(random_corpus(n_cascades=6, seed=3), pd, cd, max_iterations=3)
    assert (em.stop_reason, em.converged, em.iterations) == ("iteration cap", False, 3)


def test_comment_without_support_raises():
    corpus, pd, cd = CORPORA["random"]
    with pytest.raises(EstimationError):
        oracle_em(corpus, pd, cd, initial_rate=0.0)
    with pytest.raises(EstimationError, match="no possible parent"):
        fit_hwk_em(corpus, pd, cd, initial_rate=0.0)


def test_log_likelihood_matches_the_pair_loop_for_any_rates():
    # rates for users and publishers absent from the corpus, pairs never
    # observed, missing pairs and zero rates all keep their meaning
    corpus, pd, cd = CORPORA["mixed"]
    rng = np.random.default_rng(4)
    names = USERS + ["zed"]
    for _ in range(20):
        params = PairwiseHawkesParams(
            post_rates={(u, p): float(rng.uniform()) for u in names for p in names
                        if rng.uniform() < 0.7},
            comment_rates={(u, p): float(rng.choice([0.0, rng.uniform()]))
                           for u in names for p in names if rng.uniform() < 0.7},
            post_decay_rate=pd,
            comment_decay_rate=cd,
        )
        want = oracle_log_likelihood(corpus, params)
        got = hwk_log_likelihood(corpus, params)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)
    empty = PairwiseHawkesParams({}, {}, pd, cd)
    assert hwk_log_likelihood(corpus, empty) == -np.inf


_TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, {tests!r})
from conftest import random_corpus
from hawkesfeed.baselines import fit_hwk_em
em = fit_hwk_em(random_corpus(n_cascades=8, seed=5, mean_comments=10), 0.05, 0.8,
                max_iterations=40)
print(json.dumps([float.hex(v) for v in em.log_likelihood_trace]))
"""


def test_trace_is_bit_identical_across_hash_seeds():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hawkesfeed.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    traces = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", _TRACE_SCRIPT.format(tests=tests)],
            env=env, capture_output=True, text=True, check=True,
        )
        traces.append(json.loads(out.stdout))
    assert len(traces[0]) == 41
    assert traces[0] == traces[1]
