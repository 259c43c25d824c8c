"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a PASS/FAIL line with the measured quantity so a plain
`pytest -s tests/test_acceptance.py` doubles as the release checklist.
Oracles here are independent of the implementation: finite differences,
adaptive quadrature, scratch recomputation, closed forms, and known
statistics of the simulator.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import integrate, stats

from hawkesfeed.baselines import (
    _cox_design,
    cox_partial_log_likelihood,
    fit_hwk_em,
)
from hawkesfeed.core import JumpTable, ModelParams, intensity
from hawkesfeed.features import FeatureStore
from hawkesfeed.fit import FitConfig, fit
from hawkesfeed.likelihood import (
    build_corpus_terms,
    corpus_log_likelihood,
    log_likelihood_derivatives,
)
from hawkesfeed.rank_eval import (
    candidate_cascades,
    evaluate,
    evaluate_group,
    prioritize,
)
from hawkesfeed.simulate import (
    SimConfig,
    branching_ratio,
    random_sim_config,
    simulate_corpus,
)

from conftest import USERS, direct_store, make_cascade, make_params, random_corpus

DECAYS = (0.05, 0.8)
BLOCK_DIMS = (3, 2, 3, 2)  # pair, content, pair, content


def check(label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def flat(params):
    return np.concatenate([
        params.post_pair_weights, params.post_content_weights,
        params.comment_pair_weights, params.comment_content_weights,
    ])


def test_01_gradient_matches_central_differences():
    # 5 cascades, 6 weight coordinates (pair 2 + content 1 per kernel)
    start = time.perf_counter()
    corpus = random_corpus(n_cascades=5, seed=101, content_dim=1)
    store = direct_store(pair_dim=2, content_dim=1)
    terms = build_corpus_terms(corpus, store, USERS, *DECAYS)

    def value(theta):
        return log_likelihood_derivatives(terms, theta, order=0)[0]

    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.05, 1.0, 6)
        _, analytic, _ = log_likelihood_derivatives(terms, theta)
        fd = np.zeros_like(analytic)
        for k in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            fd[k] = (value(up) - value(down)) / (2 * h)
        rel = np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    check("criterion 1 (gradient vs central differences)",
          worst <= 1e-5 and elapsed < 10.0,
          f"worst per-coordinate rel error {worst:.2e} over 20 points "
          f"in {elapsed:.1f}s")


def test_02_log_likelihood_matches_adaptive_quadrature():
    start = time.perf_counter()
    corpus = random_corpus(n_cascades=20, seed=202)
    store = direct_store()
    params = make_params(seed=3)
    worst = 0.0
    for cascade in corpus:
        events = sum(
            math.log(intensity(e.publisher, cascade, e.time, params, store))
            for e in cascade.comments
        )

        def total_rate(t):
            return sum(intensity(u, cascade, t, params, store) for u in USERS)

        knots = [0.0] + [e.time for e in cascade.comments] + [cascade.window_end]
        compensator = sum(
            integrate.quad(total_rate, a, b, limit=200)[0]
            for a, b in zip(knots, knots[1:])
        )
        oracle = events - compensator
        value = corpus_log_likelihood([cascade], params, store, USERS)
        rel = abs(value - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    check("criterion 2 (likelihood vs adaptive quadrature)",
          worst <= 1e-6 and elapsed < 30.0,
          f"worst rel error {worst:.2e} over 20 cascades in {elapsed:.1f}s")


def test_03_streaming_states_match_scratch_recomputation():
    config = random_sim_config(n_users=5, pair_dim=3, content_dim=2, seed=42,
                               n_cascades=80, horizon=12.0, origin_spacing=3.0)
    corpus = simulate_corpus(config)
    params, store = config.params, config.store
    jumps = JumpTable(params, store)
    ops = 0
    worst = 0.0

    def compare(state, cascade, t):
        # the state runs on the global minute, the scratch intensity on the
        # cascade's relative one
        nonlocal ops, worst
        state.advance(cascade.origin + t, params)
        scratch = intensity(state.user, cascade, t, params, store)
        rel = abs(state.intensity - scratch) / max(scratch, 1e-12)
        worst = max(worst, rel)
        ops += 1

    for cascade in corpus:
        for user in config.users:
            state = jumps.states_at(user, [cascade], cascade.origin)[0]
            prev = 0.0
            for comment in cascade.comments:
                mid = 0.5 * (prev + comment.time)
                if mid > prev:
                    compare(state, cascade, mid)
                compare(state, cascade, comment.time)
                jumps.absorb(state, comment, cascade.origin + comment.time)
                prev = comment.time
            compare(state, cascade, cascade.window_end)
    check("criterion 3 (streaming vs scratch states)",
          ops >= 10_000 and worst <= 1e-9,
          f"max rel diff {worst:.2e} over {ops} operations")


def test_04_single_user_simulator_statistics():
    mu, omega, horizon = 0.8, 0.2, 10.0
    store = FeatureStore(
        pair_names=["base"], content_names=[],
        pairs={("solo", "solo"): np.array([1.0])},
        normalized=True,
    )
    params = ModelParams(
        post_pair_weights=np.array([mu]),
        post_content_weights=np.zeros(0),
        comment_pair_weights=np.array([0.0]),
        comment_content_weights=np.zeros(0),
        post_decay_rate=omega,
        comment_decay_rate=1.0,
    )
    config = SimConfig(users=["solo"], store=store, params=params,
                       horizon=horizon, seed=99, n_cascades=10_000)
    corpus = simulate_corpus(config)

    counts = np.array([len(c.comments) for c in corpus], dtype=float)
    target = mu * (1.0 - math.exp(-omega * horizon)) / omega
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    mean_ok = abs(counts.mean() - target) <= 3.0 * se

    # time rescaling: event times mapped through the compensator are
    # uniform on (0, 1) after dividing by the window's total mass
    rescaled = [
        (1.0 - math.exp(-omega * e.time)) / (1.0 - math.exp(-omega * horizon))
        for c in corpus
        for e in c.comments
    ]
    p = stats.kstest(rescaled, "uniform").pvalue
    check("criterion 4 (simulator count and time-rescaling)",
          mean_ok and p > 0.01,
          f"mean {counts.mean():.4f} vs {target:.4f} (3se {3 * se:.4f}), "
          f"KS p={p:.3f} on {len(rescaled)} events")


def test_05_weight_recovery_on_simulated_corpus():
    start = time.perf_counter()
    base = random_sim_config(n_users=6, pair_dim=3, content_dim=3, seed=2024,
                             horizon=16.0, post_decay_rate=0.1,
                             comment_decay_rate=5.0, n_cascades=200,
                             origin_spacing=4.0)
    truth = ModelParams(
        post_pair_weights=[0.5, 0.0, 0.35],
        post_content_weights=[0.0, 0.4, 0.0],
        comment_pair_weights=[0.45, 0.0, 0.25],
        comment_content_weights=[0.0, 0.3, 0.0],
        post_decay_rate=0.1,
        comment_decay_rate=5.0,
    )
    config = replace(base, params=truth)
    assert branching_ratio(config) < 0.85
    corpus = simulate_corpus(config)
    result = fit(corpus, config.store, config.users,
                 FitConfig(post_decay_rate=0.1, comment_decay_rate=5.0,
                           max_iterations=4000, tolerance=1e-10))
    est, tru = flat(result.params), flat(truth)
    rel = np.linalg.norm(est - tru) / np.linalg.norm(tru)
    # truth is 0 or >= 0.2 in every coordinate, so 0.1 splits the pattern
    pattern_ok = all(
        (est[k] <= 0.1) == (tru[k] == 0.0) for k in range(tru.size)
    )
    elapsed = time.perf_counter() - start
    check("criterion 5 (sparse weight recovery)",
          rel <= 0.15 and pattern_ok and elapsed < 300.0,
          f"rel L2 {rel:.3f}, pattern {'ok' if pattern_ok else 'WRONG'}, "
          f"{sum(len(c.comments) for c in corpus)} comments in {elapsed:.1f}s")


def test_06_objectives_are_convex_along_chords():
    corpus = random_corpus(n_cascades=5, seed=606)
    store = direct_store()
    terms = build_corpus_terms(corpus, store, USERS, *DECAYS)

    def nll(theta):
        return -log_likelihood_derivatives(terms, theta, order=0)[0]

    rng = np.random.default_rng(66)
    worst_main = -np.inf
    for _ in range(100):
        x, y = rng.uniform(0.05, 1.2, (2, sum(BLOCK_DIMS)))
        a = rng.uniform()
        chord = a * nll(x) + (1 - a) * nll(y)
        gap = nll(a * x + (1 - a) * y) - chord
        worst_main = max(worst_main, gap / max(1.0, abs(chord)))

    design = _cox_design(random_corpus(n_cascades=8, seed=607), store, [0])

    def cox_nll(rho):
        return -cox_partial_log_likelihood(np.array([rho]), design)

    worst_cox = -np.inf
    for _ in range(100):
        x, y = rng.uniform(-4.0, 4.0, 2)
        a = rng.uniform()
        chord = a * cox_nll(x) + (1 - a) * cox_nll(y)
        gap = cox_nll(a * x + (1 - a) * y) - chord
        worst_cox = max(worst_cox, gap / max(1.0, abs(chord)))
    check("criterion 6 (convexity along random chords)",
          worst_main <= 1e-9 and worst_cox <= 1e-9,
          f"worst chord violation {worst_main:.2e} (model), "
          f"{worst_cox:.2e} (survival baseline)")


def test_07_em_baseline_monotone_and_closed_form():
    worst_drop = 0.0
    for seed in range(10):
        corpus = random_corpus(n_cascades=6, seed=700 + seed)
        em = fit_hwk_em(corpus, *DECAYS, max_iterations=60)
        trace = np.asarray(em.log_likelihood_trace)
        drops = np.maximum(trace[:-1] - trace[1:], 0.0)
        worst_drop = max(worst_drop, float(drops.max(initial=0.0)))

    windows = [20.0 + i for i in range(10)]
    singles = [
        make_cascade([(1.0, "bo")], cascade_id=f"s{i}", poster="ana",
                     window_end=w)
        for i, w in enumerate(windows)
    ]
    em = fit_hwk_em(singles, *DECAYS, max_iterations=5000, tolerance=1e-12)
    exposure = sum((1.0 - math.exp(-DECAYS[0] * w)) / DECAYS[0] for w in windows)
    expected = 10.0 / exposure
    got = em.params.post_rates[("bo", "ana")]
    closed_ok = abs(got - expected) <= 1e-8
    check("criterion 7 (EM monotone and closed form)",
          worst_drop <= 1e-9 and closed_ok,
          f"worst trace drop {worst_drop:.2e} over 10 corpora, "
          f"single-parent rate {got:.10f} vs {expected:.10f}")


class _FixedOrder:
    """Serves candidates exactly as handed; absorbs nothing."""

    def rank(self, user, t, candidates):
        return list(candidates)

    def absorb(self, cascade, event, t):
        pass


def test_08_model_ranker_beats_recency_and_nave_normalizes():
    config = random_sim_config(n_users=6, pair_dim=3, content_dim=2, seed=7,
                               n_cascades=120, horizon=10.0, origin_spacing=2.0)
    corpus = simulate_corpus(config)
    train, test = corpus[:70], [c for c in corpus[70:] if c.comments]
    fit_config = FitConfig(post_decay_rate=config.params.post_decay_rate,
                           comment_decay_rate=config.params.comment_decay_rate,
                           max_iterations=300)
    hwk = evaluate("HWK-ALL", train, test, config.store,
                   fit_config=fit_config).groups[0]
    rchr = evaluate("RCHR", train, test).groups[0]

    # four always-active cascades, every comment lands on the one ranked
    # third, so AveRank is exactly 2 while the activity normalizer is 4
    quads = [make_cascade([], cascade_id=cid, window_end=100.0)
             for cid in "ABD"]
    quads.insert(2, make_cascade([(1.0, "bo"), (2.0, "cy"), (3.0, "di")],
                                 cascade_id="C", window_end=100.0))
    metrics = evaluate_group(_FixedOrder(), quads, window=(0.0, 100.0))
    nave_ok = (metrics.ave_rank == 2.0 and metrics.mean_activity == 4.0
               and metrics.nave_rank == 0.5)
    check("criterion 8 (ranking quality and normalization)",
          hwk.ave_rank < rchr.ave_rank and nave_ok,
          f"AveRank {hwk.ave_rank:.4f} (model) < {rchr.ave_rank:.4f} (recency); "
          f"NAveRank {metrics.ave_rank}/{metrics.mean_activity}"
          f"={metrics.nave_rank}")


def test_09_default_post_decay_over_a_thousand_minutes():
    remaining = math.exp(-0.001 * 1000.0)
    check("criterion 9 (default decay magnitude)",
          abs(remaining - 0.3679) < 5e-5 and round(1.0 - remaining, 3) == 0.632,
          f"exp(-0.001*1000)={remaining:.6f}, {100 * (1 - remaining):.1f}% decayed")


def test_10_ranking_is_invariant_to_weight_scaling():
    corpus = random_corpus(n_cascades=10, seed=1010)
    store = direct_store()
    params = make_params(seed=4)
    rng = np.random.default_rng(10)
    mismatches = 0
    for snap in range(50):
        user = USERS[snap % len(USERS)]
        t = float(rng.uniform(0.5, 29.5))
        candidates = candidate_cascades(corpus, t)
        base = [c.cascade_id
                for c in prioritize(user, t, candidates, {}, params, store)]
        for scale in (0.5, 3.0):
            scaled = [c.cascade_id for c in prioritize(
                user, t, candidates, {}, params.scaled(scale), store)]
            mismatches += scaled != base
    check("criterion 10 (scale-invariant ordering)",
          mismatches == 0,
          f"{mismatches} order changes over 50 snapshots x 2 scales")
