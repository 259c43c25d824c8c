"""The proportional-rates baseline on stacked risk sets against the loop
it replaced (the oracle in conftest): same covariates, same risk sets,
the same partial likelihood and gradient to rounding, the same fitted
objective and the same served rank traces.  A risk set is what the
"active" policy serves at the comment plus the comment's own cascade."""

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
from hawkesfeed.core import (
    ACTIVITY_HORIZON,
    Cascade,
    Event,
    candidate_cascades,
    comment_stream,
)
from hawkesfeed.features import FeatureStore, build_feature_store, demo_lexicon
from hawkesfeed.rank_eval import evaluate

from conftest import (
    cox_covariate_scan,
    cox_design_loop,
    cox_gradient_loop,
    cox_hessian_loop,
    cox_partial_log_likelihood_loop,
    fit_cox_loop,
    make_cascade,
    random_corpus,
    stretched,
    text_corpus,
)

FEATURES = np.array([0, 2])


def content_store(dim=3):
    return FeatureStore(pair_names=[], content_names=[f"c{i}" for i in range(dim)],
                        normalized=True)


def corpora():
    """Risk sets from 1 to 14 cascades: each corpus as drawn and stretched
    by 90 and by 720, so that the 720-minute horizon spans 8 and 1 of its
    drawn minutes."""
    for seed in range(4):
        corpus = random_corpus(n_cascades=14, seed=seed, content_dim=3,
                               origin_spacing=3.0, mean_comments=6)
        for k in (1.0, 90.0, 720.0):
            yield stretched(corpus, k)


def test_corpora_cover_small_and_pairwise_summed_risk_sets():
    sizes = np.concatenate([
        _cox_design(c, content_store(), FEATURES).sizes for c in corpora()
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
    # forged after construction, which refuses ties
    object.__setattr__(c, "comments", tuple(sorted(comments, key=lambda e: e.time)))
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
        last = c.origin + c.events[-1].time
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
    for corpus in corpora():
        design = _cox_design(corpus, store, FEATURES)
        loop = cox_design_loop(corpus, store, FEATURES, ACTIVITY_HORIZON)
        assert design.starts.size == design.targets.size == len(loop)
        assert design.sizes.tolist() == [rows.shape[0] for rows, _ in loop]
        assert (design.targets - design.starts).tolist() == [t for _, t in loop]
        assert np.array_equal(design.rows, np.vstack([rows for rows, _ in loop]))
        assert np.array_equal(design.segment,
                              np.repeat(np.arange(len(loop)), design.sizes))


def test_a_closed_window_leaves_the_risk_set():
    # A's window closes at minute 10; at B's comments its own comment, at
    # minute 5, is well within the horizon, yet A is no longer at risk
    rng = np.random.default_rng(4)

    def cascade(rows, cascade_id, origin, window_end):
        return make_cascade(rows, cascade_id=cascade_id, origin=origin,
                            window_end=window_end, content_dim=3,
                            post_content=rng.uniform(size=3), seed=len(rows))

    a = cascade([(5.0, "bo")], "A", 0.0, 10.0)
    b = cascade([(19.0, "cy"), (29.0, "di")], "B", 1.0, 100.0)
    c = cascade([], "C", 2.0, 100.0)
    store = content_store()
    design = _cox_design([c, b, a], store, FEATURES)
    # A's comment: A, B and C, in origin order; B's two comments: B and C
    assert design.sizes.tolist() == [3, 2, 2]
    assert (design.targets - design.starts).tolist() == [0, 0, 0]
    want = [cox_covariate(x, t, store, FEATURES)
            for t, at_risk in ((5.0, (a, b, c)), (20.0, (b, c)), (30.0, (b, c)))
            for x in at_risk]
    assert np.array_equal(design.rows, np.array(want))


def closing_corpus(seed):
    """Short windows that close while others run, integer minutes so that
    comments share a global minute, and a long-window cascade whose second
    comment comes more than the horizon after its first; listed in no
    particular order."""
    rng = np.random.default_rng(seed)
    cascades = []

    def add(cascade_id, origin, window_end, times):
        rows = [(float(t), str(rng.choice(["bo", "cy", "di"])), rng.uniform(size=3))
                for t in sorted(set(times))]
        cascades.append(make_cascade(rows, cascade_id=cascade_id, origin=float(origin),
                                     window_end=window_end, content_dim=3,
                                     post_content=rng.uniform(size=3)))

    for i in range(int(rng.integers(4, 10))):
        window = float(rng.choice([5.0, 15.0, 60.0]))
        add(f"s{rng.integers(100)}-{i}", rng.integers(0, 40), window,
            rng.integers(1, int(window), size=rng.integers(0, 6)).tolist())
    quiet = int(ACTIVITY_HORIZON) + int(rng.integers(10, 60))
    add("quiet", rng.integers(0, 10), 2000.0, [3, 3 + quiet])
    add("late", 3 + quiet - int(rng.integers(1, 20)), 60.0,
        rng.integers(1, 59, size=4).tolist())
    rng.shuffle(cascades)
    return cascades


def test_closing_corpora_hold_what_the_property_needs():
    closed = shared = quiet = 0
    for seed in range(30):
        corpus = closing_corpus(seed)
        stream = comment_stream(corpus)
        shared += len(stream) - len({t for t, _, _, _ in stream})
        for t, target, _, _ in stream:
            closed += any(not t < c.origin + c.window_end for c in corpus
                          if c.origin < t and t - c.origin < ACTIVITY_HORIZON)
            quiet += target not in candidate_cascades(corpus, t, "active")
    assert closed and shared and quiet >= 30


@pytest.mark.parametrize("seed", range(30))
def test_cox_risk_sets_are_the_active_candidates_plus_the_target(seed):
    corpus = closing_corpus(seed)
    store = content_store()
    design = _cox_design(corpus, store, FEATURES)
    stream = comment_stream(corpus)
    assert design.starts.size == len(stream)
    bounds = [*design.starts.tolist(), design.rows.shape[0]]
    for i, (t, target, _, _) in enumerate(stream):
        at_risk = candidate_cascades(corpus, t, "active")
        if target not in at_risk:
            at_risk.append(target)
        at_risk.sort(key=lambda c: (c.origin, c.cascade_id))
        want = np.array([cox_covariate(c, t, store, FEATURES) for c in at_risk])
        assert np.array_equal(design.rows[bounds[i]:bounds[i + 1]], want), (seed, i)
        assert design.targets[i] - bounds[i] == at_risk.index(target)


def test_stacked_partial_likelihood_and_gradient_match_the_loop():
    store = content_store()
    rng = np.random.default_rng(12)
    worst_value = worst_grad = worst_hess = 0.0
    for corpus in corpora():
        design = _cox_design(corpus, store, FEATURES)
        loop = cox_design_loop(corpus, store, FEATURES, ACTIVITY_HORIZON)
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
    for corpus in corpora():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = fit_cox(corpus, store, FEATURES)
            oracle = fit_cox_loop(corpus, store, FEATURES, max_iterations=20_000)
        loop = cox_design_loop(corpus, store, FEATURES, ACTIVITY_HORIZON)
        value = cox_partial_log_likelihood_loop(params.weights, loop)
        want = cox_partial_log_likelihood_loop(oracle.weights, loop)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (value, want)
        assert params.feature_names == oracle.feature_names


def test_fit_cox_converges_in_a_few_newton_iterations():
    # on the first corpus gradient ascent stopped at its 500-iteration cap,
    # 2.2e-9 short of the optimum; a capped or failed fit warns
    store = content_store()
    for corpus in corpora():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_cox(corpus, store, FEATURES, max_iterations=29)


@pytest.mark.parametrize("fill", [0.0, 0.5])
def test_fit_cox_leaves_a_feature_constant_in_every_risk_set_at_zero(fill):
    # the likelihood is flat along such a weight; a bound would also reach
    # every test cascade's score through rank_cox
    store = content_store()
    for corpus in corpora():
        for c in corpus:
            for e in c.events:
                e.content_features[1] = fill
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = fit_cox(corpus, store, [0, 1, 2])
            without = fit_cox(corpus, store, FEATURES)
        assert params.weights[1] == 0.0
        # the same optimum: the objective to rounding, the flat weights looser
        loop = cox_design_loop(corpus, store, FEATURES, ACTIVITY_HORIZON)
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
