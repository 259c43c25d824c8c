"""Penalized maximum-likelihood weights by projected Newton.

The objective is the negative log-likelihood plus a per-block weighted l1
penalty.  On the nonnegative orthant the penalty is linear, so the whole
objective is smooth wherever it is finite and convex.  With at most a few
dozen weights the Hessian X^T diag(lambda^-2) X is cheap, so every
iteration takes a projected Newton step (Bertsekas 1982, SIAM J. Control
Optim. 20:221) with an Armijo backtrack along the projection arc.  One
core, `_projected_newton`, minimizes any smooth convex objective over a
box [lower, upper]: `fit` runs it on [0, inf) and `baselines.fit_cox` on
the negated Cox partial likelihood over [-cap, cap].  The trace is
monotone; the projection makes exact zeros reachable, so large penalties
produce genuinely sparse solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ModelParams
from .errors import EstimationError
from .features import annotate_corpus
from .likelihood import (
    build_corpus_terms,
    corpus_log_likelihood,
    log_likelihood_derivatives,
    penalty_weights,
)

DEFAULT_PENALTY_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)

# Bertsekas' epsilon: the widest band next to a bound that can hold active
# coordinates; it shrinks with the distance to stationarity.
_ACTIVE_BAND = 1e-3
# Armijo sufficient-decrease fraction along the projection arc.
_ARMIJO = 1e-4
# Ridge on the unit-diagonal free-set Hessian, for singular ones.
_RIDGE = 1e-10
# The line search gives up (stop reason "line search") below this step.
_MIN_STEP = 1e-18
_STEP_SHRINK = 0.5  # backtracking factor of the line search
_INITIAL_WEIGHT = 0.01  # start of every free feature weight
_INTENSITY_FLOOR = 1e-12  # clamp inside the log while the line search probes


@dataclass
class FitConfig:
    penalty: float | tuple = 0.0
    penalty_grid: tuple = DEFAULT_PENALTY_GRID
    post_decay_rate: float = 0.001
    comment_decay_rate: float = 0.01
    max_iterations: int = 500
    tolerance: float = 1e-9          # relative objective decrease
    cv_folds: int = 5
    pair_mask: np.ndarray | None = None
    content_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")


@dataclass
class FitResult:
    params: ModelParams
    objective_trace: list[float]
    iterations: int
    converged: bool                  # stopped by tolerance at a finite log-likelihood
    final_objective: float
    log_likelihood: float
    penalty: tuple
    stop_reason: str                 # "tolerance", "iteration cap" or "line search"
    projected_gradient_norm: float   # at the returned weights


def _gap(theta, grad, lower, upper):
    """Distance to the bound the gradient pushes toward (lower if grad >= 0)."""
    return np.where(grad >= 0, theta - lower, upper - theta)


def projected_gradient_norm(theta, grad, mask=True, lower=0.0, upper=np.inf):
    """Norm of the feasible-direction gradient in the box [lower, upper]:
    a coordinate on the bound its gradient pushes it toward counts zero."""
    free = mask & (_gap(theta, grad, lower, upper) > 0)
    return float(np.linalg.norm(np.where(free, grad, 0.0)))


def _full_mask(config, pair_dim, content_dim):
    pair = (
        np.ones(pair_dim, bool)
        if config.pair_mask is None
        else np.asarray(config.pair_mask, bool)
    )
    content = (
        np.ones(content_dim, bool)
        if config.content_mask is None
        else np.asarray(config.content_mask, bool)
    )
    if pair.shape != (pair_dim,) or content.shape != (content_dim,):
        raise EstimationError("feature masks do not match the store manifests")
    return np.concatenate([pair, content, pair, content])


def _newton_direction(theta, grad, hess, lower, upper, mask):
    """Bertsekas' projected Newton direction at theta; zero off the mask.

    A coordinate is active when it sits within the epsilon band of the
    bound its gradient pushes it toward, or when its own Newton step would
    carry it past that bound; it then moves by that step, cut at the bound.
    A zero-curvature coordinate counts as past a finite bound.  In `fit`
    its slope, the compensator plus the penalty, is never negative;
    `fit_cox` masks out the coordinates its likelihood is flat in.  The
    rest take a Newton step on the free-set Hessian."""
    curv = np.diag(hess)
    band = min(_ACTIVE_BAND, float(np.linalg.norm(
        np.where(mask, theta - np.clip(theta - grad, lower, upper), 0.0))))
    gap = _gap(theta, grad, lower, upper)
    finite = np.isfinite(gap)  # an infinite gap is never passed; inf * 0 is not formed
    past = mask & finite & (np.where(finite, gap, 0.0) * curv <= np.abs(grad))
    within = mask & (grad != 0) & (gap <= band) & ~past
    newton = mask & ~past & ~within & (curv > 0)
    direction = np.zeros_like(theta)
    direction[past] = np.where(grad >= 0, -gap, gap)[past]
    direction[within] = -grad[within] / curv[within]
    if newton.any():
        # Jacobi scaling, plus a ridge for singular free-set Hessians
        s = 1.0 / np.sqrt(curv[newton])
        h = s[:, None] * hess[np.ix_(newton, newton)] * s[None, :]
        h[np.diag_indices_from(h)] += _RIDGE
        direction[newton] = -s * np.linalg.solve(h, s * grad[newton])
    return direction


def _projected_newton(objective, theta, lower, upper, max_iterations, tolerance,
                      mask=True, on_iterate=None):
    """Minimize `objective` (value; with order 2 also gradient and Hessian)
    over the box [lower, upper], moving only coordinates on `mask`, until a
    relative decrease of at most `tolerance` ("tolerance"), `max_iterations`
    ("iteration cap") or no step passing the Armijo test ("line search").
    Returns (theta, trace, iterations, stop reason, gradient at theta);
    `on_iterate` sees a copy of every accepted iterate."""
    f, g, h = objective(theta, 2)
    trace = [f]
    stop_reason = "iteration cap"
    it = 0
    for it in range(1, max_iterations + 1):
        direction = _newton_direction(theta, g, h, lower, upper, mask)
        step = 1.0
        while step > _MIN_STEP:
            cand = np.clip(theta + step * direction, lower, upper)
            fc = objective(cand)
            if fc <= f and f - fc >= _ARMIJO * float(g @ (theta - cand)):
                break
            step *= _STEP_SHRINK
        else:
            stop_reason = "line search"
            break
        theta = cand
        f_prev, f = f, fc
        trace.append(f)
        if on_iterate is not None:
            on_iterate(theta.copy())
        _, g, h = objective(theta, 2)
        if (f_prev - f) <= tolerance * max(1.0, abs(f_prev)):
            stop_reason = "tolerance"
            break
    return theta, trace, it, stop_reason, g


def fit(cascades, store, users, config=None, on_iterate=None):
    """Estimate the four weight vectors on a training corpus.

    `users` is the population whose combined non-response the compensator
    charges; it must cover every commenter in `cascades`, or
    `build_corpus_terms` raises EstimationError.  The corpus is annotated
    from `store` first (`annotate_corpus`, the one content rule; serving
    reads the events as they are, so a served corpus needs it too).
    Returns a FitResult whose trace is monotone non-increasing.
    """
    config = config or FitConfig()
    if not any(c.comments for c in cascades):
        raise EstimationError("training corpus has no comments, nothing to fit")
    if not users:
        raise EstimationError("population is empty")
    kp, kd = store.pair_dim, store.content_dim
    mask = _full_mask(config, kp, kd)
    z = penalty_weights(config.penalty)
    z_flat = np.repeat(z, [kp, kd, kp, kd])
    terms = build_corpus_terms(
        cascades, store, users, config.post_decay_rate, config.comment_decay_rate
    )

    def objective(theta, order=0):
        """Objective, or with order 2 (objective, gradient, Hessian)."""
        value, grad, hess = log_likelihood_derivatives(
            terms, theta, floor=_INTENSITY_FLOOR, order=order
        )
        f = -value + float(z_flat @ theta)
        return (f, z_flat - grad, -hess) if order else f

    theta = np.where(mask, _INITIAL_WEIGHT, 0.0)
    check, _, _ = log_likelihood_derivatives(terms, theta, order=0)
    if not np.isfinite(check):
        raise EstimationError(
            "objective is not finite at the starting point: some comment has "
            "no feature support under this mask"
        )
    theta, trace, it, stop_reason, g = _projected_newton(
        objective, theta, 0.0, np.inf, config.max_iterations, config.tolerance,
        mask, on_iterate)
    params = ModelParams(
        *np.split(theta, np.cumsum([kp, kd, kp])),
        post_decay_rate=config.post_decay_rate,
        comment_decay_rate=config.comment_decay_rate,
        pair_feature_names=list(store.pair_names),
        content_feature_names=list(store.content_names),
    )
    loglik, _, _ = log_likelihood_derivatives(terms, theta, order=0)
    return FitResult(
        params=params,
        objective_trace=trace,
        iterations=it,
        converged=stop_reason == "tolerance" and math.isfinite(loglik),
        final_objective=trace[-1],
        log_likelihood=loglik,
        penalty=tuple(z),
        stop_reason=stop_reason,
        projected_gradient_norm=projected_gradient_norm(theta, g, mask),
    )


@dataclass
class CVResult:
    best_penalty: float | tuple
    table: list[dict] = field(default_factory=list)


def _penalty_sort_key(z):
    return float(np.sum(penalty_weights(z)))


def cross_validate(cascades, store, users, config=None):
    """Pick the l1 penalty by blocked k-fold cross-validation in time order.

    Cascades are ordered by initiation and cut into `cv_folds` contiguous
    blocks; each block is held out once and scored by its exact
    (unclamped) log-likelihood under the weights fitted on every other
    block, so each penalty gets `cv_folds` scores.  The folds are not
    forward-chained: the blocks after the held-out one train too.  Ties
    prefer the larger penalty.
    """
    config = config or FitConfig()
    # annotated once here: every fold fit and score finds its vectors filled
    ordered = sorted(annotate_corpus(cascades, store),
                     key=lambda c: (c.origin, c.cascade_id))
    if len(ordered) < config.cv_folds:
        raise EstimationError(
            f"{len(ordered)} cascades cannot fill {config.cv_folds} folds"
        )
    folds = [list(f) for f in np.array_split(np.array(ordered, dtype=object), config.cv_folds)]
    table = []
    for z in config.penalty_grid:
        held = []
        for k, fold in enumerate(folds):
            train = [c for j, f in enumerate(folds) if j != k for c in f]
            result = fit(train, store, users, replace(config, penalty=z))
            held.append(corpus_log_likelihood(fold, result.params, store, users))
        table.append({
            "penalty": z,
            "fold_log_likelihoods": held,
            "mean_log_likelihood": float(np.mean(held)),
        })
    best = max(
        table,
        key=lambda row: (row["mean_log_likelihood"], _penalty_sort_key(row["penalty"])),
    )
    return CVResult(best_penalty=best["penalty"], table=table)
