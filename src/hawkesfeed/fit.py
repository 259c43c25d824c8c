"""Penalized maximum-likelihood weights by projected Newton.

The objective is the negative log-likelihood plus a per-block weighted l1
penalty.  On the nonnegative orthant the penalty is linear, so the whole
objective is smooth wherever it is finite and convex, and the only
constraint is a coordinate clamp at zero.  With at most a few dozen
weights the Hessian X^T diag(lambda^-2) X of the design matrix is cheap,
so every iteration takes a projected Newton step (Bertsekas 1982, SIAM J.
Control Optim. 20:221): coordinates the gradient pushes down form the
active set when they sit within epsilon of zero or when their own Newton
step would cross zero, and take a diagonally scaled gradient step; the
rest take a Newton step, and an Armijo backtrack along the projection arc
picks the step length.  No step is accepted that raises the objective, so
the trace is monotone; the clamp makes exact zeros reachable, so large
penalties produce genuinely sparse solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import ModelParams
from .errors import EstimationError
from .likelihood import (
    build_corpus_terms,
    corpus_log_likelihood,
    log_likelihood_derivatives,
    penalty_weights,
)

DEFAULT_PENALTY_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)

# Bertsekas' epsilon: the widest band above zero that can hold active
# coordinates; it shrinks with the distance to stationarity.
_ACTIVE_BAND = 1e-3
# Armijo sufficient-decrease fraction along the projection arc.
_ARMIJO = 1e-4
# Ridge on the unit-diagonal free-set Hessian, for singular ones.
_RIDGE = 1e-10
# The line search gives up (stop reason "line search") below this step.
_MIN_STEP = 1e-18


@dataclass
class FitConfig:
    penalty: float | tuple = 0.0
    penalty_grid: tuple = DEFAULT_PENALTY_GRID
    post_decay_rate: float = 0.001
    comment_decay_rate: float = 0.01
    max_iterations: int = 500
    tolerance: float = 1e-9          # relative objective decrease
    initial_weight: float = 0.01
    step_shrink: float = 0.5         # backtracking factor of the line search
    intensity_floor: float = 1e-12   # clamp inside log during line search only
    cv_folds: int = 5
    pair_mask: np.ndarray | None = None
    content_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.step_shrink < 1:
            raise ValueError("step_shrink must be in (0, 1)")
        if self.initial_weight <= 0:
            raise ValueError("initial_weight must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")


@dataclass
class FitResult:
    params: ModelParams
    objective_trace: list[float]
    iterations: int
    converged: bool
    final_objective: float
    log_likelihood: float
    penalty: tuple
    stop_reason: str                 # "tolerance", "iteration cap" or "line search"
    projected_gradient_norm: float   # at the returned weights


def projected_gradient_norm(theta, grad, mask=None):
    """Norm of the feasible-direction gradient: full where theta > 0, only
    the negative part on the boundary."""
    r = np.where(theta > 0, grad, np.minimum(grad, 0.0))
    if mask is not None:
        r = np.where(mask, r, 0.0)
    return float(np.linalg.norm(r))


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


def _newton_direction(theta, grad, hess, mask):
    """Bertsekas' projected Newton direction at theta; zero off the mask.

    A coordinate the gradient pushes down is active when it sits within the
    epsilon band of zero, or when its own Newton step would carry it past
    zero; an active coordinate moves by its diagonal Newton step, cut at
    zero.  Coordinates no live event loads (zero curvature) always count as
    past zero: their slope is the compensator plus the penalty, never
    negative.  The rest take a Newton step on the free-set Hessian.
    """
    curv = np.diag(hess)
    band = min(_ACTIVE_BAND, float(np.linalg.norm(
        np.where(mask, theta - np.maximum(theta - grad, 0.0), 0.0))))
    past = mask & (grad >= 0) & (theta * curv <= grad)
    within = mask & (grad > 0) & (theta <= band) & ~past
    newton = mask & ~past & ~within & (curv > 0)
    direction = np.zeros_like(theta)
    direction[past] = -theta[past]
    direction[within] = -grad[within] / curv[within]
    if newton.any():
        # Jacobi scaling, plus a ridge for singular free-set Hessians
        s = 1.0 / np.sqrt(curv[newton])
        h = s[:, None] * hess[np.ix_(newton, newton)] * s[None, :]
        h[np.diag_indices_from(h)] += _RIDGE
        direction[newton] = -s * np.linalg.solve(h, s * grad[newton])
    return direction


def fit(cascades, store, users, config=None, on_iterate=None):
    """Estimate the four weight vectors on a training corpus.

    `users` is the population whose combined non-response the compensator
    charges; it must cover every commenter in `cascades`.  Returns a
    FitResult whose trace is monotone non-increasing.
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
            terms, theta, floor=config.intensity_floor, order=order
        )
        f = -value + float(z_flat @ theta)
        return (f, z_flat - grad, -hess) if order else f

    theta = np.where(mask, config.initial_weight, 0.0)
    check, _, _ = log_likelihood_derivatives(terms, theta, order=0)
    if not np.isfinite(check):
        raise EstimationError(
            "objective is not finite at the starting point: some comment has "
            "no feature support under this mask"
        )

    f, g, h = objective(theta, 2)
    trace = [f]
    stop_reason = "iteration cap"
    it = 0
    for it in range(1, config.max_iterations + 1):
        direction = _newton_direction(theta, g, h, mask)
        step = 1.0
        while step > _MIN_STEP:
            cand = np.maximum(theta + step * direction, 0.0)
            fc = objective(cand)
            if fc <= f and f - fc >= _ARMIJO * float(g @ (theta - cand)):
                break
            step *= config.step_shrink
        else:
            stop_reason = "line search"
            break
        theta = cand
        f_prev, f = f, fc
        trace.append(f)
        if on_iterate is not None:
            on_iterate(theta.copy())
        _, g, h = objective(theta, 2)
        if (f_prev - f) <= config.tolerance * max(1.0, abs(f_prev)):
            stop_reason = "tolerance"
            break

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
        converged=stop_reason == "tolerance",
        final_objective=f,
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
    ordered = sorted(cascades, key=lambda c: (c.origin, c.cascade_id))
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
