"""Fits and shared pieces of the reference rankers.

Here live the two fitted baselines, the proportional-rates model (COX,
`fit_cox`) and the featureless pairwise excitation model (HWK,
`fit_hwk_em`), plus `order_candidates` and `cox_covariate`.  The rankers
themselves, recency (RCHR), nearest profile (NN), COX and HWK, are the
classes in `rank_eval`.

All rankers produce a total order over whichever candidate cascades they
are handed; ties are broken by most-recent event time (newest first) and
then cascade id, the same policy the main model uses.
`PairwiseHawkesParams.as_feature_model` restates HWK as the feature model
with its features taken out, so it is served on the feature model's
streaming state.
"""

from __future__ import annotations

import bisect
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, _time, comment_stream, event_content
from .errors import EstimationError
from .features import FeatureStore, annotate_corpus
from .fit import _projected_newton, projected_gradient_norm
from .likelihood import comment_links

ACTIVITY_HORIZON = 720.0  # minutes; a cascade is active this long after its last event


def _recency_key(cascade, t):
    last = cascade.last_event_global(before=t)
    return -np.inf if last is None else last


def order_candidates(cascades, scores, t):
    """Descending score, ties by recency before t descending, then id.

    Recency is read only for cascades whose score ties another's.
    """
    if len(set(scores)) == len(scores):  # no ties: the score alone orders them
        return [cascades[i] for i in
                sorted(range(len(scores)), key=scores.__getitem__, reverse=True)]
    counts = Counter(scores)
    rows = sorted(zip(scores, cascades), key=lambda sc: (
        -sc[0],
        -_recency_key(sc[1], t) if counts[sc[0]] > 1 else 0.0,
        sc[1].cascade_id,
    ))
    return [c for _, c in rows]


# ------------------------------------------------------- proportional rates (Cox)

WEIGHT_CAP = 20.0
COX_TOLERANCE = 1e-12  # fit_cox stops on a relative rise of at most this


@dataclass(eq=False)
class CoxParams:
    weights: np.ndarray
    feature_names: list[str]
    feature_indices: np.ndarray  # columns of the store content manifest in use


def cox_covariate(cascade, t, store, feature_indices):
    """Content of the cascade's most recent event strictly before t."""
    local_t = t - cascade.origin
    if not local_t > 0.0:  # not even the post, at 0, is before t
        return np.zeros(len(feature_indices))
    # comment times increase, so the comments before t are a prefix
    k = bisect.bisect_left(cascade.comments, local_t, key=_time)
    return event_content(cascade.comments[k - 1] if k else cascade.post,
                         store.content_dim)[feature_indices]


@dataclass(eq=False)
class _CoxDesign:
    """Every observed comment's risk set, stacked into one row array.

    Comment i owns rows starts[i] up to starts[i + 1] (the last one up to
    the end); `segment` names each row's comment and `targets` holds the
    row of each comment's own cascade.  That cascade is always in its risk
    set, so no segment is empty, which `np.ufunc.reduceat` needs: an empty
    segment would silently read its start row instead.
    """

    rows: np.ndarray  # (R, k) covariate rows
    starts: np.ndarray  # (C,) first row of each comment's risk set
    segment: np.ndarray  # (R,) comment of each row
    targets: np.ndarray  # (C,) row of each comment's own cascade

    @property
    def sizes(self):
        """Risk-set size of each comment."""
        return np.diff(self.starts, append=self.rows.shape[0])


def _cox_design(cascades, store, feature_indices, activity_horizon):
    """The stacked risk sets of every observed comment, in time order.

    The risk set holds cascades initiated before the comment and active
    (last event within the horizon); the comment's own cascade is always
    included so every term is well defined.  Returns a `_CoxDesign`: the
    risk sets' covariate rows stacked comment by comment, in corpus order
    within a risk set, with each risk set's start and target row.
    """
    rows, starts, segment, targets = [], [], [], []
    for i, (t, target, _, _) in enumerate(comment_stream(cascades)):
        starts.append(len(rows))
        target_id = target.cascade_id
        for c in cascades:
            if c.cascade_id == target_id:
                targets.append(len(rows))
            else:
                last = c.last_event_global(before=t)
                if not (c.origin < t and last is not None
                        and t - last <= activity_horizon):
                    continue
            rows.append(cox_covariate(c, t, store, feature_indices))
            segment.append(i)
    return _CoxDesign(
        rows=np.array(rows, dtype=float).reshape(len(rows), len(feature_indices)),
        starts=np.array(starts, dtype=int),
        segment=np.array(segment, dtype=int),
        targets=np.array(targets, dtype=int),
    )


def _segment_softmax(scores, design):
    """Per risk set: its max score m, exp(scores - m) by row, and their sum."""
    m = np.maximum.reduceat(scores, design.starts)
    e = np.exp(scores - m[design.segment])
    return m, e, np.add.reduceat(e, design.starts)


def cox_partial_log_likelihood(weights, design):
    """Sum over comments of score(target) - log sum_risk-set exp(score)."""
    scores = design.rows @ weights
    m, _, total = _segment_softmax(scores, design)
    value = 0.0
    # comment by comment, in time order
    for term in (scores[design.targets] - (m + np.log(total))).tolist():
        value += term
    return value


def _cox_derivatives(weights, design):
    """Gradient sum(x(target) - E) and Hessian -(X^T diag(p) X - E^T E) of
    the partial likelihood: p is each risk set's softmax, E its mean of x."""
    _, e, total = _segment_softmax(design.rows @ weights, design)
    p = e / total[design.segment]
    weighted = p[:, None] * design.rows
    expected = np.add.reduceat(weighted, design.starts)
    # accumulated comment by comment, in time order
    grad = np.cumsum(design.rows[design.targets] - expected, axis=0)[-1]
    return grad, expected.T @ expected - design.rows.T @ weighted


def fit_cox(cascades, store, feature_indices=None, max_iterations=500,
            activity_horizon=ACTIVITY_HORIZON):
    """Maximize the concave partial likelihood from zero weights with
    `fit`'s projected-Newton core, on `_cox_design`'s stacked risk sets
    of the corpus annotated from `store`.

    Separation would push weights to infinity, so they are boxed in
    [-WEIGHT_CAP, WEIGHT_CAP], with a warning when one reaches the cap.  A
    feature constant inside every risk set leaves the likelihood flat, and
    its weight stays 0.  A fit stopped by its iteration cap or line search
    before its relative rise fell to `COX_TOLERANCE` warns too.
    """
    if feature_indices is None:
        feature_indices = np.arange(store.content_dim)
    feature_indices = np.asarray(feature_indices, dtype=int)
    if feature_indices.size == 0:
        raise EstimationError("no content features selected")
    design = _cox_design(annotate_corpus(cascades, store), store, feature_indices,
                         activity_horizon)
    if not design.starts.size:
        raise EstimationError("training corpus has no comments, nothing to fit")
    if np.all(design.sizes == 1):
        raise EstimationError(
            "every risk set is a single cascade; the weights are unidentifiable"
        )

    def objective(w, order=0):
        f = -cox_partial_log_likelihood(w, design)
        if not order:
            return f
        grad, hess = _cox_derivatives(w, design)
        return f, -grad, -hess

    varies = np.any(np.maximum.reduceat(design.rows, design.starts)
                    > np.minimum.reduceat(design.rows, design.starts), axis=0)
    w, _, _, stop_reason, g = _projected_newton(
        objective, np.zeros(feature_indices.size), -WEIGHT_CAP, WEIGHT_CAP,
        max_iterations, COX_TOLERANCE, varies)
    if stop_reason != "tolerance":
        norm = projected_gradient_norm(w, g, varies, -WEIGHT_CAP, WEIGHT_CAP)
        warnings.warn(
            f"proportional-rates fit stopped short on its {stop_reason}, with "
            f"max_iterations={max_iterations} (projected-gradient norm {norm:.3g})",
            stacklevel=2,
        )
    if np.any(np.abs(w) >= WEIGHT_CAP - 1e-9):
        warnings.warn(
            "proportional-rates weights hit the cap; the data separate the "
            "commented cascades perfectly",
            stacklevel=2,
        )
    names = [store.content_names[i] for i in feature_indices]
    return CoxParams(weights=w, feature_names=names, feature_indices=feature_indices)


# ------------------------------------------- featureless pairwise excitation (EM)


@dataclass(eq=False)
class PairwiseHawkesParams:
    """Direct per-pair rates: post_rates[(user, poster)] scales the post
    kernel, comment_rates[(user, commenter)] the comment kernel."""

    post_rates: dict
    comment_rates: dict
    post_decay_rate: float = 0.001
    comment_decay_rate: float = 0.01

    def as_feature_model(self):
        """The same intensity as a feature model: `(ModelParams, FeatureStore)`.

        Pair (u, p) gets the two-coordinate vector (post rate, comment
        rate), zero where a rate is missing, and there is no content.  The
        post weights are (1, 0) and the comment weights (0, 1), so each
        jump is exactly its rate (1 r + 0 s == r in IEEE arithmetic), and
        the decay rates carry over.
        """
        pairs = {
            k: np.array([self.post_rates.get(k, 0.0), self.comment_rates.get(k, 0.0)])
            for k in self.post_rates.keys() | self.comment_rates.keys()
        }
        names = ["post_rate", "comment_rate"]
        store = FeatureStore(pair_names=names, content_names=[], pairs=pairs)
        params = ModelParams(
            post_pair_weights=np.array([1.0, 0.0]),
            post_content_weights=np.zeros(0),
            comment_pair_weights=np.array([0.0, 1.0]),
            comment_content_weights=np.zeros(0),
            post_decay_rate=self.post_decay_rate,
            comment_decay_rate=self.comment_decay_rate,
            pair_feature_names=names,
        )
        return params, store


@dataclass
class EMResult:
    params: PairwiseHawkesParams
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool
    stop_reason: str  # "tolerance" or "iteration cap"


class _PairDesign:
    """The pairwise model's sparse design X in COO form.

    Row i is comment i.  Its post column (commenter, poster) holds
    exp(-post_decay_rate t_i), and each of its comment columns
    (commenter, earlier publisher) holds that link's decayed count.  The
    compensator coefficient of a column is its publisher's exposure, so
    log L(theta) = sum log(X theta) - exposure . theta.
    """

    def __init__(self, links):
        n = len(links.names)
        post_key, comment_key = links.pair_codes()
        post_cols, post_at = np.unique(post_key, return_inverse=True)
        comment_cols, comment_at = np.unique(comment_key, return_inverse=True)
        self.rows = np.concatenate([np.arange(links.n_events), links.link_row])
        self.cols = np.concatenate([post_at, post_cols.size + comment_at])
        self.values = np.concatenate([links.post_decay, links.link_count])
        posts, comments = links.exposures()
        self.exposure = np.concatenate([posts[post_cols % n], comments[comment_cols % n]])

        def pairs(keys):
            return [(links.names[k // n], links.names[k % n]) for k in keys.tolist()]

        self.post_keys, self.comment_keys = pairs(post_cols), pairs(comment_cols)
        self.n_events = links.n_events

    def intensities(self, theta):
        """lambda = X theta: each comment's intensity just before it lands."""
        return np.bincount(self.rows, weights=self.values * theta[self.cols],
                           minlength=self.n_events)

    def score(self, lam):
        """X^T (1 / lambda)."""
        return np.bincount(self.cols, weights=self.values / lam[self.rows],
                           minlength=self.exposure.size)

    def log_likelihood(self, lam, theta):
        """Value at theta from its intensities lam; -inf when some comment
        has none."""
        if lam.size and lam.min() <= 0.0:
            return -np.inf
        return float(np.log(lam).sum() - self.exposure @ theta)


def fit_hwk_em(cascades, post_decay_rate=0.001, comment_decay_rate=0.01,
               max_iterations=200, tolerance=1e-8, initial_rate=0.1):
    """Expectation-maximization over latent parent assignments.

    Each comment's parent is either its cascade's post or an earlier
    comment, with responsibilities proportional to each candidate's
    decayed rate.  Summed per rate, one E and M step is the multiplicative
    update theta_k <- theta_k (X^T (1 / lambda))_k / c_k (Veen & Schoenberg
    2008) on a sparse design X with one row per comment: its post column
    (commenter, poster) and one comment column per (commenter, distinct
    earlier publisher) in its cascade, with the decayed count as value.
    c_k is the exposure of column k's publisher.  One iteration costs
    O(nonzeros) and the trace is monotone.  Stops when the log-likelihood
    moves less than `tolerance` ("tolerance") or after `max_iterations`
    ("iteration cap").
    """
    if not any(c.comments for c in cascades):
        raise EstimationError("training corpus has no comments, nothing to fit")
    links = comment_links(cascades, post_decay_rate, comment_decay_rate)
    design = _PairDesign(links)
    theta = np.full(design.exposure.size, float(initial_rate))
    lam = design.intensities(theta)
    trace = [design.log_likelihood(lam, theta)]
    stop_reason = "iteration cap"
    it = 0
    for it in range(1, max_iterations + 1):
        if lam.min() <= 0.0:
            i = int(np.argmax(lam <= 0.0))
            raise EstimationError(
                f"comment by {links.names[links.commenter[i]]} in cascade "
                f"{cascades[links.cascade[i]].cascade_id} has no possible parent "
                "under the current rates"
            )
        theta = theta * design.score(lam) / design.exposure
        lam = design.intensities(theta)
        trace.append(design.log_likelihood(lam, theta))
        if abs(trace[-1] - trace[-2]) < tolerance:
            stop_reason = "tolerance"
            break
    n_post = len(design.post_keys)
    params = PairwiseHawkesParams(
        post_rates=dict(zip(design.post_keys, theta[:n_post].tolist())),
        comment_rates=dict(zip(design.comment_keys, theta[n_post:].tolist())),
        post_decay_rate=post_decay_rate,
        comment_decay_rate=comment_decay_rate,
    )
    return EMResult(
        params=params,
        log_likelihood_trace=trace,
        iterations=it,
        converged=stop_reason == "tolerance",
        stop_reason=stop_reason,
    )
