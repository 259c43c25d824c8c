"""Cascade log-likelihood as a design matrix times the weights.

For one cascade the log-likelihood is the sum of log intensities of the
observed comments, each evaluated just before its own arrival, minus the
integral over the window of every population user's intensity.  The
weights enter the intensity linearly and the decay rates are fixed, so
over a corpus, with theta the four weight blocks laid end to end,

    log L(theta) = sum_i log(X_i . theta) - c . theta,
    gradient     = X^T (1 / lambda) - c,
    Hessian      = -X^T diag(lambda^-2) X,

where X has one row per observed comment and 2 (pair_dim + content_dim)
columns.  Both kernels are exponential, so the compensator vector c is
closed form: a unit of influence arriving at minute s and decaying at
rate w contributes (1 - exp(-w (T - s))) / w over a window ending at T.

The excitation columns follow the exponential-kernel recursion (Ozaki
1979): one forward pass per cascade carries a decayed count for each
distinct earlier publisher and one decayed sum of earlier contents.  A
comment's pair columns are its counts times its pair vectors with those
publishers, so nothing is stored per (comment, earlier comment) pair.
`comment_links` is that pass; the featureless pairwise baseline's EM
(`baselines.fit_hwk_em`) runs on the same links.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import event_content
from .errors import EstimationError
from .features import annotate_corpus

# Decay lengths one cumulative sum may span before it is rebased; the
# rebased weights then stay below exp(16) and lose at most ~32 ulp.
_REBASE_SPAN = 16.0


@dataclass(eq=False)
class CorpusTerms:
    """Weight-independent constants of the likelihood over a fixed corpus."""

    n_events: int
    # one row per observed comment, one column per weight
    design: np.ndarray
    # compensator coefficients: integral = c . weights, summed over cascades
    compensator: np.ndarray


def flat_weights(params):
    """The four weight blocks laid end to end, in design-column order."""
    return np.concatenate([
        params.post_pair_weights, params.post_content_weights,
        params.comment_pair_weights, params.comment_content_weights,
    ])


def _decayed_prefix_sums(times, rate, values):
    """Row i: the sum over j < i of exp(-rate (t_i - t_j)) values[j].

    `times` must be sorted.  Each run of rows spanning at most
    _REBASE_SPAN decay lengths is one cumulative sum on the run's first
    time; the run's total, decayed, carries into the next run.
    """
    out = np.empty_like(values)
    carry = np.zeros(values.shape[1])
    start, n = 0, len(times)
    while start < n:
        base = times[start]
        stop = int(np.searchsorted(times, base + _REBASE_SPAN / rate, side="right"))
        x = rate * (times[start:stop] - base)
        running = np.cumsum(np.exp(x)[:, None] * values[start:stop], axis=0)
        out[start] = carry
        out[start + 1:stop] = np.exp(-x[1:])[:, None] * (carry + running[:-1])
        carry = carry + running[-1]
        if stop < n:
            carry = carry * np.exp(-rate * (times[stop] - base))
        start = stop
    return out


def _content_rows(events, dim):
    """Each event's `event_content` at width `dim`, stacked as (n, dim) rows."""
    if not dim:  # every row is empty, whatever the events carry
        return np.zeros((len(events), 0))
    return np.array([event_content(e, dim) for e in events]).reshape(len(events), dim)


@dataclass(eq=False)
class CommentLinks:
    """Every observed comment of a corpus, linked to the earlier publishers
    of its cascade.

    Publishers are indexed in order of first appearance.  A link joins a
    comment to one distinct publisher of earlier comments in its cascade
    and carries the decayed count, the sum over that publisher's earlier
    comments j of exp(-w (t_i - t_j)).  Exposures are the closed-form
    kernel integrals over the window: (1 - exp(-w (T - s))) / w.  The
    content rows have the width asked of `comment_links`, 0 for the EM.
    """

    names: list                   # publisher index -> name
    poster: np.ndarray            # per cascade: publisher index of the post
    post_exposure: np.ndarray     # per cascade
    post_content: np.ndarray      # per cascade: the post's content
    cascade: np.ndarray           # per comment: index of its cascade
    commenter: np.ndarray         # per comment: publisher index
    post_decay: np.ndarray        # per comment: exp(-post_decay_rate t)
    comment_exposure: np.ndarray  # per comment
    comment_content: np.ndarray   # per comment: its own content
    content_sums: np.ndarray      # per comment: the decayed sum of earlier contents
    link_row: np.ndarray          # per link: the comment
    link_publisher: np.ndarray    # per link: the earlier publisher
    link_count: np.ndarray        # per link: the decayed count

    @property
    def n_events(self):
        return self.commenter.size

    def pair_codes(self):
        """(commenter, publisher) pairs coded as commenter * len(names) +
        publisher: each comment's pair with its poster, and each link's."""
        n = len(self.names)
        return (self.commenter * n + self.poster[self.cascade],
                self.commenter[self.link_row] * n + self.link_publisher)

    def exposures(self):
        """Each publisher's summed post exposure and comment exposure."""
        n = len(self.names)
        return (
            np.bincount(self.poster, weights=self.post_exposure, minlength=n),
            np.bincount(self.commenter, weights=self.comment_exposure, minlength=n),
        )


def comment_links(cascades, post_decay_rate, comment_decay_rate, content_dim=0):
    """One forward pass of the exponential-kernel recursion per cascade.

    Each event's own content vector, `content_dim` wide (zeros where it has
    none), and their decayed sums ride along the counts.  Like serving, it
    reads the events as they are; its callers annotate them
    (`annotate_corpus`, the one content rule).  Every (comment, distinct
    earlier publisher) link is kept, even when its count underflows to 0.
    """
    ids = {}  # publisher -> index, in order of first appearance

    def index(name):
        return ids.setdefault(name, len(ids))

    post_content = _content_rows([c.post for c in cascades], content_dim)
    comment_content = _content_rows(
        list(chain.from_iterable(c.comments for c in cascades)), content_dim)
    content_sums = np.empty_like(comment_content)
    poster, post_exposure = [], []
    cascade_of, commenter, post_decay, comment_exposure = [], [], [], []
    link_row, link_publisher, link_count = [], [], []
    n_events = 0

    for k, cascade in enumerate(cascades):
        poster.append(index(cascade.post.publisher))
        big_t = cascade.window_end
        post_exposure.append((1.0 - np.exp(-post_decay_rate * big_t)) / post_decay_rate)
        n = len(cascade.comments)
        if not n:
            continue
        times = np.array([c.time for c in cascade.comments])
        who = np.array([index(c.publisher) for c in cascade.comments])
        cascade_of.append(np.full(n, k))
        commenter.append(who)
        post_decay.append(np.exp(-post_decay_rate * times))
        comment_exposure.append(
            (1.0 - np.exp(-comment_decay_rate * (big_t - times))) / comment_decay_rate
        )

        publishers, first, local = np.unique(who, return_index=True, return_inverse=True)
        m = publishers.size
        own, order = slice(n_events, n_events + n), np.arange(n)
        values = np.zeros((n, m + content_dim))  # one-hot publisher, then content
        values[order, local] = 1.0
        values[:, m:] = comment_content[own]
        sums = _decayed_prefix_sums(times, comment_decay_rate, values)
        content_sums[own] = sums[:, m:]
        rows, cols = np.nonzero(first < order[:, None])
        link_row.append(rows + n_events)
        link_publisher.append(publishers[cols])
        link_count.append(sums[rows, cols])
        n_events += n

    def cat(parts, dtype=float):
        return np.concatenate(parts) if parts else np.zeros(0, dtype)

    return CommentLinks(
        names=list(ids),
        poster=np.array(poster, dtype=np.int64),
        post_exposure=np.array(post_exposure, dtype=float),
        post_content=post_content,
        cascade=cat(cascade_of, np.int64),
        commenter=cat(commenter, np.int64),
        post_decay=cat(post_decay),
        comment_exposure=cat(comment_exposure),
        comment_content=comment_content,
        content_sums=content_sums,
        link_row=cat(link_row, np.int64),
        link_publisher=cat(link_publisher, np.int64),
        link_count=cat(link_count),
    )


def build_corpus_terms(cascades, store, users, post_decay_rate, comment_decay_rate):
    """The design and compensator of the corpus, annotated from `store`.

    `users` is the population whose non-response the compensator charges;
    it must hold every commenter, or EstimationError names one it misses.
    """
    population = set(users)
    for c in cascades:
        for e in c.comments:
            if e.publisher not in population:
                raise EstimationError(f"commenter {e.publisher!r} is not in the population")
    kp = store.pair_dim
    links = comment_links(annotate_corpus(cascades, store), post_decay_rate,
                          comment_decay_rate, store.content_dim)
    n_events = links.n_events
    names = links.names
    n_ids = len(names)
    link_row = links.link_row

    # one store lookup per distinct (commenter, publisher) pair in use
    distinct, which = np.unique(np.concatenate(links.pair_codes()), return_inverse=True)
    table = np.zeros((distinct.size, kp))
    for r, key in enumerate(distinct):
        u, p = divmod(int(key), n_ids)
        table[r] = store.pair_vector(names[u], names[p])
    pair_rows = table[which]

    comment_pair = np.zeros((n_events, kp))
    if link_row.size:
        starts = np.flatnonzero(np.diff(link_row, prepend=-1))
        comment_pair[link_row[starts]] = np.add.reduceat(
            links.link_count[:, None] * pair_rows[n_events:], starts, axis=0
        )
    post_decay = links.post_decay[:, None]
    design = np.hstack([
        post_decay * pair_rows[:n_events],
        post_decay * links.post_content[links.cascade],
        comment_pair,
        links.content_sums,
    ])

    population = np.zeros((n_ids, kp))
    for k, p in enumerate(names):
        for u in users:
            population[k] += store.pair_vector(u, p)
    posts, comments = links.exposures()
    return CorpusTerms(n_events=n_events, design=design, compensator=np.concatenate([
        posts @ population,
        len(users) * (links.post_exposure @ links.post_content),
        comments @ population,
        len(users) * (links.comment_exposure @ links.comment_content),
    ]))


def log_likelihood_derivatives(terms, theta, floor=None, order=1):
    """Log-likelihood at the flat weights `theta`, with its gradient when
    `order` >= 1 and its Hessian when `order` == 2 (None otherwise).

    With `floor` set, intensities below it are clamped inside the log and
    their event terms drop out of both derivatives; this is the optimizer's
    safeguard, never a reported value.  Without it a nonpositive event
    intensity yields -inf (and no derivatives).
    """
    x = terms.design
    lam = x @ theta
    comp = float(terms.compensator @ theta)
    if floor is None:
        if lam.size and lam.min() <= 0.0:
            return -np.inf, None, None
        safe = lam
        coef = 1.0 / safe
    else:
        safe = np.maximum(lam, floor)
        coef = np.where(lam >= floor, 1.0 / safe, 0.0)
    value = float(np.log(safe).sum() - comp)
    if order < 1:
        return value, None, None
    grad = x.T @ coef - terms.compensator
    if order < 2:
        return value, grad, None
    scaled = x * coef[:, None]
    return value, grad, -(scaled.T @ scaled)


def corpus_log_likelihood(cascades, params, store, users):
    """Exact log-likelihood of a corpus under the given weights.

    -inf when some observed comment has zero intensity, which happens
    whenever the weights give that comment no support.
    """
    terms = build_corpus_terms(
        cascades, store, users, params.post_decay_rate, params.comment_decay_rate
    )
    value, _, _ = log_likelihood_derivatives(terms, flat_weights(params), order=0)
    return value


def gradient(cascades, params, store, users):
    """Exact gradient of the summed log-likelihood, flat in `flat_weights`
    order; raises EstimationError where the log-likelihood is -inf."""
    terms = build_corpus_terms(
        cascades, store, users, params.post_decay_rate, params.comment_decay_rate
    )
    _, grad, _ = log_likelihood_derivatives(terms, flat_weights(params))
    if grad is None:
        raise EstimationError(
            "log-likelihood is -inf at these weights: some observed comment "
            "has zero intensity"
        )
    return grad


def penalty_weights(penalty):
    """Broadcast a scalar or 4-sequence penalty to the four weight blocks."""
    arr = np.asarray(penalty, dtype=float)
    if arr.ndim == 0:
        arr = np.full(4, float(arr))
    if arr.shape != (4,):
        raise ValueError("penalty must be a scalar or one value per weight block")
    if arr.min() < 0:
        raise ValueError("penalty weights must be nonnegative")
    return arr


def objective(cascades, params, store, users, penalty=0.0):
    """Penalized negative log-likelihood: -sum of cascade log-likelihoods
    plus a per-block weighted l1 norm of the (nonnegative) weights."""
    z = penalty_weights(penalty)
    value = corpus_log_likelihood(cascades, params, store, users)
    reg = (
        z[0] * params.post_pair_weights.sum()
        + z[1] * params.post_content_weights.sum()
        + z[2] * params.comment_pair_weights.sum()
        + z[3] * params.comment_content_weights.sum()
    )
    return -value + float(reg)
