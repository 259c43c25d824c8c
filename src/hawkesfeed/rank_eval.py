"""Feed prioritization by intensity and the rank-based evaluation harness.

A ranker is anything with two methods:

    rank(user, t, candidates) -> the same candidate objects, in serving order
    absorb(cascade, event, t) -> None   (event already appended to cascade)

Every ranker is written here once: `IntensityRanker` (the feature model,
HWK-*), `PairwiseRanker` (HWK), `RecencyRanker` (RCHR), `NNRanker` (NN)
and `CoxRanker` (COX-*); `baselines` holds the COX and HWK fits.

The harness replays a test corpus one comment at a time: rank the user's
candidate cascades just before the comment lands, record the 0-based
position of the cascade it actually landed in, then let every ranker
state absorb it.  AveRank is the mean recorded position; NAveRank divides
by the group's average number of active cascades, so groups of different
sizes are comparable.

A scratch feed query (`prioritize`) scores its candidates in one vector
pass over their `Cascade.columns` and certifies the order it serves:
`certified_intensities` bounds each score's distance from the exact
`JumpTable.states_at` intensity, and an order the bounds cannot prove
equal to the exact one is rescored exactly.  The served order is always
`order_candidates` over the exact intensities.  The streaming rankers'
states, and every printed intensity, stay on the exact path.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (
    ACTIVITY_HORIZON,
    cox_covariate,
    fit_cox,
    fit_hwk_em,
    order_candidates,
)
from .core import (
    Cascade,
    JumpTable,
    _content_scores,
    comment_stream,
    corpus_participants,
    event_content,
)
from .errors import ConfigError
from .features import annotate_corpus, feature_set_masks
from .fit import FitConfig, fit

RANKER_NAMES = (
    "RCHR", "NN", "COX-LNG", "COX-PSY", "HWK",
    "HWK-CHR", "HWK-RLTN", "HWK-LNG", "HWK-PSY", "HWK-ALL",
)

CANDIDATE_POLICIES = ("all", "active")


def prioritize(user, t, cascades, states, params, store):
    """Candidates in descending intensity for `user` at global minute t.

    `states` maps cascade id to an IntensityState already decayed to t;
    the other cascades are scored from scratch.  Ties break by most
    recent event, then cascade id.

    The scratch scores come from `certified_intensities`, and each score's
    error radius turns it into an interval holding the exact intensity.
    When the intervals of neighbours in that order are disjoint, the exact
    intensities are distinct and in the same order, so the order is
    `order_candidates`' own.  Otherwise every scratch candidate is
    rescored exactly by `JumpTable.states_at` and `order_candidates`
    orders them.
    """
    states = states or {}
    fresh = [c for c in cascades if c.cascade_id not in states]
    if not fresh:
        return order_candidates(
            cascades, [states[c.cascade_id].intensity for c in cascades], t)
    jumps = JumpTable(params, store)
    ts = [t - c.origin for c in fresh]
    scored = certified_intensities(jumps, user, fresh, ts)
    if scored is not None:
        lam, radius = (v.tolist() for v in scored)
        if len(fresh) < len(cascades):  # supplied states are exact
            at = {c.cascade_id: i for i, c in enumerate(fresh)}
            rows = [at.get(c.cascade_id) for c in cascades]
            lam = [states[c.cascade_id].intensity if i is None else lam[i]
                   for c, i in zip(cascades, rows)]
            radius = [0.0 if i is None else radius[i] for i in rows]
        order = sorted(range(len(lam)), key=lam.__getitem__, reverse=True)
        if all(lam[i] - radius[i] > lam[j] + radius[j] for i, j in zip(order, order[1:])):
            return [cascades[i] for i in order]
    built = dict(zip((c.cascade_id for c in fresh), jumps.states_at(user, fresh, ts)))
    scores = [(states.get(c.cascade_id) or built[c.cascade_id]).intensity
              for c in cascades]
    return order_candidates(cascades, scores, t)


# The error, in ulps, allowed for each of np.exp and math.exp.
_EXP_ULPS = 4
_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1022  # smallest normal float64


def certified_intensities(jumps, user, cascades, ts):
    """Intensities of `user` on each cascade at its relative time ts[i],
    close to `jumps.states_at`'s, with a radius bounding the gap; None when
    the batch cannot be scored this way (a negative time, or content whose
    width does not fit the model), which `states_at` then reports.

    One vector pass over the cascades' columns: each prefix of comments
    before ts[i] is found by bisection and the prefixes are concatenated.
    The jumps and the exponents are the floats `states_at` forms, with
    the same IEEE operations: `part[publisher] + vecdot(content, w)` and
    `(-rate) * (t - time)`.  Only two steps differ: `np.exp` in place of
    `math.exp`, and `np.add.reduceat`'s pairwise sums in place of the
    left-to-right loop.

    The radius (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., sections 2.1 and 4.2).  Let u = 2^-53, s = 2^-1074 (the
    subnormal spacing) and K = _EXP_ULPS.  A cascade's intensity is a sum
    of at most n + 1 nonnegative terms J_i e_i, the post term and one term
    per comment before ts[i], where n is the longest prefix in the batch,
    e_i is exp of the shared exponent and J_i >= 0 the shared jump.

    1. An exp within K ulps returns e(1 + eps) + eta, |eps| <= 2Ku and
       |eta| <= K s.  glibc's table of known maximum errors puts exp
       (which `math.exp` calls) at 1 ulp or less, and NumPy's accuracy
       data set (`umath-validation-set-exp.csv`) holds float64 `np.exp` to
       1 ulp; K = 4 leaves room for other libraries.
    2. The product fl(J e) adds a relative u and, on underflow, an
       absolute s/2.  So each computed term is x_i = J_i e_i (1 + theta_i)
       + beta_i, with |theta_i| <= rho = (2K + 1)u + 2Ku^2 and |beta_i|
       <= ((K + 1) J_max + 1) s, J_max being the batch's largest jump.
    3. `states_at` adds the comment terms left to right and then the post
       term; this pass adds them pairwise and then the post term.  Either
       way each term passes through at most n additions, so the sum is
       sum_i x_i (1 + mu_i) with |mu_i| <= gamma_n = nu/(1 - nu), and
       adding floats loses nothing to underflow.
    4. So each route lies within a T + B of the exact sum T of J_i e_i,
       where a = gamma_n (1 + rho) + rho and B = (1 + gamma_n)(n + 1)
       ((K + 1) J_max + 1) s.  Then T <= (lam + B)/(1 - a) for this
       pass's value lam, and the two routes differ by at most
       2(a T + B) <= 2(a lam + B)/(1 - a).

    The radius is that bound with s replaced by the smallest normal float
    (2^52 s, which covers any underflow with room to spare), a widened by
    2u, and the whole widened by a factor 1 + 2^-40.  The widenings cover
    the rounding in the radius's own dozen operations and in the
    caller's lam - radius and lam + radius.
    """
    if not cascades:
        return np.zeros(0), np.zeros(0)
    if min(ts) < 0:
        return None
    p = jumps.params
    w = p.comment_content_weights
    times, codes, content, names, firsts, counts = [], [], [], [], [], []
    for c, t in zip(cascades, ts):
        cols = c.columns
        k = bisect.bisect_left(cols.times, t)  # the comments strictly before t
        counts.append(k)
        if not k:
            continue
        times.append(cols.times[:k])
        codes.append(cols.codes[:k])
        firsts.append(len(names))
        names += cols.publishers
        if w.size:
            rows = cols.content
            if rows is None or rows.shape[1] not in (0, w.size):
                return None
            content.append(rows[:k] if rows.shape[1] else np.zeros((k, w.size)))
    posts = [c.post for c in cascades]
    parts = {name: jumps.pair(user, name)
             for name in {*names, *(e.publisher for e in posts)}}
    post_jumps = np.fromiter((parts[e.publisher][0] for e in posts), float, len(posts)) \
        + _content_scores(posts, p.post_content_weights)
    ts = np.array(ts)
    lam = post_jumps * np.exp((-p.post_decay_rate) * ts)
    j_max, n = post_jumps.max(), max(counts)
    if n:
        counts = np.array(counts)
        live = counts > 0
        comment_part = {name: pair[1] for name, pair in parts.items()}
        comment_jumps = np.fromiter(map(comment_part.__getitem__, names), float, len(names))[
            np.concatenate(codes) + np.array(firsts).repeat(counts[live])]
        comment_jumps += np.vecdot(np.concatenate(content), w) if w.size else 0.0
        terms = comment_jumps * np.exp((-p.comment_decay_rate) * (
            ts.repeat(counts) - np.concatenate(times)))
        b = np.zeros(len(cascades))
        b[live] = np.add.reduceat(terms, (counts.cumsum() - counts)[live])
        lam += b
        j_max = max(j_max, comment_jumps.max())
    gamma = n * _U / (1.0 - n * _U)
    rho = (2 * _EXP_ULPS + 1) * _U + 2 * _EXP_ULPS * _U * _U
    a = gamma * (1.0 + rho) + rho + 2 * _U
    big_b = (1.0 + gamma) * (n + 1.0) * ((_EXP_ULPS + 1) * j_max + 1.0) * _TINY
    scale = 2.0 * (1.0 + 2.0 ** -40) / (1.0 - a)
    return lam, (scale * a) * lam + scale * big_b


def candidate_cascades(cascades, t, policy="all", activity_horizon=ACTIVITY_HORIZON):
    """Cascades a user could be served at global minute t."""
    if policy not in CANDIDATE_POLICIES:
        raise ConfigError(
            f"unknown candidate policy {policy!r}, pick from {CANDIDATE_POLICIES}"
        )
    out = []
    for c in cascades:
        if not c.origin < t < c.origin + c.window_end:
            continue
        if policy == "active":
            last = c.last_event_global(before=t)
            if last is None or t - last > activity_horizon:
                continue
        out.append(c)
    return out


def mean_activity(cascades, window, activity_horizon=ACTIVITY_HORIZON):
    """Time-average count of active cascades over window = (start, end).

    A cascade is active while its latest event is at most
    `activity_horizon` minutes old, i.e. on the union of [e, e + horizon)
    over its events.  The integrand is piecewise constant, so the
    integral is exact.
    """
    w0, w1 = window
    if not w1 > w0:
        raise ConfigError(f"evaluation window [{w0}, {w1}] has no length")
    total = 0.0
    for c in cascades:
        spans = []
        for e in c.events:
            start = c.origin + e.time
            if spans and start <= spans[-1][1]:
                spans[-1][1] = start + activity_horizon
            else:
                spans.append([start, start + activity_horizon])
        for s, e in spans:
            total += max(0.0, min(e, w1) - max(s, w0))
    return total / (w1 - w0)


# ------------------------------------------------------------------- rankers


class IntensityRanker:
    """Serves by model intensity from one `IntensityState` per (user, cascade).

    `states` is indexed by cascade, `{cascade_id: {user: state}}`.  The
    ranker owns its states and moves them in place: a rank advances each
    of the ranked user's states on its candidates to t and takes its
    intensity as the score, and an absorb advances and bumps only the
    states of the cascade that received the comment, scoring its content
    once for all of them; every jump is read from the ranker's one
    `JumpTable`.  Each rank first keeps only the cascades among its
    candidates, so the ranker holds at most users × candidates states
    however long the stream runs.  In `evaluate_group` a cascade that
    leaves the candidate set never returns (its window has closed, or
    under the "active" policy its next comment would already have
    raised); should a caller bring one back, `JumpTable.states_at`
    rebuilds it, with every other state the rank lacks, in one call.

    States run on the shared global clock: the stream hands rank and
    absorb the same timestamp, so states only ever move forward, and a
    rank or absorb at an earlier t raises `ValueError`.  Mapping back to
    cascade-local time would reintroduce rounding drift between the two
    calls.
    """

    def __init__(self, params, store):
        self.params = params
        self.store = store
        self.jumps = JumpTable(params, store)
        self.states = {}

    def rank(self, user, t, candidates):
        held, params = self.states, self.params
        states, scores, fresh = {}, [], []
        for i, c in enumerate(candidates):
            cid = c.cascade_id
            users = states[cid] = held.get(cid) or {}
            s = users.get(user)
            if s is None:
                fresh.append(i)
                scores.append(None)
            else:
                scores.append(s.advance(t, params))
        if fresh:
            built = [candidates[i] for i in fresh]
            for i, c, s in zip(fresh, built, self.jumps.states_at(
                    user, built, [t - c.origin for c in built])):
                s.last_update_time = t
                states[c.cascade_id][user] = s
                scores[i] = s.intensity
        self.states = states
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        users = self.states.get(cascade.cascade_id)
        if users:
            score = self.jumps.comment_score(event)
            for s in users.values():
                self.jumps.absorb(s, event, t, score)


class RecencyRanker:
    """Most recently active first, among events strictly before t, then by
    id; each cascade's recency is read once."""

    def rank(self, user, t, candidates):
        rows = []
        for i, c in enumerate(candidates):
            last = c.last_event_global(before=t)
            # the position i is unique, so sorting never compares cascades
            rows.append((math.inf if last is None else -last, c.cascade_id, i, c))
        rows.sort()
        return [row[3] for row in rows]

    def absorb(self, cascade, event, t):
        pass


EWMA_SMOOTHING = 0.3  # the weight of the newest comment in a profile


class NNRanker(RecencyRanker):
    """Nearest profile: ascending distance between the user's comment
    profile and each cascade's mean content before t; recency for a user
    with no profile.

    A profile is a moving average of the user's comment contents.  It
    starts from the training comments in global time order and learns
    every absorbed comment.  Like all serving it reads contents from the
    events: it annotates its training corpus (`annotate_corpus`, the one
    content rule), and `evaluate` annotates the corpus it serves.
    """

    def __init__(self, store, train_cascades=()):
        self.store = store
        self.profiles = {}
        for _, _, _, e in comment_stream(annotate_corpus(train_cascades, store)):
            self._learn(e)

    def _learn(self, event):
        """One moving-average step with the event's content."""
        v = np.asarray(event_content(event, self.store.content_dim), dtype=float)
        profile = self.profiles.get(event.publisher)
        self.profiles[event.publisher] = v.copy() if profile is None else (
            (1.0 - EWMA_SMOOTHING) * profile + EWMA_SMOOTHING * v)

    def representative(self, cascade, t):
        """Mean content of the cascade's events strictly before global minute t."""
        local_t = t - cascade.origin
        d = self.store.content_dim
        vectors = [event_content(e, d) for e in cascade.events if e.time < local_t]
        return np.mean(vectors, axis=0) if vectors else np.zeros(d)

    def rank(self, user, t, candidates):
        profile = self.profiles.get(user)
        if profile is None:
            return super().rank(user, t, candidates)
        scores = [-float(np.linalg.norm(profile - self.representative(c, t)))
                  for c in candidates]
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        self._learn(event)


class CoxRanker:
    """Descending linear score of each cascade's freshest content before t;
    user-independent."""

    def __init__(self, params, store):
        self.params = params
        self.store = store

    def rank(self, user, t, candidates):
        w, indices = self.params.weights, self.params.feature_indices
        scores = [float(w @ cox_covariate(c, t, self.store, indices))
                  for c in candidates]
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        pass


class PairwiseRanker(IntensityRanker):
    """The featureless pairwise baseline (HWK), served on the feature
    model's streaming state through `PairwiseHawkesParams.as_feature_model`."""

    def __init__(self, params):
        super().__init__(*params.as_feature_model())


def make_ranker(name, train_cascades, store=None, fit_config=None,
                model_params=None):
    """Build and (when needed) fit the named ranker on a training group."""
    fit_config = fit_config or FitConfig()
    if store is None and (name == "NN" or name.startswith(("COX-", "HWK-"))):
        raise ConfigError(f"{name} needs a feature store")
    if name == "RCHR":
        return RecencyRanker()
    if name == "NN":
        return NNRanker(store, train_cascades)
    if name.startswith("COX-"):
        _, content_mask = feature_set_masks(
            name.split("-", 1)[1].lower(), store.pair_names, store.content_names)
        indices = np.flatnonzero(content_mask)
        if not indices.size:
            raise ConfigError(f"{name} selects no content features")
        params = fit_cox(train_cascades, store, indices)
        return CoxRanker(params, store)
    if name == "HWK":
        result = fit_hwk_em(
            train_cascades,
            post_decay_rate=fit_config.post_decay_rate,
            comment_decay_rate=fit_config.comment_decay_rate,
        )
        return PairwiseRanker(result.params)
    if name.startswith("HWK-"):
        if model_params is not None:
            return IntensityRanker(model_params, store)
        pair_mask, content_mask = feature_set_masks(
            name.split("-", 1)[1].lower(), store.pair_names, store.content_names)
        cfg = replace(fit_config, pair_mask=pair_mask, content_mask=content_mask)
        result = fit(train_cascades, store, corpus_participants(train_cascades), cfg)
        return IntensityRanker(result.params, store)
    raise ConfigError(f"unknown ranker {name!r}, pick from {RANKER_NAMES}")


# ------------------------------------------------------------------- harness


@dataclass
class GroupMetrics:
    group_id: str
    ave_rank: float
    nave_rank: float
    mean_activity: float
    n_comments: int
    rank_trace: list[int] = field(default_factory=list)


@dataclass
class RankReport:
    ranker: str
    groups: list[GroupMetrics] = field(default_factory=list)  # sorted by group id


def _shadow(cascade):
    # post-only copy; comments are appended back as the stream replays them
    return Cascade(
        cascade_id=cascade.cascade_id,
        post=cascade.post,
        comments=[],
        window_end=cascade.window_end,
        group_id=cascade.group_id,
        origin=cascade.origin,
        truncated=cascade.truncated,
    )


def evaluate_group(ranker, test_cascades, group_id="default", policy="all",
                   activity_horizon=ACTIVITY_HORIZON, window=None):
    """Replay one group's test comments through a ranker.

    Comments at the same global minute are all ranked before any of them
    is absorbed, so an event never sees a simultaneous one; this keeps
    streaming and scratch rankers in exact agreement.  Candidates are
    filtered from a pool of the cascades whose window is open, kept as
    the stream advances, so the work per comment does not grow with the
    number of cascades in the group.  Under "all" the pool itself is served.
    """
    stream = comment_stream(test_cascades)
    if not stream:
        raise ConfigError(f"group {group_id!r} has no test comments to rank")

    shadows = {c.cascade_id: _shadow(c) for c in test_cascades}
    ordered_shadows = sorted(shadows.values(), key=lambda c: (c.origin, c.cascade_id))
    # the pool, in origin order: a cascade joins once its post precedes
    # t and leaves once its window has closed, never to return; it is
    # filtered only when one joins or the earliest window end has passed
    live, admitted, closes = [], 0, math.inf
    trace = []
    i = 0
    while i < len(stream):
        j = i
        while j < len(stream) and stream[j][0] == stream[i][0]:
            j += 1
        batch = stream[i:j]
        t = batch[0][0]
        start = admitted
        while (admitted < len(ordered_shadows)
               and ordered_shadows[admitted].origin < t):
            admitted += 1
        if admitted > start or t >= closes:
            live = candidate_cascades(live + ordered_shadows[start:admitted], t)
            closes = min((c.origin + c.window_end for c in live), default=math.inf)
        for _, c, _, e in batch:
            candidates = live if policy == "all" else candidate_cascades(
                live, t, policy, activity_horizon)
            # candidates and the served order hold the shadow objects
            # themselves, so the target is found by identity
            target = shadows[c.cascade_id]
            if target not in candidates:
                raise ConfigError(
                    f"cascade {c.cascade_id!r} fell out of the candidate set at "
                    f"t={t}; the {policy!r} policy cannot score this corpus"
                )
            served = ranker.rank(e.publisher, t, candidates)
            trace.append(served.index(target))
        for _, c, _, e in batch:
            shadow = shadows[c.cascade_id]
            shadow.append(e)
            ranker.absorb(shadow, e, t)
        i = j

    if window is None:
        window = (
            min(c.origin for c in test_cascades),
            max(c.origin + c.comments[-1].time for c in test_cascades if c.comments),
        )
    activity = mean_activity(test_cascades, window, activity_horizon)
    ave = sum(trace) / len(trace)
    return GroupMetrics(
        group_id=group_id,
        ave_rank=ave,
        nave_rank=ave / activity,
        mean_activity=activity,
        n_comments=len(trace),
        rank_trace=trace,
    )


def _by_group(cascades):
    groups = {}
    for c in cascades:
        groups.setdefault(c.group_id, []).append(c)
    return groups


def evaluate(ranker_name, train_cascades, test_cascades, store=None,
             fit_config=None, model_params=None, policy="all",
             activity_horizon=ACTIVITY_HORIZON):
    """Fit the named ranker per group and score it on that group's test set.

    Test cascades with participants absent from the group's training data
    are dropped with a warning: their features were never observed, so
    every model would score them blind.
    """
    train_groups = _by_group(train_cascades)
    test_groups = _by_group(test_cascades)
    report = RankReport(ranker=ranker_name)
    for gid in sorted(test_groups):
        if gid not in train_groups:
            raise ConfigError(f"test group {gid!r} has no training cascades")
        train = train_groups[gid]
        known = set(corpus_participants(train))
        kept = []
        for c in test_groups[gid]:
            unseen = c.participants() - known
            if unseen:
                warnings.warn(
                    f"dropping test cascade {c.cascade_id!r}: participants "
                    f"{sorted(unseen)} not in group {gid!r} training data",
                    stacklevel=2,
                )
            else:
                kept.append(c)
        if not kept:
            warnings.warn(f"group {gid!r} has no scorable test cascades", stacklevel=2)
            continue
        if store is not None:
            train = annotate_corpus(train, store)
            kept = annotate_corpus(kept, store)
        ranker = make_ranker(ranker_name, train, store, fit_config, model_params)
        report.groups.append(
            evaluate_group(ranker, kept, gid, policy, activity_horizon)
        )
    if not report.groups:
        raise ConfigError("no group produced any rankable test comments")
    return report
