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
"""

from __future__ import annotations

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
from .core import Cascade, JumpTable, comment_stream, corpus_participants
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
    cascades without one are scored from scratch with one
    `JumpTable.states_at` call for the whole query.  Ties break by most
    recent event, then cascade id.
    """
    states, built = states or {}, {}
    fresh = [c for c in cascades if c.cascade_id not in states]
    if fresh:
        built = dict(zip((c.cascade_id for c in fresh), JumpTable(params, store)
                         .states_at(user, fresh, [t - c.origin for c in fresh])))
    scores = [(states.get(c.cascade_id) or built[c.cascade_id]).intensity
              for c in cascades]
    return order_candidates(cascades, scores, t)


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
    every absorbed comment.
    """

    def __init__(self, store, train_cascades=()):
        self.store = store
        self.profiles = {}
        for _, c, i, e in comment_stream(train_cascades):
            self._learn(c.cascade_id, i + 1, e)

    def _learn(self, cascade_id, idx, event):
        """One moving-average step with the content of event `idx` (0 is
        the post) of the cascade."""
        v = np.asarray(self.store.event_content(cascade_id, idx, event), dtype=float)
        profile = self.profiles.get(event.publisher)
        self.profiles[event.publisher] = v.copy() if profile is None else (
            (1.0 - EWMA_SMOOTHING) * profile + EWMA_SMOOTHING * v)

    def representative(self, cascade, t):
        """Mean content of the cascade's events strictly before global minute t."""
        local_t = t - cascade.origin
        vectors = [
            self.store.event_content(cascade.cascade_id, idx, e)
            for idx, e in enumerate(cascade.events)
            if e.time < local_t
        ]
        return np.mean(vectors, axis=0) if vectors else np.zeros(self.store.content_dim)

    def rank(self, user, t, candidates):
        profile = self.profiles.get(user)
        if profile is None:
            return super().rank(user, t, candidates)
        scores = [-float(np.linalg.norm(profile - self.representative(c, t)))
                  for c in candidates]
        return order_candidates(candidates, scores, t)

    def absorb(self, cascade, event, t):
        self._learn(cascade.cascade_id, len(cascade.comments), event)


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
    if name == "RCHR":
        return RecencyRanker()
    if name == "NN":
        if store is None:
            raise ConfigError("NN needs a feature store")
        return NNRanker(store, train_cascades)
    if name.startswith("COX-"):
        if store is None:
            raise ConfigError(f"{name} needs a feature store")
        prefix = name.split("-", 1)[1].lower() + ":"
        indices = [
            i for i, n in enumerate(store.content_names) if n.startswith(prefix)
        ]
        if not indices:
            raise ConfigError(f"no content features match {prefix!r}")
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
        if store is None:
            raise ConfigError(f"{name} needs a feature store")
        if model_params is not None:
            return IntensityRanker(model_params, store)
        set_name = name.split("-", 1)[1].lower()
        pair_mask, content_mask = feature_set_masks(
            set_name, store.pair_names, store.content_names
        )
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
            shadow.comments.append(e)
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
        known = corpus_participants(train)
        kept = []
        for c in test_groups[gid]:
            unseen = c.participants() - set(known)
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
