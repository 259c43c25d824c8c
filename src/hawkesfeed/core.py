"""Domain types and the two-term exponential-decay intensity.

A cascade is one post plus the comments it received, timed in minutes
relative to the post.  The rate at which a user adds a comment to a
cascade is the sum of a slowly decaying post term (how attractive the
post itself is to that user) and a fast decaying comment term (how much
every earlier comment excites that user).  Both terms are nonnegative
weighted sums of features, so the whole intensity is linear in the
weight vectors.

A `JumpTable` is the one place that turns weights and features into
jumps: a jump is its (user, publisher) pair part, computed once and read
from the table, plus the event's content score, the same IEEE sum as the
whole expression.  A batch of content scores is one per-row `np.vecdot`
over the stacked content vectors, which gives each event's own dot
product bit for bit (a test pins this); `C @ w` may sum in another order
and move a jump by an ulp.  Feature vectors are stored contiguous, since
a dot product over a strided vector may round differently too.

One streaming path carries the intensity: an `IntensityState` holds the
two terms, and only `JumpTable.states_at` builds one, from scratch at a
global minute for a batch of cascades (the reference).  Only
`IntensityState.advance`, which decays it forward, and `JumpTable.absorb`,
which advances it to a comment's arrival and adds that comment's jump, move
it, in place; the decay and the jump are written there and nowhere else.
`intensity` reads the same sum at one cascade's relative minute.  The
streaming and scratch routes agree to floating-point accuracy.

A `Cascade` never changes once built: its comments are a tuple, and
`Cascade.columns` gives them as `CascadeColumns` (times, publisher codes
and a content matrix), built once on first read.  `rank_eval.prioritize`
scores from the columns; `states_at`, the exact reference, reads the
events.

`Cascade.count_before` is the one rule for what a cascade did before a
global minute t (`origin + time < t`), so a comment is never its own
covariate or in the intensity at its own minute: `latest_before`, every
cross-cascade reader and both scratch scorers (`JumpTable.states_at`,
`rank_eval.certified_intensities`, decaying on `t - origin`) ask it.
`candidate_cascades` is the one rule for which cascades are in play at
t: the window is open and, under "active", the latest event before t is
within `ACTIVITY_HORIZON`.  `walk_minutes` walks the comment stream once, a
minute at a time, with the cascades open then, whole: a reader sees what
one did before t through `count_before(t)`.  The replay
(`rank_eval.evaluate_group`) and the COX risk sets
(`baselines._cox_design`) both walk it, so both see the same cascades.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import chain, groupby
from operator import attrgetter, itemgetter

import numpy as np

from .errors import ConfigError

# Minutes added to the later of two exactly tied event times at ingestion.
TIE_SHIFT = 1e-6
ACTIVITY_HORIZON = 720.0  # minutes an open cascade stays active after its latest event

_time = attrgetter("time")
_content = attrgetter("content_features")
in_play_order = attrgetter("origin", "cascade_id")  # how cascades in play are listed


def _feature_vector(values):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("feature vector must be one-dimensional")
    return np.ascontiguousarray(v)


@dataclass(eq=False)
class Event:
    """One timestamped action: the post opening a cascade, or a comment.

    `time` is minutes since the cascade origin.  `content_features` may be
    empty when the event carries no usable content; lookups then fall back
    to a zero vector.  `text` is kept only as raw material for feature
    extraction and plays no role in the model itself.
    """

    time: float
    publisher: str
    content_features: np.ndarray = field(default_factory=lambda: np.zeros(0))
    text: str | None = None

    def __post_init__(self):
        self.time = float(self.time)
        self.content_features = _feature_vector(self.content_features)
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        cf = self.content_features
        # written so that a NaN, which fails every comparison, is refused too
        if cf.size and not (cf.min() >= 0.0 and cf.max() <= 1.0):
            raise ValueError("content features must lie in [0, 1]; normalize first")

    @classmethod
    def _trusted(cls, time, publisher, content_features, text=None):
        """An event from values its maker guarantees the constructor would
        keep as they are: `time` a finite Python float >= 0 and
        `content_features` a contiguous 1-d float array in [0, 1].

        The fields are set in declaration order, so the instance shares its
        attribute layout with checked events and takes no more memory.
        """
        e = cls.__new__(cls)
        e.time = time
        e.publisher = publisher
        e.content_features = content_features
        e.text = text
        return e


@dataclass(frozen=True, eq=False)
class Cascade:
    """One post and its strictly time-ordered comments in a window [0, window_end).

    `origin` is the wall-clock minute at which the post appeared.  It
    decides which comments came before a global minute (`count_before`,
    read by candidate sets, recency ranking and the scratch scorers) and
    never enters within-cascade math, which stays on the relative axis.

    A cascade never changes: its fields cannot be assigned, and `comments`
    is stored as a tuple.  So `columns` and the comments' global minutes
    are each built once, on first read, and kept in a plain attribute: a
    filled `functools.cached_property` would turn the instance's attributes
    into a real dict and slow every later attribute read of the cascade.
    """

    cascade_id: str
    post: Event
    comments: tuple[Event, ...]
    window_end: float
    group_id: str = "default"
    origin: float = 0.0
    truncated: bool = False

    def __post_init__(self):
        if self.post.time != 0.0:
            raise ValueError(f"cascade {self.cascade_id}: post must sit at time 0")
        if not self.window_end > 0:
            raise ValueError(f"cascade {self.cascade_id}: window_end must be positive")
        if not math.isfinite(self.origin):
            raise ValueError(f"cascade {self.cascade_id}: origin must be finite")
        object.__setattr__(self, "comments", tuple(self.comments))
        prev = 0.0
        for c in self.comments:
            if not prev < c.time:
                raise ValueError(
                    f"cascade {self.cascade_id}: comment times must be strictly "
                    f"increasing and after the post (got {c.time} after {prev})"
                )
            prev = c.time
        if not prev < self.window_end:  # the newest comment is the latest
            raise ValueError(
                f"cascade {self.cascade_id}: comment at {prev} outside the "
                f"window [0, {self.window_end})"
            )
        object.__setattr__(self, "_minutes", None)  # built by `_global_minutes`
        object.__setattr__(self, "_columns", None)  # built by `columns`

    @property
    def columns(self):
        """The comments as `CascadeColumns`."""
        columns = self._columns
        if columns is None:
            columns = CascadeColumns.of(self.comments)
            object.__setattr__(self, "_columns", columns)
        return columns

    def _global_minutes(self):
        # each comment's global minute (the float `comment_stream` forms) as
        # packed doubles, a quarter of a float list's memory, which `bisect`
        # reads through a memoryview
        minutes = np.array([self.origin + e.time for e in self.comments], dtype=float).data
        object.__setattr__(self, "_minutes", minutes)
        return minutes

    @property
    def events(self):
        return [self.post, *self.comments]

    def participants(self):
        return {e.publisher for e in self.events}

    def count_before(self, t):
        """How many comments have a global minute `origin + time` strictly
        below t: the one rule for what a cascade did before t."""
        minutes = self._minutes
        return bisect.bisect_left(self._global_minutes() if minutes is None else minutes, t)

    def latest_before(self, t):
        """The latest event before global minute t by `count_before`, or None."""
        minutes = self._minutes
        k = bisect.bisect_left(self._global_minutes() if minutes is None else minutes, t)
        if k:
            return self.comments[k - 1]
        return self.post if self.origin + self.post.time < t else None


@dataclass(frozen=True, eq=False)
class CascadeColumns:
    """A cascade's comments as arrays.

    `times` are the relative minutes; `codes[i]` indexes comment i's
    publisher in `publishers`, which lists each publisher once, in order of
    first comment.  `content` stacks the content vectors as one
    C-contiguous (n, d) matrix, a comment without content as a zero row:
    d is the width every comment with content shares, 0 when none has any,
    and `content` is None when two widths differ.
    """

    times: np.ndarray
    publishers: tuple
    codes: np.ndarray
    content: np.ndarray | None

    @classmethod
    def of(cls, comments):
        index = {}
        codes = [index.setdefault(e.publisher, len(index)) for e in comments]
        rows = list(map(_content, comments))
        widths = set(map(len, rows))
        d = max(widths, default=0)
        if widths - {0, d}:
            content = None
        elif d:
            if 0 in widths:
                rows = [r if r.size else np.zeros(d) for r in rows]
            content = np.concatenate(rows).reshape(len(rows), d)
        else:
            content = np.zeros((len(rows), 0))
        times = np.fromiter(map(_time, comments), float, len(comments))
        codes = np.array(codes, dtype=np.intp)
        for a in (times, codes, content):
            if a is not None:
                a.flags.writeable = False
        return cls(times, tuple(index), codes, content)


def separate_ties(times):
    """Shift exact duplicates forward by TIE_SHIFT so the sequence strictly increases.

    Input must already be sorted ascending; only tied (or tie-shifted)
    entries move, everything else is returned untouched.
    """
    out = []
    prev = None
    for t in times:
        t = float(t)
        if prev is not None and t <= prev:
            t = prev + TIE_SHIFT
        out.append(t)
        prev = t
    return out


def corpus_participants(cascades):
    users = set()
    for c in cascades:
        users |= c.participants()
    return sorted(users)


def comment_stream(cascades):
    """Every comment as (global minute, cascade, comment index, event),
    ordered by time, then cascade id, then index."""
    rows = [(c.origin + e.time, c, i, e)
            for c in cascades for i, e in enumerate(c.comments)]
    rows.sort(key=lambda r: (r[0], r[1].cascade_id, r[2]))
    return rows


CANDIDATE_POLICIES = ("all", "active")


def candidate_cascades(cascades, t, policy="all"):
    """The cascades in play at global minute t, in the order given: those
    whose window is open (`origin < t < origin + window_end`) and, under
    "active", whose `latest_before(t)` is at most `ACTIVITY_HORIZON` old."""
    if policy not in CANDIDATE_POLICIES:
        raise ConfigError(
            f"unknown candidate policy {policy!r}, pick from {CANDIDATE_POLICIES}"
        )
    out = []
    for c in cascades:
        if not c.origin < t < c.origin + c.window_end:
            continue
        if policy == "active":
            last = c.latest_before(t)
            if last is None or t - (c.origin + last.time) > ACTIVITY_HORIZON:
                continue
        out.append(c)
    return out


def walk_minutes(cascades):
    """The comment stream a global minute at a time, with the open cascades.

    Yields `(t, batch, open)` per distinct minute t of `comment_stream`:
    `batch` pairs each comment at t with its cascade, and `open` is
    `candidate_cascades` of the cascades at t, in `in_play_order`.  The
    cascades are the caller's own, whole: what one did before t is what
    `count_before(t)` and `latest_before(t)` read.  `open` is a pool that a
    cascade joins once its origin precedes t and leaves once its window has
    closed; it is refiltered only then, so the work per minute does not
    grow with the number of cascades.  A cascade id may appear only once.
    """
    repeated = [cid for cid, n in Counter(c.cascade_id for c in cascades).items() if n > 1]
    if repeated:
        raise ConfigError(f"cascade id {repeated[0]!r} appears twice")
    ordered = sorted(cascades, key=in_play_order)
    pool, admitted, closes = [], 0, math.inf
    for t, rows in groupby(comment_stream(cascades), key=itemgetter(0)):
        start = admitted
        while admitted < len(ordered) and ordered[admitted].origin < t:
            admitted += 1
        if admitted > start or t >= closes:
            pool = candidate_cascades(pool + ordered[start:admitted], t)
            closes = min((c.origin + c.window_end for c in pool), default=math.inf)
        yield t, [(e, c) for _, c, _, e in rows], pool


@dataclass(eq=False)
class ModelParams:
    """Nonnegative feature weights plus the two per-minute decay rates.

    The `*_pair_weights` act on publisher-user feature vectors, the
    `*_content_weights` on event-content vectors.  `post_*` shapes the
    initial attraction of a post, `comment_*` the excitation added by
    each comment.  Manifests name the coordinates; lengths must agree.
    """

    post_pair_weights: np.ndarray
    post_content_weights: np.ndarray
    comment_pair_weights: np.ndarray
    comment_content_weights: np.ndarray
    post_decay_rate: float = 0.001
    comment_decay_rate: float = 0.01
    pair_feature_names: list[str] = field(default_factory=list)
    content_feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.post_pair_weights = _feature_vector(self.post_pair_weights)
        self.post_content_weights = _feature_vector(self.post_content_weights)
        self.comment_pair_weights = _feature_vector(self.comment_pair_weights)
        self.comment_content_weights = _feature_vector(self.comment_content_weights)
        if self.post_pair_weights.size != self.comment_pair_weights.size:
            raise ConfigError("post and comment pair weight vectors differ in length")
        if self.post_content_weights.size != self.comment_content_weights.size:
            raise ConfigError("post and comment content weight vectors differ in length")
        for name in ("post_pair_weights", "post_content_weights",
                     "comment_pair_weights", "comment_content_weights"):
            w = getattr(self, name)
            if w.size and not (w.min() >= 0 and w.max() < math.inf):
                raise ConfigError(f"{name} must be finite and nonnegative")
        for rate in (self.post_decay_rate, self.comment_decay_rate):
            if not (rate > 0 and math.isfinite(rate)):
                raise ConfigError("decay rates must be positive and finite")
        if not self.pair_feature_names:
            self.pair_feature_names = [f"pair_{i}" for i in range(self.post_pair_weights.size)]
        if not self.content_feature_names:
            self.content_feature_names = [f"content_{i}" for i in range(self.post_content_weights.size)]
        if len(self.pair_feature_names) != self.post_pair_weights.size:
            raise ConfigError("pair manifest length does not match pair weight length")
        if len(self.content_feature_names) != self.post_content_weights.size:
            raise ConfigError("content manifest length does not match content weight length")

    @property
    def pair_dim(self):
        return self.post_pair_weights.size

    @property
    def content_dim(self):
        return self.post_content_weights.size

    def scaled(self, c):
        """All four weight vectors multiplied by c; decay rates untouched."""
        return replace(
            self,
            post_pair_weights=c * self.post_pair_weights,
            post_content_weights=c * self.post_content_weights,
            comment_pair_weights=c * self.comment_pair_weights,
            comment_content_weights=c * self.comment_content_weights,
        )


def event_content(event, dim):
    """Content vector of an event, or zeros when it carries none.

    A model with no content coordinates (dim 0, as in the pairwise
    baseline's `as_feature_model`) has no content term, so it gets the
    empty vector whatever the event carries; any other mismatch raises.
    """
    cf = event.content_features
    if cf.size == 0 or dim == 0:
        return np.zeros(dim)
    if cf.size != dim:
        raise ConfigError(
            f"event content has {cf.size} features, model expects {dim}"
        )
    return cf


def _content_scores(events, w):
    """`float(w @ event_content(e, w.size))` of each event, as one list.

    Per-row `np.vecdot` on the C-contiguous stacked contents gives the
    per-event dot product's floats; `C @ w` may not.
    """
    if not (w.size and events):
        return [0.0] * len(events)
    rows = list(map(_content, events))
    if set(map(len, rows)) != {w.size}:
        rows = [event_content(e, w.size) for e in events]
    return np.vecdot(np.concatenate(rows).reshape(len(rows), w.size), w).tolist()


@dataclass
class IntensityState:
    """Decomposed intensity for one (user, cascade) pair.

    `post_term` and `comment_term` decay at their own rates between
    events; their sum is the intensity at `last_update_time`.  Single
    writer per pair: `advance` and `JumpTable.absorb` update the state in
    place, in O(1), and never rewind; a reader that must not disturb a
    writer's state moves a `dataclasses.replace` copy.  A state is clocked
    on the global minute `JumpTable.states_at` built it at.
    """

    user: str
    cascade_id: str
    post_term: float
    comment_term: float
    last_update_time: float

    @property
    def intensity(self):
        return self.post_term + self.comment_term

    def advance(self, t, params):
        """Decay both terms to t >= last_update_time in place; returns the
        intensity at t (the property's sum, without a second call)."""
        dt = t - self.last_update_time
        if dt < 0:
            raise ValueError(
                f"state at {self.last_update_time} cannot rewind to {t}"
            )
        self.post_term = self.post_term * math.exp(-params.post_decay_rate * dt)
        self.comment_term = self.comment_term * math.exp(-params.comment_decay_rate * dt)
        self.last_update_time = t
        return self.post_term + self.comment_term


class JumpTable:
    """What each event adds to a user's rate under one `(params, store)`.

    An event by publisher p lifts user u's post or comment term by
    `w_pair · pair_vector(u, p) + w_content · content`.  Both terms' pair
    parts come from one `pair_vector` call the first time (u, p) is read
    and are kept as the same floats; the content part is scored per event.
    """

    def __init__(self, params, store):
        self.params = params
        self.store = store
        self._rows = defaultdict(dict)  # user -> {publisher: (post part, comment part)}

    def pair(self, user, publisher):
        """The (post, comment) pair parts of `publisher`'s jumps for `user`."""
        row = self._rows[user]
        parts = row.get(publisher)
        if parts is None:
            pair, p = self.store.pair_vector(user, publisher), self.params
            if pair.size != p.pair_dim:
                raise ConfigError(f"store pair vectors have {pair.size} features, "
                                  f"model expects {p.pair_dim}")
            parts = row[publisher] = (float(p.post_pair_weights @ pair),
                                      float(p.comment_pair_weights @ pair))
        return parts

    def post_score(self, post):
        """Content part of the post's jump."""
        w = self.params.post_content_weights
        return float(w @ event_content(post, w.size)) if w.size else 0.0

    def comment_score(self, comment):
        """Content part of the comment's jump, the same for every user."""
        w = self.params.comment_content_weights
        return float(w @ event_content(comment, w.size)) if w.size else 0.0

    @property
    def max_comment_score(self):
        """Largest content part a comment can have (content lies in [0, 1])."""
        w = self.params.comment_content_weights
        return float(w @ np.ones(w.size))

    def states_at(self, user, cascades, t):
        """State of `user` on each cascade at global minute t, clocked at t.

        A state holds its cascade's `count_before(t)` comments, decayed over
        relative minutes from x = t - origin (at x = 0 the post has just
        appeared; x < 0 raises).  This is the one scratch evaluation of the
        feature model's intensity.
        """
        return self._states(user, [(c, t - c.origin, c.count_before(t))
                                   for c in cascades], t)

    def _states(self, user, rows, clock):
        """The state of `user` per `(cascade, x, k)` row, clocked at `clock`:
        the post and the first k comments decayed to relative minute x.
        The content of every comment in the batch is scored by one
        `_content_scores` call; each cascade's terms are then summed in
        order, one `math.exp` each, as an event-by-event loop would.
        """
        x_min = min((x for _, x, _ in rows), default=0.0)
        if x_min < 0:
            raise ValueError(f"state requested at negative time {x_min}")
        p, row = self.params, self._rows[user]
        prefixes = [c.comments[:k] for c, _, k in rows]
        scores = iter(_content_scores(list(chain.from_iterable(prefixes)),
                                      p.comment_content_weights))
        post_scores = _content_scores([c.post for c, _, _ in rows],
                                      p.post_content_weights)
        out = []
        for (c, x, _), prefix, post_score in zip(rows, prefixes, post_scores):
            b = 0.0
            for e, score in zip(prefix, scores):
                part = (row.get(e.publisher) or self.pair(user, e.publisher))[1]
                b += (part + score) * math.exp(-p.comment_decay_rate * (x - e.time))
            a = (self.pair(user, c.post.publisher)[0] + post_score) * math.exp(
                -p.post_decay_rate * x)
            out.append(IntensityState(user, c.cascade_id, a, b, clock))
        return out

    def absorb(self, state, comment, t, score=None):
        """Move `state` in place to just after `comment` lands at time t on
        the state's own clock; returns the state.

        The state is first advanced to t (which refuses to rewind), then the
        comment's jump for the state's user is added.  A caller absorbing
        one comment into many states passes its `comment_score` once.
        """
        state.advance(t, self.params)
        if score is None:
            score = self.comment_score(comment)
        state.comment_term += self.pair(state.user, comment.publisher)[1] + score
        return state


def intensity(user, cascade, t, params, store):
    """Rate of `user` commenting on `cascade` at relative minute t.

    Only events strictly before t contribute, so the value at an event's
    own timestamp excludes that event's jump.  `JumpTable.states_at`'s body,
    on a table of its own, with the prefix cut on the relative minute.
    """
    k = bisect.bisect_left(cascade.comments, t, key=_time)
    return JumpTable(params, store)._states(user, [(cascade, t, k)], t)[0].intensity


# An evaluation's result: `rank_eval.evaluate` fills these records and
# `io` reads and writes them, so they sit below both.


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
