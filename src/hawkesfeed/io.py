"""File formats: corpora and reports as JSON lines, everything else as a
single JSON object.  Times are minutes throughout.

A corpus line holds one cascade:

    {"cascade_id": "...", "group_id": "...", "origin": 120.0,
     "window_end": 1440.0, "events": [{"t": 0.0, "publisher": "alice",
     "text": "...", "content_features": [...]}, ...]}

The first event is the post.  `t` is relative to the cascade origin.  The
origin may come from an explicit "origin" (minutes, the authority), from a
nonzero first `t` (the cascade is rebased), or from the post's ISO-8601
"wall_clock" (converted to minutes since the epoch); otherwise 0.  Tied
event times are nudged apart on load, and a missing "window_end" becomes
the last event plus the 12-hour activity horizon.

Every writer streams its file as records, each encoded by the C JSON
encoder: a corpus or report line per cascade or group, and a store or
model file as one compact object (no indentation or spaces) written a
top-level value, or a row of a list-valued one, at a time.  The bytes are
those `json.dump` would write.  A corpus writer holds one cascade's
record at a time, so its memory is bounded by the largest cascade, not
by the corpus.

Readers parse inside `_boundary`, the one place where a value refused
by a parser or a constructor becomes a `DataFormatError` naming the file
and line.  A corpus line's events are parsed field by field; then the
cascade's times and content values are checked in one batch for what
the `Event` constructor checks, and the events are built without
repeating those checks.  A cascade that fails the batch goes through the
constructor event by event, so the first event refused raises its own
error.  Every vector a feature store holds must have the length its
manifest implies and finite, nonnegative values; in a normalized store,
content values are also at most 1.  A vector of numbers (content,
weights, stored features) holds JSON numbers only: `true` and `false` are
refused, though Python would read them as 1 and 0.

This module builds on `core`, `features` and `errors` only; the
simulator config reader imports `simulate` when it is called.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import accumulate, chain

import numpy as np

from .core import (
    ACTIVITY_HORIZON,
    Cascade,
    Event,
    GroupMetrics,
    ModelParams,
    RankReport,
    separate_ties,
)
from .errors import ConfigError, DataFormatError
from .features import CHARACTER_FEATURES, RELATIONSHIP_FEATURES, FeatureStore, Lexicon

FORMAT_VERSION = 1

_REQUIRED = object()
_LARGEST = np.finfo(float).max
_NUMBER_TYPES = frozenset((int, float))
# `encode` takes the C encoder; `json.dump` always runs the Python one
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


@contextmanager
def _boundary(where, line=None):
    """Turn a value refused inside the block into a `DataFormatError`."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OverflowError, ConfigError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise DataFormatError(f"{where}: {detail}", line=line) from exc


def _field(record, key, kinds, default=_REQUIRED):
    """record[key], refused unless one of `kinds`; an absent or null field
    reads as `default`, and one without a default is required."""
    value = record.get(key)
    if value is None:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    if not isinstance(value, kinds):
        raise TypeError(f"field {key!r} has type {type(value).__name__}")
    return value


def _number(record, key, default=_REQUIRED):
    value = _field(record, key, (int, float), default)
    if isinstance(value, bool):
        raise TypeError(f"field {key!r} must be a number")
    return None if value is None else float(value)


def _numbers(values, name):
    """`values`, refused unless every item is a JSON number; `true` and
    `false` are refused too, though Python counts them as integers."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise TypeError(f"{name} must hold numbers only")
    return values


def _names(record, key, default=_REQUIRED):
    names = _field(record, key, list, default)
    if not all(isinstance(name, str) for name in names):
        raise TypeError(f"field {key!r} must hold strings")
    return names


def _object(value):
    if not isinstance(value, dict):
        raise TypeError("record is not an object")
    return value


def _wall_clock_minutes(text):
    if not isinstance(text, str):
        raise TypeError(f"wall_clock {text!r} is not an ISO-8601 string")
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp() / 60.0


def _wall_clock_text(minutes):
    stamp = datetime.fromtimestamp(minutes * 60.0, tz=timezone.utc)
    return stamp.isoformat()


def _json_lines(path, where):
    """(line number, object) for every nonblank line of a UTF-8 JSON-lines
    file; a line is decoded inside the boundary, so bad bytes are refused."""
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            if raw.strip():
                with _boundary(where, n):
                    record = _object(json.loads(raw.decode("utf-8")))
                yield n, record


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _load_object(path):
    with open(path, encoding="utf-8") as fh:
        return _object(json.load(fh))


def _dump_object(path, record):
    """`record` as one compact JSON object on one line, the bytes of
    `json.dump(record, fh, separators=(",", ":"))`.  Each top-level value,
    and each row of a list-valued one, is encoded on its own: encoding the
    whole record as one string nearly triples the traced peak."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(record.items()):
            fh.write(("," if i else "") + _ENCODE(key) + ":")
            if isinstance(value, list):
                fh.write("[")
                for j, row in enumerate(value):
                    fh.write(("," if j else "") + _ENCODE(row))
                fh.write("]")
            else:
                fh.write(_ENCODE(value))
        fh.write("}\n")


# -------------------------------------------------------------------- corpus


def _read_cascade(record):
    cascade_id = _field(record, "cascade_id", str)
    raw_events = _field(record, "events", list)
    if not raw_events:
        raise ValueError(f"cascade {cascade_id!r} has no events")
    parsed = [
        (_number(_object(e), "t"), _field(e, "publisher", str),
         _field(e, "text", str, None),
         _numbers(_field(e, "content_features", list, []), "content_features"))
        for e in raw_events
    ]
    times, publishers, texts, vectors = map(list, zip(*parsed))
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"cascade {cascade_id!r} event times decrease")
    origin = _number(record, "origin", None)
    if origin is not None:
        if times[0] != 0:
            raise ValueError("explicit 'origin' requires the post at t=0")
    elif times[0] != 0:
        origin = times[0]
        times = [t - origin for t in times]
    elif raw_events[0].get("wall_clock") is not None:
        origin = _wall_clock_minutes(raw_events[0]["wall_clock"])
    else:
        origin = 0.0
    times = separate_ties(times)
    window_end = _number(record, "window_end", None)
    if window_end is None:
        window_end = times[-1] + ACTIVITY_HORIZON
    events = list(map(Event._trusted, times, publishers,
                      _event_contents(times, vectors), texts))
    return Cascade(
        cascade_id=cascade_id,
        post=events[0],
        comments=events[1:],
        window_end=window_end,
        group_id=_field(record, "group_id", str, "default"),
        origin=origin,
        truncated=_field(record, "truncated", bool, False),
    )


def _event_contents(times, vectors):
    """Each event's content vector as a float array, with a cascade's times
    and vectors checked in one batch for what the `Event` constructor
    checks: a finite time >= 0, and content values in [0, 1].  When the
    batch fails, the events go through the constructor in order, so the
    first one refused raises the constructor's own error."""
    try:
        flat = np.array(list(chain.from_iterable(vectors)), dtype=float)
    except OverflowError:
        flat = None
    # written so that a NaN, which fails every comparison, is refused too
    if not (flat is not None and all(0.0 <= t < math.inf for t in times)
            and (not flat.size or (flat.min() >= 0.0 and flat.max() <= 1.0))):
        for t, v in zip(times, vectors):
            Event(t, "", v)
    ends = accumulate(map(len, vectors))
    return [flat[end - len(v):end] for end, v in zip(ends, vectors)]


def read_corpus(path):
    """Cascades from a JSON-lines file, one per line, in file order; a
    cascade id may appear only once."""
    where = f"corpus file {path}"
    cascades, lines = [], {}
    for n, record in _json_lines(path, where):
        with _boundary(where, n):
            cascade = _read_cascade(record)
            cid = cascade.cascade_id
            if cid in lines:
                raise ValueError(f"cascade id {cid!r} already used on line {lines[cid]}")
        lines[cid] = n
        cascades.append(cascade)
    return cascades


def write_corpus(path, cascades):
    def event_record(e, wall_clock=None):
        record = {"t": e.time, "publisher": e.publisher}
        if wall_clock is not None:
            record["wall_clock"] = wall_clock
        if e.text is not None:
            record["text"] = e.text
        if e.content_features.size:
            record["content_features"] = e.content_features.tolist()
        return record

    def cascade_record(c):
        events = [
            event_record(c.post, _wall_clock_text(c.origin) if c.origin else None)
        ]
        events += [event_record(e) for e in c.comments]
        record = {
            "cascade_id": c.cascade_id,
            "group_id": c.group_id,
            "window_end": c.window_end,
            "events": events,
        }
        if c.origin:
            record["origin"] = c.origin
        if c.truncated:
            record["truncated"] = True
        return record

    # an origin that cannot be written as a wall clock refuses the corpus
    # before the file is opened, so no partial file is left
    for c in cascades:
        if c.origin:
            _wall_clock_text(c.origin)
    # one cascade's record at a time: memory grows with the largest cascade
    _write_lines(path, map(cascade_record, cascades))


# ------------------------------------------------------------------- lexicon


def _lexicon(entries, matching_mode):
    """A `Lexicon` from (category, words) pairs in order: every category and
    word is a string, and no category repeats."""
    categories = {}
    for category, words in entries:
        if not (isinstance(category, str) and isinstance(words, list)
                and all(isinstance(w, str) for w in words)):
            raise TypeError(f"category {category!r} must name a list of strings")
        if category in categories:
            raise ValueError(f"duplicate category {category!r}")
        categories[category] = words
    return Lexicon(categories, matching_mode)


def read_lexicon(path):
    where = f"lexicon file {path}"
    entries, matching_mode = [], "exact"
    for n, record in _json_lines(path, where):
        with _boundary(where, n):
            if "matching_mode" in record:
                matching_mode = record["matching_mode"]
            else:
                entries.append((record["category"], record["words"]))
    with _boundary(where):
        return _lexicon(entries, matching_mode)


def write_lexicon(path, lexicon):
    records = [{"matching_mode": lexicon.matching_mode}]
    records += [
        {"category": cat, "words": lexicon.words(cat)} for cat in lexicon.categories
    ]
    _write_lines(path, records)


# -------------------------------------------------------------- model params

_WEIGHTS = ("post_pair_weights", "post_content_weights",
            "comment_pair_weights", "comment_content_weights")


def _params(record, post_decay_rate, comment_decay_rate):
    """`ModelParams` from a weights record; absent decay rates take the
    given defaults and absent manifests are generated."""
    return ModelParams(
        *(_numbers(_field(record, key, list), key) for key in _WEIGHTS),
        post_decay_rate=_number(record, "post_decay_rate", post_decay_rate),
        comment_decay_rate=_number(record, "comment_decay_rate", comment_decay_rate),
        pair_feature_names=_names(record, "pair_feature_names", []),
        content_feature_names=_names(record, "content_feature_names", []),
    )


def write_model(path, params, diagnostics=None):
    record = {
        "format_version": FORMAT_VERSION,
        **{key: getattr(params, key).tolist() for key in _WEIGHTS},
        "post_decay_rate": params.post_decay_rate,
        "comment_decay_rate": params.comment_decay_rate,
        "pair_feature_names": list(params.pair_feature_names),
        "content_feature_names": list(params.content_feature_names),
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    _dump_object(path, record)


def read_model(path):
    with _boundary(f"model file {path}"):
        return _params(_load_object(path), 0.001, 0.01)


# ------------------------------------------------------------- feature store


def _vectors(name, vectors, width, top=None):
    """Stored vectors as the rows of one matrix, converted and checked at
    once: each holds `width` finite, nonnegative values, none above `top`
    when it is given."""
    if any(type(v) is not list or len(v) != width for v in vectors):
        raise ValueError(f"{name} vectors must be arrays of {width} values")
    values = _numbers(list(chain.from_iterable(vectors)), f"{name} vectors")
    matrix = np.array(values, dtype=float)
    if matrix.size and not (matrix.min() >= 0.0 and matrix.max() <= (top or _LARGEST)):
        raise ValueError(f"{name} values must be finite and nonnegative"
                         + ("" if top is None else f", at most {top}"))
    return matrix.reshape(len(vectors), width)


def _table(name, rows, width, top=None):
    """{key: vector} from a section's key-to-vector map, its vectors checked
    by one `_vectors` call."""
    return dict(zip(rows, _vectors(name, list(rows.values()), width, top)))


def _bounds(record, name, width):
    bounds = _field(record, name, list, None)
    if bounds is not None and len(bounds) != 2:
        raise ValueError(f"{name} must hold a lower and an upper vector")
    return None if bounds is None else tuple(_vectors(name, bounds, width))


def _bounds_record(bounds):
    return None if bounds is None else [bounds[0].tolist(), bounds[1].tolist()]


def write_store(path, store):
    record = {
        "format_version": FORMAT_VERSION,
        "pair_feature_names": list(store.pair_names),
        "content_feature_names": list(store.content_names),
        "character": [[u, v.tolist()] for u, v in sorted(store.character.items())],
        "relationship": [
            [a, b, v.tolist()] for (a, b), v in sorted(store.relationship.items())
        ],
        "pairs": [[u, p, v.tolist()] for (u, p), v in sorted(store.pairs.items())],
        "content": [[k, v.tolist()] for k, v in sorted(store.content.items())],
        "character_bounds": _bounds_record(store.character_bounds),
        "relationship_bounds": _bounds_record(store.relationship_bounds),
        "content_bounds": _bounds_record(store.content_bounds),
        "lexicon": None
        if store.lexicon is None
        else {
            "matching_mode": store.lexicon.matching_mode,
            "categories": [
                [cat, store.lexicon.words(cat)] for cat in store.lexicon.categories
            ],
        },
        "normalized": store.normalized,
    }
    _dump_object(path, record)


def read_store(path):
    with _boundary(f"feature store file {path}"):
        record = _load_object(path)
        pair_names = _names(record, "pair_feature_names")
        content_names = _names(record, "content_feature_names")
        normalized = _field(record, "normalized", bool, False)
        lex = _field(record, "lexicon", dict, None)
        k, r = len(CHARACTER_FEATURES), len(RELATIONSHIP_FEATURES)
        rows = {name: _field(record, name, list, [])
                for name in ("character", "relationship", "pairs", "content")}
        return FeatureStore(
            pair_names=pair_names,
            content_names=content_names,
            character=_table("character", {u: v for u, v in rows["character"]}, k),
            relationship=_table(
                "relationship", {(a, b): v for a, b, v in rows["relationship"]}, r
            ),
            pairs=_table("pairs", {(u, p): v for u, p, v in rows["pairs"]},
                         len(pair_names)),
            content=_table("content", {key: v for key, v in rows["content"]},
                           len(content_names), 1.0 if normalized else None),
            character_bounds=_bounds(record, "character_bounds", k),
            relationship_bounds=_bounds(record, "relationship_bounds", r),
            content_bounds=_bounds(record, "content_bounds", len(content_names)),
            lexicon=None if lex is None else _lexicon(
                _field(lex, "categories", list), lex.get("matching_mode", "exact")
            ),
            normalized=normalized,
        )


# -------------------------------------------------------------------- report


def write_report(path, report):
    _write_lines(path, ({"ranker": report.ranker, **vars(g)}
                        for g in sorted(report.groups, key=lambda g: g.group_id)))


def read_report(path):
    where = f"report file {path}"
    groups, ranker = [], None
    for n, record in _json_lines(path, where):
        with _boundary(where, n):
            name = _field(record, "ranker", str)
            if ranker not in (None, name):
                raise ValueError(f"mixed rankers in one report: {ranker!r} vs {name!r}")
            ranker = name
            g = GroupMetrics(
                group_id=_field(record, "group_id", str),
                ave_rank=_number(record, "ave_rank"),
                nave_rank=_number(record, "nave_rank"),
                mean_activity=_number(record, "mean_activity"),
                n_comments=_field(record, "n_comments", int),
                rank_trace=_field(record, "rank_trace", list),
            )
            if len(g.rank_trace) != g.n_comments or not all(
                    type(r) is int and r >= 0 for r in g.rank_trace):
                raise ValueError("rank_trace must hold n_comments nonnegative integers")
        groups.append(g)
    if ranker is None:
        raise DataFormatError(f"{where} is empty")
    return RankReport(ranker=ranker, groups=groups)


# ------------------------------------------------------------ simulator config

_SIM_KEYS = {
    "n_users", "pair_dim", "content_dim", "seed", "horizon", "n_cascades",
    "post_decay_rate", "comment_decay_rate", "weight_scale", "max_events",
    "origin_spacing", "group_id", "params",
}


def read_sim_config(path, seed=None):
    """Simulator configuration; `seed` overrides the file's value.

    The checked keywords go to `simulate.random_sim_config`, imported here
    and not with the module: the format layer sits below the simulator."""
    from .simulate import random_sim_config

    with _boundary(f"simulator config file {path}"):
        kwargs = _load_object(path)
        unknown = set(kwargs) - _SIM_KEYS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        params = _field(kwargs, "params", dict, None)
        if params is not None:
            # decay rates the weights leave out come from the config itself
            kwargs["params"] = _params(
                params,
                _number(kwargs, "post_decay_rate", 0.001),
                _number(kwargs, "comment_decay_rate", 0.01),
            )
        if seed is not None:
            kwargs["seed"] = seed
        return random_sim_config(**kwargs)
