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
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .baselines import ACTIVITY_HORIZON
from .core import Cascade, Event, ModelParams, separate_ties
from .errors import ConfigError, DataFormatError
from .features import FeatureStore, Lexicon
from .rank_eval import GroupMetrics, RankReport
from .simulate import random_sim_config

FORMAT_VERSION = 1


def _require(record, key, kinds, line=None, where="record"):
    if key not in record:
        raise DataFormatError(f"{where} is missing {key!r}", line=line)
    value = record[key]
    if not isinstance(value, kinds):
        raise DataFormatError(
            f"{where} field {key!r} has type {type(value).__name__}", line=line
        )
    return value


def _number(record, key, line=None, where="record", default=None):
    if key not in record:
        return default
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(
            f"{where} field {key!r} must be a number", line=line
        )
    return float(value)


def _wall_clock_minutes(text, line=None):
    if not isinstance(text, str):
        raise DataFormatError(f"wall_clock {text!r} is not an ISO-8601 string",
                              line=line)
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataFormatError(f"bad wall_clock {text!r}: {exc}", line=line)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp() / 60.0


def _wall_clock_text(minutes):
    stamp = datetime.fromtimestamp(minutes * 60.0, tz=timezone.utc)
    return stamp.isoformat()


def _json_lines(path):
    with open(path, encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON: {exc.msg}", line=n)
            if not isinstance(record, dict):
                raise DataFormatError("record is not an object", line=n)
            yield n, record


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _load_object(path, what):
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{what} file {path}: invalid JSON: {exc.msg}")
    if not isinstance(record, dict):
        raise DataFormatError(f"{what} file {path} does not hold an object")
    return record


def _dump_object(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# -------------------------------------------------------------------- corpus


def _read_event(raw, line):
    if not isinstance(raw, dict):
        raise DataFormatError("event is not an object", line=line)
    t = _number(raw, "t", line=line, where="event")
    if t is None:
        raise DataFormatError("event is missing 't'", line=line)
    publisher = _require(raw, "publisher", str, line=line, where="event")
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise DataFormatError("event 'text' must be a string", line=line)
    features = raw.get("content_features")
    if features is not None and not isinstance(features, list):
        raise DataFormatError("event 'content_features' must be an array", line=line)
    return t, publisher, text, features, raw.get("wall_clock")


def read_corpus(path):
    """Cascades from a JSON-lines file, one per line, in file order; a
    cascade id may appear only once."""
    cascades, lines = [], {}
    for n, record in _json_lines(path):
        cascade_id = _require(record, "cascade_id", str, line=n)
        if cascade_id in lines:
            raise DataFormatError(
                f"cascade id {cascade_id!r} already used on line {lines[cascade_id]}",
                line=n,
            )
        lines[cascade_id] = n
        group_id = record.get("group_id", "default")
        if not isinstance(group_id, str):
            raise DataFormatError("'group_id' must be a string", line=n)
        raw_events = _require(record, "events", list, line=n)
        if not raw_events:
            raise DataFormatError(f"cascade {cascade_id!r} has no events", line=n)
        parsed = [_read_event(e, n) for e in raw_events]
        times = [p[0] for p in parsed]
        if any(b < a for a, b in zip(times, times[1:])):
            raise DataFormatError(
                f"cascade {cascade_id!r} event times decrease", line=n
            )
        origin = _number(record, "origin", line=n)
        if origin is not None:
            if times[0] != 0:
                raise DataFormatError(
                    "explicit 'origin' requires the post at t=0", line=n
                )
        elif times[0] != 0:
            origin = times[0]
            times = [t - origin for t in times]
        elif parsed[0][4] is not None:
            origin = _wall_clock_minutes(parsed[0][4], line=n)
        else:
            origin = 0.0
        times = separate_ties(times)
        window_end = _number(record, "window_end", line=n)
        if window_end is None:
            window_end = times[-1] + ACTIVITY_HORIZON
        truncated = record.get("truncated", False)
        if not isinstance(truncated, bool):
            raise DataFormatError("'truncated' must be a boolean", line=n)
        try:
            events = [
                Event(
                    t,
                    publisher,
                    np.asarray(features, dtype=float)
                    if features is not None
                    else np.zeros(0),
                    text,
                )
                for t, (_, publisher, text, features, _) in zip(times, parsed)
            ]
            cascades.append(
                Cascade(
                    cascade_id=cascade_id,
                    post=events[0],
                    comments=events[1:],
                    window_end=window_end,
                    group_id=group_id,
                    origin=origin,
                    truncated=truncated,
                )
            )
        except (ValueError, TypeError, ConfigError) as exc:
            raise DataFormatError(f"cascade {cascade_id!r}: {exc}", line=n)
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

    records = []
    for c in cascades:
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
        records.append(record)
    _write_lines(path, records)


# ------------------------------------------------------------------- lexicon


def read_lexicon(path):
    categories = {}
    matching_mode = "exact"
    for n, record in _json_lines(path):
        if "matching_mode" in record:
            matching_mode = _require(record, "matching_mode", str, line=n)
            continue
        category = _require(record, "category", str, line=n)
        words = _require(record, "words", list, line=n)
        if category in categories:
            raise DataFormatError(f"duplicate category {category!r}", line=n)
        if not all(isinstance(w, str) for w in words):
            raise DataFormatError(f"category {category!r} has non-string words", line=n)
        categories[category] = words
    try:
        return Lexicon(categories, matching_mode)
    except ConfigError as exc:
        raise DataFormatError(f"lexicon file {path}: {exc}")


def write_lexicon(path, lexicon):
    records = [{"matching_mode": lexicon.matching_mode}]
    records += [
        {"category": cat, "words": lexicon.words(cat)} for cat in lexicon.categories
    ]
    _write_lines(path, records)


# -------------------------------------------------------------- model params


def write_model(path, params, diagnostics=None):
    record = {
        "format_version": FORMAT_VERSION,
        "post_pair_weights": params.post_pair_weights.tolist(),
        "post_content_weights": params.post_content_weights.tolist(),
        "comment_pair_weights": params.comment_pair_weights.tolist(),
        "comment_content_weights": params.comment_content_weights.tolist(),
        "post_decay_rate": params.post_decay_rate,
        "comment_decay_rate": params.comment_decay_rate,
        "pair_feature_names": list(params.pair_feature_names),
        "content_feature_names": list(params.content_feature_names),
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    _dump_object(path, record)


def read_model(path):
    record = _load_object(path, "model")
    where = f"model file {path}"
    try:
        return ModelParams(
            post_pair_weights=_require(record, "post_pair_weights", list, where=where),
            post_content_weights=_require(
                record, "post_content_weights", list, where=where
            ),
            comment_pair_weights=_require(
                record, "comment_pair_weights", list, where=where
            ),
            comment_content_weights=_require(
                record, "comment_content_weights", list, where=where
            ),
            post_decay_rate=_number(record, "post_decay_rate", where=where, default=0.001),
            comment_decay_rate=_number(
                record, "comment_decay_rate", where=where, default=0.01
            ),
            pair_feature_names=record.get("pair_feature_names", []),
            content_feature_names=record.get("content_feature_names", []),
        )
    except (ValueError, TypeError, ConfigError) as exc:
        raise DataFormatError(f"{where}: {exc}")


# ------------------------------------------------------------- feature store


def _bounds_record(bounds):
    return None if bounds is None else [bounds[0].tolist(), bounds[1].tolist()]


def _bounds_from(record):
    if record is None:
        return None
    lo, hi = record
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


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
    record = _load_object(path, "feature store")
    where = f"feature store file {path}"
    lex = record.get("lexicon")
    try:
        lexicon = (
            None
            if lex is None
            else Lexicon(dict(lex["categories"]), lex.get("matching_mode", "exact"))
        )
        arr = lambda v: np.asarray(v, dtype=float)
        return FeatureStore(
            pair_names=_require(record, "pair_feature_names", list, where=where),
            content_names=_require(record, "content_feature_names", list, where=where),
            character={u: arr(v) for u, v in record.get("character", [])},
            relationship={(a, b): arr(v) for a, b, v in record.get("relationship", [])},
            pairs={(u, p): arr(v) for u, p, v in record.get("pairs", [])},
            content={k: arr(v) for k, v in record.get("content", [])},
            character_bounds=_bounds_from(record.get("character_bounds")),
            relationship_bounds=_bounds_from(record.get("relationship_bounds")),
            content_bounds=_bounds_from(record.get("content_bounds")),
            lexicon=lexicon,
            normalized=bool(record.get("normalized", False)),
        )
    except (ValueError, TypeError, KeyError, ConfigError) as exc:
        raise DataFormatError(f"{where}: {exc}")


# -------------------------------------------------------------------- report


def write_report(path, report):
    records = []
    for g in sorted(report.groups, key=lambda g: g.group_id):
        record = {"ranker": report.ranker}
        record.update(asdict(g))
        records.append(record)
    _write_lines(path, records)


def read_report(path):
    groups = []
    ranker = None
    for n, record in _json_lines(path):
        name = _require(record, "ranker", str, line=n)
        if ranker is None:
            ranker = name
        elif name != ranker:
            raise DataFormatError(
                f"mixed rankers in one report: {ranker!r} vs {name!r}", line=n
            )
        groups.append(
            GroupMetrics(
                group_id=_require(record, "group_id", str, line=n),
                ave_rank=_number(record, "ave_rank", line=n),
                nave_rank=_number(record, "nave_rank", line=n),
                mean_activity=_number(record, "mean_activity", line=n),
                n_comments=int(_number(record, "n_comments", line=n, default=0)),
                rank_trace=record.get("rank_trace", []),
            )
        )
    if ranker is None:
        raise DataFormatError(f"report file {path} is empty")
    return RankReport(ranker=ranker, groups=groups)


# ------------------------------------------------------------ simulator config

_SIM_KEYS = {
    "n_users", "pair_dim", "content_dim", "seed", "horizon", "n_cascades",
    "post_decay_rate", "comment_decay_rate", "weight_scale", "max_events",
    "origin_spacing", "group_id", "params",
}


def read_sim_config(path, seed=None):
    """Simulator configuration; `seed` overrides the file's value."""
    record = _load_object(path, "simulator config")
    unknown = set(record) - _SIM_KEYS
    if unknown:
        raise DataFormatError(
            f"simulator config file {path}: unknown keys {sorted(unknown)}"
        )
    kwargs = dict(record)
    params = kwargs.pop("params", None)
    if params is not None:
        try:
            kwargs["params"] = ModelParams(
                post_pair_weights=params["post_pair_weights"],
                post_content_weights=params["post_content_weights"],
                comment_pair_weights=params["comment_pair_weights"],
                comment_content_weights=params["comment_content_weights"],
                post_decay_rate=params.get(
                    "post_decay_rate", record.get("post_decay_rate", 0.001)
                ),
                comment_decay_rate=params.get(
                    "comment_decay_rate", record.get("comment_decay_rate", 0.01)
                ),
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise DataFormatError(f"simulator config file {path}: params: {exc}")
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return random_sim_config(**kwargs)
    except TypeError as exc:
        raise DataFormatError(f"simulator config file {path}: {exc}")
