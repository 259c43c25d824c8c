"""Every file format against its writer, and against one corrupted field.

A valid object written, read back and written again gives the same bytes.
One field of a written file set to NaN or infinity, given the wrong type,
removed or given the wrong length makes the command that reads the file
exit 3 with a single `error:` line; a report, which no command reads,
raises `DataFormatError`.  Each property runs on a fixed (derandomized)
set of examples so the suite stays reproducible.
"""

import contextlib
import io as stdio
import json
import math
import tempfile
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed import io
from hawkesfeed.cli import main
from hawkesfeed.core import Cascade, Event, ModelParams
from hawkesfeed.errors import DataFormatError
from hawkesfeed.features import FeatureStore, Lexicon, table_pair_manifest
from hawkesfeed.rank_eval import GroupMetrics, RankReport

from conftest import direct_store, random_corpus

ROUND_TRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CORRUPTED = settings(max_examples=80, deadline=None, derandomize=True, database=None)

WEIGHTS = ("post_pair_weights", "post_content_weights",
           "comment_pair_weights", "comment_content_weights")
DELETE = object()

names = st.text("abcdef", min_size=1, max_size=4)
unit = st.floats(0.0, 1.0)
counts = st.floats(0.0, 1e3)


def vectors(width, values=unit):
    return st.lists(values, min_size=width, max_size=width).map(np.array)


def bounds(width):
    return st.none() | st.tuples(vectors(width, counts), vectors(width, counts))


@st.composite
def corpora(draw):
    dim = draw(st.integers(0, 3))
    cascades = []
    for cascade_id in draw(st.lists(names, min_size=1, max_size=4, unique=True)):
        gaps = draw(st.lists(st.floats(0.01, 50.0), max_size=5))
        times = [0.0, *accumulate(gaps)]
        events = [
            Event(t, draw(names), draw(st.just(np.zeros(0)) | vectors(dim)),
                  draw(st.none() | st.text(max_size=8)))
            for t in times
        ]
        cascades.append(Cascade(
            cascade_id, events[0], events[1:],
            window_end=times[-1] + draw(st.floats(0.01, 100.0)),
            group_id=draw(names),
            origin=draw(st.just(0.0) | st.floats(1.0, 1e7)),
            truncated=draw(st.booleans()),
        ))
    return cascades


@st.composite
def lexicons(draw):
    words = st.lists(st.text("abc*", min_size=1, max_size=3), min_size=1, max_size=4)
    categories = draw(st.dictionaries(names, words, min_size=1, max_size=3))
    return Lexicon(categories, draw(st.sampled_from(["exact", "prefix"])))


@st.composite
def stores(draw):
    normalized = draw(st.booleans())
    values = unit if normalized else counts
    users = st.sampled_from(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    content_names = draw(st.lists(names, max_size=3, unique=True))
    k = 5
    if draw(st.booleans()):  # composed from per-user and per-pair tables
        pair_names = table_pair_manifest()
        character = draw(st.dictionaries(users, vectors(k, values), max_size=3))
        relationship = draw(st.dictionaries(st.tuples(users, users), vectors(k, values),
                                            max_size=3))
        pairs = {}
        character_bounds, relationship_bounds = draw(bounds(k)), draw(bounds(k))
    else:
        pair_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        character = relationship = {}
        pairs = draw(st.dictionaries(st.tuples(users, users),
                                     vectors(len(pair_names), values), max_size=4))
        character_bounds = relationship_bounds = None
    return FeatureStore(
        pair_names=pair_names,
        content_names=content_names,
        character=character,
        relationship=relationship,
        pairs=pairs,
        content=draw(st.dictionaries(names, vectors(len(content_names), values),
                                     max_size=3)),
        character_bounds=character_bounds,
        relationship_bounds=relationship_bounds,
        content_bounds=draw(bounds(len(content_names))),
        lexicon=draw(st.none() | lexicons()),
        normalized=normalized,
    )


@st.composite
def models(draw):
    p, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    weights = [draw(vectors(n, st.floats(0.0, 10.0))) for n in (p, c, p, c)]
    named = draw(st.booleans())
    return ModelParams(
        *weights,
        post_decay_rate=draw(st.floats(1e-4, 10.0)),
        comment_decay_rate=draw(st.floats(1e-4, 10.0)),
        pair_feature_names=draw(st.lists(names, min_size=p, max_size=p)) if named else [],
        content_feature_names=draw(st.lists(names, min_size=c, max_size=c))
        if named else [],
    )


@st.composite
def reports(draw):
    groups = []
    for group_id in draw(st.lists(names, min_size=1, max_size=3, unique=True)):
        trace = draw(st.lists(st.integers(0, 50), max_size=6))
        groups.append(GroupMetrics(group_id, draw(counts), draw(counts), draw(counts),
                                   len(trace), trace))
    return RankReport(draw(names), groups)


@st.composite
def sim_records(draw):
    pair_dim, content_dim = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    record = {
        "n_users": draw(st.integers(1, 4)),
        "pair_dim": pair_dim,
        "content_dim": content_dim,
        "seed": draw(st.integers(0, 2**32)),
        "horizon": draw(st.floats(0.5, 50.0)),
        "n_cascades": draw(st.integers(0, 5)),
        "post_decay_rate": draw(st.floats(0.01, 1.0)),
        "comment_decay_rate": draw(st.floats(1.0, 10.0)),
        "max_events": draw(st.integers(1, 100)),
        "origin_spacing": draw(st.floats(0.0, 10.0)),
        "group_id": draw(names),
    }
    if draw(st.booleans()):
        # comment weights this small keep any population subcritical
        post, comment = st.floats(0.0, 1.0), st.floats(0.0, 0.01)
        record["params"] = {
            "post_pair_weights": draw(st.lists(post, min_size=pair_dim, max_size=pair_dim)),
            "post_content_weights": draw(
                st.lists(post, min_size=content_dim, max_size=content_dim)),
            "comment_pair_weights": draw(
                st.lists(comment, min_size=pair_dim, max_size=pair_dim)),
            "comment_content_weights": draw(
                st.lists(comment, min_size=content_dim, max_size=content_dim)),
        }
    return record


def sim_record(config, with_params):
    """The simulator config record `config` was read from."""
    p = config.params
    record = {
        "n_users": len(config.users),
        "pair_dim": config.store.pair_dim,
        "content_dim": config.store.content_dim,
        "seed": config.seed,
        "horizon": config.horizon,
        "n_cascades": config.n_cascades,
        "post_decay_rate": p.post_decay_rate,
        "comment_decay_rate": p.comment_decay_rate,
        "max_events": config.max_events,
        "origin_spacing": config.origin_spacing,
        "group_id": config.group_id,
    }
    if with_params:
        record["params"] = {key: getattr(p, key).tolist() for key in WEIGHTS}
    return record


def write_sim_record(path, record):
    path.write_text(json.dumps(record))


def read_sim_record(path):
    config = io.read_sim_config(path)
    return sim_record(config, "params" in json.loads(path.read_text()))


# ---------------------------------------------------------------- round trips


@pytest.mark.parametrize("write, read, objects", [
    (io.write_corpus, io.read_corpus, corpora()),
    (io.write_store, io.read_store, stores()),
    (io.write_model, io.read_model, models()),
    (io.write_lexicon, io.read_lexicon, lexicons()),
    (io.write_report, io.read_report, reports()),
    (write_sim_record, read_sim_record, sim_records()),
], ids=["corpus", "store", "model", "lexicon", "report", "sim-config"])
def test_write_read_write_is_byte_identical(write, read, objects):
    @ROUND_TRIP
    @given(objects)
    def check(obj):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            write(first, obj)
            write(second, read(first))
            assert second.read_bytes() == first.read_bytes()

    check()


# ----------------------------------------------------------------- corruption


def number_faults(at):
    """A value that must be a finite, nonnegative number, corrupted; JSON
    `true` is refused too, though Python counts it as 1."""
    return [(at, v) for v in (math.nan, math.inf, "x", -0.5, True)]


def corpus_faults(c):
    out = [(("cascade_id",), DELETE), (("cascade_id",), 7), (("events",), DELETE),
           (("events",), "x"), (("events",), []), (("truncated",), "yes"),
           (("group_id",), 7), (("window_end",), math.nan), (("window_end",), "x"),
           (("origin",), math.nan), (("origin",), math.inf)]
    for i, event in enumerate(c["events"]):
        at = ("events", i)
        out += [(at, "x"), (at + ("t",), math.nan), (at + ("t",), math.inf),
                (at + ("t",), "x"), (at + ("t",), DELETE), (at + ("publisher",), 7),
                (at + ("publisher",), DELETE), (at + ("text",), 7)]
        content = event.get("content_features")
        if content:
            out += number_faults(at + ("content_features", 0))
            out += [(at + ("content_features", 0), 1.5),
                    (at + ("content_features",), [content])]
    return out


def store_faults(s):
    out = [(("pair_feature_names",), DELETE), (("pair_feature_names",), "x"),
           (("content_feature_names",), DELETE), (("content_feature_names",), [7]),
           (("normalized",), "yes"), (("lexicon",), 7), (("character",), "x"),
           (("pairs",), {})]
    for name in ("character", "relationship", "pairs", "content"):
        for i, row in enumerate(s[name]):
            vector = row[-1]
            at = (name, i, len(row) - 1)
            out += [(at, vector + [0.5]), (at, "x"), ((name, i), row[:-1])]
            if vector:
                out += number_faults(at + (0,)) + [(at, vector[:-1])]
                if name == "content" and s["normalized"]:
                    out.append((at + (0,), 1.5))
    for name in ("character_bounds", "relationship_bounds", "content_bounds"):
        if s[name] is not None:
            out += [((name,), s[name][:1]), ((name, 1), s[name][1] + [0.5])]
            if s[name][0]:
                out += number_faults((name, 0, 0))
    if s["lexicon"] is not None:
        out += [(("lexicon", "categories"), DELETE),
                (("lexicon", "categories", 0, 1), [7]),
                (("lexicon", "categories", 0, 1), []),
                (("lexicon", "matching_mode"), "fuzzy")]
    return out


def model_faults(m):
    out = [(("post_decay_rate",), v) for v in (math.nan, math.inf, 0.0, "x")]
    out += [(("comment_decay_rate",), -1.0), (("pair_feature_names",), "x"),
            (("content_feature_names",), m["content_feature_names"] + ["extra"])]
    for key in WEIGHTS:
        out += [((key,), DELETE), ((key,), "x"), ((key,), m[key] + [0.5])]
        if m[key]:
            out += number_faults((key, 0))
    return out


def lexicon_faults(line):
    if "matching_mode" in line:
        return [(("matching_mode",), 7), (("matching_mode",), "fuzzy")]
    return [(("category",), DELETE), (("category",), 7), (("words",), DELETE),
            (("words",), "x"), (("words",), []), (("words", 0), 7),
            (("words", 0), math.nan), (("words", 0), math.inf)]


def report_faults(g):
    out = [(("ranker",), DELETE), (("ranker",), 7), (("group_id",), 7),
           (("ave_rank",), DELETE), (("nave_rank",), "x"), (("mean_activity",), DELETE),
           (("n_comments",), DELETE), (("n_comments",), math.inf),
           (("n_comments",), g["n_comments"] + 1), (("rank_trace",), DELETE),
           (("rank_trace",), "x"), (("rank_trace",), g["rank_trace"] + [0])]
    if g["rank_trace"]:
        out += number_faults(("rank_trace", 0)) + [(("rank_trace", 0), 0.5)]
    return out


def sim_faults(r):
    out = [(("horizon",), v) for v in (math.nan, math.inf, 0.0, "x")]
    out += [(("n_users",), v) for v in (math.nan, 1.5, "3")]
    out += [(("n_cascades",), v) for v in (math.nan, -2, 1.5)]
    out += [(("origin_spacing",), math.nan), (("origin_spacing",), math.inf),
            (("group_id",), 7), (("typo_knob",), 1), (("params",), 7)]
    out += [(("max_events",), v) for v in (0, math.nan, 2.5, True)]
    params = r.get("params")
    if params is not None:
        for key in WEIGHTS:
            out += [(("params", key), DELETE), (("params", key), params[key] + [0.5])]
            if params[key]:
                out += number_faults(("params", key, 0))
    return out


def fault_family(value):
    """NaN, infinity, a missing key, or the type of the value put in place
    (a list is one of the wrong length or shape)."""
    if value is DELETE:
        return "missing"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf"
    return type(value).__name__


def corrupt(record, path, value):
    *head, last = path
    for key in head:
        record = record[key]
    if value is DELETE:
        del record[last]
    else:
        record[last] = value


def cli_exit(argv):
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def valid_inputs(tmp):
    """A corpus and a feature store that every command below accepts."""
    corpus, store = tmp / "corpus.jsonl", tmp / "store.json"
    io.write_corpus(corpus, random_corpus(n_cascades=3))
    io.write_store(store, direct_store())
    return corpus, store


def command(kind, path, tmp):
    """The CLI command that reads `path` as a file of this kind."""
    corpus, store = valid_inputs(tmp)
    out = tmp / "out"
    return {
        "corpus": ["extract-features", path, "--out", out],
        "store": ["fit", corpus, "--features", path, "--out", out],
        "model": ["rank", corpus, "--features", store, "--model", path,
                  "--user", "ana", "--t", 1.0],
        "lexicon": ["extract-features", corpus, "--lexicon", path, "--out", out],
        "sim-config": ["simulate", path, "--out", out],
    }[kind]


@pytest.mark.parametrize("kind, write, objects, faults", [
    ("corpus", io.write_corpus, corpora(), corpus_faults),
    ("store", io.write_store, stores(), store_faults),
    ("model", io.write_model, models(), model_faults),
    ("lexicon", io.write_lexicon, lexicons(), lexicon_faults),
    ("report", io.write_report, reports(), report_faults),
    ("sim-config", write_sim_record, sim_records(), sim_faults),
], ids=["corpus", "store", "model", "lexicon", "report", "sim-config"])
def test_one_corrupted_field_exits_3_with_one_error_line(kind, write, objects, faults):
    json_lines = kind in ("corpus", "lexicon", "report")

    @CORRUPTED
    @given(objects, st.data())
    def check(obj, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / kind
            write(path, obj)
            text = path.read_text()
            records = ([json.loads(line) for line in text.splitlines()] if json_lines
                       else [json.loads(text)])
            i = data.draw(st.integers(0, len(records) - 1), label="record")
            found = faults(records[i])
            family = data.draw(st.sampled_from(sorted({fault_family(v) for _, v in found})))
            at, value = data.draw(st.sampled_from(
                [(at, v) for at, v in found if fault_family(v) == family]), label="fault")
            corrupt(records[i], at, value)
            # json writes NaN and infinity as tokens that Python's json reads back
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            if kind == "report":
                with pytest.raises(DataFormatError):
                    io.read_report(path)
                return
            code, err = cli_exit(command(kind, path, tmp))
            assert code == 3, err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()


# ---------------------------------------------------- faults seen in the field


def simulated_inputs(tmp):
    """A simulated corpus and its generator's direct-pair feature store."""
    config = tmp / "sim.json"
    config.write_text(json.dumps({"n_users": 3, "pair_dim": 2, "content_dim": 2,
                                  "horizon": 8.0, "n_cascades": 6, "seed": 5}))
    corpus, store = tmp / "corpus.jsonl", tmp / "store.json"
    assert cli_exit(["simulate", config, "--out", corpus, "--out-features", store])[0] == 0
    return corpus, store


def text_inputs(tmp):
    """A text corpus and the normalized, composed store extracted from it."""
    corpus, store = tmp / "corpus.jsonl", tmp / "store.json"
    cascades = random_corpus(n_cascades=4, content_dim=0)
    for c in cascades:
        for e in c.events:
            e.text = "I really love this happy garden, they said"
    io.write_corpus(corpus, cascades)
    assert cli_exit(["extract-features", corpus, "--out", store])[0] == 0
    return corpus, store


@pytest.mark.parametrize("inputs, at, value", [
    (simulated_inputs, ("pairs", 0, 2, 0), math.nan),
    (text_inputs, ("content", 0, 1, 0), 3.0),
    (simulated_inputs, ("pairs", 0, 2), [0.5, 0.5, 0.5]),
    (text_inputs, ("content", 0, 1), [0.5] * 14),
    (simulated_inputs, ("pairs", 0, 2, 0), -0.5),
    (text_inputs, ("lexicon", "categories", 0, 1), [1, 2]),
], ids=["pair-nan", "content-above-1", "pair-too-long", "content-too-short",
        "pair-negative", "lexicon-integer-words"])
def test_fit_refuses_a_faulty_store_vector_or_lexicon(tmp_path, inputs, at, value):
    corpus, store = inputs(tmp_path)
    fit = ["fit", corpus, "--features", store, "--out", tmp_path / "model.json",
           "--max-iterations", "3", "--post-decay", "0.05", "--comment-decay", "0.8"]
    assert cli_exit(fit)[0] == 0
    record = json.loads(store.read_text())
    corrupt(record, at, value)
    store.write_text(json.dumps(record))
    code, err = cli_exit(fit)
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("extra", [
    {"params": {"post_pair_weights": [0.1, 0.2], "post_content_weights": [0.1, 0.1],
                "comment_pair_weights": [-1.0, 0.0],
                "comment_content_weights": [0.1, 0.1]}},
    {"horizon": math.nan},
    {"max_events": math.nan},
    {"max_events": 2.5},
    {"max_events": True},
], ids=["negative-weight", "nan-horizon", "nan-max-events", "fractional-max-events",
        "bool-max-events"])
def test_simulate_refuses_a_faulty_config(tmp_path, extra):
    config = tmp_path / "sim.json"
    record = {"n_users": 3, "pair_dim": 2, "content_dim": 2, "horizon": 8.0,
              "n_cascades": 2, "seed": 5}
    config.write_text(json.dumps({**record, **extra}))
    code, err = cli_exit(["simulate", config, "--out", tmp_path / "c.jsonl"])
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("max_events", [math.nan, 2.5, True, 0, "3"])
def test_read_sim_config_refuses_a_cap_that_is_not_a_positive_integer(tmp_path,
                                                                    max_events):
    # a NaN cap once removed the cap, and 2.5 and true acted as caps of 3 and 1
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n_users": 3, "horizon": 8.0, "n_cascades": 2,
                                "max_events": max_events}))
    with pytest.raises(DataFormatError, match="max_events"):
        io.read_sim_config(path)
    path.write_text(json.dumps({"n_users": 3, "horizon": 8.0, "n_cascades": 2,
                                "max_events": 7}))
    assert io.read_sim_config(path).max_events == 7


def test_report_refuses_a_rank_trace_that_is_not_a_list(tmp_path):
    path = tmp_path / "report.jsonl"
    io.write_report(path, RankReport("RCHR", [GroupMetrics("g", 1.0, 0.5, 2.0, 3,
                                                           [0, 1, 2])]))
    record = json.loads(path.read_text())
    record["rank_trace"] = "012"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DataFormatError, match="rank_trace"):
        io.read_report(path)


def test_a_line_that_is_not_utf8_exits_3(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"cascade_id": "a", "events": [{"t": 0, "publisher": "\xff"}]}\n')
    code, err = cli_exit(["extract-features", corpus, "--out", tmp_path / "store.json"])
    assert code == 3 and err.startswith("error: ") and "line 1" in err, err


def test_a_boolean_where_a_number_belongs_exits_3(tmp_path):
    corpus, store = valid_inputs(tmp_path)
    model = tmp_path / "model.json"
    io.write_model(model, ModelParams([0.1] * 3, [0.2] * 2, [0.3] * 3, [0.4] * 2))
    bad_corpus = tmp_path / "bool-corpus.jsonl"
    bad_corpus.write_text(json.dumps({"cascade_id": "a", "events": [
        {"t": 0.0, "publisher": "ana", "content_features": [True, False]}]}) + "\n")
    record = json.loads(store.read_text())
    record["pairs"][0][2][0] = False
    bad_store = tmp_path / "bool-store.json"
    bad_store.write_text(json.dumps(record))
    record = json.loads(model.read_text())
    record["comment_pair_weights"][1] = True
    bad_model = tmp_path / "bool-model.json"
    bad_model.write_text(json.dumps(record))
    for kind, path in (("corpus", bad_corpus), ("store", bad_store), ("model", bad_model)):
        code, err = cli_exit(command(kind, path, tmp_path))
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "numbers only" in err
    assert cli_exit(command("model", model, tmp_path))[0] == 0


def test_a_wall_clock_without_a_zone_reads_as_utc(tmp_path):
    def origin(wall_clock):
        path = tmp_path / "clock.jsonl"
        path.write_text(json.dumps({"cascade_id": "a", "events": [
            {"t": 0.0, "publisher": "ana", "wall_clock": wall_clock}]}) + "\n")
        return io.read_corpus(path)[0].origin

    naive = origin("2024-05-01T12:00:00")
    assert naive == origin("2024-05-01T12:00:00Z") == origin("2024-05-01T12:00:00+00:00")
    assert naive == origin("2024-05-01T14:00:00+02:00")
    assert naive == 1714564800 / 60  # minutes since 1970-01-01T00:00:00Z


def test_a_number_too_large_for_a_float_exits_3(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text('{"cascade_id": "a", "events": [{"t": 0, "publisher": "ana"}, '
                    '{"t": 1' + "0" * 400 + ', "publisher": "bo"}]}\n')
    code, err = cli_exit(command("corpus", path, tmp_path))
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err
