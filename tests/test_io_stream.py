"""The io writers encode through the C JSON encoder and write the bytes the
whole-record writers wrote; a corpus is written one cascade at a time, and
an origin that cannot be written leaves no file.  The corpus reader
refuses the first bad event with that event's own message."""

import dataclasses
import json
import math
import tempfile
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed import io
from hawkesfeed.core import ModelParams
from hawkesfeed.errors import DataFormatError
from hawkesfeed.features import build_feature_store, demo_lexicon
from hawkesfeed.simulate import random_sim_config, simulate_corpus

from conftest import (
    direct_store,
    dump_object_json,
    make_params,
    random_corpus,
    text_corpus,
    write_corpus_list,
)

# ------------------------------------------------------------- same bytes

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=6), json_values, max_size=6))
def test_dump_object_writes_the_bytes_of_json_dump(record):
    # NaN, infinities and non-ASCII text included
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got"), Path(tmp, "want")
        io._dump_object(got, record)
        dump_object_json(want, record)
        assert got.read_bytes() == want.read_bytes()


def same_bytes_as_json_dump(tmp_path, monkeypatch, write, *args):
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    write(got, *args)
    with monkeypatch.context() as m:
        m.setattr(io, "_dump_object", dump_object_json)
        write(want, *args)
    assert got.read_bytes() == want.read_bytes()


def text_store():
    train, _ = text_corpus(3)
    store = build_feature_store(train, lexicon=demo_lexicon())
    assert store.lexicon is not None and store.content_bounds is not None
    return store


@pytest.mark.parametrize("store", [direct_store(), text_store()],
                         ids=["no-lexicon-no-bounds", "lexicon-and-bounds"])
def test_store_file_is_the_json_dump_bytes(tmp_path, monkeypatch, store):
    same_bytes_as_json_dump(tmp_path, monkeypatch, io.write_store, store)


CV_TABLE = [
    {"penalty": 0.0, "fold_log_likelihoods": [-12.5, -math.inf],
     "mean_log_likelihood": -math.inf},
    {"penalty": [0.0, 0.1, 1.0, 10.0], "fold_log_likelihoods": [-3.25, -4.0],
     "mean_log_likelihood": -3.625},
]


@pytest.mark.parametrize("diagnostics", [
    None,
    {"iterations": 2, "converged": False, "final_objective": 5553.84,
     "log_likelihood": -math.inf, "penalty": [0.0] * 4, "stop_reason": "tolerance",
     "projected_gradient_norm": math.nan},
    {"cv_table": CV_TABLE, "iterations": 7, "converged": True,
     "log_likelihood": -41.0625, "penalty": [0.1] * 4},
], ids=["bare", "minus-inf-and-nan", "cv-table"])
def test_model_file_is_the_json_dump_bytes(tmp_path, monkeypatch, diagnostics):
    for params in (make_params(seed=4), ModelParams([], [], [], [])):
        same_bytes_as_json_dump(tmp_path, monkeypatch, io.write_model, params,
                                diagnostics)


def truncated_corpus():
    config = random_sim_config(n_users=4, seed=2, n_cascades=6, max_events=3)
    corpus = simulate_corpus(config)
    assert any(c.truncated for c in corpus)
    return corpus


@pytest.mark.parametrize("corpus", [
    [],
    random_corpus(n_cascades=8, seed=5),
    random_corpus(n_cascades=5, seed=9, origin_spacing=7.5, content_dim=0),
    text_corpus(4)[0] + text_corpus(4)[1],
    truncated_corpus(),
], ids=["empty", "content", "origins", "text", "truncated"])
def test_corpus_file_is_the_list_building_bytes(tmp_path, corpus):
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    io.write_corpus(got, corpus)
    write_corpus_list(want, corpus)
    assert got.read_bytes() == want.read_bytes()


def test_write_corpus_memory_does_not_grow_with_the_corpus(tmp_path):
    peaks = []
    for n in (100, 400):  # 5,141 and 21,065 comments
        corpus = simulate_corpus(random_sim_config(n_users=6, seed=1, n_cascades=n,
                                                   origin_spacing=0.5))
        tracemalloc.start()
        try:
            io.write_corpus(tmp_path / f"corpus-{n}.jsonl", corpus)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one cascade's record at a time: 0.13 and 0.14 MiB, where a list of
    # every record peaked at 1.83 and 7.25 MiB
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("origin", [1e300, -1e300])
def test_an_origin_that_cannot_be_written_leaves_no_file(tmp_path, origin):
    corpus = random_corpus(n_cascades=3, seed=5)
    corpus[1] = dataclasses.replace(corpus[1], origin=origin)
    fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
    kept.write_text("kept\n")
    for path in (fresh, kept):
        with pytest.raises((ValueError, OverflowError)):
            io.write_corpus(path, corpus)
    assert not fresh.exists()
    assert kept.read_text() == "kept\n"


# ----------------------------------------------------------- same refusals

BAD_EVENTS = {
    "not-an-object": ([2.0, "bo"], "record is not an object"),
    "missing-t": ({"publisher": "bo"}, "missing 't'"),
    "boolean-t": ({"t": True, "publisher": "bo"}, "field 't' must be a number"),
    "string-t": ({"t": "2.0", "publisher": "bo"}, "field 't' has type str"),
    "number-publisher": ({"t": 2.0, "publisher": 7}, "field 'publisher' has type int"),
    "number-text": ({"t": 2.0, "publisher": "bo", "text": 7},
                    "field 'text' has type int"),
    "content-not-a-list": ({"t": 2.0, "publisher": "bo", "content_features": {"a": 0.5}},
                           "field 'content_features' has type dict"),
    "boolean-in-content": ({"t": 2.0, "publisher": "bo", "content_features": [0.5, True]},
                           "content_features must hold numbers only"),
}
POST = {"t": 0.0, "publisher": "ana", "text": "hello", "content_features": [0.5]}
COMMENT = {"t": 1, "publisher": "cy", "text": None, "content_features": None}


def write_events(path, events):
    path.write_text(json.dumps({"cascade_id": "c0", "events": events}) + "\n")


def refusal(path):
    with pytest.raises(DataFormatError) as err:
        io.read_corpus(path)
    return str(err.value)


BAD_PAIRS = list(permutations(BAD_EVENTS, 2))


@pytest.mark.parametrize("first, second", BAD_PAIRS,
                         ids=[f"{a}-then-{b}" for a, b in BAD_PAIRS])
def test_read_corpus_refuses_the_first_bad_event_with_its_message(tmp_path, first,
                                                                   second):
    path = tmp_path / "corpus.jsonl"
    event, message = BAD_EVENTS[first]
    write_events(path, [event])
    alone = refusal(path)
    assert alone == f"line 1: corpus file {path}: {message}"
    write_events(path, [POST, event, COMMENT, BAD_EVENTS[second][0]])
    assert refusal(path) == alone

