"""The text pipeline counts, bounds and annotates whole corpora at once.

`Lexicon.counts` walks the tokens once for every category, a corpus's
texts are counted and bounded as one matrix, and `annotate_corpus` checks
its new vectors together before building events without the constructor's
checks.  Every float must equal, byte for byte, what the per-event path
kept in `conftest` gives.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hawkesfeed import io
from hawkesfeed.core import Cascade, Event, ModelParams
from hawkesfeed.errors import ConfigError, DataFormatError
from hawkesfeed.features import (
    FeatureStore,
    Lexicon,
    annotate_corpus,
    build_feature_store,
    content_counts,
    content_key,
    extract_features,
    normalize_store,
    tokenize,
)
from hawkesfeed.rank_eval import NNRanker

from conftest import (
    annotate_corpus_loop,
    cascade_representative,
    content_features_loop,
    content_from_text_loop,
    lexicon_count,
    normalize_store_loop,
    query_times,
    random_corpus,
    strip_some_content,
)

VOCABULARY = ("sad", "sadly", "happy", "happen", "hap", "run", "running", "a",
              "extraordinary", "observing", "x1")
ENTRIES = VOCABULARY + ("hap*", "sad*", "run*", "ext*", "ha*")


@st.composite
def lexicons(draw):
    mode = draw(st.sampled_from(["exact", "prefix"]))
    n = draw(st.integers(1, 4))
    return Lexicon({f"{('lng', 'psy')[i % 2]}:c{i}": draw(st.lists(
        st.sampled_from(ENTRIES), min_size=1, max_size=4)) for i in range(n)}, mode)


def texts(max_words):
    words = st.sampled_from(VOCABULARY + ("Happy!", "...", "12", "RUN"))
    return st.lists(words, max_size=max_words).map(" ".join)


@st.composite
def corpora(draw, width, n_cascades, max_words):
    """Cascades "t0", "t1", ... whose events carry text, their own vector
    (of the lexicon's width) or nothing."""
    cascades = []
    for i in range(draw(st.integers(1, n_cascades))):
        events = []
        for j in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["text", "text", "own", "bare"]))
            publisher = draw(st.sampled_from(["ana", "bo", "cy"]))
            if kind == "text":
                events.append(Event(float(j), publisher, np.zeros(0), draw(texts(max_words))))
            elif kind == "own":
                vector = draw(st.lists(st.floats(0.0, 1.0), min_size=width,
                                       max_size=width))
                events.append(Event(float(j), publisher, np.array(vector)))
            else:
                events.append(Event(float(j), publisher))
        cascades.append(Cascade(f"t{i}", events[0], events[1:], 10.0, origin=0.5 * i))
    return cascades


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_maps(got, want):
    return got.keys() == want.keys() and all(same_bytes(got[k], want[k]) for k in want)


def assert_same_annotation(got, want, given_corpus):
    assert len(got) == len(want)
    for g, w, c in zip(got, want, given_corpus):
        if w is c:  # nothing to fill: the very same cascade comes back
            assert g is c
            continue
        assert (g.cascade_id, g.window_end, g.group_id, g.origin, g.truncated) == (
            w.cascade_id, w.window_end, w.group_id, w.origin, w.truncated)
        for ge, we in zip(g.events, w.events, strict=True):
            assert (ge.time, ge.publisher, ge.text) == (we.time, we.publisher, we.text)
            assert same_bytes(ge.content_features, we.content_features)
            assert ge.content_features.flags.c_contiguous


# ------------------------------------------------------------------ counts


@settings(max_examples=80, deadline=None)
@given(lexicon=lexicons(), batch=st.lists(texts(12), max_size=6))
def test_counts_equal_the_per_category_loop(lexicon, batch):
    for text in batch:
        tokens = tokenize(text)
        assert lexicon.counts(tokens) == [
            lexicon_count(lexicon, tokens, cat) for cat in lexicon.categories]
    matrix = content_counts(batch, lexicon)
    assert matrix.shape == (len(batch), 2 + len(lexicon.categories))
    for row, text in zip(matrix, batch):
        assert same_bytes(row, content_features_loop(text, lexicon))


# ---------------------------------------------------- stores and annotation


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lexicon=lexicons())
def test_stores_and_annotation_equal_the_per_event_path(data, lexicon):
    width = 2 + len(lexicon.categories)
    train = data.draw(corpora(width, 4, 8))
    raw = extract_features(train, lexicon)
    assert same_maps(raw.content, {
        content_key(c.cascade_id, i): content_features_loop(e.text, lexicon)
        for c in train for i, e in enumerate(c.events)
        if e.text is not None and not e.content_features.size})
    store, oracle = normalize_store(raw), normalize_store_loop(raw)
    for name in ("character", "relationship", "content"):
        assert same_maps(getattr(store, name), getattr(oracle, name)), name
    for name in ("character_bounds", "relationship_bounds", "content_bounds"):
        got, want = getattr(store, name), getattr(oracle, name)
        assert (got is None) == (want is None), name
        assert want is None or all(map(same_bytes, got, want)), name
    # longer texts than in training exceed the frozen bounds and clamp; the
    # shared ids give map entries to the events that had text in training
    test = data.draw(corpora(width, 6, 30))
    assert_same_annotation(annotate_corpus(test, store),
                           annotate_corpus_loop(test, oracle), test)
    if store.content_bounds is not None:
        texts = ["", "extraordinary " * 40]
        for row, text in zip(store.content_from_texts(texts), texts):
            assert same_bytes(row, content_from_text_loop(oracle, text))


def test_annotation_clamps_and_zeroes_constant_coordinates_as_the_loop():
    lexicon = Lexicon({"lng:a": ["run"], "psy:b": ["sad"]})
    train = [Cascade(f"t{i}", Event(0.0, "ana", np.zeros(0), text), [], 5.0)
             for i, text in enumerate(["run sad", "sad sad", "run run"])]
    store = build_feature_store(train, lexicon)
    lo, hi = store.content_bounds
    assert lo[0] == hi[0]  # every training text has two words
    test = [Cascade("u", Event(0.0, "bo", np.zeros(0), "sad " * 9),
                    [Event(1.0, "ana", np.zeros(0), "happy"),
                     Event(2.0, "cy", np.array([0.5, 0.5, 0.5, 0.5])),
                     Event(3.0, "bo")], 5.0),
            Cascade("t1", Event(0.0, "ana"), [], 5.0)]
    got = annotate_corpus(test, store)
    assert_same_annotation(got, annotate_corpus_loop(test, normalize_store_loop(
        extract_features(train, lexicon))), test)
    assert got[0].post.content_features.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert got[0].comments[2].content_features.size == 0
    assert same_bytes(got[1].post.content_features, store.content["t1:0"])


def test_a_corpus_with_nothing_to_fill_comes_back_as_it_is():
    corpus = random_corpus(n_cascades=4, seed=2)
    store = FeatureStore(pair_names=["p0"], content_names=["c0", "c1"])
    got = annotate_corpus(corpus, store)
    assert all(g is c for g, c in zip(got, corpus, strict=True))


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25, np.inf])
def test_annotation_refuses_a_map_vector_outside_the_unit_interval(bad):
    store = FeatureStore(pair_names=["p0"], content_names=["c0", "c1"],
                         content={"c:0": np.array([0.1, 0.2]),
                                  "c:1": np.array([0.2, bad])})
    corpus = [Cascade("c", Event(0.0, "u"), [Event(1.0, "v")], 30.0)]
    for annotate in (annotate_corpus, annotate_corpus_loop):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]; normalize first"):
            annotate(corpus, store)


def test_annotation_refuses_a_map_vector_of_two_dimensions():
    store = FeatureStore(pair_names=["p0"], content_names=["c0", "c1"],
                         content={"c:1": np.array([[0.1, 0.2]])})
    corpus = [Cascade("c", Event(0.0, "u"), [Event(1.0, "v")], 30.0)]
    for annotate in (annotate_corpus, annotate_corpus_loop):
        with pytest.raises(ValueError, match="one-dimensional"):
            annotate(corpus, store)


@pytest.mark.parametrize("first, second, message", [
    (np.array([0.1, 1.5]), np.array([[0.1, 0.2]]), r"must lie in \[0, 1\]"),
    (np.array([[0.1, 0.2]]), np.array([0.1, 1.5]), "one-dimensional"),
    (np.array([np.nan, 0.2]), np.array(0.5), "must lie in"),
    (np.array(0.5), np.array([np.nan, 0.2]), "one-dimensional"),
])
def test_annotation_refuses_the_first_bad_map_vector_in_corpus_order(first, second,
                                                                     message):
    # the later bad vector sits in a later cascade, after a good one
    store = FeatureStore(pair_names=["p0"], content_names=["c0", "c1"],
                         content={"a:1": first, "b:0": np.array([0.3, 0.4]),
                                  "b:1": second})
    corpus = [Cascade(cid, Event(0.0, "u"), [Event(1.0, "v")], 30.0) for cid in "ab"]
    for annotate in (annotate_corpus, annotate_corpus_loop):
        with pytest.raises(ValueError, match=message):
            annotate(corpus, store)


# ------------------------------------------------------ NN representative


def nn_cascades():
    """A post with content, then comments: all with content, some without,
    none with any."""
    post = Event(0.0, "ana", np.array([0.3, 0.6]))
    rows = [Event(1.0 + i, "bo", np.array([0.1 * i, 0.9 - 0.1 * i])) for i in range(4)]
    bare = [Event(e.time, e.publisher) for e in rows]
    return [Cascade(name, post, comments, 20.0, origin=3.25)
            for name, comments in [("all", rows), ("some", rows[:2] + bare[2:]),
                                   ("none", bare)]]


@pytest.mark.parametrize("dim", [2, 0])
def test_nn_representative_equals_the_oracle_whatever_the_comments_carry(dim):
    store = FeatureStore(pair_names=["p0"], content_names=[f"c{i}" for i in range(dim)])
    nn = NNRanker(store)
    corpus = nn_cascades() + strip_some_content(random_corpus(n_cascades=6, seed=4), 7)
    for c in corpus:
        for x in query_times(c):
            t = c.origin + x
            assert same_bytes(nn.representative(c, t), cascade_representative(c, t, store))


def test_nn_representative_refuses_content_of_another_width():
    store = FeatureStore(pair_names=["p0"], content_names=["c0", "c1", "c2"])
    for c in nn_cascades()[:2]:
        for represent in (NNRanker(store).representative,
                          lambda c, t: cascade_representative(c, t, store)):
            with pytest.raises(ConfigError, match="model expects 3"):
                represent(c, c.origin + 10.0)


# ------------------------------------------------------------------- files


def corpus_file(tmp_path, events):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"cascade_id": "c", "events": events}) + "\n")
    return path


@pytest.mark.parametrize("events, message", [
    ([{"t": 0, "publisher": "a"}, {"t": 1, "publisher": "b", "content_features": [1.5]},
      {"t": float("nan"), "publisher": "c"}], r"must lie in \[0, 1\]"),
    ([{"t": 0, "publisher": "a"}, {"t": float("nan"), "publisher": "b"},
      {"t": 2, "publisher": "c", "content_features": [1.5]}], "got nan"),
    ([{"t": 0, "publisher": "a", "content_features": [float("nan")]}],
     r"must lie in \[0, 1\]"),
    ([{"t": 0, "publisher": "a", "content_features": [0.5]},
      {"t": 1, "publisher": "b", "content_features": [10 ** 400]}], "too large"),
    ([{"t": 0, "publisher": "a"}, {"t": 1, "publisher": 5},
      {"t": 2, "publisher": "c", "content_features": [True]}],
     "field 'publisher' has type int"),
    ([{"t": 0, "publisher": "a"}, {"t": 1, "publisher": "b", "content_features": [True]},
      {"t": "2", "publisher": "c"}], "content_features must hold numbers only"),
    ([{"t": 0, "publisher": "a"}, {"t": 10 ** 400, "publisher": "b"}], "too large"),
], ids=["content-first", "time-first", "nan-content", "overflow", "field-first",
        "numbers-first", "time-overflow"])
def test_read_corpus_refuses_the_first_bad_event_with_its_message(tmp_path, events,
                                                                 message):
    with pytest.raises(DataFormatError, match=message):
        io.read_corpus(corpus_file(tmp_path, events))


def test_read_corpus_gives_each_event_its_own_float_vector(tmp_path):
    events = [{"t": 0, "publisher": "a", "content_features": [0, 0.5]},
              {"t": 1, "publisher": "b"},
              {"t": 2, "publisher": "c", "content_features": [1, 0.25, 0.75]}]
    (c,) = io.read_corpus(corpus_file(tmp_path, events))
    got = [e.content_features for e in c.events]
    assert [v.tolist() for v in got] == [[0.0, 0.5], [], [1.0, 0.25, 0.75]]
    assert all(v.dtype == float and v.ndim == 1 and v.flags.c_contiguous for v in got)
    assert [type(e.time) for e in c.events] == [float] * 3


def test_store_and_model_files_are_written_compactly(tmp_path):
    store = build_feature_store(random_corpus(n_cascades=4, seed=1))
    params = ModelParams(*(np.full(n, 0.25) for n in (20, 2, 20, 2)))
    io.write_store(tmp_path / "store.json", store)
    io.write_model(tmp_path / "model.json", params, {"converged": True})
    for name, key in (("store.json", "character"), ("model.json", "diagnostics")):
        text = (tmp_path / name).read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert ", " not in text and ": " not in text
        assert json.loads(text)[key]
    assert np.array_equal(io.read_model(tmp_path / "model.json").post_pair_weights,
                          params.post_pair_weights)


def test_io_imports_only_core_features_and_errors():
    # the simulator config reader imports `simulate` when it is called
    tree = ast.parse(Path(io.__file__).read_text())
    imported = {node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"core", "errors", "features"}
