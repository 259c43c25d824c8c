import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesfeed.baselines import fit_cox
from hawkesfeed.core import Cascade, Event
from hawkesfeed.errors import ConfigError
from hawkesfeed.features import (
    CHARACTER_FEATURES,
    RELATIONSHIP_FEATURES,
    FeatureStore,
    Lexicon,
    annotate_corpus,
    build_feature_store,
    content_features,
    demo_lexicon,
    extract_features,
    feature_set_masks,
    normalize_store,
    table_pair_manifest,
    tokenize,
)
from hawkesfeed.fit import FitConfig, cross_validate, fit
from hawkesfeed.likelihood import corpus_log_likelihood, flat_weights
from hawkesfeed.rank_eval import NNRanker

from conftest import (
    USERS,
    character_features,
    make_cascade,
    random_corpus,
    relationship_features,
    text_corpus,
)


def hand_corpus():
    c1 = make_cascade([(1.0, "bo"), (2.0, "cy"), (3.0, "bo"), (4.0, "di")],
                      cascade_id="C1", poster="ana")
    c2 = make_cascade([(1.0, "ana"), (2.0, "cy"), (3.0, "ana")],
                      cascade_id="C2", poster="bo")
    c3 = make_cascade([(2.0, "di")], cascade_id="C3", poster="ana")
    return [c1, c2, c3]


# ------------------------------------------------------------------ text


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Hello, world! It's 2-fold.") == [
        "hello", "world", "it", "s", "2", "fold",
    ]


def test_tokenize_empty():
    assert tokenize("  ... ") == []


def test_content_features_hand_counts():
    lex = demo_lexicon()
    text = "I really love them; they went observing quickly!"
    v = content_features(text, lex)
    names = ["lng:word_count", "lng:long_words"] + list(lex.categories)
    row = dict(zip(names, v))
    assert row["lng:word_count"] == 8
    assert row["lng:long_words"] == 2  # observing, quickly
    assert row["lng:pronouns"] == 2    # i, them
    assert row["lng:adverbs"] == 2     # really, quickly
    assert row["lng:common_verbs"] == 1  # went
    assert row["psy:positive_emotion"] == 1  # love
    assert row["psy:social_processes"] == 1  # they
    assert row["psy:perceptual_processes"] == 1  # observing


def test_lexicon_prefix_matching():
    lex = Lexicon({"psy:affective": ["happi*", "sad"]}, matching_mode="prefix")
    tokens = tokenize("happiness happily sad sadly")
    # happi* takes happiness and happily; sad has no star so sadly misses
    assert lex.count(tokens, "psy:affective") == 3


def test_lexicon_exact_mode_matches_whole_tokens_only():
    lex = Lexicon({"a": ["run", "happi*"]})
    assert lex.count(tokenize("run running happiness"), "a") == 1


def test_lexicon_rejects_empty_category():
    with pytest.raises(ConfigError):
        Lexicon({"a": []})


def test_lexicon_words_round_trip_wildcards():
    lex = Lexicon({"a": ["happi*", "sad"]}, matching_mode="prefix")
    assert lex.words("a") == ["sad", "happi*"]


def test_demo_manifest_has_thirty_five_coordinates():
    lex = demo_lexicon()
    pair = table_pair_manifest()
    content = ["lng:word_count", "lng:long_words"] + list(lex.categories)
    assert len(pair) == 20
    assert len(content) == 15
    assert len(pair) + len(content) == 35


# ---------------------------------------------------- interaction counts


def test_character_features_hand_values():
    corpus = hand_corpus()
    assert character_features("ana", corpus).tolist() == [2, 5, 2, 1, 1]
    assert character_features("bo", corpus).tolist() == [1, 3, 2, 1, 1]
    assert character_features("cy", corpus).tolist() == [0, 0, 2, 2, 2]
    assert character_features("di", corpus).tolist() == [0, 0, 2, 2, 1]


def test_relationship_features_hand_values():
    corpus = hand_corpus()
    assert relationship_features("bo", "ana", corpus).tolist() == [2, 0, 1, 0, 0]
    assert relationship_features("cy", "bo", corpus).tolist() == [1, 1, 0, 1, 1]
    assert relationship_features("ana", "bo", corpus).tolist() == [2, 0, 1, 0, 0]
    assert relationship_features("ana", "cy", corpus).tolist() == [0, 1, 0, 1, 1]
    assert relationship_features("di", "ana", corpus).tolist() == [2, 0, 1, 0, 0]


def test_extract_matches_reference_counts():
    # [DERIVED] single-pass accumulators vs the per-definition functions
    corpus = random_corpus(n_cascades=12, seed=77)
    store = extract_features(corpus)
    users = sorted({u for c in corpus for u in c.participants()})
    for u in users:
        assert np.array_equal(store.character[u], character_features(u, corpus))
    for a in users:
        for b in users:
            expected = relationship_features(a, b, corpus)
            got = store.relationship.get((a, b), np.zeros(5))
            assert np.array_equal(got, expected), (a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_extract_matches_reference_counts_property(seed):
    corpus = random_corpus(n_cascades=5, seed=seed, mean_comments=4)
    store = extract_features(corpus)
    users = sorted({u for c in corpus for u in c.participants()})
    for u in users:
        assert np.array_equal(store.character[u], character_features(u, corpus))
    for a in users:
        for b in users:
            got = store.relationship.get((a, b), np.zeros(5))
            assert np.array_equal(got, relationship_features(a, b, corpus))


def test_extracted_content_counts_match_direct_extraction():
    lex = demo_lexicon()
    c = make_cascade([(1.0, "bo")], cascade_id="T")
    c.post.text = "I love to walk and talk"
    c.comments[0].text = "they went home"
    c.post.content_features = np.zeros(0)
    c.comments[0].content_features = np.zeros(0)
    store = extract_features([c], lexicon=lex)
    assert np.array_equal(store.content["T:0"],
                          content_features(c.post.text, lex))
    assert np.array_equal(store.content["T:1"],
                          content_features(c.comments[0].text, lex))


# ----------------------------------------------------------- normalization


def test_normalized_values_lie_in_unit_interval():
    store = build_feature_store(random_corpus(n_cascades=10, seed=3))
    for v in store.character.values():
        assert v.min() >= 0.0 and v.max() <= 1.0
    for v in store.relationship.values():
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_relationship_bounds_include_unseen_zero_pair():
    # the implicit zero row pins the minimum, so absent pairs read as the
    # same zero vector the lookup returns
    corpus = hand_corpus()
    store = build_feature_store(corpus)
    lo, hi = store.relationship_bounds
    assert np.all(lo == 0.0)
    for v in store.relationship.values():
        assert v.min() >= 0.0


def test_constant_coordinate_normalizes_to_zero():
    raw = FeatureStore(
        pair_names=table_pair_manifest(), content_names=["lng:word_count"],
        character={"a": np.array([2.0, 1, 0, 0, 0]),
                   "b": np.array([2.0, 3, 0, 0, 0])},
        relationship={},
    )
    out = normalize_store(raw)
    assert out.character["a"][0] == 0.0  # constant across users
    assert out.character["b"][0] == 0.0
    assert out.character["a"][1] == 0.0
    assert out.character["b"][1] == 1.0


def test_content_from_text_clamps_to_training_range():
    lex = demo_lexicon()
    corpus = []
    for i, text in enumerate(["walk and see", "i went very far to walk"]):
        c = make_cascade([], cascade_id=f"n{i}")
        c.post.text = text
        c.post.content_features = np.zeros(0)
        corpus.append(c)
    store = build_feature_store(corpus, lexicon=lex)
    long_text = " ".join(["word"] * 100)
    v = store.content_from_text(long_text)
    assert v.max() <= 1.0 and v.min() >= 0.0
    assert v[0] == 1.0  # word count far above the training max, clamped


def test_content_from_text_requires_lexicon_and_bounds():
    store = FeatureStore(pair_names=table_pair_manifest(), content_names=["x"])
    with pytest.raises(ConfigError):
        store.content_from_text("hello")


# ------------------------------------------------------------ store lookups


def test_pair_vector_composition_order():
    corpus = hand_corpus()
    store = build_feature_store(corpus)
    v = store.pair_vector("cy", "ana")  # user cy, publisher ana
    expected = np.concatenate([
        store.character["ana"],
        store.character["cy"],
        store.relationship.get(("ana", "cy"), np.zeros(5)),
        store.relationship.get(("cy", "ana"), np.zeros(5)),
    ])
    assert np.array_equal(v, expected)
    assert v.size == 20


def test_unknown_user_reads_as_zeros():
    store = build_feature_store(hand_corpus())
    assert np.array_equal(store.pair_vector("nobody", "stranger"), np.zeros(20))


def test_direct_pairs_take_priority():
    store = FeatureStore(
        pair_names=["p0"], content_names=[],
        pairs={("u", "p"): np.array([0.7])},
    )
    assert store.pair_vector("u", "p")[0] == 0.7
    assert store.pair_vector("p", "u")[0] == 0.0


def test_annotate_corpus_keeps_an_own_vector_then_takes_the_map():
    store = FeatureStore(
        pair_names=["p0"], content_names=["c0", "c1"],
        content={"c:0": np.array([0.3, 0.4]), "c:1": np.array([0.1, 0.2])},
    )
    carried = Cascade("c", Event(0.0, "u", np.array([0.9, 0.8])),
                      [Event(1.0, "v")], 30.0)
    bare = Cascade("d", Event(0.0, "u"), [Event(1.0, "v")], 30.0)
    out, untouched = annotate_corpus([carried, bare], store)
    assert np.array_equal(out.post.content_features, [0.9, 0.8])
    assert np.array_equal(out.comments[0].content_features, [0.1, 0.2])
    # nothing to fill: the very same cascade comes back
    assert untouched is bare and bare.comments[0].content_features.size == 0


def test_annotate_corpus_fills_event_vectors():
    lex = demo_lexicon()
    c = make_cascade([(1.0, "bo")], cascade_id="A")
    c.post.text = "walk with me"
    c.post.content_features = np.zeros(0)
    c.comments[0].text = "i see them"
    c.comments[0].content_features = np.zeros(0)
    store = build_feature_store([c], lexicon=lex)
    out = annotate_corpus([c], store)[0]
    assert out.post.content_features.size == 15
    assert np.array_equal(out.post.content_features, store.content["A:0"])
    assert np.array_equal(out.comments[0].content_features, store.content["A:1"])
    # the original corpus is untouched
    assert c.post.content_features.size == 0


# Every reader takes an event's content from the event, and the entry points
# that fit from a corpus annotate it first: on text the store was not
# extracted from, a raw corpus and its annotated copy give the same fit.


def held_out_text(seed):
    train, test = text_corpus(seed)
    store = build_feature_store(train, lexicon=demo_lexicon())
    return test, annotate_corpus(test, store), store


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_fit_likelihood_and_cv_read_text_the_store_never_saw(seed):
    raw, annotated, store = held_out_text(seed)
    users = sorted({u for c in raw for u in c.participants()})
    config = FitConfig(post_decay_rate=0.1, comment_decay_rate=1.0)
    got = fit(raw, store, users, config).params
    want = fit(annotated, store, users, config).params
    assert np.array_equal(flat_weights(got), flat_weights(want))
    assert got.post_content_weights.any() or got.comment_content_weights.any()
    assert (corpus_log_likelihood(raw, want, store, users)
            == corpus_log_likelihood(annotated, want, store, users))
    cv = replace(config, penalty_grid=(0.0, 1.0), cv_folds=2, max_iterations=20)
    assert (cross_validate(raw, store, users, cv).table
            == cross_validate(annotated, store, users, cv).table)


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_fit_cox_reads_text_the_store_never_saw(seed):
    raw, annotated, store = held_out_text(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a weight may reach the cap
        got, want = fit_cox(raw, store), fit_cox(annotated, store)
    assert np.array_equal(got.weights, want.weights)
    assert got.weights.any()


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_nn_profiles_read_text_the_store_never_saw(seed):
    raw, annotated, store = held_out_text(seed)
    got = NNRanker(store, raw).profiles
    want = NNRanker(store, annotated).profiles
    assert got.keys() == want.keys() and got
    for user, profile in want.items():
        assert np.array_equal(got[user], profile)
        assert profile.any()


# -------------------------------------------------------------- feature sets


def test_feature_set_masks_select_prefixes():
    lex = demo_lexicon()
    pair_names = table_pair_manifest()
    content_names = ["lng:word_count", "lng:long_words"] + list(lex.categories)
    pair, content = feature_set_masks("chr", pair_names, content_names)
    assert pair.sum() == 10 and content.sum() == 0
    pair, content = feature_set_masks("rltn", pair_names, content_names)
    assert pair.sum() == 10 and content.sum() == 0
    pair, content = feature_set_masks("lng", pair_names, content_names)
    assert pair.sum() == 0 and content.sum() == 8
    pair, content = feature_set_masks("psy", pair_names, content_names)
    assert pair.sum() == 0 and content.sum() == 7
    pair, content = feature_set_masks("all", pair_names, content_names)
    assert pair.all() and content.all()


def test_feature_set_masks_reject_unknown_set():
    with pytest.raises(ConfigError):
        feature_set_masks("bogus", ["a"], ["b"])


def test_feature_set_masks_reject_empty_selection():
    with pytest.raises(ConfigError):
        feature_set_masks("psy", ["pf0"], ["cf0"])
