import argparse
import dataclasses
import json
import math
import random

import numpy as np
import pytest

from hawkesfeed import cli, io
from hawkesfeed.cli import main
from hawkesfeed.core import Cascade, Event, ModelParams, intensity
from hawkesfeed.errors import DataFormatError
from hawkesfeed.features import (
    FeatureStore,
    Lexicon,
    annotate_corpus,
    build_feature_store,
    demo_lexicon,
)
from hawkesfeed.fit import CVResult
from hawkesfeed.rank_eval import GroupMetrics, RankReport, evaluate

from conftest import USERS, direct_store, make_params, random_corpus


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


# -------------------------------------------------------------------- corpus


def test_corpus_round_trip_is_lossless(tmp_path):
    corpus = random_corpus(n_cascades=5, origin_spacing=7.5)
    corpus[2] = dataclasses.replace(corpus[2], truncated=True)
    corpus[3].comments[0].text = "nice one"
    path = tmp_path / "corpus.jsonl"
    io.write_corpus(path, corpus)
    loaded = io.read_corpus(path)
    assert len(loaded) == len(corpus)
    for a, b in zip(corpus, loaded):
        assert b.cascade_id == a.cascade_id
        assert b.group_id == a.group_id
        assert b.origin == a.origin
        assert b.window_end == a.window_end
        assert b.truncated == a.truncated
        for ea, eb in zip(a.events, b.events):
            assert eb.time == ea.time
            assert eb.publisher == ea.publisher
            assert eb.text == ea.text
            assert np.array_equal(eb.content_features, ea.content_features)


def test_explicit_origin_wins_and_requires_post_at_zero(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{
        "cascade_id": "c0", "origin": 55.0, "window_end": 30.0,
        "events": [{"t": 0.0, "publisher": "ana",
                    "wall_clock": "1970-01-01T02:00:00Z"},
                   {"t": 3.0, "publisher": "bo"}],
    }])
    (c,) = io.read_corpus(path)
    assert c.origin == 55.0
    write_lines(path, [{
        "cascade_id": "c0", "origin": 55.0,
        "events": [{"t": 2.0, "publisher": "ana"}],
    }])
    with pytest.raises(DataFormatError):
        io.read_corpus(path)


def test_nonzero_first_time_rebases_the_cascade(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{
        "cascade_id": "c0", "window_end": 30.0,
        "events": [{"t": 12.0, "publisher": "ana"},
                   {"t": 14.5, "publisher": "bo"}],
    }])
    (c,) = io.read_corpus(path)
    assert c.origin == 12.0
    assert c.post.time == 0.0
    assert c.comments[0].time == 2.5


def test_wall_clock_supplies_the_origin_when_nothing_else_does(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{
        "cascade_id": "c0", "window_end": 30.0,
        "events": [{"t": 0.0, "publisher": "ana",
                    "wall_clock": "1970-01-01T02:00:00Z"},
                   {"t": 1.0, "publisher": "bo"}],
    }, {
        "cascade_id": "c1", "window_end": 30.0,
        "events": [{"t": 0.0, "publisher": "ana"}],
    }])
    first, second = io.read_corpus(path)
    assert first.origin == 120.0
    assert second.origin == 0.0


def test_tied_times_are_nudged_and_window_end_defaults(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [{
        "cascade_id": "c0",
        "events": [{"t": 0.0, "publisher": "ana"},
                   {"t": 5.0, "publisher": "bo"},
                   {"t": 5.0, "publisher": "cy"}],
    }])
    (c,) = io.read_corpus(path)
    times = [e.time for e in c.events]
    assert times[1] < times[2] == pytest.approx(5.0 + 1e-6)
    assert c.window_end == pytest.approx(times[-1] + 720.0)


@pytest.mark.parametrize("record", [
    {"events": [{"t": 0.0, "publisher": "ana"}]},                 # no id
    {"cascade_id": "c0", "events": []},                           # empty
    {"cascade_id": "c0", "events": "nope"},                       # wrong type
    {"cascade_id": "c0", "events": [{"publisher": "ana"}]},       # no t
    {"cascade_id": "c0", "events": [{"t": 0.0}]},                 # no publisher
    {"cascade_id": "c0", "truncated": "yes",
     "events": [{"t": 0.0, "publisher": "ana"}]},
    {"cascade_id": "c0",
     "events": [{"t": 0.0, "publisher": "ana"},
                {"t": 4.0, "publisher": "bo"},
                {"t": 3.0, "publisher": "cy"}]},                  # decreasing
    {"cascade_id": "c0",
     "events": [{"t": 0.0, "publisher": "ana",
                 "wall_clock": "not-a-timestamp"}]},
])
def test_malformed_cascade_records_are_rejected(tmp_path, record):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record])
    with pytest.raises(DataFormatError):
        io.read_corpus(path)


@pytest.mark.parametrize("record", [
    {"cascade_id": "c1", "origin": float("nan"),
     "events": [{"t": 0.0, "publisher": "ana"}]},
    {"cascade_id": "c1", "origin": float("inf"),
     "events": [{"t": 0.0, "publisher": "ana"}]},
    {"cascade_id": "c1",
     "events": [{"t": 0.0, "publisher": "ana", "content_features": [0.5, 0.5]},
                {"t": 1.0, "publisher": "bo",
                 "content_features": [0.5, float("nan")]}]},
    {"cascade_id": "c1",
     "events": [{"t": 0.0, "publisher": "ana", "wall_clock": 1700000000}]},
])
def test_non_finite_or_mistyped_values_are_refused_with_their_line(tmp_path, record):
    # Python's json reads NaN and Infinity; a wall clock must be a string
    path = tmp_path / "corpus.jsonl"
    good = {"cascade_id": "c0", "events": [{"t": 0.0, "publisher": "ana"}]}
    write_lines(path, [good, record])
    with pytest.raises(DataFormatError) as err:
        io.read_corpus(path)
    assert err.value.line == 2


def test_cli_refuses_a_repeated_cascade_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    events = [{"t": 0.0, "publisher": "ana", "text": "a happy post"},
              {"t": 1.0, "publisher": "bo", "text": "a sad reply"}]
    write_lines(corpus, [{"cascade_id": c, "window_end": 30.0, "events": events}
                         for c in ("a", "b", "a")])
    assert main(["extract-features", str(corpus),
                 "--out", str(tmp_path / "store.json")]) == 3
    err = capsys.readouterr().err
    assert "line 3" in err and "'a'" in err and "line 1" in err
    assert main(["evaluate", "RCHR", "--train", str(corpus), "--test", str(corpus),
                 "--out", str(tmp_path / "report.jsonl")]) == 3
    assert "line 3" in capsys.readouterr().err


def test_parse_errors_carry_the_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps({"cascade_id": "c0", "window_end": 30.0,
                       "events": [{"t": 0.0, "publisher": "ana"}]})
    path.write_text(good + "\n{broken\n")
    with pytest.raises(DataFormatError) as err:
        io.read_corpus(path)
    assert err.value.line == 2
    assert "line 2" in str(err.value)


# ----------------------------------------------------------- lexicon / model


def test_demo_lexicon_round_trip(tmp_path):
    path = tmp_path / "lexicon.jsonl"
    lex = demo_lexicon()
    io.write_lexicon(path, lex)
    loaded = io.read_lexicon(path)
    assert loaded.matching_mode == lex.matching_mode
    assert list(loaded.categories) == list(lex.categories)
    for cat in lex.categories:
        assert loaded.words(cat) == lex.words(cat)


def test_prefix_lexicon_round_trip_preserves_wildcards(tmp_path):
    path = tmp_path / "lexicon.jsonl"
    lex = Lexicon({"psy:positive_emotion": ["happi*", "love"]}, "prefix")
    io.write_lexicon(path, lex)
    loaded = io.read_lexicon(path)
    assert loaded.matching_mode == "prefix"
    assert loaded.words("psy:positive_emotion") == ["love", "happi*"]
    assert loaded.counts(["happiness"]) == [1]


def test_duplicate_lexicon_category_is_rejected(tmp_path):
    path = tmp_path / "lexicon.jsonl"
    write_lines(path, [{"category": "x", "words": ["a"]},
                       {"category": "x", "words": ["b"]}])
    with pytest.raises(DataFormatError):
        io.read_lexicon(path)


def test_model_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "model.json"
    params = make_params(seed=9)
    io.write_model(path, params, diagnostics={"iterations": 12})
    loaded = io.read_model(path)
    assert np.array_equal(loaded.post_pair_weights, params.post_pair_weights)
    assert np.array_equal(loaded.post_content_weights, params.post_content_weights)
    assert np.array_equal(loaded.comment_pair_weights, params.comment_pair_weights)
    assert np.array_equal(
        loaded.comment_content_weights, params.comment_content_weights
    )
    assert loaded.post_decay_rate == params.post_decay_rate
    assert loaded.comment_decay_rate == params.comment_decay_rate
    assert loaded.pair_feature_names == list(params.pair_feature_names)
    record = json.loads(path.read_text())
    assert record["format_version"] == io.FORMAT_VERSION
    assert record["diagnostics"] == {"iterations": 12}


@pytest.mark.parametrize("field, value", [
    ("post_pair_weights", float("nan")),
    ("comment_content_weights", float("inf")),
    ("comment_decay_rate", float("inf")),
    ("post_decay_rate", float("nan")),
])
def test_model_with_non_finite_values_is_refused(tmp_path, field, value):
    path = tmp_path / "model.json"
    io.write_model(path, make_params(seed=9))
    record = json.loads(path.read_text())
    if isinstance(record[field], list):
        record[field][0] = value
    else:
        record[field] = value
    path.write_text(json.dumps(record))
    with pytest.raises(DataFormatError, match=field.split("_")[-1]):
        io.read_model(path)


# ------------------------------------------------------------- feature store


def test_store_round_trip(tmp_path):
    corpus = random_corpus(n_cascades=4, content_dim=0)
    for c in corpus:
        c.post.text = "I love this happy thing"
        for e in c.comments:
            e.text = "we see them hear it quickly"
    store = build_feature_store(corpus, demo_lexicon())
    path = tmp_path / "store.json"
    io.write_store(path, store)
    loaded = io.read_store(path)
    assert loaded.pair_names == list(store.pair_names)
    assert loaded.content_names == list(store.content_names)
    assert loaded.normalized == store.normalized
    assert set(loaded.character) == set(store.character)
    for u in store.character:
        assert np.array_equal(loaded.character[u], store.character[u])
    assert set(loaded.relationship) == set(store.relationship)
    for k in store.relationship:
        assert np.array_equal(loaded.relationship[k], store.relationship[k])
    assert set(loaded.content) == set(store.content)
    for k in store.content:
        assert np.array_equal(loaded.content[k], store.content[k])
    for name in ("character_bounds", "relationship_bounds", "content_bounds"):
        ours, theirs = getattr(store, name), getattr(loaded, name)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert np.array_equal(theirs[0], ours[0])
            assert np.array_equal(theirs[1], ours[1])
    assert loaded.lexicon is not None
    assert loaded.lexicon.words("psy:social_processes") == store.lexicon.words(
        "psy:social_processes"
    )


def test_explicit_pair_store_round_trip(tmp_path):
    store = direct_store()
    path = tmp_path / "store.json"
    io.write_store(path, store)
    loaded = io.read_store(path)
    assert set(loaded.pairs) == set(store.pairs)
    for k in store.pairs:
        assert np.array_equal(loaded.pairs[k], store.pairs[k])
    assert loaded.lexicon is None


# -------------------------------------------------------------------- report


def eval_report():
    train = random_corpus(n_cascades=6, seed=11)
    test = random_corpus(n_cascades=4, seed=12)
    return evaluate("RCHR", train, test)


def test_report_round_trip(tmp_path):
    report = eval_report()
    path = tmp_path / "report.jsonl"
    io.write_report(path, report)
    loaded = io.read_report(path)
    assert loaded.ranker == report.ranker
    assert len(loaded.groups) == len(report.groups)
    for a, b in zip(report.groups, loaded.groups):
        assert b.group_id == a.group_id
        assert b.ave_rank == a.ave_rank
        assert b.nave_rank == a.nave_rank
        assert b.mean_activity == a.mean_activity
        assert b.n_comments == a.n_comments
        assert b.rank_trace == a.rank_trace


def test_report_rejects_mixed_rankers(tmp_path):
    g = GroupMetrics("default", 1.0, 0.5, 2.0, 3, [0, 1, 2])
    path = tmp_path / "report.jsonl"
    io.write_report(path, RankReport("RCHR", [g]))
    second = json.loads(path.read_text())
    second["ranker"] = "NN"
    with open(path, "a") as fh:
        fh.write(json.dumps(second) + "\n")
    with pytest.raises(DataFormatError):
        io.read_report(path)
    path.write_text("")
    with pytest.raises(DataFormatError):
        io.read_report(path)


# ---------------------------------------------------------------- sim config


def sim_config_file(tmp_path, **extra):
    record = {"n_users": 3, "pair_dim": 2, "content_dim": 2, "horizon": 8.0,
              "n_cascades": 10, "seed": 5, "origin_spacing": 2.0}
    record.update(extra)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(record))
    return path


def test_sim_config_reads_and_seed_override(tmp_path):
    path = sim_config_file(tmp_path)
    config = io.read_sim_config(path)
    assert len(config.users) == 3
    assert config.seed == 5
    assert config.n_cascades == 10
    assert io.read_sim_config(path, seed=99).seed == 99


def test_sim_config_rejects_unknown_keys(tmp_path):
    path = sim_config_file(tmp_path, typo_knob=3)
    with pytest.raises(DataFormatError, match="typo_knob"):
        io.read_sim_config(path)


def test_sim_config_accepts_explicit_weights(tmp_path):
    path = sim_config_file(tmp_path, params={
        "post_pair_weights": [0.1, 0.2],
        "post_content_weights": [0.0, 0.1],
        "comment_pair_weights": [0.05, 0.0],
        "comment_content_weights": [0.1, 0.1],
        "comment_decay_rate": 4.0,
    })
    config = io.read_sim_config(path)
    assert np.array_equal(config.params.post_pair_weights, [0.1, 0.2])
    assert config.params.comment_decay_rate == 4.0


# ------------------------------------------------------------------ cli runs


TEXTS = [
    "I really love this happy garden",
    "we saw them planting quickly",
    "they feel sad about the tiny seeds",
    "you hear us talking and laughing",
    "a very slow afternoon indeed",
    "I know they understand everything",
]


def cli_corpus(path, n, seed, id_prefix):
    corpus = random_corpus(n_cascades=n, seed=seed, origin_spacing=5.0,
                           content_dim=0)
    for i, c in enumerate(corpus):
        c = corpus[i] = dataclasses.replace(c, cascade_id=f"{id_prefix}{i:02d}")
        for j, e in enumerate(c.events):
            e.text = TEXTS[(i + j) % len(TEXTS)]
            e.content_features = np.zeros(0)
    io.write_corpus(path, corpus)
    return corpus


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    cli_corpus(train, 6, 21, "tr")
    cli_corpus(test, 3, 22, "te")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    report = tmp_path / "report.jsonl"

    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert store.exists()

    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model), "--max-iterations", "80",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    record = json.loads(model.read_text())
    assert record["diagnostics"]["iterations"] <= 80

    assert main(["rank", str(test), "--features", str(store),
                 "--model", str(model), "--user", "ana", "--t", "12.0"]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines() if "\t" in line]
    assert rows, "rank printed no candidates"
    scores = [float(r[2]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    # each printed score is the model's intensity at --t
    ranked = {c.cascade_id: c for c in annotate_corpus(io.read_corpus(test),
                                                       io.read_store(store))}
    params, features = io.read_model(model), io.read_store(store)
    for _, cid, score in rows:
        c = ranked[cid]
        assert score == f"{intensity('ana', c, 12.0 - c.origin, params, features):.6g}"

    assert main(["evaluate", "RCHR", "--train", str(train), "--test", str(test),
                 "--out", str(report)]) == 0
    loaded = io.read_report(report)
    assert loaded.ranker == "RCHR"
    assert loaded.groups[0].n_comments > 0

    # reusing the fitted weights skips refitting for the model-based ranker
    assert main(["evaluate", "HWK-ALL", "--train", str(train),
                 "--test", str(test), "--features", str(store),
                 "--model", str(model), "--out", str(report)]) == 0
    assert io.read_report(report).ranker == "HWK-ALL"


def test_cli_fit_cv_records_the_table(tmp_path):
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 31, "tr")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model), "--cv", "--penalty-grid", "0,0.5",
                 "--max-iterations", "40",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    record = json.loads(model.read_text())
    table = record["diagnostics"]["cv_table"]
    assert [row["penalty"] for row in table] == [0.0, 0.5]


def test_cli_fit_cv_keeps_the_iteration_flags(tmp_path, monkeypatch):
    # the cross-validation config derives from the main one, so the
    # optimizer flags reach every fold fit
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 31, "tr")
    store = tmp_path / "store.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    seen = []

    def record(cascades, store, users, config):
        seen.append(config)
        return CVResult(best_penalty=0.5, table=[])

    monkeypatch.setattr(cli, "cross_validate", record)
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(tmp_path / "model.json"), "--cv",
                 "--penalty-grid", "0,0.5", "--max-iterations", "7",
                 "--tolerance", "1e-5", "--feature-set", "lng",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    (config,) = seen
    assert config.max_iterations == 7
    assert config.tolerance == 1e-5
    assert config.penalty_grid == (0.0, 0.5)
    assert (config.post_decay_rate, config.comment_decay_rate) == (0.05, 0.8)
    assert not config.pair_mask.any()


def test_cli_fit_warns_when_it_does_not_converge(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 21, "tr")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    capsys.readouterr()
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model), "--max-iterations", "1",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: fit did not converge")
    assert "iteration cap" in captured.err
    assert "converged" not in captured.out
    diagnostics = json.loads(model.read_text())["diagnostics"]
    assert diagnostics["converged"] is False
    assert diagnostics["stop_reason"] == "iteration cap"
    assert diagnostics["projected_gradient_norm"] > 0.0


def text_corpus(path, seed, n_cascades):
    """A text-only corpus drawn as the CI real-corpus step draws it."""
    rng = random.Random(seed)
    words = ("i them very really love nice hurt ugly know cause eat pain "
             "walk went see many few mate talk happy cried observing heard "
             "the a post reply about this think agree").split()
    users = [f"u{i}" for i in range(6)]

    def cascade(i):
        times = sorted(rng.uniform(0.0, 150.0) for _ in range(rng.randint(2, 12)))
        events = [{"t": t, "publisher": rng.choice(users),
                   "text": " ".join(rng.choices(words, k=rng.randint(3, 14)))}
                  for t in [0.0] + times]
        return {"cascade_id": f"c{i:03d}", "origin": 20.0 * i,
                "window_end": 200.0, "events": events}

    write_lines(path, [cascade(i) for i in range(n_cascades)])


def test_cli_fit_at_minus_infinite_log_likelihood_is_not_converged(tmp_path, capsys):
    # under the default decay rates this corpus's fit stops by tolerance at
    # all-zero weights, where every comment has zero intensity
    train = tmp_path / "train.jsonl"
    text_corpus(train, 7, 30)
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    capsys.readouterr()
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: fit did not converge")
    assert "log-likelihood -inf" in captured.err
    assert "converged" not in captured.out
    diagnostics = json.loads(model.read_text())["diagnostics"]
    assert diagnostics["converged"] is False
    assert diagnostics["log_likelihood"] == -math.inf
    assert diagnostics["stop_reason"] == "tolerance"


def test_cli_fit_reports_why_it_converged(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 21, "tr")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model),
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    captured = capsys.readouterr()
    assert "fit converged" in captured.out and not captured.err
    diagnostics = json.loads(model.read_text())["diagnostics"]
    assert diagnostics["stop_reason"] == "tolerance"
    assert diagnostics["projected_gradient_norm"] >= 0.0


def test_cli_fit_feature_set_masks_the_rest(tmp_path):
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 41, "tr")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model), "--feature-set", "lng",
                 "--max-iterations", "40",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    params = io.read_model(model)
    assert not params.post_pair_weights.any()
    assert not params.comment_pair_weights.any()


def test_cli_simulate_is_seed_reproducible(tmp_path, capsys):
    cfg = sim_config_file(tmp_path)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    third = tmp_path / "c.jsonl"
    feats = tmp_path / "gen_store.json"
    model = tmp_path / "gen_model.json"
    assert main(["simulate", str(cfg), "--out", str(first),
                 "--out-features", str(feats), "--out-model", str(model)]) == 0
    assert main(["simulate", str(cfg), "--out", str(second)]) == 0
    assert main(["simulate", str(cfg), "--out", str(third), "--seed", "99"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != third.read_bytes()
    io.read_store(feats)
    io.read_model(model)
    assert "branching ratio" in capsys.readouterr().out


def test_cli_rank_with_no_live_cascades_prints_nothing(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    cli_corpus(corpus, 3, 51, "c")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(corpus), "--out", str(store)]) == 0
    assert main(["fit", str(corpus), "--features", str(store),
                 "--out", str(model), "--max-iterations", "20",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    capsys.readouterr()
    assert main(["rank", str(corpus), "--features", str(store),
                 "--model", str(model), "--user", "ana", "--t", "0.0"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_rank_at_a_comment_minute_leaves_out_its_jump(tmp_path, capsys):
    # at origin 3.0, (3.0 + X) - 3.0 rounds above X; ranked at the
    # comment's own minute, its jump must not count
    origin, x = 3.0, 1.9336138302337527
    assert (origin + x) - origin > x
    c = Cascade("leak", Event(0.0, "ana"), [Event(x, "bo")], 10.0, origin=origin)
    store = FeatureStore(pair_names=["p"], content_names=[],
                         pairs={(u, p): np.ones(1) for u in USERS for p in USERS})
    params = ModelParams(post_pair_weights=[1.0], post_content_weights=[],
                         comment_pair_weights=[1.0], comment_content_weights=[])
    paths = {name: tmp_path / name for name in ("corpus.jsonl", "store.json", "model.json")}
    io.write_corpus(paths["corpus.jsonl"], [c])
    io.write_store(paths["store.json"], store)
    io.write_model(paths["model.json"], params)
    capsys.readouterr()
    assert main(["rank", str(paths["corpus.jsonl"]), "--features", str(paths["store.json"]),
                 "--model", str(paths["model.json"]), "--user", "bo",
                 "--t", repr(origin + x)]) == 0
    want = intensity("bo", c, x, params, store)
    assert capsys.readouterr().out == f"0\tleak\t{want:.6g}\n"
    # with the jump the rate would be about 1 higher
    assert want < 1.0


def test_cli_warns_when_model_free_ranker_gets_a_model(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    cli_corpus(train, 5, 61, "tr")
    cli_corpus(test, 3, 62, "te")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    report = tmp_path / "report.jsonl"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert main(["fit", str(train), "--features", str(store),
                 "--out", str(model), "--max-iterations", "20",
                 "--post-decay", "0.05", "--comment-decay", "0.8"]) == 0
    capsys.readouterr()
    for ranker in ("RCHR", "HWK"):
        assert main(["evaluate", ranker, "--train", str(train), "--test", str(test),
                     "--model", str(model), "--out", str(report)]) == 0
        assert "ignoring" in capsys.readouterr().err
    assert main(["evaluate", "HWK-ALL", "--train", str(train), "--test", str(test),
                 "--features", str(store), "--model", str(model),
                 "--out", str(report)]) == 0
    assert "ignoring" not in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert main(["extract-features", str(missing),
                 "--out", str(tmp_path / "s.json")]) == 3

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["extract-features", str(bad),
                 "--out", str(tmp_path / "s.json")]) == 3

    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    cli_corpus(train, 4, 71, "tr")
    cli_corpus(test, 2, 72, "te")
    report = tmp_path / "report.jsonl"
    assert main(["evaluate", "NN", "--train", str(train), "--test", str(test),
                 "--out", str(report)]) == 4  # NN needs a feature store

    quiet = tmp_path / "quiet.jsonl"
    write_lines(quiet, [{
        "cascade_id": "q0", "window_end": 30.0,
        "events": [{"t": 0.0, "publisher": "ana"}],
    }])
    store = tmp_path / "store.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    assert main(["fit", str(quiet), "--features", str(store),
                 "--out", str(tmp_path / "m.json")]) == 5  # nothing to fit

    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    capsys.readouterr()


FIT = ["fit", "c.jsonl", "--features", "s.json", "--out", "m.json"]
EVALUATE = ["evaluate", "RCHR", "--train", "a.jsonl", "--test", "b.jsonl",
            "--out", "r.jsonl"]
RANK = ["rank", "c.jsonl", "--model", "m.json", "--features", "s.json", "--user", "ana"]
SIMULATE = ["simulate", "config.json", "--out", "c.jsonl"]


@pytest.mark.parametrize("argv", [
    FIT + ["--cv", "--penalty-grid", "a,b"],
    FIT + ["--penalty", "-1"],
    FIT + ["--penalty", "inf"],
    FIT + ["--cv", "--penalty-grid", "0,-1"],
    FIT + ["--cv", "--penalty-grid", "nan"],
    FIT + ["--cv", "--penalty-grid", ""],
    FIT + ["--tolerance", "0"],
    FIT + ["--tolerance", "nan"],
    FIT + ["--max-iterations", "-1"],
    FIT + ["--post-decay", "0"],
    FIT + ["--comment-decay", "-1"],
    EVALUATE + ["--penalty", "-0.5"],
    EVALUATE + ["--post-decay", "nan"],
    RANK + ["--t", "nan"],
    RANK + ["--t", "inf"],
    SIMULATE + ["--seed", "-1"],
    SIMULATE + ["--n-cascades", "2.5"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_a_numeric_flag_value_it_cannot_take_is_a_usage_error(argv, capsys):
    # refused while parsing, before any file is opened
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {argv[-2]}: {argv[-1]!r} is not" in capsys.readouterr().err


def test_a_penalty_grid_without_cv_is_a_usage_error(capsys):
    # only --cv searches a grid; a fit at --penalty would ignore it
    with pytest.raises(SystemExit) as err:
        main(FIT + ["--penalty-grid", "0,5"])
    assert err.value.code == 2
    assert "--penalty-grid is searched only with --cv" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    cli_corpus(train, 4, 81, "tr")
    cli_corpus(test, 2, 82, "te")
    store = tmp_path / "store.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    one_build = list(built)
    assert one_build.count("hawkesfeed") == 1
    for ranker in ("RCHR", "NN"):
        assert main(["evaluate", ranker, "--train", str(train), "--test", str(test),
                     "--features", str(store),
                     "--out", str(tmp_path / f"{ranker}.jsonl")]) == 0
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert built == one_build


def test_main_calls_share_no_state(tmp_path):
    train = tmp_path / "train.jsonl"
    cli_corpus(train, 6, 21, "tr")
    store = tmp_path / "store.json"
    model = tmp_path / "model.json"
    assert main(["extract-features", str(train), "--out", str(store)]) == 0
    fit = ["fit", str(train), "--features", str(store), "--out", str(model),
           "--max-iterations", "5", "--post-decay", "0.05", "--comment-decay", "0.8"]
    with pytest.raises(SystemExit) as err:
        main(fit + ["--penalty-grid", "0,1"])
    assert err.value.code == 2
    assert not model.exists()
    assert main(fit + ["--penalty", "1"]) == 0
    assert json.loads(model.read_text())["diagnostics"]["penalty"] == [1.0] * 4
    assert main(fit) == 0
    diagnostics = json.loads(model.read_text())["diagnostics"]
    assert diagnostics["penalty"] == [0.0] * 4
    assert "cv_table" not in diagnostics
