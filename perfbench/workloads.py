"""The three benchmark workloads.

Each workload turns a pass seed into inputs (`prepare`, the set-up), runs
one timed pass through the package's public entry points (`run`), checks
the outputs (`check`) and names the values the reference gate pins
(`reference_values`).  Given a tracer, `run` makes the same calls one layer
at a time, each inside a span, and `layer_metrics` reads the spans.

The simulator's weights and feature store come from a fixed config seed,
so every run meets the same generator; the workload seed draws the
corpora.  Drawing the generator from the workload seed too spread the
excitation-pair count of a 150-cascade fit-sim corpus by 17% (standard
deviation over five seeds) instead of 3%, wider than the changes the
benchmark must see.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import math
import os
import time

import numpy as np

import hawkesfeed as hf
from hawkesfeed import baselines, cli, rank_eval
from hawkesfeed import io as hfio
from hawkesfeed.features import DEMO_LEXICON_WORDS

from spans import NullTracer, percentile

CONFIG_SEED = 1

# Timed passes run at "full" size (the benchmark's own tests use "tiny");
# the reference gate always runs at "gate" size.  fit-sim and rankers-text
# are sized by the excitation pairs of their training split, which set the
# cost of the likelihood terms and of every EM iteration: cascade lengths
# are heavy-tailed, and a fixed cascade count let that cost swing by a
# factor of two between seeds.
SIZES = {
    "full": {
        "fit-sim": {"train_pairs": 12000},
        "replay-dense": {"n_cascades": 100, "n_queries": 200},
        "rankers-text": {"train_pairs": 1500},
    },
    "gate": {
        "fit-sim": {"train_pairs": 12000},
        "replay-dense": {"n_cascades": 40, "n_queries": 100},
        "rankers-text": {"train_pairs": 1000},
    },
    "tiny": {
        "fit-sim": {"train_pairs": 3000},
        "replay-dense": {"n_cascades": 16, "n_queries": 20},
        "rankers-text": {"train_pairs": 300},
    },
}

FILLER_WORDS = (
    "the", "a", "thread", "post", "reply", "about", "this", "that", "and",
    "with", "from", "just", "think", "anyone", "here", "there", "today",
    "people", "thing", "where", "question", "answer", "agree", "point",
    "because", "maybe", "still", "again", "wondering", "everybody",
)

EVALUATED_RANKERS = ("HWK-ALL", "HWK", "COX-LNG", "NN", "RCHR")

NULL = NullTracer()


def pass_seed(seed, k):
    """Seed of pass k of a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def corpus_digest(cascades):
    h = hashlib.sha256()
    for c in cascades:
        h.update(
            f"{c.cascade_id}|{c.group_id}|{float(c.origin).hex()}|"
            f"{float(c.window_end).hex()}|{c.truncated}".encode()
        )
        for e in c.events:
            h.update(f"{e.time.hex()}|{e.publisher}|{e.text}|".encode())
            h.update(np.ascontiguousarray(e.content_features, dtype="<f8").tobytes())
    return h.hexdigest()


def json_digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def files_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def excitation_pairs(cascades):
    return sum(len(c.comments) * (len(c.comments) - 1) // 2 for c in cascades)


def n_comments(cascades):
    return sum(len(c.comments) for c in cascades)


def median(values):
    return percentile(values, 50)


def mean_candidates(cascades):
    """Mean size of the 'all' candidate set, within the commenting cascade's
    group, at the comments' times."""
    counts = [
        sum(1 for d in cascades
            if d.group_id == c.group_id and d.origin < t < d.origin + d.window_end)
        for c in cascades for t in (c.origin + e.time for e in c.comments)
    ]
    return sum(counts) / len(counts) if counts else 0.0


def corpus_descriptor(seed, users, cascades, test, workdir):
    path = os.path.join(workdir, "descriptor-corpus.jsonl")
    hfio.write_corpus(path, cascades)
    return {
        "seed": seed,
        "users": len(users),
        "cascades": len(cascades),
        "comments": n_comments(cascades),
        "max_cascade_length": max((len(c.comments) for c in cascades), default=0),
        "excitation_pairs": excitation_pairs(cascades),
        "mean_candidates": mean_candidates(test),
        "corpus_bytes": os.path.getsize(path),
    }


class Checks:
    """Attempted and failed counts per check; failures keep their detail."""

    def __init__(self):
        self.counts = {}
        self.failures = []

    def record(self, name, ok, detail=""):
        attempted, failed = self.counts.get(name, (0, 0))
        self.counts[name] = (attempted + 1, failed + (0 if ok else 1))
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")

    @property
    def attempted(self):
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self):
        return sum(f for _, f in self.counts.values())


def compare_reference(checks, got, ref, tolerances):
    """Record one check per reference key.

    A rule is "exact", ("rel", r) for a relative match, ("no_worse", r) for
    an objective that may exceed the reference by at most r relative, or
    ("prefix_rel", r) for a trace matched over the iterations both share.
    """
    for key, rule in tolerances.items():
        name = f"reference {key}"
        if key not in ref:
            checks.record(name, False, "no recorded reference value")
            continue
        want, have = ref[key], got[key]
        if rule == "exact":
            ok = have == want
        elif rule[0] == "rel":
            ok = abs(have - want) <= rule[1] * abs(want)
        elif rule[0] == "no_worse":
            ok = have <= want + rule[1] * max(1.0, abs(want))
        else:
            ok = min(len(have), len(want)) > 0 and all(
                abs(a - b) <= rule[1] * abs(b) for a, b in zip(have, want)
            )
        checks.record(name, ok, f"got {have!r}, recorded {want!r}")


# ------------------------------------------------------------ traced replay


class TracedRanker:
    """Wraps a ranker's public rank/absorb protocol in spans."""

    def __init__(self, ranker, tracer):
        self.ranker = ranker
        self.tracer = tracer
        self.candidate_counts = []

    def rank(self, user, t, candidates):
        self.candidate_counts.append(len(candidates))
        with self.tracer.span("rank_eval.rank"):
            return self.ranker.rank(user, t, candidates)

    def absorb(self, cascade, event, t):
        with self.tracer.span("rank_eval.absorb"):
            self.ranker.absorb(cascade, event, t)


def traced_evaluate(tracer, name, train, test, store=None, model=None,
                    fit_config=None):
    """`hf.evaluate`, group by group, with one span per layer call.

    The two fitted baselines are fitted by direct calls into `baselines`,
    so their time is not charged to `rank_eval.make_ranker`.  Returns the
    groups' metrics and the replays' latencies and harness self time.
    """
    fit_config = fit_config or hf.FitConfig()
    groups, stats = [], {"replay_s": 0.0, "harness_s": 0.0, "rank_ms": [],
                         "absorb_ms": [], "candidates": [], "em": []}
    for gid in sorted({c.group_id for c in test}):
        group_train = [c for c in train if c.group_id == gid]
        with tracer.span("core.corpus_participants"):
            known = set(hf.corpus_participants(group_train))
        kept = [c for c in test if c.group_id == gid and c.participants() <= known]
        if store is not None:
            with tracer.span("features.annotate_corpus"):
                group_train = hf.annotate_corpus(group_train, store)
            with tracer.span("features.annotate_corpus"):
                kept = hf.annotate_corpus(kept, store)
        if name == "HWK":
            with tracer.span("baselines.fit_hwk_em"):
                em = baselines.fit_hwk_em(
                    group_train,
                    post_decay_rate=fit_config.post_decay_rate,
                    comment_decay_rate=fit_config.comment_decay_rate,
                )
            stats["em"].append(em)
            ranker = rank_eval.PairwiseRanker(em.params)
        elif name.startswith("COX-"):
            prefix = name.split("-", 1)[1].lower() + ":"
            indices = [i for i, n in enumerate(store.content_names)
                       if n.startswith(prefix)]
            with tracer.span("baselines.fit_cox"):
                cox = baselines.fit_cox(group_train, store, indices)
            ranker = rank_eval.CoxRanker(cox, store)
        else:
            with tracer.span("rank_eval.make_ranker"):
                ranker = hf.make_ranker(name, group_train, store, fit_config, model)
        proxy = TracedRanker(ranker, tracer)
        with tracer.span("rank_eval.evaluate_group") as replay:
            groups.append(hf.evaluate_group(proxy, kept, gid))
        rank = tracer.children(replay, "rank_eval.rank")
        absorb = tracer.children(replay, "rank_eval.absorb")
        total = tracer.ends[replay] - tracer.starts[replay]
        stats["replay_s"] += total
        stats["harness_s"] += total - sum(rank) - sum(absorb)
        stats["rank_ms"] += [1e3 * x for x in rank]
        stats["absorb_ms"] += [1e3 * x for x in absorb]
        stats["candidates"] += proxy.candidate_counts
    return groups, stats


def replay_metrics(stats):
    return {
        "rank_eval.rank_ms_p50": percentile(stats["rank_ms"], 50),
        "rank_eval.rank_ms_p99": percentile(stats["rank_ms"], 99),
        "rank_eval.absorb_ms_p50": percentile(stats["absorb_ms"], 50),
        "rank_eval.absorb_ms_p99": percentile(stats["absorb_ms"], 99),
        "rank_eval.harness_s": stats["harness_s"],
        "rank_eval.candidates_mean": (
            sum(stats["candidates"]) / len(stats["candidates"])),
    }


def likelihood_probe(tracer, cascades, params, store, users):
    """Value and gradient of the training log-likelihood at fitted weights;
    made after the timed pass."""
    with tracer.span("likelihood.corpus_log_likelihood") as value:
        hf.corpus_log_likelihood(cascades, params, store, users)
    with tracer.span("likelihood.gradient") as grad:
        hf.gradient(cascades, params, store, users)
    return {
        "likelihood.loglik_s": tracer.ends[value] - tracer.starts[value],
        "likelihood.gradient_s": tracer.ends[grad] - tracer.starts[grad],
        "likelihood.excitation_pairs": excitation_pairs(cascades),
    }


def fit_metrics(fit_s, result):
    p = result.params
    weights = np.concatenate([
        p.post_pair_weights, p.post_content_weights,
        p.comment_pair_weights, p.comment_content_weights,
    ])
    return {
        "fit.iterations": result.iterations,
        "fit.converged": int(result.converged),
        "fit.s_per_iter": fit_s / max(result.iterations, 1),
        "fit.nonzero_weights": int(np.count_nonzero(weights)),
    }


def simulate_metrics(tracer, cascades):
    corpus_s = tracer.total("simulate.simulate_corpus")
    return {
        "simulate.corpus_s": corpus_s,
        "simulate.comments_per_s": n_comments(cascades) / corpus_s,
        "simulate.truncated": sum(c.truncated for c in cascades),
    }


def sim_config(n_users, n_cascades, seed, **kwargs):
    """The workload's generator, drawing its corpus from `seed`."""
    config = hf.random_sim_config(
        n_users=n_users, seed=CONFIG_SEED, n_cascades=n_cascades, **kwargs
    )
    return dataclasses.replace(config, seed=seed)


def budgeted_corpus(config, train_pairs, min_train=1):
    """The seeded corpus whose first cascades, the training split, hold the
    number of excitation pairs closest to `train_pairs` (and at least
    `min_train` cascades), followed by 3 test cascades for every 7 training
    ones.  Returns (corpus, training count).

    `simulate_corpus` draws cascade i from the i-th child seed, so a
    shorter corpus is a prefix of a longer one.
    """
    n = 8
    while True:
        corpus = hf.simulate_corpus(config, n_cascades=n)
        below = 0
        for n_train, c in enumerate(corpus, start=1):
            above = below + len(c.comments) * (len(c.comments) - 1) // 2
            if above >= train_pairs and n_train >= min_train:
                if n_train > min_train and train_pairs - below < above - train_pairs:
                    n_train -= 1
                total = n_train + max(1, round(n_train * 3 / 7))
                if total <= n:
                    return corpus[:total], n_train
                break
            below = above
        n *= 2


# ------------------------------------------------------------------ fit-sim


class FitSim:
    """Simulate, fit the 12-coordinate model by l1 maximum likelihood on the
    first 70% of cascades at the generator's decay rates, score the rest."""

    name = "fit-sim"

    def __init__(self, size):
        self.train_pairs = size["train_pairs"]

    def prepare(self, seed, workdir, tracer=NULL):
        config = sim_config(12, 0, seed, horizon=10.0, origin_spacing=2.0)
        # the timed pass simulates the corpus again; set-up only sizes it
        corpus, n_train = budgeted_corpus(config, self.train_pairs)
        config.n_cascades = len(corpus)
        p = config.params
        fit_config = hf.FitConfig(
            post_decay_rate=p.post_decay_rate, comment_decay_rate=p.comment_decay_rate
        )
        return {"seed": seed, "config": config, "fit_config": fit_config,
                "n_train": n_train, "sized_digest": corpus_digest(corpus)}

    def run(self, inp, tracer=None):
        tracer = tracer or NULL
        config = inp["config"]
        t0 = time.perf_counter()
        with tracer.span("simulate.simulate_corpus"):
            corpus = hf.simulate_corpus(config)
        t1 = time.perf_counter()
        train, test = corpus[:inp["n_train"]], corpus[inp["n_train"]:]
        with tracer.span("fit.fit"):
            result = hf.fit(train, config.store, config.users, inp["fit_config"])
        t2 = time.perf_counter()
        with tracer.span("likelihood.corpus_log_likelihood"):
            heldout = hf.corpus_log_likelihood(
                test, result.params, config.store, config.users
            )
        t3 = time.perf_counter()
        return {
            "corpus": corpus, "train": train, "test": test, "result": result,
            "heldout": heldout,
            "stages": {"simulate_s": t1 - t0, "fit_s": t2 - t1, "loglik_s": t3 - t2},
        }

    def corpus_digest(self, inp):
        return inp["sized_digest"]

    def check(self, inp, out, checks, tracer=None):
        config, result = inp["config"], out["result"]
        checks.record("timed simulation reproduces the set-up corpus",
                      corpus_digest(out["corpus"]) == inp["sized_digest"])
        trace = result.objective_trace
        checks.record("fit objective trace is non-increasing",
                      all(b <= a for a, b in zip(trace, trace[1:])))
        truth = hf.objective(out["train"], config.params, config.store, config.users)
        checks.record(
            "fitted objective is no worse than the generator weights'",
            result.final_objective <= truth + 1e-9 * max(1.0, abs(truth)),
            f"fitted {result.final_objective!r}, generator {truth!r}",
        )
        checks.record("held-out log-likelihood is finite",
                      math.isfinite(out["heldout"]), repr(out["heldout"]))

    def fingerprint(self, out):
        return (corpus_digest(out["corpus"]), out["result"].final_objective,
                out["heldout"])

    def reference_values(self, inp, out):
        config = inp["config"]
        return {
            "corpus_digest": corpus_digest(out["corpus"]),
            "heldout_loglik_at_generator": hf.corpus_log_likelihood(
                out["test"], config.params, config.store, config.users
            ),
            "fitted_objective": out["result"].final_objective,
        }

    tolerances = {
        "corpus_digest": "exact",
        "heldout_loglik_at_generator": ("rel", 1e-12),
        # FitConfig's default tolerance: the fit's own stopping rule
        "fitted_objective": ("no_worse", 1e-9),
    }

    def summary(self, out):
        return out["stages"]

    def stage_metrics(self, summaries):
        return {k: median([s[k] for s in summaries])
                for k in ("simulate_s", "fit_s", "loglik_s")}

    def describe(self, inp, out, workdir):
        return corpus_descriptor(inp["seed"], inp["config"].users, out["corpus"],
                                 out["test"], workdir)

    def layer_metrics(self, inp, out, tracer):
        config, result = inp["config"], out["result"]
        m = simulate_metrics(tracer, out["corpus"])
        m.update(fit_metrics(tracer.total("fit.fit"), result))
        m.update(likelihood_probe(tracer, out["train"], result.params,
                                  config.store, config.users))
        return m


# ------------------------------------------------------------- replay-dense


class ReplayDense:
    """Replay the second half of a busy corpus through HWK-ALL and RCHR
    under the generator weights, then serve seeded scratch feed queries."""

    name = "replay-dense"

    def __init__(self, size):
        self.n_cascades = size["n_cascades"]
        self.n_queries = size["n_queries"]

    def prepare(self, seed, workdir, tracer=NULL):
        config = sim_config(6, self.n_cascades, seed, origin_spacing=0.5)
        with tracer.span("simulate.simulate_corpus"):
            corpus = hf.simulate_corpus(config)
        half = len(corpus) // 2
        test = corpus[half:]
        lo = min(c.origin for c in test)
        hi = max(c.origin + c.comments[-1].time for c in test if c.comments)
        rng = np.random.default_rng(seed)
        users = rng.integers(len(config.users), size=self.n_queries)
        times = rng.uniform(lo, hi, size=self.n_queries)
        return {
            "seed": seed, "config": config, "corpus": corpus,
            "train": corpus[:half], "test": test,
            "queries": [(config.users[u], float(t)) for u, t in zip(users, times)],
        }

    def run(self, inp, tracer=None):
        config, corpus = inp["config"], inp["corpus"]
        truth, store = config.params, config.store
        out = {}
        t0 = time.perf_counter()
        if tracer is None:
            hwk = hf.evaluate("HWK-ALL", inp["train"], inp["test"], store=store,
                              model_params=truth).groups[0]
        else:
            (hwk,), out["hwk_replay"] = traced_evaluate(
                tracer, "HWK-ALL", inp["train"], inp["test"], store, truth)
        t1 = time.perf_counter()
        if tracer is None:
            rchr = hf.evaluate("RCHR", inp["train"], inp["test"]).groups[0]
        else:
            (rchr,), out["rchr_replay"] = traced_evaluate(
                tracer, "RCHR", inp["train"], inp["test"])
        t2 = time.perf_counter()
        queries = []
        for user, t in inp["queries"]:
            a = time.perf_counter()
            candidates = hf.candidate_cascades(corpus, t)
            b = time.perf_counter()
            order = hf.prioritize(user, t, candidates, {}, truth, store)
            c = time.perf_counter()
            queries.append((candidates, order, b - a, c - b))
            if tracer is not None:
                tracer.add("rank_eval.candidate_cascades", a, b)
                tracer.add("rank_eval.prioritize", b, c)
        t3 = time.perf_counter()
        out.update(
            hwk=hwk, rchr=rchr, queries=queries,
            stages={"replay_s": t1 - t0, "rchr_s": t2 - t1, "queries_s": t3 - t2},
        )
        return out

    def corpus_digest(self, inp):
        return corpus_digest(inp["corpus"])

    def check(self, inp, out, checks, tracer=None):
        tracer = tracer or NULL
        config = inp["config"]
        expected = n_comments(inp["test"])
        for key in ("hwk", "rchr"):
            checks.record(f"{key} replay ranks every test comment",
                          len(out[key].rank_trace) == expected,
                          f"{len(out[key].rank_trace)} of {expected}")
        for (user, t), (candidates, order, _, _) in zip(inp["queries"], out["queries"]):
            lams = []
            for c in order:
                with tracer.span("core.intensity"):
                    lams.append(hf.intensity(user, c, t - c.origin,
                                             config.params, config.store))
            checks.record(
                "query serves its candidates by non-increasing intensity",
                sorted(c.cascade_id for c in order)
                == sorted(c.cascade_id for c in candidates)
                and all(b <= a for a, b in zip(lams, lams[1:])),
                f"user {user} at t={t}",
            )

    def fingerprint(self, out):
        return (out["hwk"].rank_trace, out["rchr"].rank_trace,
                [[c.cascade_id for c in order] for _, order, _, _ in out["queries"]])

    def reference_values(self, inp, out):
        hwk, rchr, orders = self.fingerprint(out)
        return {
            "corpus_digest": corpus_digest(inp["corpus"]),
            "hwk_all_trace_digest": json_digest(hwk),
            "rchr_trace_digest": json_digest(rchr),
            "query_order_digest": json_digest(orders),
        }

    tolerances = {
        "corpus_digest": "exact",
        "hwk_all_trace_digest": "exact",
        "rchr_trace_digest": "exact",
        "query_order_digest": "exact",
    }

    def summary(self, out):
        return {
            "replay_cps": out["hwk"].n_comments / out["stages"]["replay_s"],
            "rank_ms": [1e3 * (a + b) for _, _, a, b in out["queries"]],
        }

    def stage_metrics(self, summaries):
        rank_ms = [x for s in summaries for x in s["rank_ms"]]
        return {
            "replay_cps": median([s["replay_cps"] for s in summaries]),
            "rank_ms_p50": percentile(rank_ms, 50),
            "rank_ms_p99": percentile(rank_ms, 99),
        }

    def describe(self, inp, out, workdir):
        return corpus_descriptor(inp["seed"], inp["config"].users, inp["corpus"],
                                 inp["test"], workdir)

    def layer_metrics(self, inp, out, tracer):
        intensity_us = [1e6 * x for x in tracer.durations("core.intensity")]
        candidates_ms = [1e3 * x for x in tracer.durations("rank_eval.candidate_cascades")]
        prioritize_ms = [1e3 * x for x in tracer.durations("rank_eval.prioritize")]
        m = simulate_metrics(tracer, inp["corpus"])
        m.update(replay_metrics(out["hwk_replay"]))
        m.update({
            "core.intensity_us_p50": percentile(intensity_us, 50),
            "core.intensity_us_p99": percentile(intensity_us, 99),
            "rank_eval.candidates_ms_p50": percentile(candidates_ms, 50),
            "rank_eval.prioritize_ms_p50": percentile(prioritize_ms, 50),
            "rank_eval.prioritize_ms_p99": percentile(prioritize_ms, 99),
            "baselines.rchr_replay_s": out["rchr_replay"]["replay_s"],
        })
        return m


# ------------------------------------------------------------- rankers-text


def _with_text(cascade, rng, vocabulary):
    """The cascade with seeded text on every event and no content vectors."""
    events = [
        hf.Event(e.time, e.publisher, np.zeros(0), " ".join(
            vocabulary[i]
            for i in rng.integers(len(vocabulary), size=int(rng.integers(3, 16)))
        ))
        for e in cascade.events
    ]
    return hf.Cascade(cascade.cascade_id, events[0], events[1:], cascade.window_end,
                      cascade.group_id, cascade.origin, cascade.truncated)


def _quiet_cli(argv):
    """cli.main with its terminal output captured, so printing is not timed."""
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


class RankersText:
    """The paper's ranker comparison on a text corpus in the JSON-lines
    format, driven through the command line.

    Three-minute windows keep cascades short (21 comments on average), so
    the training budget is met by several cascades and moves little
    between seeds; at this budget the EM ran to its iteration cap on every
    corpus probed, as it does on paper-sized corpora.
    """

    name = "rankers-text"
    vocabulary = tuple(sorted(
        {w for words in DEMO_LEXICON_WORDS.values() for w in words} | set(FILLER_WORDS)
    ))
    # fit_cox refuses a corpus whose risk sets all hold one cascade
    min_train = 2

    def __init__(self, size):
        self.train_pairs = size["train_pairs"]

    def prepare(self, seed, workdir, tracer=NULL):
        config = sim_config(6, 0, seed, horizon=3.0, origin_spacing=0.5)
        sized, split = budgeted_corpus(config, self.train_pairs, self.min_train)
        config.n_cascades = len(sized)
        with tracer.span("simulate.simulate_corpus"):
            corpus = hf.simulate_corpus(config)
        rng = np.random.default_rng(seed)
        corpus = [_with_text(c, rng, self.vocabulary) for c in corpus]
        train, test = corpus[:split], corpus[split:]
        paths = {k: os.path.join(workdir, k) for k in (
            "train.jsonl", "test.jsonl", "store.json", "model.json")}
        for name in EVALUATED_RANKERS:
            paths[name] = os.path.join(workdir, f"report-{name}.jsonl")
        with tracer.span("io.write_corpus"):
            hfio.write_corpus(paths["train.jsonl"], train)
        with tracer.span("io.write_corpus"):
            hfio.write_corpus(paths["test.jsonl"], test)
        p = config.params
        return {
            "seed": seed, "config": config, "corpus": corpus, "test": test,
            "paths": paths,
            "decay_flags": ["--post-decay", repr(p.post_decay_rate),
                            "--comment-decay", repr(p.comment_decay_rate)],
        }

    def _steps(self, inp):
        """(step, steps it needs, argv) in the order a user runs them."""
        paths, decay = inp["paths"], inp["decay_flags"]
        train, test, store = paths["train.jsonl"], paths["test.jsonl"], paths["store.json"]
        steps = [
            ("extract-features", (), ["extract-features", train, "--out", store]),
            ("fit", ("extract-features",),
             ["fit", train, "--features", store, "--out", paths["model.json"], *decay]),
        ]
        for name in EVALUATED_RANKERS:
            argv = ["evaluate", name, "--train", train, "--test", test,
                    "--out", paths[name], *decay]
            needs = ()
            if name not in ("HWK", "RCHR"):
                argv += ["--features", store]
                needs = ("extract-features",)
            if name == "HWK-ALL":
                argv += ["--model", paths["model.json"]]
                needs = ("extract-features", "fit")
            steps.append((f"evaluate.{name}", needs, argv))
        return steps

    def run(self, inp, tracer=None):
        if tracer is not None:
            return self._run_traced(inp, tracer)
        status, stages = {}, {}
        for step, needs, argv in self._steps(inp):
            blocked = [n for n in needs if status[n] != "ok"]
            if blocked:
                status[step] = f"skipped: needs {', '.join(blocked)}"
                continue
            t0 = time.perf_counter()
            code, output = _quiet_cli(argv)
            stages[step] = time.perf_counter() - t0
            status[step] = "ok" if code == 0 else f"failed: exit {code}: {output[-300:]}"
        return {"status": status, "stages": stages}

    def _run_traced(self, inp, tracer):
        """The command sequence of `run`, each command replaced by the layer
        calls it makes, in its order."""
        paths = inp["paths"]
        p = inp["config"].params
        fit_config = hf.FitConfig(post_decay_rate=p.post_decay_rate,
                                  comment_decay_rate=p.comment_decay_rate)
        out = {"replays": {}}

        def read_corpus(path):
            with tracer.span("io.read_corpus"):
                return hfio.read_corpus(path)

        def read_store():
            with tracer.span("io.read_store"):
                return hfio.read_store(paths["store.json"])

        with tracer.span("cli.extract-features"):
            cascades = read_corpus(paths["train.jsonl"])
            with tracer.span("features.build_feature_store"):
                store = hf.build_feature_store(cascades, hf.demo_lexicon())
            with tracer.span("io.write_store"):
                hfio.write_store(paths["store.json"], store)
        out["store"] = store

        with tracer.span("cli.fit"):
            cascades = read_corpus(paths["train.jsonl"])
            store = read_store()
            with tracer.span("features.annotate_corpus"):
                cascades = hf.annotate_corpus(cascades, store)
            with tracer.span("core.corpus_participants"):
                users = hf.corpus_participants(cascades)
            with tracer.span("features.feature_set_masks"):
                pair_mask, content_mask = hf.feature_set_masks(
                    "all", store.pair_names, store.content_names)
            config = dataclasses.replace(fit_config, pair_mask=pair_mask,
                                         content_mask=content_mask)
            with tracer.span("fit.fit"):
                result = hf.fit(cascades, store, users, config)
            with tracer.span("io.write_model"):
                hfio.write_model(paths["model.json"], result.params, {
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "final_objective": result.final_objective,
                    "log_likelihood": result.log_likelihood,
                    "penalty": list(result.penalty),
                })
        out.update(result=result, fit_train=cascades, users=users)

        for name in EVALUATED_RANKERS:
            with tracer.span(f"cli.evaluate.{name}"):
                train = read_corpus(paths["train.jsonl"])
                test = read_corpus(paths["test.jsonl"])
                store = None if name in ("HWK", "RCHR") else read_store()
                model = None
                if name == "HWK-ALL":
                    with tracer.span("io.read_model"):
                        model = hfio.read_model(paths["model.json"])
                groups, out["replays"][name] = traced_evaluate(
                    tracer, name, train, test, store, model, fit_config)
                with tracer.span("io.write_report"):
                    hfio.write_report(paths[name], rank_eval.RankReport(name, groups))
        out["status"] = {step: "ok" for step, _, _ in self._steps(inp)}
        return out

    def corpus_digest(self, inp):
        return files_digest(inp["paths"]["train.jsonl"], inp["paths"]["test.jsonl"])

    def check(self, inp, out, checks, tracer=None):
        for step, status in out["status"].items():
            checks.record(f"{step} runs", status == "ok", status)
        expected = n_comments(inp["test"])
        out["report_traces"] = {}
        for name in EVALUATED_RANKERS:
            if out["status"][f"evaluate.{name}"] != "ok":
                continue
            report = hfio.read_report(inp["paths"][name])
            trace = [t for g in report.groups for t in g.rank_trace]
            checks.record(
                "report ranks every test comment once",
                len(trace) == expected and min(trace, default=0) >= 0,
                f"{name}: {len(trace)} of {expected}",
            )
            out["report_traces"][name] = trace

    def fingerprint(self, out):
        return out["report_traces"]

    def reference_values(self, inp, out):
        paths = inp["paths"]
        with open(paths["model.json"]) as fh:
            diagnostics = json.load(fh)["diagnostics"]
        p = inp["config"].params
        em = baselines.fit_hwk_em(
            hfio.read_corpus(paths["train.jsonl"]),
            post_decay_rate=p.post_decay_rate, comment_decay_rate=p.comment_decay_rate,
        )
        return {
            "corpus_digest": self.corpus_digest(inp),
            "fitted_objective": diagnostics["final_objective"],
            "em_log_likelihood_trace": em.log_likelihood_trace,
        }

    tolerances = {
        "corpus_digest": "exact",
        "fitted_objective": ("no_worse", 1e-9),
        "em_log_likelihood_trace": ("prefix_rel", 1e-9),
    }

    def summary(self, out):
        return out["stages"]

    def stage_metrics(self, summaries):
        return {
            "fit_s": median([s.get("fit", 0.0) for s in summaries]),
            "compare_s": median([
                sum(s.get(f"evaluate.{n}", 0.0) for n in EVALUATED_RANKERS)
                for s in summaries
            ]),
        }

    def describe(self, inp, out, workdir):
        return corpus_descriptor(inp["seed"], inp["config"].users, inp["corpus"],
                                 inp["test"], workdir)

    def layer_metrics(self, inp, out, tracer):
        paths, result, store = inp["paths"], out["result"], out["store"]
        replays = out["replays"]
        ems = replays["HWK"]["em"]
        m = simulate_metrics(tracer, inp["corpus"])
        m.update(fit_metrics(tracer.total("fit.fit"), result))
        m.update(likelihood_probe(tracer, out["fit_train"], result.params, store,
                                  out["users"]))
        m.update(replay_metrics(replays["HWK-ALL"]))
        m.update({
            "baselines.em_fit_s": tracer.total("baselines.fit_hwk_em"),
            "baselines.em_iterations": np.mean([em.iterations for em in ems]),
            "baselines.em_converged": np.mean([em.converged for em in ems]),
            "baselines.cox_fit_s": tracer.total("baselines.fit_cox"),
            "baselines.hwk_replay_s": replays["HWK"]["replay_s"],
            "baselines.cox_replay_s": replays["COX-LNG"]["replay_s"],
            "baselines.nn_replay_s": replays["NN"]["replay_s"],
            "baselines.rchr_replay_s": replays["RCHR"]["replay_s"],
            "features.extract_s": tracer.total("features.build_feature_store"),
            "features.annotate_s": tracer.total("features.annotate_corpus"),
            "features.pairs": len(store.relationship),
            "features.content_events": len(store.content),
            "io.write_corpus_s": tracer.total("io.write_corpus"),
            "io.read_corpus_s": tracer.total("io.read_corpus"),
            "io.corpus_bytes": sum(
                os.path.getsize(paths[k]) for k in ("train.jsonl", "test.jsonl")),
            "io.read_store_s": tracer.total("io.read_store"),
            "io.write_store_s": tracer.total("io.write_store"),
            "cli.extract_features_s": tracer.total("cli.extract-features"),
            "cli.fit_s": tracer.total("cli.fit"),
        })
        for name in EVALUATED_RANKERS:
            m[f"cli.evaluate.{name}_s"] = tracer.total(f"cli.evaluate.{name}")
        return m


WORKLOADS = {w.name: w for w in (FitSim, ReplayDense, RankersText)}
