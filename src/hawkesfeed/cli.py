"""Command-line entry points.

Exit codes: 0 success, 2 usage, 3 an input file that cannot be read or
holds any value its reader refuses, 4 bad configuration (well-formed inputs
that do not fit together or with the options), 5 estimation failures.
The readers in `hawkesfeed.io` turn every refused value into exit 3 in one
place: a missing required key, a value of the wrong type, or a value its
field cannot take, such as a NaN time, feature or weight.  Every vector in
a feature store file must hold the number of values its manifest implies,
all finite and nonnegative, and at most 1 for content vectors in a
normalized store.  Numeric options are checked as they are parsed: a value
an option cannot take, such as a NaN, a negative penalty or a zero decay
rate, is a usage error (exit 2).

`main` may be called repeatedly in one process.  The first call builds the
parser and every later call reuses it; parsing leaves nothing on the
parser, so no call sees the options of another.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from . import io
from .core import CANDIDATE_POLICIES, JumpTable, candidate_cascades, corpus_participants
from .errors import ConfigError, DataFormatError, EstimationError
from .features import (
    FEATURE_SETS,
    annotate_corpus,
    build_feature_store,
    demo_lexicon,
    feature_set_masks,
)
from .fit import DEFAULT_PENALTY_GRID, FitConfig, cross_validate, fit
from .rank_eval import RANKER_NAMES, evaluate, prioritize
from .simulate import branching_ratio, simulate_corpus


def _flag_type(parse, ok, what):
    """An argparse type: the text parsed by `parse` and refused unless
    `ok`, which argparse reports as a usage error (exit 2)."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


def _penalty_ok(z):
    return 0.0 <= z < math.inf


_PENALTY = _flag_type(float, _penalty_ok, "a finite penalty >= 0")
_PENALTY_GRID = _flag_type(
    lambda text: tuple(float(z) for z in text.split(",")),
    lambda grid: all(map(_penalty_ok, grid)),
    "a comma-separated list of finite penalties >= 0")
_POSITIVE = _flag_type(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_MINUTES = _flag_type(float, math.isfinite, "a finite number of minutes")
_COUNT = _flag_type(int, lambda n: n >= 0, "a nonnegative integer")


def _decay_flags(p):
    p.add_argument("--post-decay", type=_POSITIVE, default=0.001, metavar="RATE",
                   help="post influence decay rate per minute (default 0.001)")
    p.add_argument("--comment-decay", type=_POSITIVE, default=0.01, metavar="RATE",
                   help="comment influence decay rate per minute (default 0.01)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hawkesfeed",
        description="Conversation-cascade intensity models for feed ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-features",
                       help="build a feature store from a training corpus")
    p.add_argument("corpus", help="training corpus (JSON lines)")
    p.add_argument("--lexicon", help="lexicon file; default is the built-in demo")
    p.add_argument("--out", required=True, help="feature store output path")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("fit", help="estimate model weights on a corpus")
    p.add_argument("corpus", help="training corpus (JSON lines)")
    p.add_argument("--features", required=True, help="feature store from extract-features")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--penalty", type=_PENALTY, default=0.0,
                   help="l1 penalty weight (default 0)")
    p.add_argument("--cv", action="store_true",
                   help="pick the penalty by cross-validation instead")
    p.add_argument("--penalty-grid", type=_PENALTY_GRID, metavar="Z1,Z2,...",
                   help="comma-separated penalties searched by --cv")
    p.add_argument("--feature-set", choices=FEATURE_SETS, default="all",
                   help="restrict the weights to one feature family")
    p.add_argument("--max-iterations", type=_COUNT, default=500)
    p.add_argument("--tolerance", type=_POSITIVE, default=1e-9)
    _decay_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="sample a synthetic corpus")
    p.add_argument("config", help="simulator config (JSON)")
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--seed", type=_COUNT, help="override the config seed")
    p.add_argument("--n-cascades", type=_COUNT, help="override the config cascade count")
    p.add_argument("--out-features", help="also write the generator's feature store")
    p.add_argument("--out-model", help="also write the generator's true weights")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rank", help="order one user's feed at a point in time")
    p.add_argument("corpus", help="corpus of candidate cascades (JSON lines)")
    p.add_argument("--model", required=True, help="fitted model file")
    p.add_argument("--features", required=True, help="feature store")
    p.add_argument("--user", required=True, help="user whose feed to rank")
    p.add_argument("--t", required=True, type=_MINUTES, metavar="MINUTES",
                   help="global time of the ranking; an event at exactly t "
                        "is not yet counted")
    p.add_argument("--policy", choices=CANDIDATE_POLICIES, default="all",
                   help="candidate cascade policy (default all)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="score a ranker on held-out cascades")
    p.add_argument("ranker", choices=RANKER_NAMES, help="ranker to evaluate")
    p.add_argument("--train", required=True, help="training corpus (JSON lines)")
    p.add_argument("--test", required=True, help="test corpus (JSON lines)")
    p.add_argument("--out", required=True, help="report output path (JSON lines)")
    p.add_argument("--features", help="feature store (needed by all but RCHR and HWK)")
    p.add_argument("--model", help="fitted model reused by HWK-* rankers")
    p.add_argument("--policy", choices=CANDIDATE_POLICIES, default="all")
    p.add_argument("--penalty", type=_PENALTY, default=0.0,
                   help="l1 penalty when fitting HWK-* rankers")
    _decay_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def cmd_extract_features(args):
    cascades = io.read_corpus(args.corpus)
    lexicon = io.read_lexicon(args.lexicon) if args.lexicon else demo_lexicon()
    store = build_feature_store(cascades, lexicon)
    io.write_store(args.out, store)
    print(
        f"extracted features for {len(store.character)} users, "
        f"{len(store.relationship)} directed pairs, "
        f"{len(store.content)} events -> {args.out}"
    )
    return 0


def cmd_fit(args):
    cascades = io.read_corpus(args.corpus)
    store = io.read_store(args.features)
    users = corpus_participants(cascades)
    pair_mask, content_mask = feature_set_masks(
        args.feature_set, store.pair_names, store.content_names
    )
    config = FitConfig(
        penalty=args.penalty,
        post_decay_rate=args.post_decay,
        comment_decay_rate=args.comment_decay,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        pair_mask=pair_mask,
        content_mask=content_mask,
    )
    diagnostics = {}
    if args.cv:
        grid = args.penalty_grid or DEFAULT_PENALTY_GRID
        cv = cross_validate(cascades, store, users,
                            dataclasses.replace(config, penalty_grid=grid))
        config.penalty = cv.best_penalty
        diagnostics["cv_table"] = cv.table
        print(f"cross-validation picked penalty {cv.best_penalty}")
    result = fit(cascades, store, users, config)
    diagnostics.update(
        iterations=result.iterations,
        converged=result.converged,
        final_objective=result.final_objective,
        log_likelihood=result.log_likelihood,
        penalty=list(result.penalty),
        stop_reason=result.stop_reason,
        projected_gradient_norm=result.projected_gradient_norm,
    )
    io.write_model(args.out, result.params, diagnostics)
    summary = (
        f"after {result.iterations} iterations, log-likelihood "
        f"{result.log_likelihood:.4f} -> {args.out}"
    )
    if result.converged:
        print(f"fit converged {summary}")
    else:
        print(
            f"warning: fit did not converge (stopped by {result.stop_reason}, "
            f"projected-gradient norm {result.projected_gradient_norm:.3g}) {summary}",
            file=sys.stderr,
        )
    return 0


def cmd_simulate(args):
    config = io.read_sim_config(args.config, seed=args.seed)
    cascades = simulate_corpus(config, n_cascades=args.n_cascades)
    io.write_corpus(args.out, cascades)
    if args.out_features:
        io.write_store(args.out_features, config.store)
    if args.out_model:
        io.write_model(args.out_model, config.params)
    n_comments = sum(len(c.comments) for c in cascades)
    n_truncated = sum(c.truncated for c in cascades)
    print(
        f"simulated {len(cascades)} cascades, {n_comments} comments "
        f"(branching ratio {branching_ratio(config):.3f}, "
        f"{n_truncated} truncated) -> {args.out}"
    )
    return 0


def cmd_rank(args):
    cascades = io.read_corpus(args.corpus)
    store = io.read_store(args.features)
    params = io.read_model(args.model)
    cascades = annotate_corpus(cascades, store)
    candidates = candidate_cascades(cascades, args.t, args.policy)
    built = JumpTable(params, store).states_at(args.user, candidates, args.t)
    states = {c.cascade_id: s for c, s in zip(candidates, built)}
    ordered = prioritize(args.user, args.t, candidates, states, params, store)
    for position, c in enumerate(ordered):
        print(f"{position}\t{c.cascade_id}\t{states[c.cascade_id].intensity:.6g}")
    return 0


def cmd_evaluate(args):
    train = io.read_corpus(args.train)
    test = io.read_corpus(args.test)
    store = io.read_store(args.features) if args.features else None
    model = None
    if args.model:
        if not args.ranker.startswith("HWK-"):
            print(
                f"warning: {args.ranker} does not take a model file; ignoring "
                f"{args.model}",
                file=sys.stderr,
            )
        else:
            model = io.read_model(args.model)
    config = FitConfig(
        penalty=args.penalty,
        post_decay_rate=args.post_decay,
        comment_decay_rate=args.comment_decay,
    )
    report = evaluate(
        args.ranker, train, test,
        store=store, fit_config=config, model_params=model, policy=args.policy,
    )
    io.write_report(args.out, report)
    for g in report.groups:
        print(
            f"{args.ranker}\tgroup {g.group_id}\tAveRank {g.ave_rank:.4f}\t"
            f"NAveRank {g.nave_rank:.4f}\t({g.n_comments} comments, "
            f"mean activity {g.mean_activity:.2f})"
        )
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "penalty_grid", None) and not args.cv:
        parser.error("fit: --penalty-grid is searched only with --cv")
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
