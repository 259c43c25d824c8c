"""Synthetic end-to-end experiment: simulate a corpus from known weights,
refit them, and compare rankers on held-out cascades.

Usage: python scripts/run_synthetic.py [--seed 3] [--cascades 120]
"""

import argparse
import time

import numpy as np

import hawkesfeed as hf
from hawkesfeed.likelihood import flat_weights


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--cascades", type=int, default=120)
    ap.add_argument("--users", type=int, default=6)
    ap.add_argument("--rankers", default="RCHR,NN,HWK,HWK-ALL")
    args = ap.parse_args()

    config = hf.random_sim_config(
        n_users=args.users, pair_dim=3, content_dim=3, seed=args.seed,
        n_cascades=args.cascades, horizon=10.0, origin_spacing=2.0,
    )
    print(f"branching ratio {hf.branching_ratio(config):.3f}")
    corpus = hf.simulate_corpus(config)
    split = int(0.7 * len(corpus))
    train, test = corpus[:split], corpus[split:]
    print(
        f"simulated {len(corpus)} cascades "
        f"({sum(len(c.comments) for c in corpus)} comments); "
        f"train {len(train)} / test {len(test)}"
    )

    fit_config = hf.FitConfig(
        post_decay_rate=config.params.post_decay_rate,
        comment_decay_rate=config.params.comment_decay_rate,
    )
    t0 = time.perf_counter()
    result = hf.fit(train, config.store, config.users, fit_config)
    truth = flat_weights(config.params)
    fitted = flat_weights(result.params)
    rel = np.linalg.norm(fitted - truth) / np.linalg.norm(truth)
    print(
        f"refit in {time.perf_counter() - t0:.1f}s "
        f"({result.iterations} iterations), relative weight error {rel:.3f}"
    )

    print(f"\n{'ranker':<10} {'AveRank':>8} {'NAveRank':>9}")
    for name in args.rankers.split(","):
        report = hf.evaluate(name, train, test, store=config.store,
                             fit_config=fit_config)
        g = report.groups[0]
        print(f"{name:<10} {g.ave_rank:8.4f} {g.nave_rank:9.4f}")


if __name__ == "__main__":
    main()
