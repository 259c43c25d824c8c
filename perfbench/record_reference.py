"""Record perfbench/reference.json, the values the reference gate checks.

    python3 perfbench/record_reference.py

Run it only on a tree whose outputs are known to be right: every later
benchmark run compares against what it writes.  It stores each workload's
reference values on the gate inputs, and the corpus digest of the first
timed pass for each workload seed in SEEDS, at full and tiny size.
"""

import json
import os
import sys
import tempfile

import run

SEEDS = {"full": range(100), "tiny": range(10)}


def record():
    W = run.load_package()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    references = {"gate": {}, "corpus_digest_by_seed": {size: {} for size in SEEDS}}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="record-") as workdir:
        for name in run.WORKLOAD_NAMES:
            gate = W.WORKLOADS[name](W.SIZES["gate"][name])
            inp = gate.prepare(W.pass_seed(run.GATE_SEED, 0), workdir)
            references["gate"][name] = gate.reference_values(inp, gate.run(inp))
            for size, seeds in SEEDS.items():
                workload = W.WORKLOADS[name](W.SIZES[size][name])
                references["corpus_digest_by_seed"][size][name] = {
                    str(seed): workload.corpus_digest(
                        workload.prepare(W.pass_seed(seed, 0), workdir))
                    for seed in seeds
                }
            print(f"recorded {name}", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
