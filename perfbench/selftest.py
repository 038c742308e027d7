"""Benchmark self-test.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]

1. BENCHMARK.json, run.py and layers.json name the same metrics and
   workloads.
2. Two traced runs of one seed report exactly the same work counts
   (factor calls and fill, assembled nnz, Picard iterations, ...), and both
   runs are correct.

Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

from run import END_TO_END, EXACT, HERE, PER_LAYER, ROOT, WORKLOADS


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if sorted(layers["workloads"]) != sorted(WORKLOADS):
        problems.append("layers.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(table):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if sorted(layers["layers"]) != sorted(name for name, _ in PER_LAYER):
        problems.append("layers.json layers differ from run.py PER_LAYER")
    return problems


def traced_counts(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["correct"], {k: result["metrics"][k]["value"] for k in EXACT}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="*", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    problems = check_spec()
    for workload in args.workload:
        ok_a, a = traced_counts(workload, args.seed, args.seconds)
        ok_b, b = traced_counts(workload, args.seed, args.seconds)
        if not (ok_a and ok_b):
            problems.append(f"{workload}: a traced run was not correct")
        differ = [k for k in EXACT if a[k] != b[k]]
        if differ:
            problems.append(f"{workload}: counts differ between runs: "
                            + ", ".join(f"{k} {a[k]} vs {b[k]}" for k in differ))
        print(f"{workload} seed {args.seed}: "
              + ", ".join(f"{k}={a[k]}" for k in EXACT)
              + ("  (repeat exactly)" if not differ else "  (DIFFER)"))
    for line in problems:
        print(f"FAILED: {line}")
    print("selftest " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
