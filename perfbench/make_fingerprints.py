"""Recompute fingerprints.json: the final-state fingerprint (total mass,
kinetic energy, rho/u/p L2 norms) of every seed variant of every solver
workload.  Run it only at a commit whose solver output is trusted; the
benchmark compares later commits against these values.

    python3 perfbench/make_fingerprints.py [WORKLOAD ...]

Naming workloads recomputes only theirs and keeps the other entries.  A
variant whose run flags an audit violation or fails is reported and left
out, so the benchmark counts it as failed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def fingerprint_of(job):
    workload, variant = job
    outdir = os.path.join(ROOT, ".perfbench", "out", f"fp-{workload}-{variant}")
    os.makedirs(outdir, exist_ok=True)
    u = workloads.solver_unit(workload, variant, outdir, expected=None)
    return workload, variant, u


def main(argv=None):
    import multiprocessing
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.SOLVER_SPECS)
    jobs = [(w, v) for w in names for v in range(workloads.VARIANTS)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(2, os.cpu_count() or 1)) as pool:
        done = pool.map(fingerprint_of, jobs, chunksize=1)
    path = os.path.join(HERE, "fingerprints.json")
    with open(path) as fh:
        table = {k: v for k, v in json.load(fh).items()
                 if k.split("/")[0] not in names}
    for workload, variant, u in done:
        status = "ok" if not u["failed"] else "; ".join(u["problems"])
        picard = u["picard_per_step"]
        print(f"{workload}/{variant}: {status}; picard iterations "
              f"{min(picard)}-{max(picard)} per step; worst value/threshold "
              + ", ".join(f"{k} {v:.2g}" for k, v in u["audit_margin"].items()))
        if not u["failed"]:
            table[f"{workload}/{variant}"] = u["fingerprint"]
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(not u["failed"] for _, _, u in done) else 1


if __name__ == "__main__":
    sys.exit(main())
