"""macflow benchmark: one command that runs a workload in a fresh process,
checks its output and prints every metric by name and unit.

    python3 perfbench/run.py --workload rt-32x64 --seed 3 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
result holds the end-to-end metrics, measured untraced; with ``--trace 1``
the per-layer metrics of a traced run, whose spans are written to
``.perfbench/traces/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable table and the run manifest.  Raw samples of every run go to
``.perfbench/results/`` (see pool.py).

Run from the root of a source checkout: the benchmark imports macflow from
``src/`` and reads ``configs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("rt-32x64", "mmsb-256", "stir-3d", "verify-stretched")
CHILD_TIMEOUT_S = 170.0
# Imports happen once per process, so set-up time takes the median import
# time of this many fresh processes (the worker and import-only ones).
IMPORT_SAMPLES = 3

# One BLAS thread: SuperLU is sequential, and a single thread keeps runs
# comparable on a small machine shared with other work.  Set before numpy
# loads in the child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("step_s_p50", "s"),
              ("step_s_p90", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "frac"))
PER_LAYER = (
    ("solver.factor_s", "s"), ("solver.factor_calls", "count"),
    ("solver.factor_fill_nnz", "count"), ("solver.trisolve_s", "s"),
    ("solver.trisolve_calls", "count"), ("solver.krylov_s", "s"),
    ("solver.krylov_iters", "count"), ("solver.setup_s", "s"),
    ("solver.step_s", "s"), ("solver.transport_s", "s"),
    ("solver.momentum_s", "s"), ("solver.picard_iters", "count"),
    ("solver.self_s", "s"),
    ("operators.assemble_s", "s"), ("operators.assemble_calls", "count"),
    ("operators.assemble_nnz", "count"), ("operators.apply_s", "s"),
    ("operators.apply_calls", "count"),
    ("verification.audit_s", "s"), ("verification.check_s", "s"),
    ("verification.self_s", "s"), ("verification.audit_margin", "ratio"),
    ("fields.project_s", "s"), ("fields.project_calls", "count"),
    ("fields.self_s", "s"), ("problems.forcing_s", "s"), ("mesh.s", "s"),
    ("output.write_s", "s"), ("output.bytes", "B"),
    ("trace.overhead_frac", "frac"),
)
# Per-layer metrics that are counts of work: they must repeat exactly
# between traced units and traced runs of one seed.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _source_hash():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "macflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(args, what):
    """Run worker.py with ``args`` in a fresh process; return its output."""
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")]
                            + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{what}: worker exceeded {CHILD_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{what}: worker failed with exit code "
                           f"{proc.returncode}\n{log[-4000:]}")
    return log


def _child(workload, seed, seconds, trace):
    """Run one benchmark run in a fresh worker; return its raw result."""
    os.makedirs(WORKDIR, exist_ok=True)
    out = os.path.join(WORKDIR, f"child-{os.getpid()}-{workload}.json")
    if os.path.exists(out):
        os.remove(out)
    extra_imports = [] if trace else [
        float(_worker(["--imports-only"], workload).split()[-1])
        for _ in range(IMPORT_SAMPLES - 1)]
    _worker(["--workload", workload, "--seed", str(seed),
             "--seconds", repr(float(seconds)), "--trace", str(trace),
             "--out", out, "--workdir", WORKDIR], workload)
    with open(out) as fh:
        raw = json.load(fh)
    os.remove(out)
    raw["import_samples"] = [raw["import_s"]] + extra_imports
    return raw


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    units = raw["units"]
    steps = [s for u in units for s in u["steps"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    imp = statistics.median(raw["import_samples"])
    metrics = {
        "setup_s": imp + statistics.median(raw["setup_samples"]),
        "wall_s": imp + statistics.median(u["wall"] for u in units),
        "step_s_p50": percentile(steps, 0.5),
        "step_s_p90": percentile(steps, 0.9),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    samples = {"setup_s": len(raw["setup_samples"]), "wall_s": len(units),
               "step_s_p50": len(steps), "step_s_p90": len(steps),
               "peak_rss_mb": 1, "success_rate": attempted}
    return ({name: _metric(metrics[name], unit) for name, unit in END_TO_END},
            samples, [])


def per_layer(raw):
    plain = [u for u in raw["units"] if not u["traced"]]
    traced = [u for u in raw["units"] if u["traced"]]
    metrics = {}
    notes = []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            base = statistics.median(u["wall"] for u in plain)
            value = (statistics.median(u["wall"] for u in traced) - base) / base
        elif name == "verification.audit_margin":
            value = max(max(u["audit_margin"].values()) for u in traced)
        elif name in EXACT:
            seen = {u["layers"][name] for u in traced}
            if len(seen) > 1:
                notes.append(f"{name} differs between traced units: {sorted(seen)}")
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(u["layers"][name] for u in traced)
        metrics[name] = _metric(value, unit)
    samples = {name: len(traced) for name, _ in PER_LAYER}
    samples["trace.overhead_frac"] = len(plain)
    return metrics, samples, notes


def _manifest(raw, workload, seed, seconds, trace, load_before):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": raw["params"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": raw["versions"]["numpy"], "scipy": raw["versions"]["scipy"],
        "blas": raw["versions"]["blas"],
        "threads": raw["threads"],
        "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
        "git_commit": _git_commit(), "source_sha256": _source_hash(),
        "machine": platform.machine(), "platform": platform.platform(),
    }


def run_one(workload, seed, seconds, trace):
    load_before = list(os.getloadavg())
    raw = _child(workload, seed, seconds, trace)
    metrics, samples, notes = (per_layer if trace else end_to_end)(raw)
    attempted = sum(u["attempted"] for u in raw["units"])
    failed = sum(u["failed"] for u in raw["units"])
    problems = [p for u in raw["units"] for p in u["problems"]] + notes
    manifest = _manifest(raw, workload, seed, seconds, trace, load_before)

    print(f"== {workload}  seed {seed}  "
          f"{'traced' if trace else 'untraced'}  "
          f"{len(raw['units'])} unit(s)  params {json.dumps(raw['params'])}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']:6s} "
              f"(n={samples[name]})")
    picard = raw["units"][0]["picard_per_step"]
    if picard:
        hist = ", ".join(f"{k} its x{picard.count(k)}"
                         for k in sorted(set(picard)))
        print(f"  picard iterations per step: {hist} "
              f"(solver.picard_iters {sum(picard)} per unit)")
    margins = {}
    for u in raw["units"]:
        for k, v in u["audit_margin"].items():
            margins[k] = max(margins.get(k, 0.0), v)
    print("  worst check value / threshold: "
          + ", ".join(f"{k} {v:.3g}" for k, v in margins.items()))
    print(f"  checks: {attempted - failed}/{attempted} passed, "
          f"fail_rate {failed / attempted:.6g}")
    for p in problems:
        print(f"  FAILED: {p}")
    print("manifest " + json.dumps(manifest))

    record = {"manifest": manifest, "metrics": metrics, "samples": samples,
              "raw": raw, "problems": problems}
    results = os.path.join(WORKDIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{seed}-trace{trace}-"
                                 f"{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    correct = failed == 0 and not notes
    return correct, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    for need in (os.path.join("src", "macflow", "__init__.py"),
                 os.path.join("configs", "rayleigh-taylor.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from the root of a "
                  "macflow source checkout", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, met = run_one(name, args.seed, args.seconds,
                                         args.trace)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        correct &= ok
        attempted += att
        failed += fail
        if len(names) == 1:
            metrics = met
        else:
            metrics.update({f"{name}.{k}": v for k, v in met.items()})
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
