"""One benchmark run of one workload, in a fresh process started by run.py
with the BLAS thread variables already set.

Untraced run: set-up-only samples, then checked units until ``--seconds``
is used up (at least one).  Traced run: untraced and traced units in
alternation (at least one of each); the traced ones record spans.

Writes the raw samples as JSON to ``--out``.  ``worker.py --imports-only``
only times the imports and prints the seconds.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402,F401
import macflow  # noqa: E402
import macflow.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T_START
if sys.argv[1:] == ["--imports-only"]:
    print(repr(IMPORT_S))
    sys.exit(0)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_SAMPLES = 2


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def _more(deadline, last_unit):
    """Start another unit only if one as long as the last fits before the
    deadline."""
    return time.perf_counter() + last_unit < deadline


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(workloads.ROOT, "src")
    if not os.path.abspath(macflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"macflow imported from {macflow.__file__}, not {src}")
    outdir = os.path.join(args.workdir, "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    fingerprints = workloads.load_fingerprints()
    deadline = time.perf_counter() + args.seconds
    result = {"import_s": IMPORT_S, "setup_samples": [], "units": [],
              "params": workloads.variant_params(args.workload, args.seed)}

    traces = []

    def run(traced):
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            u = workloads.unit(args.workload, args.seed, outdir, fingerprints)
        finally:
            if tracer:
                tracer.uninstall()
        u["traced"] = traced
        if tracer:
            u["layers"] = tracing.layer_metrics(tracer.spans)
            u["layers"]["solver.picard_iters"] = u["picard_iters"]
            traces.append((len(result["units"]), tracer.spans))
        result["units"].append(u)
        if u["setup"] is not None:
            result["setup_samples"].append(u["setup"])
        return u

    if args.trace:
        while True:
            a = run(False)
            b = run(True)
            if a["failed"] or b["failed"] or not _more(deadline, a["wall"] + b["wall"]):
                break
    else:
        for _ in range(SETUP_ONLY_SAMPLES):
            result["setup_samples"].append(
                workloads.setup_only(args.workload, args.seed))
        while True:
            u = run(False)
            if u["failed"] or not _more(deadline, u["wall"]):
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")}}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for index, spans in traces:
        path = os.path.join(args.workdir, "traces", f"{args.workload}-seed"
                            f"{args.seed}-unit{index}.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracing.write_spans(spans, path)
    result["threads"] = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
