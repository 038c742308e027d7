"""Pool the per-step times of a run set from .perfbench/results/ and print
step percentiles with their sample counts.

    python3 perfbench/pool.py [--workload NAME]

A percentile is printed only where at least ten samples lie beyond it;
otherwise the line says how many samples it would need.
"""

import argparse
import glob
import json
import os

from run import WORKDIR, WORKLOADS, percentile

MIN_BEYOND = 10


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    args = p.parse_args(argv)
    pooled = {}
    for path in sorted(glob.glob(os.path.join(WORKDIR, "results", "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        m = rec["manifest"]
        if m["trace"] or (args.workload and m["workload"] != args.workload):
            continue
        entry = pooled.setdefault(m["workload"], {"runs": 0, "seeds": set(),
                                                  "steps": []})
        entry["runs"] += 1
        entry["seeds"].add(m["seed"])
        entry["steps"].extend(s for u in rec["raw"]["units"] for s in u["steps"])
    for workload, entry in pooled.items():
        steps = entry["steps"]
        n = len(steps)
        print(f"{workload}: {entry['runs']} runs, {len(entry['seeds'])} seeds, "
              f"{n} step samples")
        for q in (0.5, 0.9, 0.99):
            beyond = int(n * (1.0 - q))
            label = f"step_s_p{round(q * 100)}"
            if beyond >= MIN_BEYOND:
                print(f"  {label}: {percentile(steps, q):.6g} s "
                      f"({beyond} samples beyond)")
            else:
                need = int(MIN_BEYOND / (1.0 - q) + 0.5)
                print(f"  {label}: not reported, needs {need} samples")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
