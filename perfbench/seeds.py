"""Run workloads over several seeds and summarise each end-to-end metric.

Run from the repository root, for example:

    python3 perfbench/seeds.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json (or those named with --workload) it
runs ``run.py`` once per seed with the benchmark's ``run_seconds`` and
prints, per metric, the median, the quartiles and the spread (the
distance between the quartiles over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound.  ``--out`` also writes every run's values to a JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seed_list, default=_seed_list("1-10"))
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", default=None, help="JSON file for every run's values")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "python": platform.python_version(), "workloads": {}}
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(name, json.dumps(runs[-1]), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "bound": bound}
            print(f"  {name:20s} {metric:12s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={(q3 - q1) / med:.4f} bound={bound}")
        result["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
