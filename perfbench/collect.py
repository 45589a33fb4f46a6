"""Run the benchmark over several seeds and summarise medians and spreads.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/BENCH_0.json

For each workload it makes one untraced run per seed and one traced run
at the default seed, one run at a time. For every end-to-end metric it
reports the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. ``--out`` writes all of it, with each run's
context, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1729


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    context = next(json.loads(line[8:]) for line in lines if line.startswith("context "))
    return {"seed": seed, "context": context, **result}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in runs[-1]["metrics"].items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bound,
            }
            print(f"  {name}: median {median:.4g} spread {(q3 - q1) / median:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f})", flush=True)
        traced = run_once(workload, DEFAULT_SEED, seconds, 1)
        print(f"  traced: overhead {traced['context']['tracing_overhead']:.3f}, "
              f"correct {traced['correct']}", flush=True)
        summary["workloads"][workload] = {
            "why": runs[0]["context"]["why"],
            "end_to_end": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": runs,
            "traced": traced,
        }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
