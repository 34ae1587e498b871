"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload large-x --seeds 1-10 [--out FILE]

Runs perfbench/run.py once per seed (one at a time), then prints for each
end-to-end metric its median, first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, next to the bound BENCHMARK.json gives it.  --out writes the same
figures, the per-seed values, the failure counts and the host as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']} failed {result['failed']}"
                  f"/{result['attempted']} in {time.perf_counter() - started:.1f} s", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bound, "values": values,
            }
            print(f"  {name:18s} median {median:.6g} spread {(q3 - q1) / median:.4f}"
                  f" (bound {bound}, target < {bound / 3:.4f})")
        summary[workload] = {
            "seeds": args.seeds,
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        host = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "run_seconds": spec["run_seconds"],
        }
        args.out.write_text(json.dumps({"host": host, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
