"""Run every workload and record the numbers in a BENCH_<label>.json file.

    python3 perfbench/baseline.py --label 4f0b43b --seeds 10

For each workload it makes ``--seeds`` plain runs (seeds 1..N) and one
traced run (seed 1) through run.py, exactly as a regression check would, prints
every end-to-end metric by name with its unit, and writes the result
lines, their medians and quartile spreads, and the machine to
``perfbench/BENCH_<label>.json``.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def spread(values):
    """(median, quartile distance / median), as the acceptance rule takes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    out = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        plain = []
        for seed in range(1, args.seeds + 1):
            detail, result = run_once(name, seed, seconds, 0)
            out["machine"] = detail["machine"]
            plain.append({"seed": seed, "detail": detail, "result": result})
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
        detail, traced = run_once(name, 1, seconds, 1)
        summary = {}
        print(f"{name} ({len(plain)} runs of {seconds} s; median, quartile spread)")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            med, rel = spread([r["result"]["metrics"][key]["value"] for r in plain])
            summary[key] = {"median": med, "spread": rel, "unit": metric["unit"], "bound": metric["bound"]}
            print(f"  {key:12s} {med:12.4f} {metric['unit']:4s} spread {rel:.3f} (bound {metric['bound']})")
        out["workloads"][name] = {
            "summary": summary,
            "plain": plain,
            "traced": {"seed": 1, "detail": detail, "result": traced},
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
