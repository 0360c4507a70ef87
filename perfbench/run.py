"""Benchmark of the lelong package: one workload, one seed, one run.

    python3 perfbench/run.py --workload vertex_rich --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout against the package in its ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of the workload;
with ``--trace 1`` the per-layer metrics of a traced run. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the machine, the toolchain and the details behind the numbers.

A plain run is measured by fresh worker processes in turn, each taking
about 1/``CHUNKS`` of the operation time, and before each of them
``SETUPS_PER_CHUNK - 1`` workers that only set up. ``setup_s`` is the
median time from spawn to ``ready`` over all of them, so its samples are
spread over the run as its operations are.

The times are scaled to the speed of a reference machine (see
``worker.REF_MS``): each is multiplied by REF_MS over the mean time of
the reference computation that the workers run between operations. The
detail line keeps the unscaled times.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import REF_MS
from workloads import ROOT, SRC, WORKLOADS, use_checkout_source

HERE = Path(__file__).resolve().parent
CHUNKS = 5
SETUPS_PER_CHUNK = 2
# No worker and no operation starts after WALL_LIMIT_S of a run, and the
# run gives up at RUN_TIMEOUT_S, so a regression that makes every
# operation slow still ends inside 180 s.
WALL_LIMIT_S = 120
RUN_TIMEOUT_S = 170


def machine():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
    }


def spawn_worker(args, *extra):
    """Start a worker; return (process, seconds until it was ready)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), *map(str, extra),
    ]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker for {args.workload} failed during set-up")
    return proc, ready


def finish(args, proc, deadline):
    """The last output line of a worker, as JSON."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args):
    begin = perf_counter()
    deadline = begin + RUN_TIMEOUT_S
    setups, latencies, failures, ref, rss, first_pass = [], [], [], [], 0.0, 0
    while sum(latencies) < args.seconds and perf_counter() - begin < WALL_LIMIT_S:
        for _ in range(SETUPS_PER_CHUNK - 1):
            proc, ready = spawn_worker(args, "--setup-only")
            proc.communicate()
            setups.append(ready)
        chunk_s = min(args.seconds / CHUNKS, args.seconds - sum(latencies))
        wall_left = WALL_LIMIT_S - (perf_counter() - begin)
        proc, ready = spawn_worker(
            args, "--seconds", chunk_s, "--first-pass", first_pass, "--wall-limit", wall_left
        )
        setups.append(ready)
        raw = finish(args, proc, deadline)
        latencies += raw["latencies_s"]
        failures += raw["failures"]
        ref += raw["reference_s"]
        rss = max(rss, raw["peak_rss_mb"])
        first_pass += raw["passes"]
    return setups, latencies, failures, ref, rss


def run(args):
    if args.trace:
        proc, _ = spawn_worker(args)
        raw = finish(args, proc, perf_counter() + RUN_TIMEOUT_S)
        attempted, failures, metrics = raw["attempted"], raw["failures"], raw["metrics"]
        detail = {key: raw[key] for key in ("layers_from_probe", "monte_carlo")}
    else:
        setups, latencies, failures, ref, rss = measure(args)
        attempted = len(latencies)
        lat_ms = [s * 1e3 for s in latencies]
        timed_s = sum(latencies)
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - len(failures)) / timed_s,
            "op_ms_p50": statistics.median(lat_ms),
            # p90 only with at least ten samples beyond it.
            "op_ms_p90": statistics.quantiles(lat_ms, n=10)[-1] if attempted >= 100 else None,
        }
        ref_ms = statistics.fmean(ref) * 1e3
        scale = REF_MS / ref_ms
        metrics = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "op_ms_p50": (raw["op_ms_p50"] * scale, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        detail = {
            "samples": {"ops": attempted, "setups": len(setups), "timed_s": timed_s,
                        "reference": len(ref)},
            "reference_ms": ref_ms,
            "op_ms_p90": raw["op_ms_p90"] and raw["op_ms_p90"] * scale,
            "unscaled": raw,
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "fail_rate": len(failures) / attempted,
        "failures": failures[:5],
        **detail,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    # The build: byte-compile once, so no run pays for compilation.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    run(args)


if __name__ == "__main__":
    main()
