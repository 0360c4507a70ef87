"""One measuring worker of a run, in a fresh process started by run.py.

The worker sets up (imports and inputs), prints ``ready``, then either
exits (``--setup-only``), runs whole passes of the workload from pass
``--first-pass`` on until ``--seconds`` of operation time are spent, or
makes the traced run (``--trace 1``). It prints one JSON line with its
raw samples. Every operation runs in this process and thread, one at a
time, under a timeout; a timeout, an exception or a failed check counts
the operation as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

from workloads import SRC, WORK, WORKLOADS, Cli, use_checkout_source

# A traced run starts no operation after this many seconds, so a
# regression that makes every operation slow still ends inside 180 s.
WALL_LIMIT_S = 120.0
PROBE_REPEATS = 5
# The host's speed drifts by a fifth and more over minutes, in CPU time as
# in wall time, and a 30 s run cannot average that out. So between
# operations the worker times a fixed computation, ``reference``, for
# REF_SHARE of the operation time, and run.py scales the run's times by
# REF_MS / its mean: they read as on a machine that does ``reference``
# in REF_MS. Over 5 s blocks of random_mix the ratio of operation time to
# reference time spread 0.05 between quartiles where operation time alone
# spread 0.25. The mean, not the median: the host takes the processor
# away in slices of about a millisecond, so short samples are bimodal and
# only their mean follows the share of time the worker gets.
REF_SHARE = 0.05
REF_MS = 1.2


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def timed(fn, spec, timeout_s):
    """(result, failure or None, seconds) of one operation."""
    signal.setitimer(signal.ITIMER_REAL, timeout_s + 1.0)
    start = perf_counter()
    try:
        result, failure = fn(spec), None
    except (OpTimeout, subprocess.TimeoutExpired):
        result, failure = None, "timeout"
    except Exception as exc:  # an operation that raises is a failed operation
        result, failure = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, failure, elapsed


def checked(wl, spec, result, failure):
    if failure is not None:
        return failure
    try:
        bad = wl.check(spec, result)
    except Exception as exc:  # a check that cannot run counts as a mismatch
        bad = [f"check raised {type(exc).__name__}: {exc}"]
    return f"check: {bad[0]}" if bad else None


def reference():
    """Fraction Gaussian elimination on four fixed 6 x 6 matrices: pure
    Python, like the package's exact kernel, and independent of it."""
    det = Fraction(1)
    for r in range(4):
        m = [[Fraction((i * 7 + j * 3 + r) % 11 + 13 * (i == j), 1 + (i + j) % 5)
              for j in range(6)] for i in range(6)]
        for c in range(6):
            det *= m[c][c]
            for i in range(c + 1, 6):
                f = m[i][c] / m[c][c]
                for j in range(c, 6):
                    m[i][j] -= f * m[c][j]
    return det


def measure(wl, seconds, first_pass, wall_limit_s):
    """Whole passes, from pass ``first_pass`` of the pool on and cycling,
    until ``seconds`` of operation time are spent; no operation starts
    after ``wall_limit_s``. After each operation, ``reference`` runs until
    its time reaches REF_SHARE of the operation time so far."""
    latencies, failures, ref = [], [], []
    begin = time.monotonic()
    k = first_pass
    while sum(latencies) < seconds and time.monotonic() - begin < wall_limit_s:
        for spec in wl.passes[k % len(wl.passes)]:
            result, failure, elapsed = timed(wl.run, spec, wl.timeout_s)
            latencies.append(elapsed)
            failure = checked(wl, spec, result, failure)
            if failure:
                failures.append(failure)
            while sum(ref) < REF_SHARE * sum(latencies):
                start = perf_counter()
                reference()
                ref.append(perf_counter() - start)
            if time.monotonic() - begin >= wall_limit_s:
                break
        k += 1
    who = resource.RUSAGE_CHILDREN if isinstance(wl, Cli) else resource.RUSAGE_SELF
    return {
        "passes": k - first_pass,
        "attempted": len(latencies),
        "failures": failures,
        "latencies_s": latencies,
        "reference_s": ref,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _median_spawn_ms(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def trace_run(wl, seed):
    """The first ``trace_passes`` passes, each operation untraced and then
    traced (alternating, so drift in machine speed hits both alike).

    A kernel workload then makes the CLI probe, one traced in-process pass
    of ``cli.main`` over tests/data under a root of its own: it gives the
    figures of the layers the workload never enters. Last come a bare
    interpreter and a fresh ``import lelong.cli``, untraced."""
    from tracer import Tracer, layer_metrics, monte_carlo

    specs = [spec for p in wl.passes[: wl.trace_passes] for spec in p]
    tracer = Tracer()
    failures, plain_s, traced_s = [], 0.0, 0.0
    begin = time.monotonic()
    for done, spec in enumerate(specs, 1):
        result, failure, elapsed = timed(wl.run_in_process, spec, wl.timeout_s)
        plain_s += elapsed
        want = failure or wl.output(spec, result)
        tracer.install()
        try:
            with tracer.root(wl.name):
                result, failure, elapsed = timed(wl.run_in_process, spec, wl.timeout_s)
        finally:
            tracer.uninstall()
        traced_s += elapsed
        failure = checked(wl, spec, result, failure)
        if failure is None and wl.output(spec, result) != want:
            failure = "traced output differs from untraced output"
        if failure:
            failures.append(failure)
        if time.monotonic() - begin >= WALL_LIMIT_S:
            break
    probe_root = None if isinstance(wl, Cli) else "cli_probe"
    if probe_root:
        probe = Cli(seed)
        tracer.install()
        try:
            for spec in probe.passes[0]:
                with tracer.root(probe_root):
                    probe.run_in_process(spec)
        finally:
            tracer.uninstall()
            probe.close()
    tracer.write(WORK / f"trace-{wl.name}-seed{seed}.json.gz")
    metrics, sources = layer_metrics(tracer, wl.name, probe_root)
    interp = _median_spawn_ms("pass")
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (_median_spawn_ms("import lelong.cli") - interp, "ms")
    metrics["trace_overhead"] = (traced_s / plain_s, "x")
    return {
        "attempted": done,
        "failures": failures,
        "metrics": metrics,
        "layers_from_probe": [layer for layer, src in sources.items() if src != wl.name],
        "monte_carlo": monte_carlo(tracer, wl.name),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--wall-limit", type=float, default=WALL_LIMIT_S)
    args = parser.parse_args(argv)
    use_checkout_source()
    wl = WORKLOADS[args.workload](args.seed)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return
        signal.signal(signal.SIGALRM, _alarm)
        WORK.mkdir(exist_ok=True)
        if args.trace:
            out = trace_run(wl, args.seed)
        else:
            out = measure(wl, args.seconds, args.first_pass, args.wall_limit)
    finally:
        wl.close()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
