"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import worker
import workloads as W
from tracer import Tracer, layer_metrics

W.use_checkout_source()

BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def _inputs(wl):
    """Everything a workload feeds the program, as bytes."""
    data = json.dumps(wl.passes, default=str)
    if isinstance(wl, W.Cli):
        data = data.replace(str(wl.dir), "<dir>")
        data += "".join(p.read_text() for p in sorted(wl.dir.glob("*.json")))
    return data.encode()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first, again, other = (W.WORKLOADS[name](seed) for seed in (7, 7, 8))
    try:
        assert _inputs(first) == _inputs(again)
        assert _inputs(first) != _inputs(other)
    finally:
        for wl in (first, again, other):
            wl.close()


def test_vertex_rich_every_generator_is_a_vertex():
    from lelong import NewtonPolyhedron

    for n, m in W.VERTEX_RICH_TAU:
        gens = W.vertex_rich_generators(n, m)
        assert len(NewtonPolyhedron(gens).vertices) == len(gens)


def _small_specs(wl):
    if isinstance(wl, W.VertexRich):
        return [s for s in wl.passes[0] if s[:2] == (2, 32)]
    if isinstance(wl, W.OracleCheck):
        return [s for s in wl.passes[0] if s[1] <= 3]
    return wl.passes[0]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    import lelong
    import lelong.geometry
    import lelong.newton

    wl = W.WORKLOADS[name](3)
    probe = None if isinstance(wl, W.Cli) else W.Cli(3)
    original = lelong.geometry.hyperplane_normal
    tracer = Tracer()
    try:
        specs = _small_specs(wl)
        plain = [wl.output(s, wl.run_in_process(s)) for s in specs]
        tracer.install()
        try:
            wrapped = lelong.newton.hyperplane_normal
            assert wrapped is lelong.geometry.hyperplane_normal
            assert wrapped.__wrapped__ is original
            assert lelong.cone_point_member.__wrapped__ is not None
            traced = []
            for s in specs:
                with tracer.root(name):
                    traced.append(wl.output(s, wl.run_in_process(s)))
            if probe:
                with tracer.root("cli_probe"):
                    for s in probe.passes[0]:
                        probe.run_in_process(s)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
        if probe:
            probe.close()
    assert lelong.newton.hyperplane_normal is original
    assert traced == plain
    metrics, sources = layer_metrics(tracer, name, "cli_probe" if probe else None)
    assert metrics["newton.build.calls"][0] > 0
    assert metrics["newton.generators"][0] >= metrics["newton.vertices"][0] > 0
    assert metrics["cli.main.calls"][0] > 0
    assert sources["newton"] == name
    if isinstance(wl, W.VertexRich):
        # The probe's polyhedra count toward none of the workload's figures.
        assert metrics["newton.build.calls"][0] == len(specs)
        assert metrics["newton.generators"][0] == sum(len(s[2]) for s in specs)
        assert metrics["newton.vertex_yield"][0] == 1.0
        assert sources["cli"] == sources["render"] == "cli_probe"


def test_checks_catch_wrong_results():
    wl = W.VertexRich(1)
    spec = next(s for s in wl.passes[0] if s[:2] == (2, 32))
    result = wl.run(spec)
    assert wl.check(spec, result) == []
    assert wl.check(spec, dict(result, tau=result["tau"] + 1))

    oc = W.OracleCheck(1)
    spec = next(s for s in oc.passes[0] if s[:2] == ("mc", 2))
    poly, est = oc.run(spec)
    assert oc.check(spec, (poly, est)) == []
    shifted = type(est)(est.value * 1.5, est.standard_error, est.samples, est.seed)
    assert oc.check(spec, (poly, shifted))

    cli = W.Cli(1)
    try:
        spec = cli.passes[0][0]
        code, out, svg = cli.run(spec)
        assert cli.check(spec, (code, out, svg)) == []
        assert cli.check(spec, (code, out + b" ", svg))
        assert cli.check(spec, (2, out, svg))
    finally:
        cli.close()


def test_timeout_counts_as_failed_operation():
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        start = time.monotonic()
        result, failure, elapsed = worker.timed(lambda spec: time.sleep(10), None, 0.1)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (result, failure) == (None, "timeout")
    assert elapsed < 5 and time.monotonic() - start < 5


def _run(*args, cwd=W.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    proc = _run("--workload", "cli", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert {"nproc", "python", "numpy", "scipy", "commit"} <= set(detail["machine"])
    if trace == "0":
        # The times are the measured ones scaled by the reference.
        scale = worker.REF_MS / detail["reference_ms"]
        for name, power in (("setup_s", 1), ("op_ms_p50", 1), ("ops_per_s", -1)):
            got = result["metrics"][name]["value"]
            assert got == pytest.approx(detail["unscaled"][name] * scale**power)


def test_fails_without_the_program(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
