"""The four seeded workloads: inputs, one operation, and its check.

Inputs are plain tuples drawn from ``random.Random(seed)``, so the same
seed gives byte-identical inputs and the program receives only generated
data. Every operation builds its objects cold: the package caches
results on instances only, so a fresh instance recomputes everything.
A check compares an operation's result with an invariant that does not
reuse the code that produced it, and returns a list of mismatches.

Nothing from ``lelong`` is imported at module level: each workload
imports what its operations use in ``__init__``, which is part of the
measured set-up, and imports what only its checks use on first check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DATA = TESTS / "data"
WORK = Path(__file__).resolve().parent / "out"

# Expected residual mass of each vertex-rich size (n, m); committed, so a
# wrong facet set cannot validate itself.
VERTEX_RICH_TAU = {(2, 32): 350208, (3, 5): 1365, (3, 6): 3774, (4, 3): 241, (5, 2): 42}

# Monte Carlo band: |estimate - exact| <= MC_BAND_SE * se + box / samples,
# where se is the binomial standard error at the exact proportion. At
# 8 SE a correct program fails it with probability below 1e-7 per call.
MC_BAND_SE = 8
MC_SAMPLES = 1000


def use_checkout_source():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not (SRC / "lelong" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def q(x) -> str:
    return str(Fraction(x))


def qs(xs) -> list[str]:
    return [q(x) for x in xs]


# -- inputs ------------------------------------------------------------------


def draws():
    """tests/support.py, whose ``random_*`` functions draw the random inputs.

    Its objects are cheap to build (the polyhedron is computed on first
    use), so a workload draws an object and keeps only its generators.
    """
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    return importlib.import_module("support")


def plain(obj):
    """The generators of a drawn object as a tuple of integer tuples."""
    return tuple(tuple(int(c) for c in g) for g in obj.generators)


def compositions(m, n):
    """All weak compositions of m into n parts, in lexicographic order."""
    if n == 1:
        return [(m,)]
    return [(a, *rest) for a in range(m + 1) for rest in compositions(m - a, n - 1)]


def vertex_rich_generators(n, m):
    return [tuple(s * s for s in c) for c in compositions(m, n)]


# -- workloads ---------------------------------------------------------------


class Workload:
    """One seeded workload. ``passes`` is the pool of passes; a run repeats
    whole passes in order, cycling, until its time is spent."""

    name = ""
    modules: tuple[str, ...] = ()
    timeout_s = 30.0
    trace_passes = 1

    def __init__(self, seed: int):
        self.mods = {m: importlib.import_module(m) for m in ("lelong", *self.modules)}
        self.passes = self.make_passes(random.Random(seed))

    def make_passes(self, rng) -> list[list[tuple]]:
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def run_in_process(self, spec):
        """``run`` without child processes, so that it can be traced."""
        return self.run(spec)

    def output(self, spec, result) -> dict:
        """Canonical, JSON-serializable form of a result."""
        raise NotImplementedError

    def check(self, spec, result) -> list[str]:
        raise NotImplementedError

    def close(self):
        pass


def _staircase(gens):
    from lelong.oracles import covolume_staircase_2d

    return covolume_staircase_2d(gens)


class VertexRich(Workload):
    """Generators (s_1^2, ..., s_n^2) over the compositions s of m into n
    parts: every generator is a vertex, so facet search dominates."""

    name = "vertex_rich"
    modules = ("lelong.weights",)
    sizes = tuple(VERTEX_RICH_TAU)
    pool = 8

    def make_passes(self, rng):
        passes = []
        for _ in range(self.pool):
            specs = []
            for n, m in self.sizes:
                perm = list(range(n))
                rng.shuffle(perm)
                gens = [tuple(g[k] for k in perm) for g in vertex_rich_generators(n, m)]
                rng.shuffle(gens)
                specs.append((n, m, tuple(gens)))
            passes.append(specs)
        return passes

    def run(self, spec):
        n, m, gens = spec
        phi = self.mods["lelong.weights"].MonomialWeight(gens)
        return {
            "phi": phi,
            "tau": phi.residual_mass(),
            "atoms": phi.lelong_measure().atoms,
            "a": phi.extremal_direction().direction,
            "witness": phi.flatness_witness(),
            "loj": phi.lojasiewicz_exponent(),
        }

    def output(self, spec, r):
        return {
            "tau": q(r["tau"]),
            "atoms": [[qs(a.vertex), q(a.mass)] for a in r["atoms"]],
            "a": qs(r["a"]),
            "witness": None if r["witness"] is None else qs(r["witness"].generators[0]),
            "loj": q(r["loj"]),
        }

    def check(self, spec, r):
        n, m, gens = spec
        bad = []
        if r["tau"] != VERTEX_RICH_TAU[(n, m)]:
            bad.append(f"tau {r['tau']} != committed {VERTEX_RICH_TAU[(n, m)]}")
        if sum(a.mass for a in r["atoms"]) != r["tau"]:
            bad.append("atom masses do not sum to tau")
        if n == 2 and r["tau"] != 2 * _staircase(gens):
            bad.append("tau differs from the 2-D staircase")
        # The generator set is symmetric under coordinate permutations.
        if len(set(r["a"])) != 1:
            bad.append(f"extremal direction {qs(r['a'])} is not symmetric")
        if r["loj"] != m * m:
            bad.append(f"Lojasiewicz exponent {r['loj']} != m^2 = {m * m}")
        if r["witness"] is None:
            bad.append("no flatness witness for a polyhedron with several facets")
        return bad


class RandomMix(Workload):
    """Small instances from the tests/support.py distributions, n spread
    evenly over 2..6; one operation is the full invariant set."""

    name = "random_mix"
    modules = ("lelong.weights", "lelong.ideals")
    timeout_s = 10.0
    pool = 150
    trace_passes = 20
    probes = 2

    def make_passes(self, rng):
        d = draws()
        passes = []
        for _ in range(self.pool):
            specs = []
            for n in range(2, 7):
                phi = plain(d.random_weight(rng, n))
                us = tuple(plain(d.random_psh(rng, n)) for _ in range(self.probes))
                i = plain(d.random_primary_ideal(rng, n))
                j = plain(d.random_ideal(rng, n))
                ps = tuple(rng.randint(1, 40) for _ in range(2))
                specs.append((n, phi, us, i, j, ps))
            passes.append(specs)
        return passes

    def run(self, spec):
        w, idl = self.mods["lelong.weights"], self.mods["lelong.ideals"]
        n, phi_gens, us, i_gens, j_gens, ps = spec
        phi = w.MonomialWeight(phi_gens)
        r = {
            "tau": phi.residual_mass(),
            "atoms": phi.lelong_measure().atoms,
            "a": phi.extremal_direction().direction,
            "flat": phi.is_flat(),
            "witness": phi.flatness_witness(),
            "loj": phi.lojasiewicz_exponent(),
        }
        r["probes"] = []
        for u_gens in us:
            u = w.HomogeneousPsh(u_gens)
            r["probes"].append(
                (
                    w.generalized_lelong(u, phi),
                    w.generalized_lelong(u, phi, normalized=True),
                    w.relative_type(u, phi),
                )
            )
        i = idl.PrimaryMonomialIdeal(i_gens)
        j = idl.MonomialIdeal(j_gens)
        r["i"] = i
        r["samuel"] = idl.samuel_multiplicity(i)
        r["mixed"] = idl.mixed_multiplicity(j, i)
        r["contain"] = [idl.closure_containment_check(j, i, p) for p in ps]
        return r

    def output(self, spec, r):
        return {
            "tau": q(r["tau"]),
            "atoms": [[qs(a.vertex), q(a.mass)] for a in r["atoms"]],
            "a": qs(r["a"]),
            "flat": r["flat"],
            "witness": None if r["witness"] is None else qs(r["witness"].generators[0]),
            "loj": q(r["loj"]),
            "probes": [qs(p) for p in r["probes"]],
            "samuel": r["samuel"],
            "mixed": r["mixed"],
            "contain": [
                [c.hypothesis, list(c.axis_multiplicities), list(c.exponents),
                 [[g.axis_bound, g.closure_member, g.literal_member] for g in c.generators]]
                for c in r["contain"]
            ],
        }

    def check(self, spec, r):
        from lelong.ideals import mixed_multiplicity

        n, phi_gens, us, i_gens, j_gens, ps = spec
        bad = []
        if sum(a.mass for a in r["atoms"]) != r["tau"]:
            bad.append("atom masses do not sum to tau")
        if n == 2:
            if r["tau"] != 2 * _staircase(phi_gens):
                bad.append("tau differs from the 2-D staircase")
            if r["samuel"] != 2 * _staircase(i_gens):
                bad.append("Samuel multiplicity differs from the 2-D staircase")
        if r["flat"] != (len(r["atoms"]) == 1) or r["flat"] != (r["witness"] is None):
            bad.append("flatness disagrees with the atom count or the witness")
        for nu, nu_tilde, sigma in r["probes"]:
            if sigma > nu_tilde:
                bad.append(f"relative type {sigma} exceeds normalized aggregate {nu_tilde}")
            if nu != nu_tilde * r["tau"]:
                bad.append("aggregate is not tau times the normalized aggregate")
        if mixed_multiplicity(r["i"], r["i"]) != r["samuel"]:
            bad.append("e(I, I) differs from the Samuel multiplicity")
        for p, c in zip(ps, r["contain"]):
            if c.mixed_multiplicity != r["mixed"] or c.hypothesis != (r["mixed"] >= p):
                bad.append(f"containment report for p={p} disagrees with e(J, I)")
            if c.hypothesis and not c.all_axis_bound:
                bad.append(f"hypothesis holds but the axis bound fails for p={p}")
            if list(c.exponents) != [-(-p // e) for e in c.axis_multiplicities]:
                bad.append(f"containment exponents are not ceil(p / e_k) for p={p}")
        return bad


class OracleCheck(Workload):
    """Oracle calls on primary ideals: Monte Carlo covolume at n = 2..6
    (thousands of one-shot LPs) and Minkowski polarization e(J, I) and
    e(I, J) at n = 2..4 (vertex reduction of mostly redundant sums).

    The ideals are one fixed draw per n from the tests/support.py
    distribution, and the seed drives the Monte Carlo sampler. A fresh
    draw per seed changes the cost of a call twofold, and so does a
    coordinate permutation (it reorders the LP columns), which a run of
    some thirty calls cannot average out.
    """

    name = "oracle_check"
    modules = ("lelong.ideals", "lelong.oracles")
    pool = 8

    @staticmethod
    def family(n, k):
        rng = random.Random(f"oracle_check:{n}:{k}")
        return plain(draws().random_primary_ideal(rng, n, max_exp=6))

    def make_passes(self, rng):
        passes = []
        for _ in range(self.pool):
            specs = [("mc", n, self.family(n, 0), MC_SAMPLES, rng.randrange(2**32))
                     for n in range(2, 7)]
            for n in range(2, 5):
                j, i = self.family(n, 1), self.family(n, 2)
                specs += [("polar", n, j, i), ("polar", n, i, j)]
            passes.append(specs)
        return passes

    def run(self, spec):
        idl, orc = self.mods["lelong.ideals"], self.mods["lelong.oracles"]
        if spec[0] == "mc":
            _, n, gens, samples, seed = spec
            poly = idl.PrimaryMonomialIdeal(gens).weight.polyhedron
            return poly, orc.covolume_monte_carlo(poly, samples, seed)
        _, n, j, i = spec
        j, i = idl.PrimaryMonomialIdeal(j), idl.PrimaryMonomialIdeal(i)
        return (j, i), orc.mixed_multiplicity_polarization(j, i)

    def output(self, spec, r):
        if spec[0] == "mc":
            return {"value": repr(r[1].value), "se": repr(r[1].standard_error)}
        return {"polarization": q(r[1])}

    def check(self, spec, r):
        if spec[0] == "mc":
            poly, est = r
            samples = spec[3]
            exact = float(poly.covolume())
            box = float(math.prod(poly.axis_intercepts))
            p = exact / box
            se = box * math.sqrt(p * (1 - p) / samples)
            if abs(est.value - exact) > MC_BAND_SE * se + box / samples:
                return [f"Monte Carlo {est.value} is outside the band around {exact}"]
            return []
        from lelong.ideals import mixed_multiplicity

        (j, i), value = r
        if value != mixed_multiplicity(j, i):
            return [f"polarization {value} != e(J, I) {mixed_multiplicity(j, i)}"]
        return []


class Cli(Workload):
    """``lelong <subcommand>`` as a child process, one at a time, over all
    eleven subcommands; process start and imports dominate."""

    name = "cli"
    modules = ("lelong.cli",)
    trace_passes = 2

    def __init__(self, seed: int):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = {}
        super().__init__(seed)

    def _doc(self, name, n, gens):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps({"n": n, "generators": [list(g) for g in gens]}) + "\n")
        return str(path)

    def _subcommands(self, w2, w, u, j_primary, j, i, a, p):
        out = str(self.dir / "plot-{tag}.svg")
        return [
            ("mass", w),
            ("dir-lelong", w, "--a", a),
            ("gamma", w),
            ("lelong", u, w),
            ("lelong", u, w, "--normalized"),
            ("type", u, w),
            ("extremal", w),
            ("flat", w),
            ("mixed", j, i),
            ("mixed", j_primary, i, "--oracle", "polarization"),
            ("contain", j, i, "-p", str(p)),
            ("loj", w),
            ("plot", w2, "-o", out),
        ]

    def make_passes(self, rng):
        d = {p.stem: str(p) for p in DATA.glob("*.json")}
        fixed = self._subcommands(
            d["phi_star"], d["phi_star"], d["u_z1"], d["square_cross"], d["j_z1z2"],
            d["phi_star"], "1,2", 5,
        )
        d = draws()
        w2 = self._doc("w2", 2, plain(d.random_weight(rng, 2)))
        w3 = self._doc("w3", 3, plain(d.random_weight(rng, 3, max_exp=6, max_extra=2)))
        u3 = self._doc("u3", 3, plain(d.random_psh(rng, 3)))
        i3 = self._doc("i3", 3, plain(d.random_primary_ideal(rng, 3, max_exp=6)))
        jp3 = self._doc("jp3", 3, plain(d.random_primary_ideal(rng, 3, max_exp=6)))
        j3 = self._doc("j3", 3, plain(d.random_ideal(rng, 3, max_exp=6)))
        a = ",".join(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(3))
        seeded = self._subcommands(w2, w3, u3, jp3, j3, i3, a, rng.randint(1, 40))
        return [fixed, seeded]

    def _argv(self, spec, tag):
        return [arg.replace("{tag}", tag) for arg in spec]

    def run(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "lelong.cli", *self._argv(spec, "child")],
            env=self.env, cwd=ROOT, capture_output=True, timeout=self.timeout_s,
        )
        return proc.returncode, proc.stdout, self._plot_bytes(spec, "child")

    def run_in_process(self, spec):
        return self._in_process(spec, "traced")

    def _in_process(self, spec, tag):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods["lelong.cli"].main(self._argv(spec, tag))
        return code, buf.getvalue().encode(), self._plot_bytes(spec, tag)

    def _plot_bytes(self, spec, tag):
        if spec[0] != "plot":
            return b""
        path = Path(self._argv(spec, tag)[-1])
        data = path.read_bytes()
        path.unlink()
        return data

    def output(self, spec, r):
        code, stdout, svg = r
        return {"code": code, "stdout": stdout.decode(), "svg": svg.decode()}

    def check(self, spec, r):
        if spec not in self.expected:
            self.expected[spec] = self._in_process(spec, "expected")
        want = self.expected[spec]
        bad = []
        if r[0] != 0:
            bad.append(f"{spec[0]}: exit code {r[0]}")
        if r[1] != want[1] or r[2] != want[2]:
            bad.append(f"{spec[0]}: output differs from the in-process result")
        return bad

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VertexRich, RandomMix, OracleCheck, Cli)}
