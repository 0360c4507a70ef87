"""In-process A/B timing of this checkout's package against a base
checkout's, on a seeded pool of a perfbench workload.

Run it by hand from the repository root; pytest does not collect it:

    python tests/ab.py BASE [--workload random_mix] [--rounds 20] [--seed 1]

BASE is the root of another checkout of this repository, for example a
``git archive`` of the parent commit unpacked in a scratch directory.
The script imports this checkout's ``src/lelong`` as ``lelong`` and
BASE's as ``lelong_base``, and reads ``perfbench/workloads.py`` of this
checkout without changing it (no bytecode is written). It builds the
workload's pool for ``--seed`` (1 by default; a gain found while tuning
on one seed is best confirmed on another), runs every operation of the
pool under both packages and asserts that ``Workload.output`` is equal,
then times whole passes over the pool, the two packages alternating and
the first side flipping each round. It prints the least time of each
side, the best ratio (this checkout's least time over the base's) and
the median and quartiles of the per-round ratios, and names the pool's
seed; below 1 this checkout is faster.
Operations run through ``Workload.run_in_process``, so the ``cli``
workload calls ``lelong.cli.main`` in this process instead of spawning
children. Only the standard library is used.

Both sides run in one process on the same inputs, so a drift of the
host's speed over minutes reaches both alike: repeated runs of a ratio
agree to about 2 %, where a 30 s benchmark run spreads by more.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load(name, path):
    """Import the file or package directory ``path`` as module ``name``."""
    init = path / "__init__.py" if path.is_dir() else path
    locations = [str(path)] if path.is_dir() else None
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(workload, specs):
    gc.collect()
    start = perf_counter()
    for spec in specs:
        workload.run_in_process(spec)
    return perf_counter() - start


def rounds(text):
    """A round count: an int of at least 2, as the quartiles need two ratios."""
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"at least 2 rounds are needed, got {count}")
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the base checkout")
    parser.add_argument("--workload", default="random_mix")
    parser.add_argument("--rounds", type=rounds, default=20)
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload's pool")
    args = parser.parse_args()
    base_src = args.base.resolve() / "src" / "lelong"
    if not (base_src / "__init__.py").is_file():
        parser.error(f"no package at {base_src}")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    workloads = load("ab_workloads", ROOT / "perfbench" / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    load("lelong_base", base_src)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        head = dict(workload.mods)
        base = {m: importlib.import_module("lelong_base" + m[len("lelong"):]) for m in head}
        specs = [spec for one_pass in workload.passes for spec in one_pass]
        outputs = {}
        for side, mods in (("head", head), ("base", base)):
            workload.mods = mods
            outputs[side] = [workload.output(s, workload.run_in_process(s)) for s in specs]
        assert outputs["head"] == outputs["base"], "the outputs differ"
        print(f"{args.workload}: {len(specs)} operations, outputs equal under both packages")

        times = {"head": [], "base": []}
        for r in range(args.rounds):
            for side in ("head", "base") if r % 2 else ("base", "head"):
                workload.mods = head if side == "head" else base
                times[side].append(timed_pass(workload, specs))
    finally:
        workload.close()
    ratios = [h / b for h, b in zip(times["head"], times["base"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"least pass: base {min(times['base']):.4f} s, head {min(times['head']):.4f} s")
    print(f"best ratio head/base: {min(times['head']) / min(times['base']):.3f}")
    print(
        f"median pair ratio: {median:.3f} [{q1:.3f}, {q3:.3f}] over {args.rounds} rounds"
        f" on the seed-{args.seed} pool"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
