"""Time one benchmark workload on two source trees, interleaved.

    python3 tools/ab_compare.py WORKLOAD OTHER_ROOT [--problems N]
        [--seeds S[,S...]]

Run from anywhere.  This checkout's src/dualform and OTHER_ROOT's are
imported side by side in one process, as the packages dualform_this and
dualform_other.  The problems come from bench/workloads.py, generated
once and handed to both trees; each tree runs every problem, and the
workload's own check judges every result.  A shared host drifts in speed
by tens of per cent within a minute, so timings of two trees taken one
after the other can mislead; interleaved per problem, both see the same
moments of host speed.

Which tree runs a problem first is drawn by a coin seeded with the seed.
The tree that runs first, just after the problem is generated, is the
slower one more often, and the workloads cycle through their shapes with
an even period (sweep-small's fields with period 4), so an order that
simply alternated gave each shape the same first tree at every visit.
Run against itself that way, over 200 problems at seeds 21 and 22,
sweep-small read total 1.026 and 0.981 and this tree faster on only 81
and 96: on GF(2) and GF(5), where this tree always ran first, it was
faster on 10 to 18 of 50.

Runs one such comparison per seed (default 7; --seed S is the same as
--seeds S).  Prints one line per seed: each tree's total time, the
ratios this/other of the totals and of the median (p50) times, and on
how many problems this tree was the faster; then on how many seeds this
tree's total was the lower.  Exits 1 if a check fails on either tree.

A tree compared with itself still reads off 1 by several per cent.  Over
200 problems at seeds 21 to 24, sweep-small read totals 0.926 to 1.000,
p50 0.989 to 1.008 and faster on 97 to 102; dual-gfp 0.973 to 1.001,
0.983 to 1.041 and 96 to 107; cli 0.958 to 1.052, 0.982 to 1.064 and
92 to 100.  So one run within 8 per cent of 1, or faster on between
about 45 and 55 per cent of the problems, is no evidence of a
difference: repeat the run with several seeds, and in both directions,
each tree's copy of this script taking the other as OTHER_ROOT.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench module)


def load(root, alias):
    """root's src/dualform, with its cli, imported as the package alias."""
    src = os.path.join(root, "src", "dualform")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    importlib.import_module(alias + ".cli")
    return package


def compare(workload, packages, problems, seed):
    """Per-problem times {name: [s, ...]} of each tree in packages on the
    workload's problems at seed, which tree runs first drawn per problem
    by a coin seeded with seed, and the number of failed checks per
    tree."""
    times = {name: [] for name in packages}
    with tempfile.TemporaryDirectory() as tmp:
        wls = {}
        for name, package in packages.items():
            wls[name] = workloads.WORKLOADS[workload](seed, tmp)
            wls[name].bind(package)
        warm = wls["this"].spec(-1)
        for wl in wls.values():
            wl.check(warm, wl.run(warm))
        gc.collect()
        coin = random.Random(f"ab_compare order {seed}")
        for k in range(problems):
            spec = wls["this"].spec(k)
            if spec is None:
                break  # a finite pool is exhausted
            for name in (("this", "other") if coin.random() < 0.5
                         else ("other", "this")):
                t0 = time.perf_counter()
                out = wls[name].run(spec)
                times[name].append(time.perf_counter() - t0)
                wls[name].check(spec, out)
    return times, {name: sum(wl.failures.values())
                   for name, wl in wls.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("other_root")
    ap.add_argument("--problems", type=int, default=60)
    ap.add_argument("--seeds", default="7",
                    help="comma-separated seeds, one comparison each")
    args = ap.parse_args(argv)
    if args.problems < 1:
        ap.error("--problems must be at least 1")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error(f"--seeds {args.seeds!r} is not a comma-separated list of "
                 "ints")
    roots = {"this": ROOT, "other": os.path.abspath(args.other_root)}
    packages = {name: load(root, "dualform_" + name)
                for name, root in roots.items()}
    print(f"{args.workload}, this {roots['this']}, other {roots['other']}, "
          "order drawn per problem")
    lower = failed = 0
    for seed in seeds:
        times, failures = compare(args.workload, packages, args.problems,
                                  seed)
        this, other = times["this"], times["other"]
        faster = sum(a < b for a, b in zip(this, other))
        lower += sum(this) < sum(other)
        failed += sum(failures.values())
        print(f"seed {seed}: {len(this)} problems, total this "
              f"{sum(this):.4f} s, other {sum(other):.4f} s; this/other: "
              f"total {sum(this) / sum(other):.3f}, p50 "
              f"{statistics.median(this) / statistics.median(other):.3f}; "
              f"this faster on {faster}; failed checks this "
              f"{failures['this']}, other {failures['other']}")
    print(f"this tree's total was lower on {lower} of {len(seeds)} seeds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
