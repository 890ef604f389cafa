"""Time one benchmark workload on two source trees, interleaved.

    python3 tools/ab_compare.py WORKLOAD OTHER_ROOT [--problems N] [--seed S]

Run from anywhere.  This checkout's src/dualform and OTHER_ROOT's are
imported side by side in one process, as the packages dualform_this and
dualform_other.  The problems come from bench/workloads.py, generated
once and handed to both trees; each tree runs every problem, the order
alternating from one problem to the next, and the workload's own check
judges every result.  A shared host drifts in speed by tens of per cent
within a minute, so timings of two trees taken one after the other can
mislead; interleaved per problem, both see the same moments of host speed.

Prints each tree's total and median (p50) time, the ratios this/other and
on how many problems this tree was the faster.  Exits 1 if a check fails
on either tree.

A tree compared with itself reads off 1 by several per cent.  Over 200
problems at seed 71, sweep-small read total 0.998, p50 0.985 and faster
on 92; dual-gfp 1.001, 1.012 and faster on 103.  At seed 52 dual-gfp
read 1.056 and 1.041, cli 1.005 and 1.043.  So one run within 6 per cent
of 1, or faster on between about 40 and 55 per cent of the problems, is
no evidence of a difference: repeat the run with several seeds.
"""

import argparse
import gc
import importlib
import importlib.util
import os
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("other_root")
    ap.add_argument("--problems", type=int, default=60)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.problems < 1:
        ap.error("--problems must be at least 1")
    roots = {"this": ROOT, "other": os.path.abspath(args.other_root)}
    times = {name: [] for name in roots}
    with tempfile.TemporaryDirectory() as tmp:
        wls = {}
        for name, root in roots.items():
            wls[name] = workloads.WORKLOADS[args.workload](args.seed, tmp)
            wls[name].bind(load(root, "dualform_" + name))
        warm = wls["this"].spec(-1)
        for wl in wls.values():
            wl.check(warm, wl.run(warm))
        gc.collect()
        for k in range(args.problems):
            spec = wls["this"].spec(k)
            if spec is None:
                break  # a finite pool is exhausted
            for name in (("this", "other") if k % 2 else ("other", "this")):
                t0 = time.perf_counter()
                out = wls[name].run(spec)
                times[name].append(time.perf_counter() - t0)
                wls[name].check(spec, out)
    count = len(times["this"])
    print(f"{args.workload}, seed {args.seed}, {count} problems, order "
          "alternated per problem")
    for name, root in roots.items():
        print(f"{name:5} {root}: total {sum(times[name]):.4f} s, p50 "
              f"{1e3 * statistics.median(times[name]):.3f} ms, failed "
              f"checks {sum(wls[name].failures.values())}")
    this, other = times["this"], times["other"]
    faster = sum(a < b for a, b in zip(this, other))
    print(f"this/other: total {sum(this) / sum(other):.3f}, p50 "
          f"{statistics.median(this) / statistics.median(other):.3f}; "
          f"this faster on {faster} of {count}")
    return 1 if any(wl.failures for wl in wls.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
