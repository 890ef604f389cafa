"""Replay every CLI pool problem recorded in bench/cli_golden.json.

    python3 tools/check_golden.py

Run from anywhere; it imports dualform from the checkout's src/.  Each
pool problem is generated, run in-process through dualform.cli.main and
checked the way a benchmark run checks it (bench/workloads.CliWorkload):
its exit code, and for a problem that must succeed its stdout digest and
the meaning of its result.  The input files go to a temporary directory.
Exits 1 if any problem mismatches, naming the first ones, else 0.
"""

import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import run  # noqa: E402  (bench modules)
import workloads  # noqa: E402


def main():
    df, _ = run.import_dualform()
    t0 = time.perf_counter()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.CliWorkload(0, tmp)
        wl.bind(df)
        pool = wl.golden["pool"]
        for i in range(pool):
            spec = wl.pool_spec(i)
            if not wl.check(spec, wl.run(spec)):
                bad.append(i)
                if len(bad) <= 10:
                    print(f"problem {i} ({spec['argv'][0]}) mismatches",
                          file=sys.stderr)
    print(f"{pool} problems in {time.perf_counter() - t0:.1f} s, "
          f"{len(bad)} mismatched; checks {dict(wl.checks)}, "
          f"failures {dict(wl.failures)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
