"""Record the stdout digest of every CLI pool problem into cli_golden.json.

    python3 bench/record_golden.py

Run once, at the commit whose CLI output is the reference; later commits
must reproduce it byte for byte.  Nothing is written unless every problem
exits with its expected code and passes its result checks.
"""

import json
import sys
import time

import run
import workloads


POOL = 97 * workloads.BLOCK


def main():
    sys.path.insert(0, run.SRC)
    df, _ = run.import_dualform()
    wl = workloads.CliWorkload(0, run.ROOT,
                               golden={"pool": POOL, "digests": None})
    wl.bind(df)
    digests = []
    t0 = time.perf_counter()
    for i in range(POOL):
        spec = wl.pool_spec(i)
        code, stdout = wl.run(spec)
        ok = wl.expect("cli_exit", code == spec["exit"])
        if ok and code == 0:
            ok = wl.semantics(spec, json.loads(stdout))
        if not ok:
            print(f"problem {i} ({spec['argv']}) failed", file=sys.stderr)
            return 1
        digests.append(workloads.stdout_digest(stdout) if code == 0 else "")
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"pool": POOL, "digests": digests}, fh, indent=0)
        fh.write("\n")
    print(f"{POOL} problems in {time.perf_counter() - t0:.1f} s; "
          f"checks {dict(wl.checks)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
