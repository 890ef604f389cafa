"""Check the result line of a benchmark run, strictly.

    python3 bench/run.py --workload W --seed 1 --seconds 2 --trace 0 \\
        | python3 tools/check_result.py end_to_end

Reads a run's stdout on stdin.  Its last line must be one JSON object,
parsed with NaN and Infinity refused, whose ``correct`` is true, whose
metric names are exactly the names of BENCHMARK.json's ``end_to_end`` or
``per_layer`` list (the argument: use per_layer for a ``--trace 1`` run)
and whose every value is a finite number.  Prints each way the line falls
short and exits 1, or exits 0 silently.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("end_to_end", "per_layer")


def _refuse(constant):
    raise ValueError(f"{constant} is not a finite number")


def expected_names(kind):
    """The metric names of BENCHMARK.json's list kind, sorted."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return sorted(m["name"] for m in json.load(fh)[kind])


def problems(stdout, kind):
    """What is wrong with the result line of a run's stdout for the
    metric list kind, as a list of messages; empty when nothing is."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return [f"last line is not a result: {exc}"]
    if not isinstance(result, dict) or not isinstance(
            result.get("metrics"), dict):
        return ["last line has no metrics object"]
    out = []
    if result.get("correct") is not True:
        out.append(f"correct is {result.get('correct')!r}")
    metrics = result["metrics"]
    names, want = sorted(metrics), expected_names(kind)
    if names != want:
        out.append(f"missing {sorted(set(want) - set(names))}, "
                   f"unexpected {sorted(set(names) - set(want))}")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if type(value) not in (int, float) or not math.isfinite(value):
            out.append(f"{name} = {value!r} is not a finite number")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in KINDS:
        print(f"usage: check_result.py {{{','.join(KINDS)}}} < run-output",
              file=sys.stderr)
        return 2
    found = problems(sys.stdin.read(), argv[0])
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
