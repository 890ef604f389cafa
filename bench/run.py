"""Benchmark of dualform: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the run record (versions, seed, sizes, input digests,
check counts and the metrics not in the result line).  See README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402  (bench modules; none imports dualform)
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Problems whose per-layer counts are reported by a traced run: a fixed set
# per seed, so that counts repeat exactly.
TRACED_PROBLEMS = {"sweep-small": 40, "dual-q": 6, "dual-gfp": 9, "cli": 84}


def dualform_modules():
    """{short name: module} for the loaded dualform package."""
    return {("dualform" if n == "dualform" else n.split(".", 1)[1]): m
            for n, m in sys.modules.items()
            if n == "dualform" or n.startswith("dualform.")}


def import_dualform():
    """Import dualform afresh; returns the package and its modules."""
    for name in dualform_modules():
        del sys.modules[name if name == "dualform" else "dualform." + name]
    df = importlib.import_module("dualform")
    importlib.import_module("dualform.cli")
    return df, dualform_modules()


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.specs = {}
        self.digest = hashlib.sha256()
        self.attempted = self.failed = 0
        self.errors = []

    def spec(self, k):
        """Inputs of problem k, from the set-up batch when generated
        there; each problem's inputs feed the run's input digest."""
        spec = self.specs.pop(k) if k in self.specs else self.wl.spec(k)
        if spec is not None:
            gen.digest_update(self.digest, self.wl.inputs(spec))
        return spec

    def setup(self, rep):
        """Import, generate the first batch of inputs (writing CLI files)
        and solve one untimed warm-up problem; returns its duration."""
        t0 = time.perf_counter()
        df, modules = import_dualform()
        self.wl.bind(df)
        self.modules = modules
        self.specs = {k: self.wl.spec(k) for k in range(self.wl.batch)}
        warm = self.wl.spec(-1 - rep)  # negative keys: warm-up problems
        try:
            self.wl.check(warm, self.wl.run(warm))
        except Exception as exc:  # reported like a failed problem
            self.wl.expect("warmup", False)
            self.errors.append(f"warm-up {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0

    def timed(self, spec):
        """Run one problem; returns its wall time.  Checks run after the
        clock stops."""
        wl = self.wl
        t0 = time.perf_counter()
        try:
            out, err = wl.run(spec), None
        except Exception as exc:  # an unexpected failure of the program
            out, err = None, exc
        dt = time.perf_counter() - t0
        self.attempted += 1
        if err is not None:
            ok = wl.expect("no_exception", False)
            self.errors.append(f"{type(err).__name__}: {err}")
        else:
            ok = wl.check(spec, out)
        self.failed += not ok
        return dt


class Calibration:
    """Host-speed reference: a fixed stdlib kernel (exact elimination over
    Q and GF(p), the kind of work dualform does) timed in small units
    interleaved with the problems, so that it samples the same moments of
    host speed.  On a shared host the speed drifts by tens of per cent
    within a minute, and a problem's time and this kernel's time drift
    together; times divided by ``factor()`` are in seconds of a host on
    which one unit takes REF_UNIT_S."""

    SHARE = 0.2          # kernel time kept at this share of problem time
    REF_UNIT_S = 0.005

    def __init__(self):
        rng = random.Random("calibration")
        self.mats = [(p, [[gen.rand_scalar(rng, p) for _ in range(n)]
                          for _ in range(n)])
                     for p, n in ((0, 5), (gen.WORD_PRIME, 8), (3, 8))]
        self.times = []

    def unit(self):
        gc.disable()  # a collection would charge the program's heap here
        try:
            t0 = time.perf_counter()
            for p, a in self.mats:
                for row in a:
                    gen.solve_rows(p, a, row)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def keep_up(self, busy):
        while sum(self.times) < self.SHARE * busy or len(self.times) < 3:
            self.times.append(self.unit())

    def factor(self, around=None, width=6):
        """Over the whole run, or over the ``width`` units on each side of
        unit index ``around``."""
        times = self.times if around is None else \
            self.times[max(0, around - width):around + width]
        return sum(times) / len(times) / self.REF_UNIT_S

    def sample(self, units=3):
        """Factor from a few fresh units, for a short stretch of time."""
        return sum(self.unit() for _ in range(units)) / units \
            / self.REF_UNIT_S


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def end_to_end(runner, seconds, setups):
    """Each problem's time is divided by the host-speed factor of the
    calibration units around it; the record keeps the raw wall-clock
    values next to the scaled ones."""
    cal = Calibration()
    lat = []
    marks = []  # calibration units done before each problem
    busy = 0.0
    exhausted = False
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        spec = runner.spec(len(lat))
        if spec is None:
            exhausted = True
            break
        marks.append(len(cal.times))
        lat.append(runner.timed(spec))
        busy += lat[-1]
        cal.keep_up(busy)
    local = [x / cal.factor(around=m) for x, m in zip(lat, marks)]
    completed = len(lat) - runner.failed
    raw = {"problems_per_s": completed / busy,
           "latency_p50_ms": statistics.median(lat) * 1e3}
    scaled = {"problems_per_s": completed / sum(local),
              "latency_p50_ms": statistics.median(local) * 1e3,
              "setup_s": statistics.median(setups)}
    # p90 needs ten samples beyond it; the large-problem workloads have
    # too few per run, so it is reported only where it is measured.
    if len(lat) >= 100:
        raw["latency_p90_ms"] = percentile(lat, 0.9) * 1e3
        scaled["latency_p90_ms"] = percentile(local, 0.9) * 1e3
    metrics = {k: scaled[k] for k in UNITS if k in scaled}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {"samples": len(lat), "timed_wall_s": busy,
             "error_rate": runner.failed / max(1, runner.attempted),
             "pool_exhausted": exhausted, "host_factor": cal.factor(),
             "calibration_units": len(cal.times), "raw": raw}
    if "latency_p90_ms" in scaled:
        extra["latency_p90_ms"] = scaled["latency_p90_ms"]
    return metrics, extra


def traced(runner, seconds, count):
    """Run each problem untraced and traced (alternating which goes first)
    and once more, untimed, with the field counters; until ``count``
    problems are done and ``seconds`` have passed.  Layer metrics cover the
    first ``count`` problems."""
    tr = tracer.Tracer(runner.modules)
    plain = traced_s = 0.0
    mark = None
    marked_s = None
    begin = time.perf_counter()
    k = 0
    while k < count or time.perf_counter() - begin < seconds:
        spec = runner.spec(k)
        if spec is None:
            break
        for traced_now in ((False, True) if k % 2 else (True, False)):
            if traced_now:
                with tr.installed(tr.spans):
                    traced_s += runner.timed(spec)
            else:
                plain += runner.timed(spec)
        with tr.installed(tr.counters):
            runner.timed(spec)
        k += 1
        if k == count:
            mark, marked_s = tr.mark(), traced_s
    if mark is None:
        mark, marked_s = tr.mark(), traced_s
    done = min(k, count)
    s = tr.summary(mark)
    metrics = {}
    for name in tr.metric_names():
        metrics[f"{name}.calls"] = s["calls"][name]
        metrics[f"{name}.self_s"] = s["self_s"][name]
    for name in tracer.FIELD_COUNTERS:
        metrics[f"{name}.calls"] = s["counts"][name]
    if "linalg.rref" in tr.names:
        metrics["linalg.rref.ops_est"] = s["rref_ops"]
        metrics["linalg.rref.max_bits"] = s["rref_bits"]
        metrics["linalg.rref.per_problem"] = s["calls"]["linalg.rref"] / done
    if "quadform.radical" in tr.names and s["calls"]["dual.dualize"]:
        metrics["quadform.radical.per_dualize"] = \
            s["calls"]["quadform.radical"] / s["calls"]["dual.dualize"]
    metrics["trace.overhead_ratio"] = traced_s / plain
    linalg = sum(v for n, v in s["self_s"].items() if n.startswith("linalg."))
    extra = {"traced_problems": done, "pairs": k,
             "traced_wall_s": traced_s, "untraced_wall_s": plain,
             "linalg_self_share": linalg / marked_s}
    return metrics, extra


UNITS = {"setup_s": "s", "problems_per_s": "1/s", "latency_p50_ms": "ms",
         "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".max_bits"):
        return "bits"
    if name.endswith(".ops_est"):
        return "ops"
    if name.endswith("_ratio") or name.endswith(".per_dualize"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualform", "__init__.py")):
        print(f"error: no dualform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    runner = Runner(wl)
    runner.setup(0)
    # The first set-up also pays for starting up and compiling the sources;
    # later ones re-import from the bytecode cache, as a user's second run
    # would.  Each is scaled by the host speed sampled around it.
    raw_setups = [time.perf_counter() - T_START]
    cal = Calibration()
    factors = [cal.sample()]
    for r in range(1, SETUP_REPEATS):
        before = cal.sample()
        raw_setups.append(runner.setup(r))
        factors.append((before + cal.sample()) / 2)
    setups = [s / f for s, f in zip(raw_setups, factors)]
    warm_checks = sum(wl.checks.values())
    if args.trace:
        metrics, extra = traced(runner, args.seconds,
                                TRACED_PROBLEMS[args.workload])
    else:
        metrics, extra = end_to_end(runner, args.seconds, setups)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "sizes": wl.sizes(),
        "input_digest": runner.digest.hexdigest()[:16],
        "setup_runs_s": raw_setups, "setup_factors": factors,
        "warmup_checks": warm_checks,
        "checks": dict(wl.checks), "check_failures": dict(wl.failures),
        "errors": runner.errors[:5], **extra,
    }
    print(json.dumps({"record": record}))
    correct = runner.failed == 0 and not wl.failures and runner.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
