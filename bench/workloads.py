"""The benchmark's workloads: problem generation, the timed call into
``dualform`` and the untimed result checks.

A workload hands out problems by index.  ``spec(k)`` builds the inputs of
problem k from the run seed alone (see gen.py); ``run(spec)`` is the timed
region and rebuilds every ``MetricSpace``/``Matrix`` from plain rows;
``check(spec, out)`` compares the output with what the construction
guarantees and tallies each check by name in ``self.checks``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import Counter

import gen


class Workload:
    name = None
    batch = 1  # problems generated during set-up

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.checks = Counter()
        self.failures = Counter()
        self.df = None
        self.fields = {}

    def bind(self, df):
        """Attach a freshly imported ``dualform`` package."""
        self.df = df
        self.fields = {p: df.make_field("rational") if p == 0
                       else df.make_field("prime", p) for p in self.primes}

    def rng(self, key):
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def expect(self, name, ok):
        self.checks[name] += 1
        if not ok:
            self.failures[name] += 1
        return ok

    def space(self, inst):
        F = self.fields[inst.p]
        return self.df.MetricSpace(
            F, inst.n, inst.s_basis,
            self.df.QuadraticForm(F, inst.diag, inst.upper))

    def inputs(self, spec):
        """The generated inputs of a problem as plain data, for the run's
        input digest."""
        inst = spec[0]
        return [inst.p, inst.n, inst.s_basis, inst.diag, inst.upper,
                spec[1:]]


def linked_pairs(rng, inst, count):
    """(y, a*) with a* = B(x, .) on S for x = ambient(y)."""
    out = []
    for _ in range(count):
        y = inst.rand_coords(rng)
        out.append((y, inst.linked_form(rng, y)))
    return out


# ----------------------------------------------------------- shared checks

def dual_ok(wl, inst, pairs, dual_rows, diag, upper):
    """dim S^ = n - d and Q^(a*) = Q(x) for each linked pair."""
    p = inst.p
    ok = wl.expect("dual_dim", len(dual_rows) == inst.n - inst.d)
    for y, a_star in pairs:
        coords = gen.solve_rows(p, dual_rows, a_star)
        value = None if coords is None else \
            gen.form_value(p, diag, upper, coords)
        ok &= wl.expect("dual_identity", value == inst.q0(y))
    return ok


def linked_coset_ok(wl, inst, y, rep, radical_dim):
    """The representative differs from x by a radical vector."""
    x = inst.ambient(y)
    diff = inst.structured([gen.red(inst.p, a - b) for a, b in zip(rep, x)])
    ok = wl.expect("linked_coset", not any(diff[inst.d:]))
    return ok & wl.expect("radical_dim", radical_dim == inst.d)


def linked_form_ok(wl, inst, y, rep):
    """The representative agrees with B(x, .) on S."""
    p, m = inst.p, inst.m
    on_basis = gen.vecmat(p, rep, inst.a)[:m]
    unit = lambda k: [gen.red(p, int(i == k)) for i in range(m)]
    return wl.expect("linked_forms",
                     on_basis == [inst.b0(y, unit(k)) for k in range(m)])


def normal_form_ok(wl, inst, diag, upper):
    """Diagonal with exactly d zeros, or the char-2 minor-diagonal layout."""
    d, m = inst.d, inst.m
    if inst.p == 2:
        want = {(d + i, m - 1 - i): 1 for i in range(inst.t // 2)}
        ok = upper == want and not any(diag[:d])
    else:
        ok = not upper and sum(1 for x in diag if not x) == d
    return wl.expect("normal_form", ok)


def similarity_ok(wl, truth, preserves, primal, dual):
    return wl.expect("similarity",
                     preserves and primal == truth and dual == truth)


def involution_ok(wl, p, psi, s):
    n = len(psi)
    ok = gen.matmul(p, psi, psi) == gen.identity(p, n)
    ok &= gen.matvec(p, psi, s) == [gen.red(p, -x) for x in s]
    return wl.expect("reflection", ok)


def rows_of(M):
    return [list(M.row(i)) for i in range(M.rows)]


# ------------------------------------------------------------- workloads

class DualWorkload(Workload):
    """One ``dualize`` per problem; sizes cycle through ``classes``."""

    def __init__(self, seed, root, name, classes):
        super().__init__(seed, root)
        self.name = name
        self.classes = classes
        self.primes = sorted({p for p, _ in classes})

    def spec(self, k):
        rng = self.rng(k)
        # Warm-up problems (k < 0) come from the first, smallest class.
        p, n = self.classes[max(k, 0) % len(self.classes)]
        m, d = 3 * n // 4, math.ceil(n / 8)
        if p == 2 and (m - d) % 2:
            d += 1
        inst = gen.Instance(rng, p, n, m, d)
        return inst, linked_pairs(rng, inst, 2)

    def run(self, spec):
        return self.df.dualize(self.space(spec[0]))

    def check(self, spec, res):
        inst, pairs = spec
        dual = res.dual
        return dual_ok(self, inst, pairs, [list(r) for r in dual.s_basis],
                       list(dual.form.diag), dict(dual.form.upper))

    def sizes(self):
        return {"classes": [[p, n, 3 * n // 4] for p, n in self.classes]}


class SweepWorkload(Workload):
    """Many small instances, each put through the paper's identities."""

    name = "sweep-small"
    primes = (0, 2, 3, 5)
    batch = 16

    def __init__(self, seed, root):
        super().__init__(seed, root)
        # A fixed cycle of 40 shapes (field, n, dim S, radical dim): the
        # fields alternate, n runs 4, 6, 8, 5, 7, and dim S and the radical
        # are drawn once.  Every run then has the same mix, and only the
        # entries depend on the seed; a random mix would make the ℚ
        # problems with large dim S, which cost ten times the others, set
        # the throughput.
        rng = random.Random("sweep-small shapes")
        self.shapes = []
        for j in range(40):
            p, n = self.primes[j % 4], 4 + (j // 4 * 2) % 5
            m = rng.randint(2, n)
            t = rng.randrange(2, m + 1, 2) if p == 2 else rng.randint(1, m)
            self.shapes.append((p, n, m, m - t))

    def spec(self, k):
        rng = self.rng(k)
        # Warm-up problems (k < 0) share the shape of problem 0.
        p, n, m, d = self.shapes[max(k, 0) % len(self.shapes)]
        inst = gen.Instance(rng, p, n, m, d)
        sims = [inst.similarity(rng), inst.similarity(rng, perturb=True)]
        s = inst.ambient(inst.rand_coords(rng, anisotropic=True))
        ((y, a_star),) = linked_pairs(rng, inst, 1)
        return inst, sims, s, y, a_star, inst.ambient(y)

    def run(self, spec):
        df = self.df
        inst, sims, s, _, a_star, x = spec
        F = self.fields[inst.p]
        ms = self.space(inst)
        normal = df.char2_normal_form if inst.p == 2 else df.diagonalize
        return (df.double_dual_check(ms), normal(ms),
                [df.theorem_psi_check(ms, df.LinearMap(df.Matrix(F, P)), c)
                 for P, c, _ in sims],
                df.reflection(ms, s)[1],
                df.linked_coset(ms, a_star),
                df.linked_forms(ms, x))

    def check(self, spec, out):
        inst, sims, s, y = spec[:4]
        double, normal, reports, psi, coset, forms = out
        ok = self.expect("double_dual", double is True)
        form = normal.normalized.form
        ok &= normal_form_ok(self, inst, list(form.diag), dict(form.upper))
        for (_, _, truth), rep in zip(sims, reports):
            ok &= similarity_ok(self, truth, rep.preserves_s, rep.primal_ok,
                                rep.dual_ok)
        ok &= involution_ok(self, inst.p, rows_of(psi.matrix), s)
        ok &= linked_coset_ok(self, inst, y, list(coset.representative),
                              coset.radical.dim)
        return ok & linked_form_ok(self, inst, y, list(forms.representative))

    def sizes(self):
        return {"n": [4, 8], "fields": list(self.primes)}


# -------------------------------------------------------------------- cli

CLI_CYCLE = ("radical", "radical", "check-condition", "check-condition",
             "dualize", "dualize", "dualize-half", "double-dual",
             "double-dual", "linked", "linked", "linked-forms",
             "linked-forms", "normalize", "normalize-half", "similarity",
             "similarity", "adjugate", "adjugate", "malformed", "violated")
MALFORMED = ("json", "missing-key", "row-length", "bad-scalar", "index",
             "half-gram-char2", "dependent", "singular-map", "not-square")
VIOLATED = ("dualize", "double-dual", "normalize", "similarity")
BLOCK = 4 * len(CLI_CYCLE)  # pool entries with the same shapes recur
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")


def problem_doc(inst):
    doc = {"field": {"kind": "rational"} if inst.p == 0
           else {"kind": "prime", "p": inst.p},
           "n": inst.n,
           "S": [[gen.fmt(x) for x in row] for row in inst.s_basis],
           "Q": {"diag": [gen.fmt(x) for x in inst.diag],
                 "upper": [[i, j, gen.fmt(v)]
                           for (i, j), v in sorted(inst.upper.items())]}}
    return doc


def stdout_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class CliWorkload(Workload):
    """In-process ``dualform.cli.main`` over a fixed pool of problem files.

    The pool is independent of the run seed so that the stdout digest of
    every pool entry can be recorded once (cli_golden.json) and compared
    byte for byte; the seed picks the order in which a run visits its
    blocks.  Shapes (command, field, sizes, expected exit) repeat every
    BLOCK entries and a run visits whole blocks, so every run times the
    same mix: per-problem times span three orders of magnitude, and a
    random mix would move the throughput more than the host does.
    """

    name = "cli"
    primes = (0, 2, 3)
    batch = 16

    def __init__(self, seed, root, golden=None):
        super().__init__(seed, root)
        if golden is None:
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
        self.golden = golden
        blocks = list(range(golden["pool"] // BLOCK))
        random.Random(f"cli:{seed}").shuffle(blocks)
        # Within a block the order is fixed, so the set-up batch (the first
        # entries) has the same shapes in every run.
        self.order = [b * BLOCK + j for b in blocks for j in range(BLOCK)]
        self.dir = os.path.join(root, ".bench_out", "cli")
        os.makedirs(self.dir, exist_ok=True)

    def spec(self, k):
        if k >= len(self.order):
            return None  # pool exhausted
        if k < 0:
            # Warm-up: one fixed shape (a dualize) from the blocks this run
            # visits last, which it reaches only if it exhausts the pool.
            return self.pool_spec(self.order[k * BLOCK] // BLOCK * BLOCK + 4)
        return self.pool_spec(self.order[k])

    def pool_spec(self, i):
        """Problem i of the pool: argv, expected exit code and what its
        output must satisfy; writes the input files."""
        rng = random.Random(f"cli-pool:{i}")
        shape = random.Random(f"cli-shape:{i % BLOCK}")
        self.written = []
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        variant = MALFORMED[(i // len(CLI_CYCLE)) % len(MALFORMED)]
        path = os.path.join(self.dir, f"p{i}.json")
        if kind == "adjugate" or (kind == "malformed"
                                  and variant == "not-square"):
            return self._adjugate_spec(rng, shape, i, kind, path)
        if kind in ("dualize-half", "normalize-half"):
            p = shape.choice((0, 3))
        elif kind == "violated" or (kind == "malformed"
                                    and variant == "half-gram-char2"):
            p = 2
        else:
            p = shape.choice(self.primes)
        n = shape.randint(5, 10)
        m = shape.randint(3, n)
        violate = kind == "violated" or (kind == "check-condition" and p == 2
                                         and shape.random() < 0.5)
        if p == 2:  # a violated condition needs a radical: t < m
            t = shape.randrange(2, m if violate else m + 1, 2)
        else:
            t = shape.randint(1, m)
        inst = gen.Instance(rng, p, n, m, m - t, violate=violate)
        doc = problem_doc(inst)
        cmd = kind.replace("-half", "")
        extra = ["--half-gram"] if kind.endswith("-half") else []
        spec = {"index": i, "kind": kind, "inst": inst, "exit": 0}
        if kind == "violated":
            cmd = VIOLATED[(i // len(CLI_CYCLE)) % len(VIOLATED)]
            spec["exit"] = 2
        if cmd == "linked" or cmd == "linked-forms":
            ((y, a_star),) = linked_pairs(rng, inst, 1)
            spec["y"] = y
            flag, vec = (("--form", a_star) if cmd == "linked"
                         else ("--vector", inst.ambient(y)))
            # "--form=-1,..." keeps argparse from reading "-1" as a flag
            extra = [flag + "=" + ",".join(gen.fmt(x) for x in vec)]
        if cmd == "dualize":
            spec["pairs"] = linked_pairs(rng, inst, 2)
        if cmd == "similarity":
            P, c, truth = inst.similarity(rng,
                                          perturb=shape.random() < 0.5)
            spec["truth"] = truth
            extra = self._map_args(i, P, c)
        text = json.dumps(doc)
        if kind == "malformed":
            spec["exit"] = 1
            cmd, text, extra = self._malformed(rng, variant, i, doc, inst)
        self._write(path, text)
        spec["argv"] = [cmd, path] + extra
        spec["inputs"] = [cmd] + self.written + [
            a for a in extra if not a.startswith(self.dir)]
        return spec

    def _write(self, path, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.written.append(text)

    def _map_args(self, i, P, c):
        mpath = os.path.join(self.dir, f"p{i}.map.json")
        self._write(mpath, json.dumps(
            {"P": [[gen.fmt(x) for x in row] for row in P]}))
        return ["--map", mpath, "--ratio", gen.fmt(c)]

    def _malformed(self, rng, variant, i, doc, inst):
        """(command, file text, extra argv) for an input that must exit 1."""
        cmd, extra = "radical", []
        if variant == "json":
            return cmd, json.dumps(doc)[:-7], extra
        if variant == "missing-key":
            del doc["Q"]
            cmd = "check-condition"
        elif variant == "row-length":
            doc["S"][rng.randrange(inst.m)].append("1")
            cmd = "dualize"
        elif variant == "bad-scalar":
            doc["Q"]["diag"][rng.randrange(inst.m)] = "x1"
        elif variant == "index":
            doc["Q"]["upper"].append([0, inst.m, "1"])
            cmd = "double-dual"
        elif variant == "half-gram-char2":
            cmd, extra = "dualize", ["--half-gram"]
        elif variant == "dependent":
            doc["S"][-1] = list(doc["S"][0])
            cmd = "normalize"
        elif variant == "singular-map":
            P = [[gen.red(inst.p, 0)] * inst.n for _ in range(inst.n)]
            cmd, extra = "similarity", self._map_args(i, P, 1)
        return cmd, json.dumps(doc), extra

    def _adjugate_spec(self, rng, shape, i, kind, path):
        p = shape.choice(self.primes)
        n = shape.randint(6, 12)
        singular = (i // len(CLI_CYCLE)) % 4 == 0  # a quarter
        M = gen.matrix_with_rank(rng, p, n,
                                 shape.choice((1, 2)) if singular else 0)
        rows = [[gen.fmt(x) for x in row] for row in M]
        exit_code = 0
        if kind == "malformed":
            rows[-1].pop()
            exit_code = 1
        field = {"kind": "rational"} if p == 0 else {"kind": "prime", "p": p}
        self._write(path, json.dumps({"field": field, "M": rows}))
        return {"index": i, "kind": kind, "exit": exit_code, "p": p, "M": M,
                "singular": singular, "argv": ["adjugate", path],
                "inputs": ["adjugate"] + self.written}

    def inputs(self, spec):
        return spec["inputs"]

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.df.cli.main(spec["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, spec, out):
        code, stdout = out
        ok = self.expect("cli_exit", code == spec["exit"])
        if spec["exit"] or not ok:
            return ok
        want = self.golden["digests"][spec["index"]]
        ok &= self.expect("cli_digest", stdout_digest(stdout) == want)
        try:
            doc = json.loads(stdout)
        except ValueError:
            return self.expect("cli_semantics", False)
        return ok & self.semantics(spec, doc)

    def semantics(self, spec, doc):
        kind = spec["kind"].replace("-half", "")
        if kind == "adjugate":
            return self._adjugate_ok(spec, doc)
        inst = spec["inst"]
        p = inst.p
        vec = lambda xs: [gen.parse(p, x) for x in xs]
        if kind == "radical":
            return self.expect("radical_dim", doc["dimension"] == inst.d)
        if kind == "check-condition":
            return self.expect("condition",
                               doc["condition"] == inst.condition)
        if kind == "double-dual":
            return self.expect("double_dual",
                               doc["double_dual_equals_original"] is True)
        if kind == "linked":
            return linked_coset_ok(self, inst, spec["y"],
                                   vec(doc["representative"]),
                                   len(doc["radical_basis"]))
        if kind == "linked-forms":
            return linked_form_ok(self, inst, spec["y"],
                                  vec(doc["representative"]))
        if kind == "similarity":
            return similarity_ok(self, spec["truth"], doc["preserves_S"],
                                 doc["primal_ok"], doc["dual_ok"])
        key = "dual_coefficients" if kind == "dualize" else "coefficients"
        diag = vec(doc[key]["diag"])
        upper = {(i, j): gen.parse(p, v) for i, j, v in doc[key]["upper"]}
        upper = {k: v for k, v in upper.items() if v}
        if kind == "dualize":
            return dual_ok(self, inst, spec["pairs"],
                           [vec(r) for r in doc["dual_basis"]], diag, upper)
        return normal_form_ok(self, inst, diag, upper)

    def _adjugate_ok(self, spec, doc):
        p, M = spec["p"], spec["M"]
        d = gen.parse(p, doc["det"])
        adj = [[gen.parse(p, x) for x in row] for row in doc["adjugate"]]
        n = len(M)
        scaled = [[d if i == j else gen.red(p, 0) for j in range(n)]
                  for i in range(n)]
        ok = gen.matmul(p, adj, M) == scaled
        return self.expect("adjugate", ok and (d == 0) == spec["singular"])

    def sizes(self):
        return {"n": [5, 10], "adjugate_n": [6, 12], "fields": [0, 2, 3],
                "pool": self.golden["pool"]}


WORKLOADS = {
    "sweep-small": SweepWorkload,
    "dual-q": lambda seed, root: DualWorkload(
        seed, root, "dual-q", ((0, 12), (0, 16), (0, 16))),
    "dual-gfp": lambda seed, root: DualWorkload(
        seed, root, "dual-gfp",
        tuple((p, n) for p in (2, 3, gen.WORD_PRIME) for n in (24, 24, 32))),
    "cli": CliWorkload,
}
