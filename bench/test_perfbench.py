"""Tests of the benchmark's own machinery: tracer, generator and checks."""

import os
import random
import sys
import types

import pytest

import gen
import run
import tracer
import workloads

sys.path.insert(0, run.SRC)
import dualform  # noqa: E402
import dualform.cli  # noqa: E402,F401


def test_self_time_is_span_minus_child_spans():
    mod = types.ModuleType("fake")
    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + 1
    # outer starts, inner starts, inner ends, outer ends
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    targets = {"fake.outer": ("fake", "outer"),
               "fake.inner": ("fake", "inner"),
               "fake.gone": ("fake", "removed_by_a_refactor")}
    tr = tracer.Tracer({"fake": mod}, targets, clock=lambda: next(ticks))
    with tr.installed(tr.spans):
        assert mod.outer() == 2
    assert mod.outer.__name__ == "<lambda>"  # unpatched again
    s = tr.summary(tr.mark())
    assert s["calls"] == {"fake.outer": 1, "fake.inner": 1}
    assert s["self_s"]["fake.outer"] == 7.0
    assert s["self_s"]["fake.inner"] == 3.0
    assert tr.metric_names() == ["fake.outer", "fake.inner"]


def test_rebinding_reaches_calls_made_inside_dual():
    rng = random.Random(5)
    inst = gen.Instance(rng, 0, 6, 4, 1)
    F = dualform.make_field("rational")
    ms = dualform.MetricSpace(F, 6, inst.s_basis,
                              dualform.QuadraticForm(F, inst.diag,
                                                     inst.upper))
    tr = tracer.Tracer(run.dualform_modules())
    original = dualform.dual.invert_matrix
    with tr.installed(tr.spans):
        assert dualform.dual.invert_matrix is not original
        dualform.dualize(ms)
    assert dualform.dual.invert_matrix is original
    name = {i: n for i, n in enumerate(tr.names)}
    parents = {name[tr.span_name[tr.span_parent[i]]]
               for i in range(len(tr.span_name))
               if name[tr.span_name[i]] == "linalg.invert_matrix"}
    # adapted_basis calls invert_matrix through dual.py's own binding
    assert "dual.adapted_basis" in parents
    with tr.installed(tr.counters):
        dualform.dualize(ms)
    assert tr.counts["fields.arith"] > 0 and tr.counts["fields.inv"] > 0


def _sympy_rank(p, rows):
    matrices = pytest.importorskip("sympy.polys.matrices")
    sympy = pytest.importorskip("sympy")
    dom = sympy.QQ if p == 0 else sympy.GF(p)
    conv = (lambda x: dom(x.numerator, x.denominator)) if p == 0 else \
        (lambda x: dom(int(x)))
    cells = [[conv(x) for x in row] for row in rows]
    return matrices.DomainMatrix(cells, (len(rows), len(rows[0])),
                                 dom).rank()


@pytest.mark.parametrize("p", [0, 2, 3, 5, gen.WORD_PRIME])
def test_generator_structure_agrees_with_sympy(p):
    rng = random.Random(p)
    for _ in range(4):
        n = rng.randint(4, 10)
        m = rng.randint(2, n)
        t = rng.randrange(2, m + 1, 2) if p == 2 else rng.randint(1, m)
        inst = gen.Instance(rng, p, n, m, m - t)
        assert _sympy_rank(p, inst.s_basis) == m
        gram = gen.polar_gram(p, inst.diag, inst.upper)
        assert m - _sympy_rank(p, gram) == inst.d
        assert gen.matmul(p, inst.a, inst.a_inv) == gen.identity(p, n)
        deficiency = rng.choice((0, 1, 2))
        M = gen.matrix_with_rank(rng, p, n, deficiency)
        assert _sympy_rank(p, M) == n - deficiency


def test_one_byte_change_to_cli_stdout_is_a_failure(tmp_path):
    wl = workloads.CliWorkload(0, str(tmp_path))
    wl.bind(dualform)
    spec = wl.pool_spec(4)  # a dualize problem
    assert spec["exit"] == 0
    code, stdout = wl.run(spec)
    assert wl.check(spec, (code, stdout))
    k = len(stdout) // 2
    flipped = stdout[:k] + chr(ord(stdout[k]) ^ 1) + stdout[k + 1:]
    assert not wl.check(spec, (code, flipped))
    assert wl.failures["cli_digest"] == 1


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(str(tmp_path), "src"))
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) \
        != 0
    assert capsys.readouterr().out == ""
