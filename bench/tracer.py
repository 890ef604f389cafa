"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files only: nothing under
``src/`` knows about them.  A module-level function is rebound in every
``dualform.*`` namespace that holds it (``from .linalg import rref`` binds
by name, so patching ``linalg.rref`` alone would miss calls made from
``dual.py``); methods and constructors are wrapped on their classes.

Each wrapped call records a span (name, parent, start, end) in flat arrays.
Self time, computed when the run ends, is a span's duration minus the
durations of its child spans.  Field arithmetic is only counted, and by a
separate set of wrappers (``counters``): a counting wrapper costs about as
much as a GF(p) operation, so installing it with the spans would inflate
the self time of every function doing arithmetic.
"""

import contextlib
import time
from array import array
from collections import Counter
from fractions import Fraction

# metric prefix -> (module, attribute path); "__init__" times construction.
TARGETS = {
    "linalg.Matrix": ("linalg", "Matrix.__init__"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.kernel": ("linalg", "kernel"),
    "linalg.solve": ("linalg", "solve"),
    "linalg.det": ("linalg", "det"),
    "linalg.invert_matrix": ("linalg", "invert_matrix"),
    "linalg.adjugate": ("linalg", "adjugate"),
    "linalg.complete_to_ambient": ("linalg", "complete_to_ambient"),
    "linalg.extend_basis": ("linalg", "extend_basis"),
    "linalg.Subspace.from_rows": ("linalg", "Subspace.from_rows"),
    "quadform.MetricSpace": ("quadform", "MetricSpace.__init__"),
    "quadform.coords_of": ("quadform", "MetricSpace.coords_of"),
    "quadform.eval_q": ("quadform", "MetricSpace.eval_q"),
    "quadform.eval_b": ("quadform", "MetricSpace.eval_b"),
    "quadform.polar_gram": ("quadform", "MetricSpace.polar_gram"),
    "quadform.radical": ("quadform", "MetricSpace.radical"),
    "quadform.radical_condition_holds":
        ("quadform", "MetricSpace.radical_condition_holds"),
    "quadform.change_of_basis": ("quadform", "MetricSpace.change_of_basis"),
    "dual.adapted_basis": ("dual", "adapted_basis"),
    "dual.dualize": ("dual", "dualize"),
    "dual.double_dual_check": ("dual", "double_dual_check"),
    "dual.linked_coset": ("dual", "linked_coset"),
    "dual.linked_forms": ("dual", "linked_forms"),
    "dual.b_linked": ("dual", "b_linked"),
    "normal.diagonalize": ("normal", "diagonalize"),
    "normal.char2_normal_form": ("normal", "char2_normal_form"),
    "similarity.LinearMap": ("similarity", "LinearMap.__init__"),
    "similarity.verify_similarity": ("similarity", "verify_similarity"),
    "similarity.theorem_psi_check": ("similarity", "theorem_psi_check"),
    "similarity.reflection": ("similarity", "reflection"),
    "cli.parse_problem": ("cli", "parse_problem"),
    "cli.main": ("cli", "main"),
}
# counter -> methods of the field classes it counts
FIELD_COUNTERS = {
    "fields.arith": ("add", "sub", "mul"),
    "fields.inv": ("inv",),
    "fields.scalar": ("scalar",),
}
HOOK = "trace.hook"  # span around the tracer's own rref bookkeeping


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


class Tracer:
    """Collects spans for the targets that exist in ``modules``.

    ``modules`` maps short module names ("linalg", ...) to the imported
    module objects; ``targets`` defaults to TARGETS; ``clock`` is the time
    source (a test substitutes a fake one).
    """

    def __init__(self, modules, targets=TARGETS, clock=time.perf_counter):
        self.clock = clock
        self.names = []          # span-name id -> name
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = Counter()
        self.rref_ops = 0
        self.rref_bits = 0
        self.spans = []          # (owner, attribute, original, wrapper)
        self.counters = []
        hook_id = self._name_id(HOOK)
        for metric, (mod, path) in targets.items():
            owner, attr, raw = _resolve(modules.get(mod), path)
            if raw is None:
                continue  # gone after a refactor: reports no value
            hook = self._rref_hook(hook_id) if metric == "linalg.rref" \
                else None
            self._patch(self.spans, owner, attr, raw, self._span_wrapper(
                self._name_id(metric), raw, hook), modules)
        fields_mod = modules.get("fields")
        base = getattr(fields_mod, "Field", None)
        for cls in list(vars(fields_mod).values()) if fields_mod else ():
            if not (isinstance(cls, type) and base and issubclass(cls, base)):
                continue
            for counter, methods in FIELD_COUNTERS.items():
                for meth in methods:
                    if meth in vars(cls):
                        raw = vars(cls)[meth]
                        self._patch(self.counters, cls, meth, raw,
                                    self._count_wrapper(counter, raw), {})

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    @staticmethod
    def _patch(patches, owner, attr, raw, wrapper, modules):
        """Rebind ``raw`` on its owner and, for module-level functions,
        in every module namespace that imported it by name."""
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            patches.append((owner, attr, raw, wrapper))
            return
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    patches.append((mod, name, raw, wrapper))

    def _span_wrapper(self, sid, raw, hook):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self.stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _rref_hook(self, hook_id):
        """Shape-based op estimate and entry bit length of rref outputs,
        recorded as a span of its own so no caller's self time includes
        it."""

        def hook(args, out):
            self.span_name.append(hook_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_start.append(self.clock())
            M = args[0]
            self.rref_ops += M.rows * M.cols * min(M.rows, M.cols)
            # (R, T, pivots) today; read defensively so that a new result
            # type costs this metric, not the run.
            parts = out[:2] if isinstance(out, tuple) else ()
            for part in parts:
                for row in getattr(part, "data", ()):
                    for x in row:
                        b = _bits(x)
                        if b > self.rref_bits:
                            self.rref_bits = b
            self.span_end.append(self.clock())

        return hook

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self, patches):
        """Wrappers in place for the body: ``self.spans`` or
        ``self.counters``."""
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, raw, _ in reversed(patches):
                setattr(owner, attr, raw)

    def mark(self):
        """Snapshot taken between problems: (spans so far, counters)."""
        return len(self.span_name), Counter(self.counts), self.rref_ops, \
            self.rref_bits

    def summary(self, mark):
        """Per-name calls and self seconds over the spans before ``mark``,
        plus the field counters and rref extras at that point."""
        limit, counts, ops, bits = mark
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start[:limit],
                                     self.span_end[:limit])]
        child = [0.0] * limit
        for i in range(limit):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = Counter()
        self_s = Counter()
        for i in range(limit):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return {"calls": calls, "self_s": self_s, "counts": counts,
                "rref_ops": ops, "rref_bits": bits}

    def metric_names(self):
        return [n for n in self.names if n != HOOK]


def _resolve(module, path):
    """(owner, attribute, raw value) for "func" or "Class.method"; raw is
    None when the module, class or attribute no longer exists."""
    if module is None:
        return None, None, None
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            return None, None, None
    return owner, parts[-1], vars(owner).get(parts[-1])
