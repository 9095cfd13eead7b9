"""Per-layer instrumentation applied from outside the program.

The layers are the modules of ``aqslie``.  Modules import each other's
functions by name (``from .linalg import rank``), so instrumenting a function
means rebinding it in every ``aqslie`` namespace that holds it.  Two kinds of
instrumentation exist and are never active together:

* ``Tracer`` puts a span around every public function of every module except
  ``scalars`` (millions of scalar calls would swamp the timing).  Spans are
  recorded only while an operation is open, stay in memory, and are written
  out when the run ends.
* ``Counters`` is the count-only pass: it counts calls into the scalar layer
  (``s_add``, ``s_sub``, ``s_mul``, ``s_div``, ``s_inv``, ``s_sqrt``) made by
  other modules, the share of them with a square-root-tower (``Ext``)
  operand, and the size and largest bit-length of every matrix entering an
  exact elimination.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
import types
from collections import defaultdict
from fractions import Fraction

SCALAR_OPS = ("s_add", "s_sub", "s_mul", "s_div", "s_inv", "s_sqrt")
ELIMINATIONS = ("rref", "rank", "nullspace", "solve", "det", "inverse", "char_poly")


def aqslie_modules() -> dict:
    """Every loaded ``aqslie`` module, keyed by layer name ('' is the package)."""
    return {
        name.partition(".")[2]: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "aqslie" or name.startswith("aqslie."))
    }


def public_functions() -> dict:
    """{function: 'layer.name'} for each public module-level function."""
    found = {}
    for layer, mod in aqslie_modules().items():
        for attr, obj in vars(mod).items():
            if (
                layer
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[obj] = f"{layer}.{attr}"
    return found


@contextlib.contextmanager
def rebound(replacements: dict, skip_layers: tuple = ()):
    """Rebind each function in ``replacements`` in every aqslie namespace
    (except ``skip_layers``) that holds it; restore on exit."""
    undo = []
    for layer, mod in aqslie_modules().items():
        if layer in skip_layers:
            continue
        space = vars(mod)
        for attr, obj in list(space.items()):
            if isinstance(obj, types.FunctionType) and obj in replacements:
                undo.append((mod, attr, obj))
                setattr(mod, attr, replacements[obj])
    try:
        yield
    finally:
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)


def scalar_bits(x) -> int:
    """Largest numerator or denominator bit-length of an exact scalar."""
    if isinstance(x, bool):
        return 1
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    terms = getattr(x, "terms", None)  # square-root tower element
    if terms is not None:
        return max((scalar_bits(c) for c in terms.values()), default=0)
    return 0  # floats carry no exact size


def max_bits(values) -> int:
    return max((scalar_bits(x) for x in values), default=0)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """Span recorder; each span is [op, parent index, name, start, end]."""

    ROOT = "harness.op"

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([self.op, stack[-1], name, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()

        return traced

    def installed(self):
        functions = {
            fn: name for fn, name in public_functions().items()
            if not name.startswith("scalars.")
        }
        return rebound({fn: self._wrap(fn, name) for fn, name in functions.items()})

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one timed operation; yields a list that receives
        (start, end) once the operation has finished."""
        self.op = op
        index = len(self.spans)
        bounds: list = []
        self.spans.append([op, -1, self.ROOT, time.perf_counter(), 0.0])
        self.stack.append(index)
        try:
            yield bounds
        finally:
            self.stack.pop()
            end = time.perf_counter()
            self.spans[index][4] = end
            bounds.extend((self.spans[index][3], end))

    def self_times(self) -> tuple[dict, dict, float]:
        """({name: calls}, {name: self seconds}, least self seconds of any
        span); self time is a span's duration minus the time its child spans
        cover, and is negative only if spans overlap."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        least = 0.0
        for i, (_, _, name, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            least = min(least, own)
        return calls, self_s, least

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# count-only pass
# ---------------------------------------------------------------------------

class Counters:
    """Scalar-call and elimination-size counters, live only while ``active``."""

    def __init__(self):
        self.active = False
        self.scalar_calls = 0
        self.ext_calls = 0
        self.elim_entries = 0
        self.elim_max_bits = 0
        self._depth = 0

    def _count_scalar(self, fn):
        from aqslie.scalars import Ext

        def counted(*args):
            if self.active:
                self.scalar_calls += 1
                for a in args:
                    if type(a) is Ext:
                        self.ext_calls += 1
                        break
            return fn(*args)

        return counted

    def _count_elimination(self, fn):
        def counted(M, *args, **kwargs):
            if not self.active:
                return fn(M, *args, **kwargs)
            if self._depth == 0:  # nested eliminations see the same entries
                self.elim_entries += sum(len(row) for row in M)
            self.elim_max_bits = max(self.elim_max_bits, max_bits(x for row in M for x in row))
            self._depth += 1
            try:
                return fn(M, *args, **kwargs)
            finally:
                self._depth -= 1

        return counted

    def installed(self):
        scalars = sys.modules["aqslie.scalars"]
        linalg = sys.modules["aqslie.linalg"]
        scalar_ops = {getattr(scalars, n): self._count_scalar(getattr(scalars, n)) for n in SCALAR_OPS}
        eliminations = {
            getattr(linalg, n): self._count_elimination(getattr(linalg, n)) for n in ELIMINATIONS
        }
        stack = contextlib.ExitStack()
        # calls made inside the scalar module are not calls into the layer
        stack.enter_context(rebound(scalar_ops, skip_layers=("scalars",)))
        stack.enter_context(rebound(eliminations))
        return stack
