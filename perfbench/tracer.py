"""Span tracer that wraps symfa's public functions from the outside.

Modules import each other's functions by name (operations binds complete,
to_feasible, is_deterministic, to_dnf and mask_of itself), so install()
rebinds every wrapped function in every symfa module that holds it, and
wraps AlgebraBinding.sat and AlgebraBinding.evaluate on the class.  A call
that re-enters a function already on the span stack (evaluate recursing into
children, basic_to_atom into conjuncts) joins the outer span.

Each span is (name, start, end, parent index, op id).  Self time (span time
minus the time its child spans cover) is summed per name as spans close, so
the per-layer totals need no span list; the first MAX_SPANS spans are also
kept in memory for the trace file written at the end of the run.

Left unwrapped, so that their time is their caller's self time: the
inner-loop primitives in UNWRAPPED (per-valuation evaluation, the NNF and
interval-set steps of to_dnf, the per-predicate recursion of parse, emit and
DOT) and generator functions (iter_atoms).  The benchmark's own module that
calls symfa is passed to install() so its calls are traced too.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "algebra",
    "intervals",
    "propositional",
    "predicates",
    "sfa",
    "transforms",
    "operations",
    "serialize",
    "dot",
)
UNWRAPPED = {
    "eval_prop",
    "eval_literal",
    "monomial_sat",
    "to_nnf",
    "prop_nnf",
    "canonical_union",
    "intersect_dnf",
    "complement_intervals",
    "atom_and",
    "atom_not",
    "parse_pred",
    "emit_pred",
    "pretty_pred",
}
SIZED = {"operations.determinize", "operations.product"}
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.out_states = Counter()
        self.sat_hits = 0
        self.spans = []
        self.dropped = 0
        self.op_id = 0
        self._stack = []  # [name, start, child seconds, span index]
        self._undo = []

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.out_states.clear()
        self.sat_hits = 0

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            if len(tracer.spans) < MAX_SPANS:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] = 0
                dur = end - frame[1]
                tracer.self_s[name] += dur - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if index >= 0:
                    tracer.spans[index] = (name, frame[1], end, parent, tracer.op_id)
            if name in SIZED:
                tracer.out_states[name] += len(result.states)
            elif name == "algebra.sat" and result is not None:
                tracer.sat_hits += 1
            return result

        return wrapper

    def install(self, *callers):
        """Wrap every public function of the layer modules, everywhere it is
        bound: in every symfa module and in the given caller modules."""
        mods = {n: m for n, m in sys.modules.items() if n == "symfa" or n.startswith("symfa.")}
        wrappers = {}
        for layer in LAYERS:
            module = mods[f"symfa.{layer}"]
            for fname, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not fname.startswith("_")
                    and fname not in UNWRAPPED
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in [*mods.values(), *callers]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        binding = mods["symfa.algebra"].AlgebraBinding
        for meth in ("sat", "evaluate"):
            original = binding.__dict__[meth]
            setattr(binding, meth, self._wrap(f"algebra.{meth}", original))
            self._undo.append((binding, meth, original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
