"""Graphviz DOT export with fully deterministic output.

States appear in declaration order, edges sorted by endpoint order then
label, so the same automaton always renders to the same bytes (golden-file
friendly).  Accepting states are double circles; the initial state gets an
arrow from an invisible point node.  Each predicate object's label is
written once per export, however many transitions share it (parse_sfa
shares equal predicates of one file).
"""

import functools

from .algebra import AlgebraBinding
from .predicates import (
    And,
    Atom,
    IntervalAtom,
    NEG_INF,
    Not,
    Or,
    POS_INF,
    Predicate,
    _FalsePred,
    _TruePred,
)
from .sfa import Sfa


def pretty_pred(p: Predicate, binding: AlgebraBinding) -> str:
    """Human-readable predicate: [a,b) intervals, p1∧¬p2 monomials."""
    return _pretty(p, binding)


def _pretty(p, binding, parent: str = "") -> str:
    if isinstance(p, _TruePred):
        return "true"
    if isinstance(p, _FalsePred):
        return "false"
    if isinstance(p, Atom):
        return _pretty_atom(p.payload, binding)
    if isinstance(p, Not):
        # connectives below parenthesize themselves when parent is "not"
        return f"¬{_pretty(p.child, binding, 'not')}"
    op = "∧" if isinstance(p, And) else "∨"
    text = op.join(_pretty(c, binding, op) for c in p.children)
    # parenthesize a disjunction under a conjunction or a negation
    if isinstance(p, Or) and parent in ("∧", "not"):
        return f"({text})"
    if isinstance(p, And) and parent == "not":
        return f"({text})"
    return text


def _pretty_atom(atom, binding) -> str:
    if isinstance(atom, IntervalAtom):
        lo = "-inf" if atom.lo == NEG_INF else str(atom.lo)
        hi = "inf" if atom.hi == POS_INF else str(atom.hi)
        return f"[{lo},{hi})"
    name = binding.prop_name(atom.var)
    return f"¬{name}" if atom.negated else name


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: Sfa) -> str:
    """a's DOT text; each predicate object, keyed by identity, is
    pretty-printed once per call, and each distinct label quoted once."""
    index = {q: i for i, q in enumerate(a.states)}
    quoted = [_quote(q) for q in a.states]
    lines = ["digraph sfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q, name in zip(a.states, quoted):
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f"  {name} [shape={shape}];")
    lines.append(f"  __start -> {_quote(a.initial)};")
    labels = {}
    labeled = []
    for t in a.transitions:
        key = id(t.pred)
        label = labels.get(key)
        if label is None:
            label = labels[key] = _pretty(t.pred, a.binding)
        labeled.append((index[t.src], index[t.dst], label))
    labeled.sort()
    quote = functools.cache(_quote)
    lines += [f"  {quoted[src]} -> {quoted[dst]} [label={quote(label)}];" for src, dst, label in labeled]
    lines.append("}")
    return "\n".join(lines) + "\n"
