"""Form transformations: neat, normalized, feasible, complete, canonical.

Each transform preserves the language and the state set (completion may add
one sink).  A predicate becomes neat edges one way in both algebras: the
binding's basic_preds of its denotation.  Canonical minimal forms reduce any
automaton to the unique minimal-state deterministic complete neat (or
normalized) form with fixed state names, so language equality becomes
structural equality.
"""

from .algebra import OpCounters
from .predicates import _is_basic, mk_or
from .sfa import (
    Sfa,
    Transition,
    _explore,
    _Side,
    _signature_blocks,
    _with_sink,
    dedupe_transitions,
    edges_by_pair,
    is_neat,
    is_normalized,
)


def to_neat(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Expand general predicates so every transition is basic.

    Basic edges stay as they are; a general one becomes one edge per member
    of the binding's basic_preds of its denotation, pairwise disjoint basic
    predicates, none for an unsatisfiable one.  Intervals give one atom per
    interval of the canonical DNF (linear in the predicate size); truth
    tables give their decision-tree cover (at most 2^k members however
    large the predicate, since nothing is distributed).  Counts one sat
    call per general edge: its denotation's emptiness decides whether any
    edge is written.
    """
    if is_neat(a):
        return a
    counters = counters if counters is not None else OpCounters()
    binding = a.binding
    edges = []
    for t in a.transitions:
        if _is_basic(t.pred):
            edges.append(t)
        else:
            counters.sat_calls += 1
            for p in binding.basic_preds(binding.denote(t.pred)):
                edges.append(Transition(t.src, p, t.dst))
    return Sfa(a.binding, a.states, a.initial, a.accepting, dedupe_transitions(edges))


def to_normalized(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Merge parallel edges into one disjunction per state pair."""
    if is_normalized(a):
        return a
    counters = counters if counters is not None else OpCounters()
    edges = []
    for (src, dst), preds in edges_by_pair(a.transitions).items():
        counters.disj_built += len(preds) - 1
        edges.append(Transition(src, mk_or(preds), dst))
    return Sfa(a.binding, a.states, a.initial, a.accepting, edges)


def to_feasible(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Drop transitions whose predicate is unsatisfiable."""
    keep = [t for t in a.transitions if a.binding.is_sat(t.pred, counters)]
    if len(keep) == len(a.transitions):
        return a
    return Sfa(a.binding, a.states, a.initial, a.accepting, keep)


def complete(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Add a non-accepting sink absorbing every uncovered letter.

    Each state's residual (sfa._Side.residual) goes to the sink of
    sfa._with_sink: at most out-degree + 1 single-atom edges per state for
    neat interval input, and none when every residual is empty.  A state
    with two edges or more costs one sat call, its overlap test, and one
    whose edges overlap out-degree - 1 disjunctions more.  The added
    predicates avoid the covered letters, so determinism is kept."""
    side = _Side(a, counters)
    return _with_sink(a, [(q, ts, side.residual(q)) for q, ts in side.out.items()])


def canonical_minimal_neat(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """The unique minimal-state deterministic complete neat form.

    sfa._signature_blocks refines the macro-states the subset
    construction reaches, plus a sink; on deterministic input those are
    a's reachable states.  Each piece of a block, the letters it sends into
    one target block (a maximal run of them for intervals), becomes the
    transitions of the binding's basic_preds of it: one atom for intervals,
    a truth table's decision-tree cover for valuations.  Blocks are renamed
    q0, q1, ... breadth-first from the initial state's block, pieces in
    letter order.  No step sees state names, unreachable states or
    unsatisfiable edges, and each piece is a letter set the language fixes,
    so language-equal inputs yield structurally equal outputs.
    """
    counters = counters if counters is not None else OpCounters()
    block, pieces = _signature_blocks(_Side(a, counters), (a.initial,), a.accepting)
    order, edges = _explore(block[(a.initial,)], pieces)
    names = [f"q{i}" for i in range(len(order))]
    final = {b for m, b in block.items() if not a.accepting.isdisjoint(m)}
    accepting = (nm for nm, b in zip(names, order) if b in final)
    basic_preds = a.binding.basic_preds
    edges = (Transition(names[i], p, names[j]) for i, x, j in edges for p in basic_preds(x))
    return Sfa(a.binding, names, "q0", accepting, edges)


def canonical_minimal_normalized(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Canonical neat form with parallel edges merged by to_normalized.

    One transition per state pair, its disjuncts in the neat form's order;
    transitions ordered by source index, then by their first letter, as
    the neat form's edges are.  An automaton already in this form comes
    back structurally unchanged.
    """
    return to_normalized(canonical_minimal_neat(a, counters), counters)
