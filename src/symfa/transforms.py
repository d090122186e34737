"""Form transformations: neat, normalized, feasible, complete, canonical.

Each transform preserves the language and the state set (completion may add
one sink).  Canonical minimal forms exist only over the interval algebra,
where every predicate has a unique canonical representation; they reduce any
automaton to the unique minimal-state deterministic complete neat (or
normalized) form with fixed state names, so language equality becomes
structural equality.
"""

from .algebra import OpCounters
from .errors import UnsupportedAlgebra
from .predicates import (
    Atom,
    _is_basic,
    mk_or,
)
from .propositional import monomial_to_pred, monomials_of
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

    Interval binding: canonical DNF, one transition per atom (atom count
    linear in the predicate size).  Propositional: one transition per
    satisfiable monomial (worst case exponential).  Unsatisfiable disjuncts
    vanish along the way.
    """
    if is_neat(a):
        return a
    edges = []
    for t in a.transitions:
        if _is_basic(t.pred):
            edges.append(t)
        elif a.binding.is_monotonic:
            for p in a.binding.basic_preds(a.binding.denote(t.pred)):
                edges.append(Transition(t.src, p, t.dst))
        else:
            for m in monomials_of(t.pred):
                edges.append(Transition(t.src, monomial_to_pred(m), t.dst))
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
    a's reachable states.  Each piece of a block, a maximal run of letters
    into one target block, becomes one transition; blocks are renamed q0,
    q1, ... breadth-first from the initial state's block, pieces in letter
    order.  No step sees state names, unreachable states or unsatisfiable
    edges, so language-equal inputs yield structurally equal outputs.
    Interval binding only: no unique minimal neat form exists for the
    propositional algebra.
    """
    if not a.binding.is_monotonic:
        raise UnsupportedAlgebra("canonical minimal forms need the interval algebra")
    counters = counters if counters is not None else OpCounters()
    block, pieces = _signature_blocks(_Side(a, counters), (a.initial,), a.accepting)
    order, edges = _explore(block[(a.initial,)], pieces)
    names = [f"q{i}" for i in range(len(order))]
    final = {b for m, b in block.items() if not a.accepting.isdisjoint(m)}
    accepting = (nm for nm, b in zip(names, order) if b in final)
    edges = (Transition(names[i], Atom(x), names[j]) for i, (x,), j in edges)
    return Sfa(a.binding, names, "q0", accepting, edges)


def canonical_minimal_normalized(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Canonical neat form with parallel edges merged.

    One transition per state pair, its disjuncts ordered by interval start;
    transitions ordered by source index, then by the start of their first
    interval (distinct per source, since the neat form is deterministic).
    An automaton already in this form comes back structurally unchanged.
    """
    neat = canonical_minimal_neat(a, counters)
    idx = {q: i for i, q in enumerate(neat.states)}
    groups = edges_by_pair(neat.transitions)
    order = sorted(groups, key=lambda key: (idx[key[0]], groups[key][0].payload.lo))
    edges = [Transition(src, mk_or(groups[(src, dst)]), dst) for src, dst in order]
    return Sfa(neat.binding, neat.states, neat.initial, neat.accepting, edges)
