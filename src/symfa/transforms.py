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
    PredicateClass,
    TRUE,
    classify,
    mk_not,
    mk_or,
)
from .propositional import monomial_to_pred, monomials_of
from .sfa import (
    Sfa,
    Transition,
    _explore,
    dedupe_transitions,
    edges_by_pair,
    is_deterministic,
    is_neat,
    is_normalized,
)


def fresh_state_name(taken, base: str) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _state_names(bases) -> tuple:
    """One distinct state name per base, in order: a base already taken by
    an earlier name gets fresh_state_name's numeric suffix, so composite
    names like "{a,b}" stay distinct when the component names hold commas."""
    taken = {}
    for base in bases:
        taken[fresh_state_name(taken, base)] = None
    return tuple(taken)


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
        if classify(t.pred) is not PredicateClass.GENERAL:
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

    Each state's residual is the complement of the union of its outgoing
    denotations, computed once per state with one sat call; when every
    residual is empty the automaton comes back unchanged.  Neat input stays
    neat: the residual becomes basic predicates, the gaps between the
    covered intervals (at most out-degree + 1 single-atom edges per state)
    or disjoint monomials covering the missing valuations.  Otherwise each
    state with a non-empty residual gets one edge labeled with the negated
    disjunction of its outgoing predicates.  Completion never breaks
    determinism: all added predicates avoid the covered letters.
    """
    counters = counters if counters is not None else OpCounters()
    binding = a.binding
    out = a.out_map()
    residuals = {}
    for q, ts in out.items():
        counters.sat_calls += 1
        counters.disj_built += max(0, len(ts) - 1)
        residuals[q] = binding.complement(binding.join([binding.denote(t.pred) for t in ts]))
    if not any(residuals.values()):
        return a
    sink = fresh_state_name(set(a.states), "sink")
    neat = is_neat(a)
    edges = []
    for q, ts in out.items():
        residual = residuals[q]
        if neat:
            edges.extend(Transition(q, p, sink) for p in binding.basic_preds(residual))
        elif not ts:
            edges.append(Transition(q, TRUE, sink))
        elif residual:
            edges.append(Transition(q, mk_not(mk_or([t.pred for t in ts])), sink))
    edges.append(Transition(sink, TRUE, sink))
    return Sfa(
        a.binding,
        a.states + (sink,),
        a.initial,
        a.accepting,
        a.transitions + tuple(edges),
    )


def canonical_minimal_neat(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """The unique minimal-state deterministic complete neat form.

    Determinize unless already deterministic, complete, and refine states
    into blocks by signature (operations._signature_blocks, as minimize
    does).  Each block's signature already holds, per target block, the
    canonical intervals of its letters; they become one transition per
    atom, and blocks are renamed q0, q1, ... in breadth-first order from
    the initial state's block, exploring transitions by ascending interval.
    No step after determinizing sees what it would change (state names,
    unreachable states, unsatisfiable edges), so language-equal inputs
    yield structurally equal outputs.  Interval binding only: no unique
    minimal neat form exists for the propositional algebra.
    """
    if not a.binding.is_monotonic:
        raise UnsupportedAlgebra("canonical minimal forms need the interval algebra")
    counters = counters if counters is not None else OpCounters()
    # imported here: operations imports complete from this module
    from .operations import _signature_blocks, determinize

    d = a if is_deterministic(a, counters) else determinize(a, counters)
    c = complete(d, counters)
    block, letters = _signature_blocks(c, counters)
    outgoing = {
        b: sorted(((atom, dst) for dst, x in sig for atom in x), key=lambda e: (e[0].lo, e[0].hi))
        for b, sig in letters.items()
    }
    order, edges = _explore(block[c.initial], outgoing.__getitem__)
    accepting = {block[q] for q in c.accepting}
    return Sfa(
        c.binding,
        tuple(f"q{i}" for i in range(len(order))),
        "q0",
        frozenset(f"q{i}" for i, b in enumerate(order) if b in accepting),
        tuple(Transition(f"q{i}", Atom(atom), f"q{j}") for i, atom, j in edges),
    )


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
