"""Standard constructions: product, complement, determinize, minimize,
and the decision procedures emptiness, inclusion, equivalence.

Size discipline: product keeps one edge per synchronized transition pair,
complement adds at most one state and (general path) one edge per state,
determinization is a reachable-subset construction whose transitions are
satisfiable minterms, minimization is Moore partition refinement on
per-state signatures.  Neat inputs produce neat outputs throughout:
interval negation expands into atoms, propositional residuals into
disjoint monomials.

Every construction denotes each transition predicate once, in its
algebra's solved form (see algebra.py), and runs its emptiness tests on
those denotations.  A denotation costs O(l) interval operations yielding
at most 2l intervals, or O(l) big-int operations on 2^k-bit truth tables;
each test after that is a merge of two interval lists or one AND of two
truth tables.  A minimize round costs one join per state and target
block, not one meet per pair of edges of two states.
"""

from enum import Enum

from .algebra import OpCounters
from .errors import NondeterministicInput, SfaError
from .predicates import (
    Atom,
    PredicateClass,
    classify,
    mk_and,
    mk_or,
)
from .sfa import (
    Sfa,
    Transition,
    dedupe_transitions,
    edges_by_pair,
    is_complete,
    is_deterministic,
    is_neat,
    reachable_states,
)
from .transforms import complete, to_feasible


class ProductMode(Enum):
    INTERSECT = "intersect"
    UNION = "union"


def pair_name(q1: str, q2: str) -> str:
    return f"({q1},{q2})"


def subset_name(qs) -> str:
    return "{" + ",".join(sorted(qs)) + "}"


def product(a: Sfa, b: Sfa, mode: ProductMode, counters: OpCounters | None = None) -> Sfa:
    """Synchronized product over the reachable pair states.

    Each pair of component transitions synchronizes on the conjunction of
    its predicates, kept only when satisfiable, so the output is feasible.
    Intersection accepts where both components do; union where either does,
    and requires deterministic complete inputs (a missing move in one
    component would silently drop words of the other).  Basic interval
    predicates conjoin into a single atom, so neat inputs give neat output.
    Each component transition is denoted once; a pair costs one meet.
    """
    counters = counters if counters is not None else OpCounters()
    a.binding.check_same(b.binding)
    if mode is ProductMode.UNION:
        if not (is_deterministic(a, counters) and is_deterministic(b, counters)):
            raise SfaError("union requires deterministic inputs")
        if not (is_complete(a, counters) and is_complete(b, counters)):
            raise SfaError("union requires complete inputs")
    out_a = _denoted(a)
    out_b = _denoted(b)
    start = (a.initial, b.initial)
    order = [start]
    seen = {start}
    edges = []
    i = 0
    while i < len(order):
        q1, q2 = order[i]
        i += 1
        for t1, d1 in out_a[q1]:
            for t2, d2 in out_b[q2]:
                pred = _conjoin(a.binding, t1.pred, d1, t2.pred, d2, counters)
                if pred is None:
                    continue
                target = (t1.dst, t2.dst)
                edges.append(
                    Transition(pair_name(q1, q2), pred, pair_name(*target))
                )
                if target not in seen:
                    seen.add(target)
                    order.append(target)
    if mode is ProductMode.INTERSECT:
        accepting = [p for p in order if p[0] in a.accepting and p[1] in b.accepting]
    else:
        accepting = [p for p in order if p[0] in a.accepting or p[1] in b.accepting]
    return Sfa(
        a.binding,
        tuple(pair_name(*p) for p in order),
        pair_name(*start),
        frozenset(pair_name(*p) for p in accepting),
        dedupe_transitions(edges),
    )


def _denoted(a: Sfa):
    """state id -> list of (transition, denotation of its predicate)."""
    denote = a.binding.denote
    return {q: [(t, denote(t.pred)) for t in ts] for q, ts in a.out_map().items()}


def _conjoin(binding, p1, d1, p2, d2, counters):
    """Satisfiable conjunction of two transition predicates, or None.

    Emptiness is decided on the meet of their denotations.  Two basic
    interval predicates fold into the one atom of that meet; anything else
    stays a conjunction node.
    """
    counters.conj_built += 1
    counters.sat_calls += 1
    meet = binding.meet(d1, d2)
    if not meet:
        return None
    if binding.is_monotonic and _is_basic(p1) and _is_basic(p2):
        return Atom(meet[0])
    return mk_and([p1, p2])


def _is_basic(p) -> bool:
    return classify(p) is not PredicateClass.GENERAL


def complement(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Swap accepting and rejecting states after completing.

    Requires a deterministic automaton (otherwise a word can have both an
    accepting and a rejecting run).  Completion already ignores empty
    denotations; unsatisfiable transitions are dropped first only so that
    the output is feasible.
    """
    counters = counters if counters is not None else OpCounters()
    if not is_deterministic(a, counters):
        raise NondeterministicInput("complement needs a deterministic automaton; determinize first")
    c = complete(to_feasible(a, counters), counters)
    return Sfa(c.binding, c.states, c.initial, frozenset(c.states) - c.accepting, c.transitions)


def determinize(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Subset construction with minterm-labeled transitions.

    From a macro-state, every sign assignment over its outgoing component
    transitions (take ψ or ¬ψ) yields a minterm; satisfiable minterms with
    at least one positive member become transitions to the set of states
    those members reach, in include-first order.  Partial conjunctions are
    pruned as soon as they become unsatisfiable, and the all-negative
    residual is omitted, so the output may be incomplete.  Minterms are
    emitted as canonical atoms (interval) or disjoint monomials
    (propositional), hence always neat and pairwise disjoint: the output is
    deterministic.
    """
    counters = counters if counters is not None else OpCounters()
    a = to_feasible(a, counters)
    out = {
        q: [(t.dst, d, a.binding.complement(d)) for t, d in ts]
        for q, ts in _denoted(a).items()
    }
    start = frozenset({a.initial})
    order = [start]
    seen = {start}
    edges = []
    i = 0
    while i < len(order):
        macro = order[i]
        i += 1
        moves = [move for q in sorted(macro) for move in out[q]]
        for mask, x in _minterms(a.binding, moves, counters):
            if not mask:
                continue
            target = frozenset(m[0] for j, m in enumerate(reversed(moves)) if mask >> j & 1)
            for pred in a.binding.basic_preds(x):
                edges.append(Transition(subset_name(macro), pred, subset_name(target)))
            if target not in seen:
                seen.add(target)
                order.append(target)
    return Sfa(
        a.binding,
        tuple(subset_name(s) for s in order),
        subset_name(start),
        frozenset(subset_name(s) for s in order if s & a.accepting),
        dedupe_transitions(edges),
    )


def _minterms(binding, moves, counters):
    """Satisfiable minterms of a transition list, as (mask, solved form).

    moves holds (target, denotation, complement) triples; bit
    len(moves) - 1 - j of mask is set iff moves[j] is taken rather than
    negated, so the include-first depth-first search yields descending
    masks.  Empty partial conjunctions are pruned; each emptiness test
    counts as a sat call.  The search keeps an explicit stack, so no
    self-calling closure holds the results in a reference cycle.
    """
    n = len(moves)
    results = []
    stack = [(0, binding.full, 0)]
    while stack:
        j, cur, mask = stack.pop()
        counters.sat_calls += 1
        if not cur:
            continue
        if j == n:
            results.append((mask, cur))
            continue
        counters.conj_built += 2
        _, den, neg = moves[j]
        stack.append((j + 1, binding.meet(cur, neg), mask))
        stack.append((j + 1, binding.meet(cur, den), mask | 1 << (n - 1 - j)))
    return results


def minimize(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Quotient by Moore partition refinement on block signatures.

    Unreachable states are dropped and the automaton is completed
    internally when needed; _signature_blocks then partitions the states.
    The quotient keeps one representative's (lowest index) edges per block:
    verbatim for neat input (neat stays neat), merged per target block
    otherwise.  A block created only by the internal completion is removed
    again, so the result never exceeds the input's state count.
    """
    counters = counters if counters is not None else OpCounters()
    if not is_deterministic(a, counters):
        raise NondeterministicInput("minimize needs a deterministic automaton; determinize first")
    reach = reachable_states(a)
    if len(reach) < len(a.states):
        a = Sfa(
            a.binding,
            tuple(q for q in a.states if q in reach),
            a.initial,
            frozenset(q for q in a.accepting if q in reach),
            tuple(t for t in a.transitions if t.src in reach),
        )
    c = complete(a, counters)
    sink = c.states[-1] if len(c.states) > len(a.states) else None
    out = c.out_map()
    block, _ = _signature_blocks(c, counters)
    members = {}
    for q in c.states:
        members.setdefault(block[q], []).append(q)
    # in state order, so blocks come by lowest member and ms[0] is that member
    blocks = list(members.values())
    name_of = {q: subset_name(ms) for ms in blocks for q in ms}
    dropped = name_of[sink] if sink is not None else None
    if dropped is not None and name_of[c.initial] == dropped:
        return Sfa(c.binding, (dropped,), dropped, frozenset(), ())
    neat_input = is_neat(c)
    edges = []
    kept = []
    for ms in blocks:
        nm = name_of[ms[0]]
        if nm == dropped:
            continue
        kept.append(nm)
        rep_edges = [
            Transition(nm, t.pred, name_of[t.dst]) for t in out[ms[0]] if name_of[t.dst] != dropped
        ]
        if neat_input:
            edges.extend(rep_edges)
        else:
            for (src, dst), preds in edges_by_pair(rep_edges).items():
                counters.disj_built += len(preds) - 1
                edges.append(Transition(src, mk_or(preds), dst))
    return Sfa(
        c.binding,
        tuple(kept),
        name_of[c.initial],
        frozenset(name_of[q] for q in c.accepting),
        dedupe_transitions(edges),
    )


def _signature_blocks(c: Sfa, counters: OpCounters):
    """Moore refinement of a complete deterministic automaton by signature.

    Blocks start as rejecting (0) and accepting (1).  Each round a state's
    signature is its block plus, per target block in ascending order, the
    join of its non-empty outgoing denotations into that block (its
    letter-to-block map); equal signatures share the next round's block, so
    no two states are compared.  Refinement stops when the block count
    stops growing.  Returns (state -> block, block -> its sorted (target
    block, joined denotation) pairs), the second read off the last round's
    signatures, which agree within each block.  Empty denotations are
    dropped once up front, one sat call per transition.
    """
    join, denote = c.binding.join, c.binding.denote
    counters.sat_calls += len(c.transitions)
    moves = {q: [(t.dst, d) for t in ts if (d := denote(t.pred))] for q, ts in c.out_map().items()}
    block = {q: int(q in c.accepting) for q in c.states}
    count = len(set(block.values()))

    def signature(q):
        by_block = {}
        for dst, d in moves[q]:
            by_block.setdefault(block[dst], []).append(d)
        return block[q], tuple(sorted((b, join(ds)) for b, ds in by_block.items()))

    while True:
        ids = {}
        refined = {q: ids.setdefault(signature(q), len(ids)) for q in c.states}
        if len(ids) == count:
            return block, {b: letters for b, letters in ids}
        block, count = refined, len(ids)


def is_empty(a: Sfa, assume_feasible: bool = False, counters: OpCounters | None = None) -> bool:
    """No accepting state is reachable from the initial state.

    With assume_feasible the search ignores predicates entirely; otherwise
    an edge is followed only if its predicate is satisfiable (at most one
    sat call per transition).
    """
    counters = counters if counters is not None else OpCounters()
    out = a.out_map()
    seen = {a.initial}
    stack = [a.initial]
    while stack:
        q = stack.pop()
        if q in a.accepting:
            return False
        for t in out[q]:
            if t.dst not in seen and (assume_feasible or a.binding.is_sat(t.pred, counters)):
                seen.add(t.dst)
                stack.append(t.dst)
    return True


def includes(a: Sfa, b: Sfa, counters: OpCounters | None = None) -> bool:
    """L(a) ⊆ L(b), via emptiness of L(a) ∩ complement(L(b)).

    b is determinized on demand (complementation needs it); a never is,
    since the product tolerates nondeterminism on its left input.  The
    product prunes unsatisfiable edges, so the emptiness check can take the
    feasible fast path.
    """
    counters = counters if counters is not None else OpCounters()
    a.binding.check_same(b.binding)
    if not is_deterministic(b, counters):
        b = determinize(b, counters)
    diff = product(a, complement(b, counters), ProductMode.INTERSECT, counters)
    return is_empty(diff, assume_feasible=True, counters=counters)


def equivalent(a: Sfa, b: Sfa, counters: OpCounters | None = None) -> bool:
    """Mutual inclusion."""
    return includes(a, b, counters) and includes(b, a, counters)
