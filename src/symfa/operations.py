"""Standard constructions: product, complement, determinize, minimize,
and the decision procedures emptiness, inclusion, equivalence, with
counterexample, a shortest word two automata disagree on.

Size discipline: product keeps one edge per synchronized transition pair,
complement adds at most one state and (general path) one edge per state,
determinization is a reachable-subset construction with one transition
per target subset, the join of the satisfiable minterms that reach it,
minimization is Moore partition refinement on per-state signatures.  Neat inputs produce neat outputs throughout:
interval negation expands into atoms, propositional residuals into
disjoint monomials.

Every construction and counterexample reads its input through sfa._Side,
the one reading: each edge is denoted once per call, into its algebra's
solved form (see algebra.py), and each state or macro-state is read once
as a deterministic state (AlgebraBinding.splitter), which gives the
overlap test, the letters no edge takes and the edges to meet, together.
Readings count one sat call per overlap test and per _minterms node, none
per denotation, and one disjunction per minterm joined into another of
its target.  A denotation costs O(l) interval operations yielding at
most 2l intervals, or O(l) big-int operations on 2^k-bit truth tables;
each test after that is a merge of two interval lists or one AND of two
truth tables.  minimize, complement and union products read every state,
reachable or not; the rest read a state when they first step from it.  A
minimize round reads each state's letter -> block map off its splitter in
one pass over its tiles or truth tables, with no meet per pair of edges.

Inclusion and equivalence are decided on the fly and construct nothing:
counterexample runs one breadth-first search over pairs of states or
macro-states of the two inputs and stops at the first pair that answers
the question.  Both sides of a pair are split in one pass: for intervals
an endpoint sweep, not one meet per pair of edges.
"""

from enum import Enum

from .algebra import OpCounters
from .errors import NondeterministicInput, SfaError
from .predicates import (
    Atom,
    _is_basic,
    mk_and,
    mk_or,
)
from .sfa import (
    Sfa,
    Transition,
    _explore,
    _Side,
    _signature_blocks,
    _state_names,
    _with_sink,
    dedupe_transitions,
    edges_by_pair,
    fresh_state_name,
)


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
    The search denotes each component transition once, when it first
    steps from its state (_Side); a pair costs one meet.  Union first reads
    every state, reachable or not, through _Side.state, which the search
    then reuses: a None splitter is an overlap, a residual edge a missing
    letter.
    Pair states are explored breadth-first and named once each (see
    _state_names).  Duplicate edges are dropped: two edge pairs of one
    state pair can fold into the same interval atom.
    """
    counters = counters if counters is not None else OpCounters()
    a.binding.check_same(b.binding)
    left = _Side(a, counters)
    right = left if b is a else _Side(b, counters)
    if mode is ProductMode.UNION:
        if not (left.deterministic() and right.deterministic()):
            raise SfaError("union requires deterministic inputs")
        if any(s.residual(q) for s in (left, right) for q in s.out):
            raise SfaError("union requires complete inputs")

    def step(pair):
        p, q = pair
        for t1, (_, d1) in zip(left.out[p], left.edges(p)):
            for t2, (_, d2) in zip(right.out[q], right.edges(q)):
                pred = _conjoin(a.binding, t1.pred, d1, t2.pred, d2, counters)
                if pred is not None:
                    yield pred, (t1.dst, t2.dst)

    pairs, edges = _explore((a.initial, b.initial), step)
    names = _state_names(pair_name(*p) for p in pairs)
    accepts = all if mode is ProductMode.INTERSECT else any
    accepting = (
        nm for nm, (q1, q2) in zip(names, pairs) if accepts((q1 in a.accepting, q2 in b.accepting))
    )
    edges = dedupe_transitions(Transition(names[i], pred, names[j]) for i, pred, j in edges)
    return Sfa(a.binding, names, names[0], accepting, edges)


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


def complement(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Swap accepting and rejecting states after completing.

    Requires a deterministic automaton (otherwise a word can have both an
    accepting and a rejecting run).  _Side.state reads each state once:
    the determinism check, the empty denotations (their transitions are
    dropped, so the output is feasible) and the residual, which
    sfa._with_sink leads to a sink as transforms.complete does.
    """
    counters = counters if counters is not None else OpCounters()
    side = _Side(a, counters)
    if not side.deterministic():
        raise NondeterministicInput("complement needs a deterministic automaton; determinize first")
    residuals = [
        (q, [t for t, (_, d) in zip(ts, side.edges(q)) if d], side.residual(q))
        for q, ts in side.out.items()
    ]
    feasible = {t for _, ts, _ in residuals for t in ts}
    kept = [t for t in a.transitions if t in feasible]
    c = _with_sink(Sfa(a.binding, a.states, a.initial, a.accepting, kept), residuals)
    return Sfa(c.binding, c.states, c.initial, frozenset(c.states) - c.accepting, c.transitions)


def determinize(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Subset construction with minterm-labeled transitions.

    Each macro-state, a sorted tuple of states, is read once by _Side.det: a
    lone state whose edges are pairwise disjoint keeps them; from any other,
    every sign assignment over its outgoing component transitions (take ψ or
    ¬ψ) yields a minterm, and satisfiable minterms with at least one
    positive member lead to the set of states those members reach.  The
    minterms of one target set are joined into one transition, targets in
    include-first order of their first minterm.  Partial conjunctions are
    pruned as soon as they become unsatisfiable, and the letters no edge
    takes are omitted, so the output may be incomplete.  Each transition's
    letters are emitted by basic_preds: maximal canonical atoms (interval)
    or three-way decision-tree paths (propositional), hence neat and
    pairwise disjoint: the output is deterministic.  Macro-states
    are explored breadth-first and named once each (see _state_names).  An
    unsatisfiable transition's include branch is pruned, or its denotation
    is empty, so no pre-pass drops it; a macro-state's edges are disjoint
    and non-empty, so no edge repeats.  The sat calls are one overlap test
    per lone state with two edges or more, and the nodes of one pruned
    search per other reachable macro-state and per lone state whose test
    fails: q -[0,10)-> r, q -[5,15)-> s costs 9 = 1 + 7 + 1, the last for
    the search of {r,s}, which has no edges.  Each minterm joined into
    another of its target counts one disjunction: q -[0,10)-> r,
    q -[5,15)-> r costs 8 sat calls and 2 disjunctions, for one edge
    [0,15) to {r}.  Only the states some reachable
    macro-state holds are denoted (_Side), each edge once.
    """
    counters = counters if counters is not None else OpCounters()
    binding = a.binding
    side = _Side(a, counters)

    def step(macro):
        for target, x in side.det(macro).edges:
            if target and x:
                yield x, target

    macros, edges = _explore((a.initial,), step)
    names = _state_names(subset_name(s) for s in macros)
    accepting = (nm for nm, s in zip(names, macros) if not a.accepting.isdisjoint(s))
    edges = (Transition(names[i], p, names[j]) for i, x, j in edges for p in binding.basic_preds(x))
    return Sfa(binding, names, names[0], accepting, edges)


def minimize(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Quotient by Moore partition refinement on block signatures.

    _Side.state reads every state, reachable or not, once, and refuses two
    edges of one state that share a letter; _signature_blocks partitions
    the states it reaches from the initial state and a sink.  The quotient
    keeps one representative's (lowest index) edges per block, less those
    into the sink's block or a state not refined: verbatim for neat input
    (neat stays neat), merged per target block otherwise.  The sink's
    block is removed again, so the result never exceeds the input's state
    count; when it holds the initial state it is the result's one state,
    named from its members, the sink by fresh_state_name over the
    reachable states.
    """
    counters = counters if counters is not None else OpCounters()
    side = _Side(a, counters)
    if not side.deterministic():
        raise NondeterministicInput("minimize needs a deterministic automaton; determinize first")
    refined, _ = _signature_blocks(side, (a.initial,), a.accepting)
    # in state order, the sink keyed None and last
    block = {q: refined[(q,)] for q in a.states if (q,) in refined}
    if () in refined:
        block[None] = refined[()]
    members = {}
    for q, b in block.items():
        members.setdefault(b, []).append(q)
    # in state order, so blocks come by lowest member and ms[0] is that member
    blocks = list(members.values())
    sink = fresh_state_name(block, "sink")
    names = _state_names(subset_name(sink if q is None else q for q in ms) for ms in blocks)
    name_of = {q: nm for ms, nm in zip(blocks, names) for q in ms}
    dropped = name_of.get(None)
    if dropped is not None and name_of[a.initial] == dropped:
        return Sfa(a.binding, (dropped,), dropped, frozenset(), ())
    neat_input = all(_is_basic(t.pred) for t in a.transitions if t.src in block)
    edges = []
    kept = []
    empty = False
    for ms in blocks:
        nm = name_of[ms[0]]
        if nm == dropped:
            continue
        kept.append(nm)
        # a deterministic state's edges share no letter, so only empty ones can repeat
        empty = empty or not all(d for _, d in side.edges(ms[0]))
        rep_edges = [
            Transition(nm, t.pred, name_of[t.dst])
            for t in side.out[ms[0]]
            if name_of.get(t.dst, dropped) != dropped
        ]
        if neat_input:
            edges.extend(rep_edges)
        else:
            for (src, dst), preds in edges_by_pair(rep_edges).items():
                counters.disj_built += len(preds) - 1
                edges.append(Transition(src, mk_or(preds), dst))
    return Sfa(
        a.binding,
        tuple(kept),
        name_of[a.initial],
        frozenset(name_of[q] for q in a.accepting if q in name_of),
        dedupe_transitions(edges) if empty else edges,
    )


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
    """L(a) ⊆ L(b): no word is accepted by a and rejected by b.

    counterexample's "subset" search, which builds no automaton: neither
    input is completed, complemented or determinized, and the search stops
    at the first pair of an a-state and a b macro-state that a accepts and
    b rejects.
    """
    return counterexample(a, b, "subset", counters) is None


def equivalent(a: Sfa, b: Sfa, counters: OpCounters | None = None) -> bool:
    """L(a) = L(b): counterexample's "equal" search, which explores each
    pair of macro-states once rather than running two inclusions."""
    return counterexample(a, b, "equal", counters) is None


def counterexample(a: Sfa, b: Sfa, mode: str = "equal", counters: OpCounters | None = None):
    """A shortest word that a and b classify differently, or None.

    mode "equal" looks for a word in exactly one of L(a) and L(b); mode
    "subset" for a word in L(a) but not in L(b), as oracle.separating_word
    does.  One breadth-first search (_explore) runs over pairs of a left
    key and a b macro-state and stops at the first bad pair.  For "subset"
    the left key is one a-state, and a pair is bad when a accepts and b
    does not; for "equal" it is an a macro-state, and a pair is bad when
    exactly one side accepts.  Macro-states are sorted tuples of states;
    the empty one is a side that is stuck, and rejects from then on.

    Each edge is denoted once per call, when the search first steps from
    its state.  A macro-state is read once per call, by _Side.det, as one
    deterministic state: a lone state whose edges are pairwise disjoint
    keeps them (one overlap test), and any other macro-state runs one
    _minterms search over its members' moves and joins the minterms of
    each target, one disjunction per minterm joined; the residual (the
    letters it has no edge for) counts as one more edge, into the empty
    macro-state.
    The right side's reading splits the left edges against its own: for
    "equal" the left macro-state's reading, for "subset" the a-state's
    edges as they are, so each a-edge leads to its own pair.  For
    intervals that is a sweep: one bisection per left atom into the right
    side's atoms, sorted once per macro-state, and one step per piece; for
    truth tables one AND per pair of edges.  Each non-empty meet counts
    one sat call and one conjunction built, and the split makes no join.  Every
    pair keeps only its first parent and the label that reached it, so
    the witnesses of the labels on the path to the first bad pair form a
    shortest word.
    """
    if mode not in ("subset", "equal"):
        raise ValueError(f"mode must be 'subset' or 'equal', got {mode!r}")
    counters = counters if counters is not None else OpCounters()
    a.binding.check_same(b.binding)
    binding = a.binding
    equal = mode == "equal"
    left = _Side(a, counters)
    right = left if b is a else _Side(b, counters)
    start = ((a.initial,), (b.initial,))
    seen = {start}

    def bad(pair):
        in_a = not a.accepting.isdisjoint(pair[0])
        in_b = not b.accepting.isdisjoint(pair[1])
        return in_a != in_b if equal else in_a and not in_b

    def step(pair):
        x, y = pair
        for x2, y2, m in right.det(y).split(left.det(x).edges if equal else left.edges(*x)):
            counters.sat_calls += 1
            counters.conj_built += 1
            target = (x2, y2)
            if (x2 or y2) and target not in seen:
                seen.add(target)
                yield m, target

    keys, edges = _explore(start, step, bad)
    if not bad(keys[-1]):
        return None
    word = []
    j = len(keys) - 1
    while j:  # the step yields new pairs only, so edges[j - 1] found pair j
        i, label, _ = edges[j - 1]
        word.append(binding.witness(label))
        j = i
    return word[::-1]
