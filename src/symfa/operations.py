"""Standard constructions: product, complement, determinize, minimize,
and the decision procedures emptiness, inclusion, equivalence, with
counterexample, a shortest word two automata disagree on.

Size discipline: product keeps one edge per synchronized transition pair,
complement adds at most one state and (general path) one edge per state,
determinization is a reachable-subset construction whose transitions are
satisfiable minterms, minimization is Moore partition refinement on
per-state signatures.  Neat inputs produce neat outputs throughout:
interval negation expands into atoms, propositional residuals into
disjoint monomials.

Each construction (minimize, product, subset construction) runs its
emptiness tests on denotations, each transition predicate in its
algebra's solved form (see algebra.py), and denotes each edge it reads
once; union products and complement first check their input, and each
check denotes the edges again.  A denotation costs O(l) interval
operations yielding at most 2l intervals, or O(l) big-int operations on
2^k-bit truth tables; each test after that is a merge of two interval
lists or one AND of two truth tables.
minimize reads a state's edges once, through AlgebraBinding.splitter,
which answers the determinism check, the letters completion would add
and the refinement's moves together.  A minimize round costs one join
per state and target block, not one meet per pair of edges of two
states.  product, determinize and counterexample read a state's edges
through _Side when they first step from it; the last two read each
macro-state through _Side.det, the one caller of _minterms.

Inclusion and equivalence are decided on the fly and construct nothing:
counterexample runs one breadth-first search over pairs of states or
macro-states of the two inputs, reads a state's edges only when the
search first steps from it, and stops at the first pair that answers the
question.  Both sides of a pair are read by _Side.det as deterministic
states and split in one pass (AlgebraBinding.splitter): for intervals an
endpoint sweep, not one meet per pair of edges.
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
    _explore,
    dedupe_transitions,
    edges_by_pair,
    is_complete,
    is_deterministic,
)
from .transforms import _state_names, complete, fresh_state_name, to_feasible


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
    steps from its state (_Side); a pair costs one meet.  Union first
    checks determinism and completeness, and each check denotes the edges
    again: an edge is denoted up to three times.
    Pair states are explored breadth-first and named once each (see
    _state_names).  Duplicate edges are dropped: two edge pairs of one
    state pair can fold into the same interval atom.
    """
    counters = counters if counters is not None else OpCounters()
    a.binding.check_same(b.binding)
    if mode is ProductMode.UNION:
        if not (is_deterministic(a, counters) and is_deterministic(b, counters)):
            raise SfaError("union requires deterministic inputs")
        if not (is_complete(a, counters) and is_complete(b, counters)):
            raise SfaError("union requires complete inputs")
    left = _Side(a, counters)
    right = left if b is a else _Side(b, counters)

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


def _is_basic(p) -> bool:
    return classify(p) is not PredicateClass.GENERAL


def complement(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Swap accepting and rejecting states after completing.

    Requires a deterministic automaton (otherwise a word can have both an
    accepting and a rejecting run).  Completion already ignores empty
    denotations; unsatisfiable transitions are dropped first only so that
    the output is feasible.  The determinism check, that feasibility pass
    and completion each denote the edges: an edge is denoted up to three
    times.
    """
    counters = counters if counters is not None else OpCounters()
    if not is_deterministic(a, counters):
        raise NondeterministicInput("complement needs a deterministic automaton; determinize first")
    c = complete(to_feasible(a, counters), counters)
    return Sfa(c.binding, c.states, c.initial, frozenset(c.states) - c.accepting, c.transitions)


def determinize(a: Sfa, counters: OpCounters | None = None) -> Sfa:
    """Subset construction with minterm-labeled transitions.

    Each macro-state, a sorted tuple of states, is read once by _Side.det: a
    lone state whose edges are pairwise disjoint keeps them; from any other,
    every sign assignment over its outgoing component transitions (take ψ or
    ¬ψ) yields a minterm, and satisfiable minterms with at least one
    positive member become transitions to the set of states those members
    reach, in include-first order.  Partial conjunctions are pruned as soon
    as they become unsatisfiable, and the letters no edge takes are omitted,
    so the output may be incomplete.  Minterms are emitted as canonical
    atoms (interval) or disjoint monomials (propositional), hence always
    neat and pairwise disjoint: the output is deterministic.  Macro-states
    are explored breadth-first and named once each (see _state_names).  An
    unsatisfiable transition's include branch is pruned, or its denotation
    is empty, so no pre-pass drops it; a macro-state's edges are disjoint
    and non-empty, so no edge repeats.  The sat calls are one overlap test
    per lone state with two edges or more, and the nodes of one pruned
    search per other reachable macro-state and per lone state whose test
    fails: q -[0,10)-> r, q -[5,15)-> s costs 9 = 1 + 7 + 1, the last for
    the search of {r,s}, which has no edges.  Only the states some reachable
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

    _signature_blocks partitions the states satisfiable edges reach from the
    initial state, plus a sink for the letters they leave out, reading each
    state's edges once; it also finds any state, reachable or not, with two
    edges that share a letter.  The quotient keeps one representative's
    (lowest index) edges per block, less those into the sink's block or a
    state not refined: verbatim for neat input (neat stays neat), merged per
    target block otherwise.  The sink's block is removed again, so the
    result never exceeds the input's state count; when it holds the initial
    state it is the result's one state, named from its members, the sink by
    fresh_state_name over the reachable states.
    """
    counters = counters if counters is not None else OpCounters()
    refined = _signature_blocks(a, counters)
    if refined is None:
        raise NondeterministicInput("minimize needs a deterministic automaton; determinize first")
    block, _ = refined
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
    neat_input = all(
        classify(t.pred) is not PredicateClass.GENERAL for t in a.transitions if t.src in block
    )
    out = a.out_map()
    edges = []
    kept = []
    for ms in blocks:
        nm = name_of[ms[0]]
        if nm == dropped:
            continue
        kept.append(nm)
        rep_edges = [
            Transition(nm, t.pred, name_of[t.dst])
            for t in out[ms[0]]
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
        dedupe_transitions(edges),
    )


def _signature_blocks(a: Sfa, counters: OpCounters):
    """Moore refinement by signature of a deterministic automaton, or None
    when two edges of one of its states, reachable or not, share a letter.

    Each edge is denoted once, one sat call per transition, and each
    state's edges are readied by AlgebraBinding.splitter, one overlap test
    (a sat call) per state with two edges or more; a None splitter is the
    None answer.  The splitter leads the letters a state leaves out to one
    residual edge into a sink, keyed None, whose one edge takes every
    letter back to itself.  The states refined are therefore a complete
    automaton's: the states reachable from a.initial along satisfiable
    edges, in state order, then the sink when one of them has a residual.

    Blocks start as rejecting (0) and accepting (1).  Each round a state's
    signature is its block plus, per target block in ascending order, the
    join of its non-empty outgoing denotations into that block (its
    letter-to-block map); equal signatures share the next round's block, so
    no two states are compared.  Refinement stops when the block count
    stops growing.  Returns (state -> block, block -> its sorted (target
    block, joined denotation) pairs), the second read off the last round's
    signatures, which agree within each block.  Each signature counts one
    disjunction per denotation joined into another.
    """
    binding = a.binding
    join, denote = binding.join, binding.denote
    counters.sat_calls += len(a.transitions)
    edges = {}
    for q, ts in a.out_map().items():
        s = binding.splitter([(t.dst, denote(t.pred)) for t in ts], None, counters)
        if s is None:
            return None
        edges[q] = s.edges
    edges[None] = ((None, binding.full),)
    reached = set(_explore(a.initial, lambda q: ((None, dst) for dst, d in edges[q] if d))[0])
    states = [q for q in a.states if q in reached] + [None] * (None in reached)
    moves = {q: [(dst, d) for dst, d in edges[q] if d] for q in states}
    block = {q: int(q in a.accepting) for q in states}
    count = len(set(block.values()))

    def signature(q):
        by_block = {}
        for dst, d in moves[q]:
            by_block.setdefault(block[dst], []).append(d)
        counters.disj_built += len(moves[q]) - len(by_block)
        return block[q], tuple(sorted((b, join(ds)) for b, ds in by_block.items()))

    while True:
        ids = {}
        refined = {q: ids.setdefault(signature(q), len(ids)) for q in states}
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
    _minterms search over its members' moves; the residual (the letters it
    has no edge for) counts as one more edge, into the empty macro-state.
    The right side's reading splits the left edges against its own: for
    "equal" the left macro-state's reading, for "subset" the a-state's
    edges as they are, so each a-edge leads to its own pair.  For
    intervals that is a sweep: one bisection per left atom into the right
    side's atoms, sorted once per macro-state, and one step per piece; for
    truth tables one AND per pair of edges.  Each non-empty meet counts
    one sat call and one conjunction built, and no join is made.  Every
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


class _Side:
    """One input of a counterexample search, a product or a subset
    construction, read on demand.

    Caches live as long as the call: each state's edges are denoted the
    first time the call steps from it, as a tuple; moves holds the
    complements only _minterms needs.  det reads a macro-state as a
    deterministic state, once, on its first visit: the one reading
    determinize and counterexample share.
    """

    def __init__(self, a: Sfa, counters: OpCounters):
        self.binding = a.binding
        self.counters = counters
        self.out = a.out_map()
        self._single = {}
        self._edges = {}
        self._moves = {}
        self._det = {(): a.binding.splitter((), ())}

    def edges(self, q):
        """q's edges as (singleton target macro-state, denotation), one
        macro-state tuple per target state."""
        es = self._edges.get(q)
        if es is None:
            denote, single = self.binding.denote, self._single.setdefault
            es = self._edges[q] = tuple(
                [(single(t.dst, (t.dst,)), denote(t.pred)) for t in self.out[q]]
            )
        return es

    def moves(self, q):
        """q's edges as the (target, denotation, complement) triples of
        _minterms."""
        ms = self._moves.get(q)
        if ms is None:
            complement = self.binding.complement
            ms = self._moves[q] = [
                (t.dst, d, complement(d)) for t, (_, d) in zip(self.out[q], self.edges(q))
            ]
        return ms

    def det(self, macro):
        """The splitter (AlgebraBinding.splitter) of a macro-state read as
        one deterministic state, its residual leading to (), whose lone
        edge loops.  A lone state with two edges or more costs one overlap
        test, and when its edges overlap, that failed test and then a
        _minterms search; any other macro-state one _minterms search over
        its members' moves, each minterm that takes a move an edge to the
        sorted tuple of the states those moves reach."""
        s = self._det.get(macro)
        if s is None:
            binding = self.binding
            if len(macro) == 1:
                s = binding.splitter(self.edges(*macro), (), self.counters)
            if s is None:
                moves = [move for q in macro for move in self.moves(q)]
                takes = list(enumerate(reversed(moves)))  # bit j of a mask takes moves[-1 - j]
                edges = [
                    (tuple(sorted({m[0] for j, m in takes if mask >> j & 1})), x)
                    for mask, x in _minterms(binding, moves, self.counters)
                    if mask
                ]
                s = binding.splitter(edges, ())
            self._det[macro] = s
        return s
