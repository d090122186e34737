"""Symbolic finite automata: states plus predicate-labeled transitions.

An Sfa pairs a finite state graph with an algebra binding; each transition
carries a predicate over that algebra, so one edge stands for every letter
the predicate admits.  This module holds the data type, run semantics over
words, the structural classifications (deterministic, complete, neat,
normalized, feasible), the size triple <n, m, l>, and what the
constructions share: the one reading of a state (_Side), which the
determinism and completeness checks and complete read too, breadth-first
exploration, Moore refinement (_signature_blocks), state naming and the
sink completion adds.  Transition, Sfa and SizeTriple are immutable values
whose equality and hash predicates._Value builds from their fields: equal
when of one class with equal fields, hashed as their field tuple, so a
transition's identity is (src, pred, dst).
"""

from collections import Counter

from .algebra import AlgebraBinding, OpCounters
from .predicates import (
    TRUE,
    Predicate,
    _Value,
    _is_basic,
    iter_atoms,
    mk_not,
    mk_or,
    predicate_size,
    _set,
)


class Transition(_Value):
    __slots__ = ("src", "pred", "dst")


class Sfa(_Value):
    """Automaton over an algebra binding.

    states is an ordered tuple of distinct ids; transitions keep their
    declaration order.  Construction only normalizes container types;
    invariant checking is validate(), which reports violations as data so
    the CLI can show them for files we did not build ourselves.
    """

    __slots__ = ("binding", "states", "initial", "accepting", "transitions")

    def __init__(self, binding: AlgebraBinding, states, initial: str, accepting, transitions):
        _set(self, "binding", binding)
        _set(self, "states", tuple(states))
        _set(self, "initial", initial)
        _set(self, "accepting", frozenset(accepting))
        _set(self, "transitions", tuple(transitions))

    def out_map(self):
        """state id -> list of outgoing transitions."""
        m = {q: [] for q in self.states}
        for t in self.transitions:
            m[t.src].append(t)
        return m


class SizeTriple(_Value):
    __slots__ = ("n", "m", "l")

    def as_dict(self):
        return {"n": self.n, "m": self.m, "l": self.l}


def validate(a: Sfa) -> list:
    """All invariant violations, empty when the automaton is well-formed."""
    errs = []
    known = set(a.states)
    if len(known) != len(a.states):
        errs.append("duplicate state ids in state list")
    if a.initial not in known:
        errs.append(f"unknown state {a.initial!r} as initial")
    for q in sorted(a.accepting):
        if q not in known:
            errs.append(f"unknown state {q!r} in accepting set")
    seen = set()
    for t in a.transitions:
        if t.src not in known:
            errs.append(f"unknown state {t.src!r} as transition source")
        if t.dst not in known:
            errs.append(f"unknown state {t.dst!r} as transition target")
        key = (t.src, t.pred, t.dst)
        if key in seen:
            errs.append(f"duplicate transition {t.src!r} -> {t.dst!r}")
        seen.add(key)
        errs.extend(_check_pred(a.binding, t.pred))
    return errs


def _check_pred(binding: AlgebraBinding, p: Predicate) -> list:
    try:
        predicate_size(p)  # raises on any node, root or below, that is not a predicate
    except TypeError as e:
        return [str(e)]
    errs = []
    for payload in iter_atoms(p):
        try:
            binding.check_atom(payload)
        except Exception as e:
            errs.append(str(e))
    return errs


def is_deterministic(a: Sfa, counters: OpCounters | None = None) -> bool:
    """No two distinct transitions from one state admit a common letter:
    _Side.deterministic, one sat call per state with two outgoing
    transitions or more, up to the first state where two of them overlap."""
    return _Side(a, counters).deterministic()


def is_complete(a: Sfa, counters: OpCounters | None = None) -> bool:
    """Every state has a transition for every letter: no state has a
    residual (_Side.residual), checked up to the first state that has one."""
    side = _Side(a, counters)
    return not any(side.residual(q) for q in side.out)


def _with_sink(a: Sfa, residuals) -> Sfa:
    """a plus a fresh non-accepting sink taking each state's residual, from
    (state, its transitions, residual) triples in state order; a itself
    when every residual is empty.  Neat a stays neat (the residual's basic
    predicates); otherwise a state's edge negates its predicates' union."""
    if not any(residual for _, _, residual in residuals):
        return a
    sink = fresh_state_name(set(a.states), "sink")
    neat = is_neat(a)
    edges = []
    for q, ts, residual in residuals:
        if not residual:
            continue
        if neat:
            edges.extend(Transition(q, p, sink) for p in a.binding.basic_preds(residual))
        elif not ts:
            edges.append(Transition(q, TRUE, sink))
        else:
            edges.append(Transition(q, mk_not(mk_or([t.pred for t in ts])), sink))
    edges.append(Transition(sink, TRUE, sink))
    return Sfa(a.binding, a.states + (sink,), a.initial, a.accepting, a.transitions + tuple(edges))


def is_neat(a: Sfa) -> bool:
    return all(_is_basic(t.pred) for t in a.transitions)


def is_normalized(a: Sfa) -> bool:
    return len(edges_by_pair(a.transitions)) == len(a.transitions)


def is_feasible(a: Sfa, counters: OpCounters | None = None) -> bool:
    return all(a.binding.is_sat(t.pred, counters) for t in a.transitions)


def membership(a: Sfa, word, counters: OpCounters | None = None) -> bool:
    """Does the automaton accept the word?

    Frontier simulation: track the set of states reachable on the prefix
    read so far, so nondeterministic input needs no determinization.  For
    deterministic input the frontier never exceeds one state, which is the
    single-eval-per-letter fast path.
    """
    for letter in word:
        a.binding.check_letter(letter)
    out = a.out_map()
    frontier = {a.initial}
    for letter in word:
        frontier = {
            t.dst for q in frontier for t in out[q] if a.binding.evaluate(t.pred, letter)
        }
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def size_triple(a: Sfa) -> SizeTriple:
    """n, m, l; defined for any automaton, even one validate rejects."""
    m = max(Counter(t.src for t in a.transitions).values(), default=0)
    l = max((predicate_size(t.pred) for t in a.transitions), default=0)
    return SizeTriple(len(a.states), m, l)


def _explore(start, step, stop=None):
    """Breadth-first closure of start under step.

    step(key) yields (label, target key) pairs, keys being hashable.
    Returns the keys in discovery order, start first, and every yielded
    edge as (source index, label, target index), in yield order.  With
    stop, the walk ends at the first key, start included, for which
    stop(key) holds: that key is then the last key returned, and the edge
    that found it the last edge.
    """
    index = {start: 0}
    keys = [start]
    edges = []
    if stop is not None and stop(start):
        return keys, edges
    for i, key in enumerate(keys):  # keys grows while it is walked
        for label, target in step(key):
            j = index.setdefault(target, len(keys))
            edges.append((i, label, j))
            if j == len(keys):
                keys.append(target)
                if stop is not None and stop(target):
                    return keys, edges
    return keys, edges


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


def rename_states(a: Sfa, mapping) -> Sfa:
    """Rename every state through the mapping (must cover all states)."""
    return Sfa(
        a.binding,
        tuple(mapping[q] for q in a.states),
        mapping[a.initial],
        frozenset(mapping[q] for q in a.accepting),
        tuple(Transition(mapping[t.src], t.pred, mapping[t.dst]) for t in a.transitions),
    )


def edges_by_pair(ts) -> dict:
    """Group transitions by state pair: (src, dst) -> list of predicates,
    pairs and predicates both in first-occurrence order."""
    groups = {}
    for t in ts:
        groups.setdefault((t.src, t.dst), []).append(t.pred)
    return groups


def dedupe_transitions(ts):
    """Drop exact (src, pred, dst) duplicates, keeping first occurrences."""
    return tuple(dict.fromkeys(ts))


class _Side:
    """One input of a construction, a structural check or a counterexample
    search, read on demand.

    Caches live as long as the call: each state's edges are denoted the
    first time the call reads it, as a tuple; moves holds the complements
    only _minterms needs.  state reads a state, and det a macro-state, as
    a deterministic state, once, on its first visit.  Without counters the
    reading counts into its own.
    """

    def __init__(self, a: Sfa, counters: OpCounters | None = None):
        self.binding = a.binding
        self.counters = counters if counters is not None else OpCounters()
        self.out = a.out_map()
        self._single = {}
        self._edges = {}
        self._moves = {}
        self._states = {}
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

    def state(self, q):
        """The splitter (AlgebraBinding.splitter) of q's edges, q's in order
        plus any residual edge, to (); None when two of them share a letter."""
        states = self._states
        if q not in states:
            states[q] = self.binding.splitter(self.edges(q), (), self.counters)
        return states[q]

    def residual(self, q):
        """The letters no edge of q takes, falsy when there are none: the
        residual edge of state(q), or, when two edges of q overlap, the
        complement of their join, counting out-degree - 1 disjunctions."""
        s = self.state(q)
        if s is None:
            ds = [d for _, d in self.edges(q)]
            self.counters.disj_built += len(ds) - 1
            return self.binding.complement(self.binding.join(ds))
        rest = s.edges[len(self.out[q]) :]
        return rest and rest[0][1]

    def deterministic(self):
        """No state, reachable or not, has two edges that share a letter."""
        return all(self.state(q) is not None for q in self.out)

    def det(self, macro):
        """The splitter of a macro-state read as one deterministic state, its
        residual leading to (), whose lone edge loops.  A lone state is read
        by state, and when its edges overlap, like any other macro-state:
        by one _minterms search over its members' moves, each minterm that
        takes a move an edge to the sorted tuple of the states they reach."""
        s = self._det.get(macro)
        if s is None:
            binding = self.binding
            if len(macro) == 1:
                s = self.state(*macro)
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


def _signature_blocks(side, start, accepting):
    """Moore refinement of the macro-states side.det reaches from start by
    non-empty edges, the empty one () a sink that takes the letters the
    others leave out; for a deterministic input, its states and that sink.

    Blocks start as rejecting (0) and accepting (1: holding a state of
    accepting).  Each round a macro-state's signature is its block plus
    its splitter's signature, its letter -> block map as ints: nothing is
    joined.  Refinement stops when the block count stops growing.  Returns
    (macro-state -> block, pieces), pieces(b) reading block b's pieces off
    one member's splitter under the final blocks, as members' maps agree.
    """
    keys, _ = _explore(start, lambda m: ((d, dst) for dst, d in side.det(m).edges if d))
    index = {m: i for i, m in enumerate(keys)}
    splitters = [side.det(m) for m in keys]
    targets = [[index.get(dst, len(keys)) for dst, _ in s.edges] for s in splitters]
    block = [int(not accepting.isdisjoint(m)) for m in keys]
    count = len(set(block))
    while True:
        block.append(None)  # index len(keys): an empty edge's target, no key
        ids = {}
        refined = [
            ids.setdefault((block[i], s.signature([block[j] for j in ts], side.counters)), len(ids))
            for i, (s, ts) in enumerate(zip(splitters, targets))
        ]
        if len(ids) == count:
            break
        block, count = refined, len(ids)
    member = dict(zip(block, zip(splitters, targets)))
    return dict(zip(keys, block)), lambda b: member[b][0].pieces([block[j] for j in member[b][1]])
