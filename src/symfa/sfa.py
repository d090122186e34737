"""Symbolic finite automata: states plus predicate-labeled transitions.

An Sfa pairs a finite state graph with an algebra binding; each transition
carries a predicate over that algebra, so one edge stands for every letter
the predicate admits.  This module holds the data type, run semantics over
words, the structural classifications (deterministic, complete, neat,
normalized, feasible) and the size triple <n, m, l>.
"""

from dataclasses import dataclass

from .algebra import AlgebraBinding, OpCounters
from .predicates import (
    And,
    Atom,
    Not,
    Or,
    Predicate,
    PredicateClass,
    _FalsePred,
    _TruePred,
    classify,
    iter_atoms,
    predicate_size,
)


@dataclass(frozen=True)
class Transition:
    src: str
    pred: Predicate
    dst: str


@dataclass(frozen=True)
class Sfa:
    """Automaton over an algebra binding.

    states is an ordered tuple of distinct ids; transitions keep their
    declaration order.  Construction only normalizes container types;
    invariant checking is validate(), which reports violations as data so
    the CLI can show them for files we did not build ourselves.
    """

    binding: AlgebraBinding
    states: tuple
    initial: str
    accepting: frozenset
    transitions: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def out_map(self):
        """state id -> list of outgoing transitions."""
        m = {q: [] for q in self.states}
        for t in self.transitions:
            m[t.src].append(t)
        return m


@dataclass(frozen=True)
class SizeTriple:
    n: int
    m: int
    l: int

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
    if isinstance(p, (_TruePred, _FalsePred)):
        return []
    if isinstance(p, (And, Or, Not)) or isinstance(p, Atom):
        errs = []
        for payload in iter_atoms(p):
            try:
                binding.check_atom(payload)
            except Exception as e:
                errs.append(str(e))
        return errs
    return [f"not a predicate: {p!r}"]


def is_deterministic(a: Sfa, counters: OpCounters | None = None) -> bool:
    """No two distinct transitions from one state admit a common letter.

    Each state with two or more outgoing transitions denotes them once and
    makes one sat call: an overlap test on the denotations, stopping at the
    first state that has one.
    """
    binding = a.binding
    for ts in a.out_map().values():
        if len(ts) < 2:
            continue
        if counters is not None:
            counters.sat_calls += 1
        if binding.overlapping([binding.denote(t.pred) for t in ts]):
            return False
    return True


def is_complete(a: Sfa, counters: OpCounters | None = None) -> bool:
    """Every state has a transition for every letter.

    One sat call per state: the complement of the union of its outgoing
    denotations must be empty.
    """
    binding = a.binding
    for ts in a.out_map().values():
        if counters is not None:
            counters.sat_calls += 1
            counters.disj_built += max(0, len(ts) - 1)
        if binding.complement(binding.join([binding.denote(t.pred) for t in ts])):
            return False
    return True


def is_neat(a: Sfa) -> bool:
    return all(classify(t.pred) is not PredicateClass.GENERAL for t in a.transitions)


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
    degree = {q: 0 for q in a.states}
    for t in a.transitions:
        degree[t.src] += 1
    m = max(degree.values(), default=0)
    l = max((predicate_size(t.pred) for t in a.transitions), default=0)
    return SizeTriple(len(a.states), m, l)


def reachable_states(a: Sfa) -> set:
    """States reachable from the initial state ignoring predicate content,
    found by the breadth-first _explore."""
    out = a.out_map()
    states, _ = _explore(a.initial, lambda q: ((None, t.dst) for t in out[q]))
    return set(states)


def _explore(start, step):
    """Breadth-first closure of start under step.

    step(key) yields (label, target key) pairs, keys being hashable.
    Returns the keys in discovery order, start first, and every yielded
    edge as (source index, label, target index), in yield order.
    """
    index = {start: 0}
    keys = [start]
    edges = []
    for i, key in enumerate(keys):  # keys grows while it is walked
        for label, target in step(key):
            j = index.setdefault(target, len(keys))
            if j == len(keys):
                keys.append(target)
            edges.append((i, label, j))
    return keys, edges


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
