"""Symbolic finite automata: states plus predicate-labeled transitions.

An Sfa pairs a finite state graph with an algebra binding; each transition
carries a predicate over that algebra, so one edge stands for every letter
the predicate admits.  This module holds the data type, run semantics over
words, the structural classifications (deterministic, complete, neat,
normalized, feasible), the size triple <n, m, l>, and what the
constructions share: breadth-first exploration, state naming and the sink
completion adds.  Transition, Sfa and SizeTriple are immutable values
whose equality and hash predicates._Value builds from their fields: equal
when of one class with equal fields, hashed as their field tuple, so a
transition's identity is (src, pred, dst).
"""

from collections import Counter

from .algebra import AlgebraBinding, OpCounters
from .predicates import (
    TRUE,
    Predicate,
    PredicateClass,
    _Value,
    classify,
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
    """No two distinct transitions from one state admit a common letter.

    Each state with two or more outgoing transitions denotes them once and
    makes one sat call, its AlgebraBinding.splitter, which is None when two
    of them overlap; the check stops at the first such state.
    """
    binding = a.binding
    for ts in a.out_map().values():
        if len(ts) < 2:
            continue
        if binding.splitter([(None, binding.denote(t.pred)) for t in ts], None, counters) is None:
            return False
    return True


def is_complete(a: Sfa, counters: OpCounters | None = None) -> bool:
    """Every state has a transition for every letter: every residual (see
    _residuals) is empty, checked up to the first state whose is not."""
    return not any(residual for _, _, residual in _residuals(a, counters))


def _residuals(a: Sfa, counters: OpCounters | None = None):
    """Yield (state, its outgoing transitions, residual) in state order.

    The residual holds the letters no outgoing transition admits: the
    complement of the union of their denotations, one sat call and
    out-degree - 1 disjunctions per state.  Nondeterministic states are
    covered too.
    """
    binding = a.binding
    for q, ts in a.out_map().items():
        if counters is not None:
            counters.sat_calls += 1
            counters.disj_built += max(0, len(ts) - 1)
        yield q, ts, binding.complement(binding.join([binding.denote(t.pred) for t in ts]))


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
