"""Random automata, random predicates, and language-preserving rewrites.

Everything takes an explicit random.Random so test runs are reproducible.
Interval endpoints are drawn from a small pool; the oracle window always
covers them.  Deterministic generators build each state's outgoing edges
from a partition of the domain (line segments, or valuation groups), so
determinism holds by construction and completeness is a switch.
"""

import random

from symfa.oracle import concretize, default_alphabet
from symfa import (
    And,
    Atom,
    FALSE,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    Or,
    POS_INF,
    Sfa,
    TRUE,
    Transition,
    interval_binding,
    mk_and,
    mk_or,
    propositional_binding,
)
from symfa.propositional import all_valuations, disjoint_monomials, monomial_to_pred
from symfa.sfa import dedupe_transitions, rename_states
from symfa.transforms import fresh_state_name

POOL_LO, POOL_HI = -8, 16


def rand_interval_atom(rng: random.Random, lo=POOL_LO, hi=POOL_HI) -> IntervalAtom:
    a = NEG_INF if rng.random() < 0.12 else rng.randint(lo, hi - 1)
    if rng.random() < 0.12:
        b = POS_INF
    else:
        floor = a if a != NEG_INF else lo - 1
        b = rng.randint(floor + 1, hi)
    return IntervalAtom(a, b)


def rand_interval_pred(rng: random.Random, size: int):
    """Random predicate tree with roughly the requested parse-tree size."""
    if size <= 1:
        r = rng.random()
        if r < 0.04:
            return TRUE
        if r < 0.08:
            return FALSE
        return Atom(rand_interval_atom(rng))
    op = rng.random()
    if op < 0.2:
        return Not(rand_interval_pred(rng, size - 1))
    left = rng.randint(1, size - 1)
    kids = (rand_interval_pred(rng, left), rand_interval_pred(rng, size - 1 - left))
    return And(kids) if op < 0.6 else Or(kids)


def rand_literal(rng: random.Random, k: int) -> LiteralAtom:
    return LiteralAtom(rng.randrange(k), rng.random() < 0.5)


def rand_prop_pred(rng: random.Random, k: int, size: int):
    if size <= 1:
        r = rng.random()
        if r < 0.04:
            return TRUE
        if r < 0.08:
            return FALSE
        return Atom(rand_literal(rng, k))
    op = rng.random()
    if op < 0.2:
        return Not(rand_prop_pred(rng, k, size - 1))
    left = rng.randint(1, size - 1)
    kids = (rand_prop_pred(rng, k, left), rand_prop_pred(rng, k, size - 1 - left))
    return And(kids) if op < 0.6 else Or(kids)


def rand_monomial(rng: random.Random, k: int):
    vs = rng.sample(range(k), rng.randint(1, k))
    return mk_and([Atom(LiteralAtom(v, rng.random() < 0.5)) for v in sorted(vs)])


def _states(n: int):
    return tuple(f"q{i}" for i in range(n))


def _accepting(rng: random.Random, states):
    return frozenset(q for q in states if rng.random() < 0.4)


def rand_sfa(rng: random.Random, binding, n_max=4, m_max=3, pred_size=4) -> Sfa:
    """Unrestricted automaton: may be nondeterministic and incomplete."""
    states = _states(rng.randint(1, n_max))
    edges = []
    for q in states:
        for _ in range(rng.randint(0, m_max)):
            if binding.is_monotonic:
                pred = rand_interval_pred(rng, rng.randint(1, pred_size))
            else:
                pred = rand_prop_pred(rng, binding.k, rng.randint(1, pred_size))
            edges.append(Transition(q, pred, rng.choice(states)))
    return Sfa(binding, states, states[0], _accepting(rng, states), dedupe_transitions(edges))


def rand_neat_interval_sfa(rng: random.Random, n_max=4, m_max=3) -> Sfa:
    """Neat (atom or two-atom-conjunction edges), not necessarily det."""
    states = _states(rng.randint(1, n_max))
    edges = []
    for q in states:
        for _ in range(rng.randint(0, m_max)):
            atom = rand_interval_atom(rng)
            if rng.random() < 0.25:
                pred = mk_and([Atom(atom), Atom(rand_interval_atom(rng))])
            else:
                pred = Atom(atom)
            edges.append(Transition(q, pred, rng.choice(states)))
    return Sfa(interval_binding(), states, states[0], _accepting(rng, states), dedupe_transitions(edges))


def rand_neat_prop_sfa(rng: random.Random, k=3, n_max=4, m_max=3) -> Sfa:
    states = _states(rng.randint(1, n_max))
    edges = []
    for q in states:
        for _ in range(rng.randint(0, m_max)):
            edges.append(Transition(q, rand_monomial(rng, k), rng.choice(states)))
    return Sfa(
        propositional_binding([f"p{i + 1}" for i in range(k)]),
        states,
        states[0],
        _accepting(rng, states),
        dedupe_transitions(edges),
    )


def _segments(rng: random.Random, max_cuts: int):
    """Partition of the integer line into consecutive intervals."""
    cuts = sorted(rng.sample(range(POOL_LO, POOL_HI + 1), rng.randint(1, max_cuts)))
    bounds = [NEG_INF] + cuts + [POS_INF]
    return [IntervalAtom(a, b) for a, b in zip(bounds, bounds[1:])]


def rand_det_interval_sfa(
    rng: random.Random,
    n_max=4,
    max_cuts=4,
    complete=True,
    neat=True,
) -> Sfa:
    """Deterministic by construction: per state, one partition of the line.

    Each segment is assigned a target state (or dropped, when incomplete
    automata are allowed).  neat=True emits one single-atom edge per kept
    segment; otherwise segments sharing a target merge into one disjunction
    of at most two atoms (general predicates, still deterministic).
    """
    states = _states(rng.randint(1, n_max))
    edges = []
    for q in states:
        segs = _segments(rng, max_cuts)
        assignment = []
        for seg in segs:
            if complete or rng.random() < 0.8:
                assignment.append((seg, rng.choice(states)))
        if neat:
            for seg, dst in assignment:
                edges.append(Transition(q, Atom(seg), dst))
        else:
            by_dst = {}
            for seg, dst in assignment:
                by_dst.setdefault(dst, []).append(seg)
            for dst, atoms in by_dst.items():
                while atoms:
                    chunk, atoms = atoms[:2], atoms[2:]
                    edges.append(Transition(q, mk_or([Atom(s) for s in chunk]), dst))
    return Sfa(interval_binding(), states, states[0], _accepting(rng, states), tuple(edges))


def rand_det_prop_sfa(rng: random.Random, k=3, n_max=4, complete=True) -> Sfa:
    """Deterministic propositional automaton from a valuation partition."""
    binding = propositional_binding([f"p{i + 1}" for i in range(k)])
    states = _states(rng.randint(1, n_max))
    vals = list(all_valuations(k))
    edges = []
    for q in states:
        rng.shuffle(vals)
        groups = rng.randint(1, min(3, len(vals)))
        size = (len(vals) + groups - 1) // groups
        for g in range(groups):
            chunk = vals[g * size : (g + 1) * size]
            if not chunk or (not complete and rng.random() < 0.25):
                continue
            dst = rng.choice(states)
            mask = sum(1 << _valuation_index(v) for v in chunk)
            for m in disjoint_monomials(mask, k):
                edges.append(Transition(q, monomial_to_pred(m), dst))
    return Sfa(binding, states, states[0], _accepting(rng, states), tuple(edges))


def _valuation_index(v) -> int:
    """Position of a valuation in all_valuations order (its truth-table bit)."""
    i = 0
    for bit in v:
        i = 2 * i + bit
    return i


# ---------------------------------------------------------------------------
# language-preserving rewrites (for canonical-confluence and equivalence tests)


def split_state(rng: random.Random, a: Sfa) -> Sfa:
    """Duplicate one state; reroute each incoming edge to either copy."""
    q = rng.choice(a.states)
    qc = fresh_state_name(set(a.states), q + "x")
    edges = []
    for t in a.transitions:
        dst = t.dst if t.dst != q else rng.choice((q, qc))
        edges.append(Transition(t.src, t.pred, dst))
    for t in a.transitions:
        if t.src == q:
            dst = t.dst if t.dst != q else rng.choice((q, qc))
            edges.append(Transition(qc, t.pred, dst))
    accepting = set(a.accepting)
    if q in accepting:
        accepting.add(qc)
    return Sfa(a.binding, a.states + (qc,), a.initial, accepting, dedupe_transitions(edges))


def split_edge(rng: random.Random, a: Sfa) -> Sfa:
    """Split one single-atom edge into two parallel edges at a midpoint."""
    candidates = [
        (i, t)
        for i, t in enumerate(a.transitions)
        if isinstance(t.pred, Atom)
        and isinstance(t.pred.payload, IntervalAtom)
        and _width(t.pred.payload) >= 2
    ]
    if not candidates:
        return a
    i, t = rng.choice(candidates)
    atom = t.pred.payload
    cut = _midpoint(rng, atom)
    edges = list(a.transitions)
    edges[i : i + 1] = [
        Transition(t.src, Atom(IntervalAtom(atom.lo, cut)), t.dst),
        Transition(t.src, Atom(IntervalAtom(cut, atom.hi)), t.dst),
    ]
    return Sfa(a.binding, a.states, a.initial, a.accepting, dedupe_transitions(edges))


def _width(atom: IntervalAtom) -> int:
    if atom.lo == NEG_INF or atom.hi == POS_INF:
        return 2
    return atom.hi - atom.lo


def _midpoint(rng: random.Random, atom: IntervalAtom) -> int:
    if atom.lo == NEG_INF:
        hi = atom.hi if atom.hi != POS_INF else POOL_HI
        lo = min(POOL_LO - 3, hi - 2)
    else:
        lo = atom.lo
    hi = atom.hi if atom.hi != POS_INF else max(POOL_HI + 3, lo + 2)
    return rng.randint(lo + 1, hi - 1)


def reexpress_pred(rng: random.Random, a: Sfa) -> Sfa:
    """Replace one edge's predicate by an equivalent roundabout form."""
    if not a.transitions:
        return a
    i = rng.randrange(len(a.transitions))
    t = a.transitions[i]
    style = rng.random()
    if style < 0.4:
        pred = Not(Not(t.pred))
    elif (
        style < 0.7
        and isinstance(t.pred, Atom)
        and isinstance(t.pred.payload, IntervalAtom)
        and _width(t.pred.payload) >= 2
    ):
        atom = t.pred.payload
        cut = _midpoint(rng, atom)
        pred = Or((Atom(IntervalAtom(atom.lo, cut)), Atom(IntervalAtom(cut, atom.hi))))
    else:
        pred = And((t.pred, TRUE))
    edges = list(a.transitions)
    edges[i] = Transition(t.src, pred, t.dst)
    return Sfa(a.binding, a.states, a.initial, a.accepting, dedupe_transitions(edges))


def merge_parallel(rng: random.Random, a: Sfa) -> Sfa:
    """Merge one parallel-edge group into a single disjunction."""
    groups = {}
    for t in a.transitions:
        groups.setdefault((t.src, t.dst), []).append(t)
    multi = [g for g in groups.values() if len(g) >= 2]
    if not multi:
        return a
    group = rng.choice(multi)
    merged = Transition(group[0].src, mk_or([t.pred for t in group]), group[0].dst)
    edges = [t for t in a.transitions if t not in group]
    edges.append(merged)
    return Sfa(a.binding, a.states, a.initial, a.accepting, dedupe_transitions(edges))


def add_unsat_edge(rng: random.Random, a: Sfa) -> Sfa:
    """Add an edge nobody can take."""
    if not a.binding.is_monotonic:
        pred = mk_and([Atom(LiteralAtom(0)), Atom(LiteralAtom(0, True))])
    else:
        pred = mk_and([Atom(IntervalAtom(0, 1)), Atom(IntervalAtom(2, 3))])
    src = rng.choice(a.states)
    dst = rng.choice(a.states)
    edges = a.transitions + (Transition(src, pred, dst),)
    return Sfa(a.binding, a.states, a.initial, a.accepting, dedupe_transitions(edges))


REWRITES = (split_state, split_edge, reexpress_pred, merge_parallel, add_unsat_edge)


def rewrite(rng: random.Random, a: Sfa, rounds=3) -> Sfa:
    for _ in range(rounds):
        a = rng.choice(REWRITES)(rng, a)
    return a


def random_word(rng: random.Random, alphabet, max_len=4):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def combination_agrees(a: Sfa, b: Sfa, combined: Sfa, want) -> bool:
    """Does L(combined) equal want(L(a), L(b)) letter-for-letter?

    Exhaustive over the shared endpoint window: breadth-first search of the
    three-way product DFA visits every reachable acceptance combination, so
    a True answer is exact (combined predicates only reuse a's and b's
    endpoints).  want is a boolean combiner such as `lambda x, y: x and y`.
    """
    alphabet = default_alphabet(a, b, combined)
    da = concretize(a, alphabet)
    db = concretize(b, alphabet)
    dc = concretize(combined, alphabet)
    start = (da.initial, db.initial, dc.initial)
    seen = {start}
    queue = [start]
    while queue:
        sa, sb, sc = queue.pop(0)
        if want(sa in da.accepting, sb in db.accepting) != (sc in dc.accepting):
            return False
        for x in alphabet:
            nxt = (da.delta[(sa, x)], db.delta[(sb, x)], dc.delta[(sc, x)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


COMMA_NAMES = ("a", "b", "a,b", "p", "p,q", "q", "q,r", "r")


def comma_nfa() -> Sfa:
    """NFA whose subset construction reaches both {a, b} and {"a,b"}: two
    macro-states that "{" + ",".join(...) + "}" alone would name "{a,b}".
    It accepts ([10,20) [0,5))* [0,10)+: "a,b" rejects and returns to s on
    [0,5)."""
    return Sfa(
        interval_binding(),
        ("s", "a", "b", "a,b"),
        "s",
        {"a"},
        (
            Transition("s", Atom(IntervalAtom(0, 10)), "a"),
            Transition("s", Atom(IntervalAtom(0, 10)), "b"),
            Transition("s", Atom(IntervalAtom(10, 20)), "a,b"),
            Transition("a", Atom(IntervalAtom(0, 10)), "a"),
            Transition("b", Atom(IntervalAtom(0, 10)), "b"),
            Transition("a,b", Atom(IntervalAtom(0, 5)), "s"),
        ),
    )


def rand_comma_named_sfa(rng: random.Random) -> Sfa:
    """rand_sfa over intervals with states drawn from COMMA_NAMES, so pair
    and subset names of its constructions can coincide."""
    a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=2)
    names = rng.sample(COMMA_NAMES, len(a.states))
    return rename_states(a, dict(zip(a.states, names)))
