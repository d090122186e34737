"""Seeded input generators for the benchmark workloads.

Everything takes an explicit random.Random, so one seed always yields the
same automata, rewrites and words.  Nothing here calls the code under test
to decide what an input means: language facts come from symfa.oracle in the
workload set-up, and the few semantic facts the generators need (is a random
propositional predicate non-trivial?) come from the small evaluator below.
"""

from itertools import product as iproduct

from symfa import (
    And,
    Atom,
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
    propositional_binding,
)

CUT_LO, CUT_HI = -12, 12


def _states(n, prefix="q"):
    return tuple(f"{prefix}{i}" for i in range(n))


def _accepting(rng, states):
    return frozenset(q for q in states if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# interval algebra


def det_interval_sfa(rng, n, cuts=4):
    """Complete deterministic neat SFA: per state, `cuts` distinct cut points
    split the line into cuts + 1 single-atom edges to random targets."""
    states = _states(n)
    edges = []
    for q in states:
        points = sorted(rng.sample(range(CUT_LO, CUT_HI), cuts))
        bounds = [NEG_INF] + points + [POS_INF]
        for lo, hi in zip(bounds, bounds[1:]):
            edges.append(Transition(q, Atom(IntervalAtom(lo, hi)), rng.choice(states)))
    return Sfa(interval_binding(), states, states[0], _accepting(rng, states), tuple(edges))


def _split_state(rng, a, suffix):
    """Duplicate one state; each incoming edge goes to either copy."""
    q = rng.choice(a.states)
    qc = q + suffix
    edges = []
    for t in a.transitions:
        dst = t.dst if t.dst != q else rng.choice((q, qc))
        edges.append(Transition(t.src, t.pred, dst))
    for t in a.transitions:
        if t.src == q:
            dst = t.dst if t.dst != q else rng.choice((q, qc))
            edges.append(Transition(qc, t.pred, dst))
    accepting = set(a.accepting) | ({qc} if q in a.accepting else set())
    return Sfa(a.binding, a.states + (qc,), a.initial, accepting, tuple(edges))


def _split_interval_edge(rng, a):
    """Cut one finite-width atom edge into two parallel edges."""
    candidates = [
        i
        for i, t in enumerate(a.transitions)
        if isinstance(t.pred.payload.lo, int)
        and isinstance(t.pred.payload.hi, int)
        and t.pred.payload.hi - t.pred.payload.lo >= 2
    ]
    if not candidates:
        return a
    i = rng.choice(candidates)
    t = a.transitions[i]
    atom = t.pred.payload
    cut = rng.randint(atom.lo + 1, atom.hi - 1)
    edges = list(a.transitions)
    edges[i : i + 1] = [
        Transition(t.src, Atom(IntervalAtom(atom.lo, cut)), t.dst),
        Transition(t.src, Atom(IntervalAtom(cut, atom.hi)), t.dst),
    ]
    return Sfa(a.binding, a.states, a.initial, a.accepting, tuple(edges))


def _shuffle_and_rename(rng, a, prefix):
    """Random state names and transition order; same language."""
    order = list(a.states)
    rng.shuffle(order)
    name = {q: f"{prefix}{i}" for i, q in enumerate(order)}
    edges = [Transition(name[t.src], t.pred, name[t.dst]) for t in a.transitions]
    rng.shuffle(edges)
    return Sfa(
        a.binding,
        tuple(name[q] for q in order),
        name[a.initial],
        frozenset(name[q] for q in a.accepting),
        tuple(edges),
    )


def interval_rewrite(rng, a):
    """Language-preserving rewrite that stays complete, deterministic and neat."""
    r = _split_state(rng, a, "x")
    r = _split_state(rng, r, "y")
    r = _split_interval_edge(rng, r)
    r = _split_interval_edge(rng, r)
    return _shuffle_and_rename(rng, r, "r")


def flip_accepting(rng, a):
    """The same automaton with one state's acceptance flipped."""
    q = rng.choice(a.states)
    return Sfa(a.binding, a.states, a.initial, a.accepting ^ {q}, a.transitions)


# ---------------------------------------------------------------------------
# propositional algebra


def prop_binding(k):
    return propositional_binding([f"p{i + 1}" for i in range(k)])


def _literal(rng, k):
    return Atom(LiteralAtom(rng.randrange(k), rng.random() < 0.5))


def general_pred(rng, k, size):
    """Random predicate tree of exactly `size` nodes (atoms and connectives)."""
    if size <= 1:
        return _literal(rng, k)
    if size == 2 or rng.random() < 0.2:
        return Not(general_pred(rng, k, size - 1))
    left = rng.randint(1, size - 2)
    kids = (general_pred(rng, k, left), general_pred(rng, k, size - 1 - left))
    return And(kids) if rng.random() < 0.5 else Or(kids)


def eval_pred(p, v):
    """Reference evaluator used only to pick non-trivial random predicates."""
    if isinstance(p, Atom):
        return v[p.payload.var] == (0 if p.payload.negated else 1)
    if isinstance(p, And):
        return all(eval_pred(c, v) for c in p.children)
    if isinstance(p, Or):
        return any(eval_pred(c, v) for c in p.children)
    if isinstance(p, Not):
        return not eval_pred(p.child, v)
    return p is TRUE


def nontrivial_pred(rng, k, size):
    """A general predicate that neither holds everywhere nor nowhere."""
    while True:
        p = general_pred(rng, k, size)
        seen = set()
        for v in iproduct((0, 1), repeat=k):
            seen.add(eval_pred(p, v))
            if len(seen) == 2:
                return p


def det_prop_sfa(rng, k, n, pred_size):
    """Complete deterministic SFA with two general edges per state: p and not p."""
    states = _states(n)
    edges = []
    for q in states:
        p = nontrivial_pred(rng, k, pred_size)
        edges.append(Transition(q, p, rng.choice(states)))
        edges.append(Transition(q, Not(p), rng.choice(states)))
    return Sfa(prop_binding(k), states, states[0], _accepting(rng, states), tuple(edges))


def det4_prop_sfa(rng, k, n, pred_size):
    """Complete deterministic SFA with four general edges per state, the
    cells of two random predicates p and r: p&r, p&!r, !p&r, !(p|r)."""
    states = _states(n)
    edges = []
    for q in states:
        p = nontrivial_pred(rng, k, pred_size)
        r = nontrivial_pred(rng, k, pred_size)
        for pred in (And((p, r)), And((p, Not(r))), And((Not(p), r)), Not(Or((p, r)))):
            edges.append(Transition(q, pred, rng.choice(states)))
    return Sfa(prop_binding(k), states, states[0], _accepting(rng, states), tuple(edges))


def _reexpress(rng, p, k):
    """An equivalent but differently shaped predicate."""
    style = rng.randrange(3)
    if style == 0:
        return Not(Not(p))
    if style == 1:
        return And((p, TRUE))
    return Or((p, And((p, _literal(rng, k)))))


def prop_rewrite(rng, a):
    """Language-preserving rewrite that stays complete and deterministic:
    one split state, two re-expressed labels, new names and edge order."""
    r = _split_state(rng, a, "x")
    edges = list(r.transitions)
    for i in rng.sample(range(len(edges)), 2):
        t = edges[i]
        edges[i] = Transition(t.src, _reexpress(rng, t.pred, a.binding.k), t.dst)
    r = Sfa(r.binding, r.states, r.initial, r.accepting, tuple(edges))
    return _shuffle_and_rename(rng, r, "r")


def monomial(rng, k, width):
    """Conjunction of `width` literals on distinct variables."""
    vs = sorted(rng.sample(range(k), width))
    return And(tuple(Atom(LiteralAtom(v, rng.random() < 0.5)) for v in vs))


def monomial_nfa(rng, k, n, m, width):
    """Nondeterministic SFA with m distinct monomial edges per state; the
    first edge of state i goes to state i+1, so every state is reachable."""
    states = _states(n)
    edges = []
    for i, q in enumerate(states):
        preds = set()
        while len(preds) < m:
            preds.add(monomial(rng, k, width))
        for j, pred in enumerate(sorted(preds, key=repr)):
            dst = states[(i + 1) % n] if j == 0 else rng.choice(states)
            edges.append(Transition(q, pred, dst))
    return Sfa(prop_binding(k), states, states[0], _accepting(rng, states), tuple(edges))


# ---------------------------------------------------------------------------
# words


def words(rng, letters, count, length):
    letters = list(letters)
    return [[rng.choice(letters) for _ in range(length)] for _ in range(count)]
