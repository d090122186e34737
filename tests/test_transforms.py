import random
from collections import Counter

from symfa import (
    And,
    Atom,
    FULL_INTERVAL,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    OpCounters,
    Or,
    POS_INF,
    Sfa,
    TRUE,
    Transition,
    canonical_minimal_neat,
    canonical_minimal_normalized,
    complete,
    interval_binding,
    is_complete,
    is_deterministic,
    is_feasible,
    is_neat,
    is_normalized,
    mk_and,
    mk_or,
    predicate_size,
    propositional_binding,
    size_triple,
    to_feasible,
    to_neat,
    to_normalized,
)
from symfa.oracle import oracle_equal
from genlib import (
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_neat_interval_sfa,
    rand_neat_prop_sfa,
    rand_sfa,
    rewrite,
)


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def lit(i, neg=False):
    return Atom(LiteralAtom(i, neg))


def loop_sfa(binding, pred):
    return Sfa(binding, ("q0",), "q0", {"q0"}, (Transition("q0", pred, "q0"),))


def test_to_neat_expands_interval_negation():
    a = loop_sfa(interval_binding(), Not(ia(0, 200)))
    n = to_neat(a)
    assert n.transitions == (
        Transition("q0", ia(NEG_INF, 0), "q0"),
        Transition("q0", ia(200, POS_INF), "q0"),
    )
    assert is_neat(n)


def test_to_neat_merges_overlapping_disjunction():
    a = loop_sfa(interval_binding(), Or((ia(0, 100), ia(50, 200))))
    n = to_neat(a)
    assert n.transitions == (Transition("q0", ia(0, 200), "q0"),)


def test_to_neat_returns_neat_input_unchanged():
    a = loop_sfa(interval_binding(), And((ia(0, 100), ia(50, 200))))
    assert to_neat(a) is a


def test_to_neat_propositional_monomials():
    binding = propositional_binding(["p1", "p2", "p3"])
    pred = And((lit(0), Or((lit(1, True), And((lit(1), lit(2)))))))
    n = to_neat(loop_sfa(binding, pred))
    # the truth table's three-way cover: p1 & p3 holds on both sides of p2
    assert n.transitions == (
        Transition("q0", And((lit(0), lit(2))), "q0"),
        Transition("q0", And((lit(0), lit(1, True), lit(2, True))), "q0"),
    )
    assert is_neat(n)


def test_to_neat_does_not_distribute_a_conjunction_of_disjunctions():
    """40 copies of p1 | p2 have 2^40 distributed monomials; the truth
    table gives the two pieces of the cover at once."""
    binding = propositional_binding(["p1", "p2"])
    n = to_neat(loop_sfa(binding, And((Or((lit(0), lit(1))),) * 40)))
    assert n.transitions == (
        Transition("q0", lit(1), "q0"),
        Transition("q0", And((lit(0), lit(1, True))), "q0"),
    )


def test_to_neat_preserves_language_and_interval_size_bound():
    rng = random.Random(41)
    for _ in range(40):
        a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=5)
        n = to_neat(a)
        assert is_neat(n)
        assert n.states == a.states and n.accepting == a.accepting
        assert len(n.transitions) <= 2 * sum(
            predicate_size(t.pred) for t in a.transitions
        )
        assert oracle_equal(a, n)
    binding = propositional_binding(["p1", "p2", "p3"])
    for _ in range(25):
        a = rand_sfa(rng, binding, n_max=3, m_max=3, pred_size=4)
        n = to_neat(a)
        assert is_neat(n)
        assert oracle_equal(a, n)


def test_to_normalized_merges_parallel_edges():
    a = Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (
            Transition("q0", ia(0, 10), "q1"),
            Transition("q0", ia(20, 30), "q1"),
            Transition("q0", ia(40, 50), "q1"),
        ),
    )
    n = to_normalized(a)
    assert n.transitions == (
        Transition("q0", Or((ia(0, 10), ia(20, 30), ia(40, 50))), "q1"),
    )
    assert is_normalized(n)
    assert oracle_equal(a, n)
    assert to_neat(n) == a


def test_to_normalized_returns_normalized_input_unchanged(two_state):
    assert to_normalized(two_state) is two_state


def test_to_normalized_preserves_language():
    rng = random.Random(43)
    for _ in range(40):
        a = rand_neat_interval_sfa(rng)
        n = to_normalized(a)
        assert is_normalized(n)
        assert size_triple(n).m <= size_triple(a).m
        assert oracle_equal(a, n)


def test_to_feasible_drops_unsat_edges():
    a = Sfa(
        interval_binding(),
        ("q0",),
        "q0",
        {"q0"},
        (
            Transition("q0", mk_and([ia(0, 10), ia(20, 30)]), "q0"),
            Transition("q0", ia(5, 6), "q0"),
        ),
    )
    f = to_feasible(a)
    assert f.transitions == (Transition("q0", ia(5, 6), "q0"),)
    assert f.states == a.states
    assert is_feasible(f)


def test_to_feasible_returns_feasible_input_unchanged(two_state):
    assert to_feasible(two_state) is two_state


def test_complete_fills_interval_gaps():
    a = Sfa(
        interval_binding(),
        ("q", "r"),
        "q",
        {"r"},
        (Transition("q", ia(10, 20), "q"), Transition("r", TRUE, "r")),
    )
    c = complete(a)
    assert c == Sfa(
        interval_binding(),
        ("q", "r", "sink"),
        "q",
        {"r"},
        (
            Transition("q", ia(10, 20), "q"),
            Transition("r", TRUE, "r"),
            Transition("q", ia(NEG_INF, 10), "sink"),
            Transition("q", ia(20, POS_INF), "sink"),
            Transition("sink", TRUE, "sink"),
        ),
    )
    assert is_complete(c) and is_neat(c)


def test_complete_returns_complete_input_unchanged(two_state):
    assert complete(two_state) is two_state


def test_complete_state_without_outgoing_edges():
    a = Sfa(interval_binding(), ("q0",), "q0", {"q0"}, ())
    c = complete(a)
    assert c.states == ("q0", "sink")
    assert c.transitions == (
        Transition("q0", Atom(FULL_INTERVAL), "sink"),
        Transition("sink", TRUE, "sink"),
    )


def test_complete_general_predicate_gets_one_residual_edge():
    a = loop_sfa(interval_binding(), Not(ia(0, 100)))
    c = complete(a)
    assert len(c.transitions) == len(a.transitions) + 2
    assert c.states == ("q0", "sink")
    assert is_complete(c)
    assert oracle_equal(a, c)


def test_complete_propositional_monomial_residual():
    binding = propositional_binding(["p1", "p2"])
    a = loop_sfa(binding, lit(0))
    c = complete(a)
    assert c.transitions == (
        Transition("q0", lit(0), "q0"),
        Transition("q0", lit(0, True), "sink"),
        Transition("sink", TRUE, "sink"),
    )
    assert is_complete(c) and is_neat(c)


def test_complete_picks_fresh_sink_name():
    a = Sfa(interval_binding(), ("sink",), "sink", set(), ())
    c = complete(a)
    assert c.states == ("sink", "sink1")


def test_complete_properties():
    rng = random.Random(47)
    cases = []
    for _ in range(25):
        cases.append(rand_neat_interval_sfa(rng))
        cases.append(rand_sfa(rng, interval_binding(), n_max=3, m_max=3))
        cases.append(rand_neat_prop_sfa(rng))
    for _ in range(15):
        cases.append(rand_det_interval_sfa(rng, complete=False))
        cases.append(rand_det_prop_sfa(rng, complete=False))
    for a in cases:
        t = size_triple(a)
        counters = OpCounters()
        c = complete(a, counters)
        # one sat call per state with two edges or more, sink or no sink
        assert counters.sat_calls == sum(s for s, _, _ in _reading_costs(a))
        assert is_complete(c)
        if a.binding.is_monotonic:
            assert len(c.transitions) - len(a.transitions) <= t.n * (t.m + 1) + 1
        assert oracle_equal(a, c)
        if is_neat(a):
            assert is_neat(c)
        if is_deterministic(a):
            assert is_deterministic(c)


def _reading_costs(a):
    """Per state, in state order, (sat calls, disjunctions, residual) of one
    reading, found pairwise: one sat call at a state with two edges or
    more, out-degree - 1 disjunctions more where two of them overlap, and
    the complement of the join of the edges' denotations."""
    b = a.binding
    for ts in a.out_map().values():
        ds = [b.denote(t.pred) for t in ts]
        overlap = any(b.meet(x, y) for i, x in enumerate(ds) for y in ds[i + 1 :])
        yield int(len(ds) > 1), len(ds) - 1 if overlap else 0, b.complement(b.join(ds))


def test_complete_and_is_complete_read_each_state_once():
    """complete leads each state's residual to the sink, also where two
    edges overlap and no splitter gives it; is_complete counts the same
    costs up to the first state that has a residual."""
    rng = random.Random(59)
    makers = (
        lambda: rand_sfa(rng, interval_binding(), m_max=4),
        lambda: rand_sfa(rng, propositional_binding(["p1", "p2", "p3"]), m_max=4),
        lambda: rand_det_interval_sfa(rng, complete=False),
        lambda: rand_det_prop_sfa(rng, complete=False),
    )
    kinds = Counter()
    for i in range(160):
        a = makers[i % 4]()
        b = a.binding
        costs = list(_reading_costs(a))
        counters = OpCounters()
        c = complete(a, counters)
        assert counters == OpCounters(sum(s for s, _, _ in costs), 0, sum(d for _, d, _ in costs))
        sink = set(c.states) - set(a.states)
        out = c.out_map()
        for q, (s, d, residual) in zip(a.states, costs):
            assert b.join([b.denote(t.pred) for t in out[q] if t.dst in sink]) == residual
            kinds[b.is_monotonic, min(len(a.out_map()[q]), 2), d > 0] += 1
        upto = next((j + 1 for j, (_, _, r) in enumerate(costs) if r), len(costs))
        counters = OpCounters()
        assert is_complete(a, counters) == (not any(r for _, _, r in costs))
        assert counters == OpCounters(
            sum(s for s, _, _ in costs[:upto]), 0, sum(d for _, d, _ in costs[:upto])
        )
    # both algebras: states with no edge, one edge, disjoint and overlapping edges
    assert all(kinds[m, n, o] for m in (True, False) for n, o in ((0, 0), (1, 0), (2, 0), (2, 1)))


def test_canonical_neat_two_state_is_a_fixed_point(two_state):
    assert canonical_minimal_neat(two_state) == two_state


def test_canonical_neat_idempotent():
    rng = random.Random(53)
    bindings = (interval_binding(), propositional_binding(["p1", "p2", "p3"]))
    for i in range(40):
        a = rand_sfa(rng, bindings[i % 2], n_max=3, m_max=3, pred_size=3)
        c = canonical_minimal_neat(a)
        assert canonical_minimal_neat(c) == c
        assert is_neat(c) and is_deterministic(c) and is_complete(c)
        assert oracle_equal(a, c)


def test_canonical_confluence_under_rewrites():
    rng = random.Random(59)
    for _ in range(25):
        a = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
        b = rewrite(rng, a, rounds=3)
        assert canonical_minimal_neat(a) == canonical_minimal_neat(b)
        assert canonical_minimal_normalized(a) == canonical_minimal_normalized(b)


def test_canonical_normalized_shape(two_state):
    c = canonical_minimal_normalized(two_state)
    assert c == two_state
    rng = random.Random(61)
    bindings = (interval_binding(), propositional_binding(["p1", "p2", "p3"]))
    for i in range(20):
        a = rand_sfa(rng, bindings[i % 2], n_max=3, m_max=3, pred_size=3)
        c = canonical_minimal_normalized(a)
        assert is_normalized(c) and is_deterministic(c) and is_complete(c)
        assert oracle_equal(a, c)
        # a source's edges are disjoint, so each one's first letter is distinct
        idx = {q: i for i, q in enumerate(c.states)}
        keys = [(idx[t.src], c.binding.sat(t.pred)) for t in c.transitions]
        assert keys == sorted(keys)


def test_canonical_forms_of_propositional_input():
    a = loop_sfa(propositional_binding(["p1"]), lit(0))
    assert canonical_minimal_neat(a).transitions == (
        Transition("q0", lit(0, True), "q1"),
        Transition("q0", lit(0), "q0"),
        Transition("q1", TRUE, "q1"),
    )
    rng = random.Random(67)
    for _ in range(20):
        a = rand_sfa(rng, propositional_binding(["p1", "p2", "p3"]), n_max=3, m_max=3)
        for form, shaped in (
            (canonical_minimal_neat, is_neat),
            (canonical_minimal_normalized, is_normalized),
        ):
            c = form(a)
            assert shaped(c) and is_deterministic(c) and is_complete(c)
            assert oracle_equal(a, c)
