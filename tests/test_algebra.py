import random

import pytest

from symfa import (
    And,
    Atom,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    OpCounters,
    Or,
    POS_INF,
    UnsupportedAlgebra,
    interval_binding,
    mk_and,
    propositional_binding,
)
from symfa.algebra import IntervalBinding, PropositionalBinding
from symfa.propositional import all_valuations
from genlib import rand_interval_atom, rand_interval_pred, rand_monomial, rand_prop_pred


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def test_propositional_binding_enforces_distinct_names():
    with pytest.raises(UnsupportedAlgebra):
        propositional_binding(["p", "p"])
    with pytest.raises(UnsupportedAlgebra):
        propositional_binding([])
    with pytest.raises(UnsupportedAlgebra):
        propositional_binding([f"p{i}" for i in range(17)])


def test_interval_binding_takes_no_props():
    with pytest.raises(TypeError):
        IntervalBinding(("p1",))


def test_propositional_binding_keeps_props_as_a_tuple_of_nonempty_names():
    listed, tupled = propositional_binding(["p", "q"]), PropositionalBinding(("p", "q"))
    assert PropositionalBinding(["p", "q"]) == listed == tupled
    assert listed.props == ("p", "q")
    assert hash(listed) == hash(tupled)
    for bad in (["", "q"], ["p", 3], [None]):
        with pytest.raises(UnsupportedAlgebra):
            propositional_binding(bad)


def test_eval_interval_atom():
    b = interval_binding()
    assert b.evaluate(ia(0, 100), 50)
    assert not b.evaluate(Not(ia(0, 100)), 50)


def test_eval_propositional_conjunction():
    b = propositional_binding(["p1", "p2", "p3"])
    p = And((Atom(LiteralAtom(0)), Atom(LiteralAtom(1, True))))
    assert b.evaluate(p, (1, 0, 1))
    assert not b.evaluate(p, (1, 1, 1))


def test_check_letter_rejects_mismatches():
    b = interval_binding()
    with pytest.raises(TypeError):
        b.check_letter((1, 0))
    with pytest.raises(TypeError):
        b.check_letter(True)
    pb = propositional_binding(["p1", "p2"])
    with pytest.raises(TypeError):
        pb.check_letter(3)
    with pytest.raises(TypeError):
        pb.check_letter((1, 0, 1))


def test_sat_disjoint_intervals_is_unsat():
    b = interval_binding()
    assert b.sat(mk_and([ia(0, 10), ia(20, 30)])) is None


def test_sat_contradictory_literals_is_unsat():
    b = propositional_binding(["p1", "p2"])
    p = mk_and([Atom(LiteralAtom(0)), Atom(LiteralAtom(0, True))])
    assert b.sat(p) is None


def test_sat_witness_lands_in_the_overlap():
    b = interval_binding()
    w = b.sat(mk_and([ia(0, 100), ia(50, 150)]))
    assert w is not None and 50 <= w < 100


def test_sat_counts_calls():
    b = interval_binding()
    c = OpCounters()
    b.sat(ia(0, 10), c)
    b.sat(ia(0, 10), c)
    assert c.sat_calls == 2


def test_sat_witness_always_satisfies():
    rng = random.Random(7)
    b = interval_binding()
    pb = propositional_binding(["p1", "p2", "p3"])
    for _ in range(300):
        p = rand_interval_pred(rng, rng.randint(1, 8))
        w = b.sat(p)
        if w is not None:
            assert b.evaluate(p, w)
        q = rand_prop_pred(rng, 3, rng.randint(1, 8))
        v = pb.sat(q)
        if v is not None:
            assert pb.evaluate(q, v)


def _check_witness(b, p):
    x = b.denote(p)
    w = b.witness(x)
    assert (w is None) == (not x)
    if w is not None:
        assert b.evaluate(p, w)
    assert b.sat(p) == w


def test_witness_is_none_exactly_when_empty_and_matches_sat():
    rng = random.Random(17)
    b = interval_binding()
    pb = propositional_binding(["p1", "p2", "p3", "p4"])
    for _ in range(300):
        _check_witness(b, rand_interval_pred(rng, rng.randint(1, 10)))
        _check_witness(b, mk_and([Atom(rand_interval_atom(rng)) for _ in range(rng.randint(1, 3))]))
        _check_witness(pb, rand_prop_pred(rng, 4, rng.randint(1, 10)))
        # basic predicates are decided on their truth table like any other
        _check_witness(pb, rand_monomial(rng, 4))
        _check_witness(pb, mk_and([rand_monomial(rng, 4), rand_monomial(rng, 4)]))


def test_prop_witness_is_first_satisfying_valuation():
    rng = random.Random(19)
    for k in range(3, 9):
        pb = propositional_binding([f"p{i}" for i in range(k)])
        for _ in range(40):
            p = rand_prop_pred(rng, k, rng.randint(1, 12))
            expect = next((v for v in all_valuations(k) if pb.evaluate(p, v)), None)
            assert pb.witness(pb.denote(p)) == expect
    pb = propositional_binding(["p1", "p2", "p3"])
    vals = list(all_valuations(3))
    for mask in range(1 << 8):
        expect = next((v for i, v in enumerate(vals) if mask >> i & 1), None)
        assert pb.witness(mask) == expect


def test_eval_respects_connective_semantics():
    rng = random.Random(11)
    b = interval_binding()
    for _ in range(200):
        p = rand_interval_pred(rng, rng.randint(1, 6))
        q = rand_interval_pred(rng, rng.randint(1, 6))
        x = rng.randint(-12, 20)
        assert b.evaluate(And((p, q)), x) == (b.evaluate(p, x) and b.evaluate(q, x))
        assert b.evaluate(Or((p, q)), x) == (b.evaluate(p, x) or b.evaluate(q, x))
        assert b.evaluate(Not(p), x) == (not b.evaluate(p, x))


def _disjoint_interval_edges(rng, b, m):
    """m edges whose denotations split a random cut of the line: touching
    segments of one edge merge, an edge may get none (empty denotation),
    and some segments go to no edge at all."""
    cuts = sorted(rng.sample(range(-6, 7), rng.randint(0, 8)))
    bounds = [NEG_INF] + cuts + [POS_INF]
    owned = [[] for _ in range(m)]
    for lo, hi in zip(bounds, bounds[1:]):
        j = rng.randrange(m + 1)
        if j < m:
            owned[j].append(IntervalAtom(lo, hi))
    return [b.join([(a,) for a in atoms]) for atoms in owned]


def _disjoint_tables(rng, k, m):
    """m truth tables that split a random subset of the 2^k valuations."""
    owned = [0] * (m + 1)
    for i in range(1 << k):
        owned[rng.randrange(m + 1)] |= 1 << i
    return owned[:m]


def _check_splitter(b, lefts, rights):
    """binding.splitter against the pairwise meets of lefts with rights plus
    the residual edge."""
    ds = [d for _, d in rights]
    s = b.splitter(rights, "rest")
    assert (s is None) == any(b.meet(d, e) for i, d in enumerate(ds) for e in ds[:i])
    if s is None:
        return False
    residual = b.complement(b.join(ds))
    edges = list(rights) + ([("rest", residual)] if residual else [])
    assert s.edges == tuple(edges)
    want = [(x, y, b.meet(d, e)) for x, d in lefts for y, e in edges if b.meet(d, e)]
    assert list(s.split(lefts)) == want
    return True


def test_interval_splitter_agrees_with_pairwise_meets():
    rng = random.Random(41)
    b = interval_binding()
    split = 0
    for _ in range(800):
        # left edges may overlap, as an NFA state's do
        lefts = [
            (f"x{i}", b.denote(rand_interval_pred(rng, rng.randint(1, 6))))
            for i in range(rng.randint(0, 5))
        ]
        m = rng.randint(0, 5)
        if rng.random() < 0.3:
            ds = [b.denote(rand_interval_pred(rng, rng.randint(1, 4))) for _ in range(m)]
        else:
            ds = _disjoint_interval_edges(rng, b, m)
        split += _check_splitter(b, lefts, [(f"y{j}", d) for j, d in enumerate(ds)])
    assert split > 500


def test_truth_table_splitter_agrees_with_pairwise_meets():
    rng = random.Random(43)
    split = 0
    for k in range(1, 7):
        pb = propositional_binding([f"p{i + 1}" for i in range(k)])
        full = pb.full
        for _ in range(150):
            lefts = [(f"x{i}", rng.randint(0, full)) for i in range(rng.randint(0, 4))]
            m = rng.randint(0, 4)
            if rng.random() < 0.3:
                ds = [rng.randint(0, full) for _ in range(m)]
            else:
                ds = _disjoint_tables(rng, k, m)
            split += _check_splitter(pb, lefts, [(f"y{j}", d) for j, d in enumerate(ds)])
    assert split > 600
