import random

import pytest

from symfa import (
    And,
    Atom,
    LiteralAtom,
    Not,
    Or,
    TRUE,
    UnsupportedAlgebra,
    mk_and,
    mk_or,
    propositional_binding,
)
from symfa.propositional import (
    all_valuations,
    disjoint_monomials,
    mask_of,
    monomial_to_pred,
    monomials_of,
)
from genlib import rand_monomial, rand_prop_pred

K = 3
BINDING = propositional_binding(["p1", "p2", "p3"])


def lit(var, neg=False):
    return Atom(LiteralAtom(var, neg))


def table(vals, k=K):
    """Truth table with a bit set for each listed valuation."""
    return sum(1 << i for i, v in enumerate(all_valuations(k)) if v in vals)


def test_monomial_sat_assigns_required_polarities():
    m = mk_and([lit(0), lit(1, True), lit(2)])
    assert BINDING.sat(m) == (1, 0, 1)
    # unconstrained variables get 0: the lexicographically least valuation
    assert BINDING.sat(lit(1, True)) == (0, 0, 0)
    assert BINDING.sat(mk_and([lit(2), lit(0, True)])) == (0, 0, 1)


def test_monomial_sat_contradiction():
    assert BINDING.sat(mk_and([lit(0), lit(0, True)])) is None
    assert BINDING.witness(BINDING.denote(mk_and([lit(1), lit(2), lit(1, True)]))) is None


def test_monomial_sat_empty_is_all_zero():
    assert BINDING.sat(monomial_to_pred(())) == (0, 0, 0)


def test_prop_sat_returns_first_lexicographic_witness():
    psi = Or((And((lit(0), lit(1, True))), And((lit(0), lit(1), lit(2)))))
    assert BINDING.sat(psi) == (1, 0, 0)
    assert mask_of(psi, K) == table({(1, 0, 0), (1, 0, 1), (1, 1, 1)})


def test_prop_sat_contradiction_is_none():
    assert BINDING.sat(mk_and([lit(0), Not(lit(0))])) is None


def test_prop_sat_true_is_all_zero():
    assert propositional_binding(["p1", "p2"]).sat(TRUE) == (0, 0)


def test_prop_sat_rejects_oversized_k():
    with pytest.raises(UnsupportedAlgebra):
        propositional_binding([f"p{i + 1}" for i in range(17)])


def test_prop_sat_agrees_with_enumeration():
    rng = random.Random(21)
    for _ in range(300):
        p = rand_prop_pred(rng, K, rng.randint(1, 8))
        expect = next((v for v in all_valuations(K) if BINDING.evaluate(p, v)), None)
        assert BINDING.sat(p) == expect
    for _ in range(300):
        m = mk_and([rand_monomial(rng, K) for _ in range(rng.randint(1, 2))])
        expect = next((v for v in all_valuations(K) if BINDING.evaluate(m, v)), None)
        assert BINDING.sat(m) == expect


# The DNF of a proposition is its monomials_of list; these tests keep the
# names they had when a predicate-building wrapper sat on top of it.


def test_prop_to_dnf_distributes():
    p = And((Or((lit(0), lit(1))), lit(2)))
    assert monomials_of(p) == [
        (LiteralAtom(0, False), LiteralAtom(2, False)),
        (LiteralAtom(1, False), LiteralAtom(2, False)),
    ]


def test_prop_to_dnf_keeps_monomials():
    m = And((lit(0), lit(1, True)))
    assert monomials_of(m) == [(LiteralAtom(0, False), LiteralAtom(1, True))]
    assert monomial_to_pred(monomials_of(m)[0]) == m


def test_prop_to_dnf_drops_contradictions():
    assert monomials_of(mk_and([lit(0), Not(lit(0))])) == []


def test_prop_to_dnf_equivalence_and_monomial_shape():
    rng = random.Random(23)
    for _ in range(200):
        p = rand_prop_pred(rng, K, rng.randint(1, 7))
        mono = monomials_of(p)
        d = mk_or([monomial_to_pred(m) for m in mono])
        assert mask_of(d, K) == mask_of(p, K)
        for m in mono:
            assert BINDING.sat(monomial_to_pred(m)) is not None


def test_disjoint_monomials_partition_their_mask():
    rng = random.Random(25)
    vals = list(all_valuations(K))
    for _ in range(200):
        chosen = table({v for v in vals if rng.random() < 0.5})
        cover = disjoint_monomials(chosen, K)
        seen = 0
        for m in cover:
            mask = mask_of(monomial_to_pred(m), K)
            assert not (mask & seen)
            seen |= mask
        assert seen == chosen


@pytest.mark.parametrize("k", [8, 10])
def test_truth_tables_agree_with_evaluate_exhaustively(k):
    binding = propositional_binding([f"p{i + 1}" for i in range(k)])
    vals = list(all_valuations(k))
    rng = random.Random(k)
    for _ in range(25):
        p = rand_prop_pred(rng, k, rng.randint(4, 12))
        truth = [binding.evaluate(p, v) for v in vals]
        mask = mask_of(p, k)
        assert [mask >> i & 1 == 1 for i in range(len(vals))] == truth
        assert binding.sat(p) == next((v for v, t in zip(vals, truth) if t), None)
        cover = disjoint_monomials(mask, k)
        assert sum(mask_of(monomial_to_pred(m), k) for m in cover) == mask


def test_k16_witnesses_satisfy_and_contradictions_are_none():
    k = 16
    binding = propositional_binding([f"p{i + 1}" for i in range(k)])
    rng = random.Random(16)
    for _ in range(20):
        p = rand_prop_pred(rng, k, rng.randint(6, 14))
        w = binding.sat(p)
        if w is not None:
            assert binding.evaluate(p, w)
        assert binding.sat(Not(Or((p, Not(p))))) is None
        assert binding.sat(And((p, Not(p)))) is None
