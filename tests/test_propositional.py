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
from symfa.predicates import iter_atoms
from symfa.propositional import all_valuations, disjoint_monomials, mask_of
from genlib import monomial_to_pred, rand_monomial, rand_prop_pred, unreduced_monomials

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


def test_disjoint_monomials_partition_their_mask():
    rng = random.Random(25)
    vals = list(all_valuations(K))
    for _ in range(200):
        chosen = table({v for v in vals if rng.random() < 0.5})
        cover = disjoint_monomials(chosen, K)
        seen = 0
        for m in cover:
            mask = mask_of(m, K)
            assert not (mask & seen)
            seen |= mask
        assert seen == chosen


def _masks_on_some_variables(k, count=40):
    """Seeded truth tables, each of a random function of a random subset
    of the k variables, so many tables ignore some variables."""
    rng = random.Random(f"reduced/{k}")
    vals = list(all_valuations(k))
    for _ in range(count):
        used = [v for v in range(k) if rng.random() < 0.6]
        value, mask = {}, 0
        for i, v in enumerate(vals):
            key = tuple(v[j] for j in used)
            if value.setdefault(key, rng.random() < 0.5):
                mask |= 1 << i
        yield mask


def _depends_on(mask, var, k):
    """Whether flipping var changes the table's value on some valuation."""
    high = mask_of(lit(var), k)
    return (mask & high) >> (1 << (k - 1 - var)) != mask & ~high


@pytest.mark.parametrize("k", range(1, 11))
def test_reduced_cover_is_exact_and_skips_ignored_variables(k):
    sizes = [0, 0]
    for mask in _masks_on_some_variables(k):
        cover = disjoint_monomials(mask, k)
        seen = 0
        for piece in cover:
            m = mask_of(piece, k)
            assert m and not (m & seen)
            seen |= m
        assert seen == mask
        mentioned = {atom.var for piece in cover for atom in iter_atoms(piece)}
        assert all(_depends_on(mask, var, k) for var in mentioned)
        sizes[0] += len(cover)
        sizes[1] += len(unreduced_monomials(mask, k))
    # a heuristic, not a minimum: no more pieces than a split on every
    # variable over the seeded tables, but more on some single tables
    assert sizes[0] <= sizes[1]
    if k >= 3:
        mask = mask_of(mk_or([lit(0, True), mk_and([lit(1), lit(2)])]), k)
        assert (len(disjoint_monomials(mask, k)), len(unreduced_monomials(mask, k))) == (3, 2)


@pytest.mark.parametrize("k", range(1, 11))
def test_reduced_cover_pieces_are_the_mk_and_of_their_literals(k):
    """The cover builds its predicates directly; each must be the value
    mk_and builds from the piece's own literals in variable order: TRUE,
    one Atom, or an And of Atoms in strictly increasing var."""
    for mask in _masks_on_some_variables(k):
        for piece in disjoint_monomials(mask, k):
            atoms = () if piece == TRUE else piece.children if type(piece) is And else (piece,)
            assert all(type(atom) is Atom for atom in atoms)
            order = [atom.payload.var for atom in atoms]
            assert order == sorted(set(order))
            assert piece == mk_and(list(atoms))


@pytest.mark.parametrize("k", range(1, 11))
def test_reduced_cover_of_true_and_of_one_literal(k):
    full = mask_of(TRUE, k)
    assert disjoint_monomials(full, k) == [TRUE]
    assert disjoint_monomials(0, k) == []
    for var in range(k):
        for neg in (False, True):
            assert disjoint_monomials(mask_of(lit(var, neg), k), k) == [lit(var, neg)]


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
        assert sum(mask_of(m, k) for m in cover) == mask


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


def _literal_signs(piece):
    """A piece's literals as var -> negated."""
    return {atom.var: atom.negated for atom in iter_atoms(piece)}


@pytest.mark.parametrize("k", range(1, 11))
def test_reduced_cover_has_no_two_pieces_equal_but_for_one_sign(k):
    """Two pieces equal but for the sign of one literal would be one piece
    without it: the split keeps the letters both halves share whole."""
    for mask in _masks_on_some_variables(k):
        signs = [_literal_signs(piece) for piece in disjoint_monomials(mask, k)]
        for j, x in enumerate(signs):
            for y in signs[j + 1 :]:
                if x.keys() == y.keys():
                    assert sum(x[v] != y[v] for v in x) != 1, (x, y)


def test_reduced_cover_walks_the_shared_half_once():
    # p2 | p1 & p3: both halves on p1 hold p2, so p2 is one piece, not two
    mask = mask_of(mk_or([lit(1), mk_and([lit(0), lit(2)])]), K)
    assert disjoint_monomials(mask, K) == [lit(1), mk_and([lit(0), lit(1, True), lit(2)])]
