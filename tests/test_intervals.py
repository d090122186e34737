import random

from hypothesis import given, strategies as st

from symfa import (
    Atom,
    FALSE,
    IntervalAtom,
    NEG_INF,
    Not,
    POS_INF,
    TRUE,
    interval_binding,
    mk_and,
    mk_or,
    predicate_size,
)
from symfa.intervals import (
    canonical_union,
    complement_intervals,
    intersect_dnf,
    to_dnf,
)
from genlib import rand_interval_pred

BINDING = interval_binding()
LETTERS = range(-14, 22)


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def same_denotation(p, q, letters=LETTERS):
    return all(BINDING.evaluate(p, x) == BINDING.evaluate(q, x) for x in letters)


def dnf_pred(dnf):
    return mk_or([Atom(a) for a in dnf])


# The tests below keep the names of the single-atom helpers whose behaviour
# they pin; that behaviour now lives in intersect_dnf, complement_intervals,
# to_dnf and the binding's sat/witness.


def test_atom_and_overlap():
    assert intersect_dnf((IntervalAtom(0, 100),), (IntervalAtom(50, 150),)) == (
        IntervalAtom(50, 100),
    )


def test_atom_and_disjoint_is_empty():
    assert intersect_dnf((IntervalAtom(0, 10),), (IntervalAtom(20, 30),)) == ()


def test_atom_and_idempotent():
    x = (IntervalAtom(0, 100),)
    assert intersect_dnf(x, x) == x


def test_atom_and_agrees_with_eval():
    rng = random.Random(3)
    for _ in range(200):
        x = IntervalAtom(*sorted(rng.sample(range(-10, 18), 2)))
        y = IntervalAtom(*sorted(rng.sample(range(-10, 18), 2)))
        z = intersect_dnf((x,), (y,))
        assert len(z) <= 1
        for d in LETTERS:
            expect = x.contains(d) and y.contains(d)
            assert any(a.contains(d) for a in z) == expect


def test_atom_not_unbounded_right():
    assert complement_intervals((IntervalAtom(100, POS_INF),)) == (IntervalAtom(NEG_INF, 100),)


def test_atom_not_full_is_empty():
    assert complement_intervals((IntervalAtom(NEG_INF, POS_INF),)) == ()


def test_atom_not_bounded_gives_both_pieces():
    assert complement_intervals((IntervalAtom(0, 200),)) == (
        IntervalAtom(NEG_INF, 0),
        IntervalAtom(200, POS_INF),
    )


def test_atom_not_partitions_the_domain():
    rng = random.Random(5)
    for _ in range(100):
        x = IntervalAtom(*sorted(rng.sample(range(-10, 18), 2)))
        pieces = complement_intervals((x,))
        for d in LETTERS:
            assert x.contains(d) != any(p.contains(d) for p in pieces)


def test_to_nnf_expands_negated_atom():
    assert to_dnf(Not(ia(0, 200))) == (IntervalAtom(NEG_INF, 0), IntervalAtom(200, POS_INF))


def test_to_nnf_leaves_plain_atom_alone():
    assert to_dnf(ia(0, 10)) == (IntervalAtom(0, 10),)


def test_to_nnf_de_morgan_and_size_bound():
    rng = random.Random(9)
    for _ in range(300):
        p = rand_interval_pred(rng, rng.randint(1, 12))
        dnf = to_dnf(p)
        assert same_denotation(p, dnf_pred(dnf))
        assert len(dnf) <= 2 * predicate_size(p)


def test_to_dnf_conjunction_over_disjunction():
    p = mk_and([ia(0, 100), mk_or([ia(50, 150), ia(20, 40)])])
    assert to_dnf(p) == (IntervalAtom(20, 40), IntervalAtom(50, 100))


def test_to_dnf_false_is_empty():
    assert to_dnf(FALSE) == ()


def test_to_dnf_negation_with_extra_disjunct():
    p = mk_or([Not(ia(0, 100)), ia(50, 60)])
    dnf = to_dnf(p)
    assert dnf == (
        IntervalAtom(NEG_INF, 0),
        IntervalAtom(50, 60),
        IntervalAtom(100, POS_INF),
    )
    for d in range(-5, 151):
        assert BINDING.evaluate(p, d) == BINDING.evaluate(dnf_pred(dnf), d)


def test_canonicalize_merges_adjacent():
    assert to_dnf(mk_or([ia(0, 50), ia(50, 100)])) == (IntervalAtom(0, 100),)


def test_canonicalize_keeps_separated_intervals():
    p = mk_or([ia(20, 40), ia(50, 100)])
    assert to_dnf(p) == (IntervalAtom(20, 40), IntervalAtom(50, 100))


def test_canonicalize_true_is_full_interval():
    assert to_dnf(TRUE) == (IntervalAtom(NEG_INF, POS_INF),)


def test_interval_sat_prefers_low_endpoint():
    assert BINDING.sat(ia(100, POS_INF)) == 100
    assert BINDING.witness((IntervalAtom(100, 200), IntervalAtom(300, 400))) == 100


def test_interval_sat_unbounded_left_uses_hi_minus_one():
    assert BINDING.sat(ia(NEG_INF, 0)) == -1
    assert BINDING.witness((IntervalAtom(NEG_INF, 0), IntervalAtom(5, 9))) == -1


def test_sat_full_line_is_zero():
    assert BINDING.sat(TRUE) == 0
    assert BINDING.witness((IntervalAtom(NEG_INF, POS_INF),)) == 0


def test_interval_sat_false_is_none():
    assert BINDING.sat(FALSE) is None
    assert BINDING.sat(mk_and([ia(0, 10), ia(20, 30)])) is None
    assert BINDING.witness(()) is None


def test_canonical_union_and_complement_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        atoms = [
            IntervalAtom(*sorted(rng.sample(range(-10, 18), 2))) for _ in range(4)
        ]
        dnf = canonical_union(atoms)
        comp = complement_intervals(dnf)
        for d in LETTERS:
            covered = any(a.contains(d) for a in dnf)
            assert covered != any(a.contains(d) for a in comp)
        assert complement_intervals(comp) == dnf


def test_basic_to_atom_folds_conjunctions():
    assert to_dnf(mk_and([ia(0, 100), ia(50, 150)])) == (IntervalAtom(50, 100),)
    assert to_dnf(TRUE) == (IntervalAtom(NEG_INF, POS_INF),)
    assert to_dnf(mk_and([ia(0, 10), ia(20, 30)])) == ()


bounds = st.integers(min_value=-12, max_value=20)


@st.composite
def interval_predicates(draw, max_depth=4):
    if max_depth == 0 or draw(st.booleans()):
        lo, hi = sorted(
            draw(st.tuples(bounds, bounds).filter(lambda t: t[0] != t[1]))
        )
        lo = NEG_INF if draw(st.integers(0, 9)) == 0 else lo
        hi = POS_INF if draw(st.integers(0, 9)) == 0 else hi
        return ia(lo, hi)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Not(draw(interval_predicates(max_depth=max_depth - 1)))
    left = draw(interval_predicates(max_depth=max_depth - 1))
    right = draw(interval_predicates(max_depth=max_depth - 1))
    return mk_and([left, right]) if kind == 1 else mk_or([left, right])


@given(interval_predicates())
def test_dnf_atom_count_linear_in_predicate_size(p):
    assert len(to_dnf(p)) <= 2 * predicate_size(p)


@given(interval_predicates())
def test_dnf_is_canonical_and_equivalent(p):
    dnf = to_dnf(p)
    assert same_denotation(p, dnf_pred(dnf))
    for a, b in zip(dnf, dnf[1:]):
        assert a.hi < b.lo
    assert to_dnf(dnf_pred(dnf)) == dnf


@given(interval_predicates(), interval_predicates())
def test_equivalent_predicates_canonicalize_identically(p, q):
    if same_denotation(p, q, range(-16, 24)):
        assert to_dnf(p) == to_dnf(q)
