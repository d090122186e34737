import pytest

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
    PredicateClass,
    TRUE,
    classify,
    mk_and,
    mk_not,
    mk_or,
    predicate_size,
)
from symfa.predicates import iter_atoms


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def test_interval_atom_rejects_empty_and_reversed():
    with pytest.raises(ValueError):
        IntervalAtom(5, 5)
    with pytest.raises(ValueError):
        IntervalAtom(7, 3)
    with pytest.raises(ValueError):
        IntervalAtom(POS_INF, POS_INF)


def test_interval_atom_contains():
    atom = IntervalAtom(0, 100)
    assert atom.contains(0) and atom.contains(99)
    assert not atom.contains(100) and not atom.contains(-1)
    assert IntervalAtom(NEG_INF, POS_INF).contains(-(10**9))


@pytest.mark.parametrize(
    "var, negated",
    [(-1, False), (1.5, False), (True, False), ("0", False), (0, "yes"), (0, 1), (0, None)],
)
def test_literal_atom_rejects_a_bad_index_or_polarity(var, negated):
    """A float index used to reach the truth-table code and fail there; a
    truthy non-bool polarity made evaluate and denote disagree."""
    with pytest.raises(ValueError, match="literal (variable index|polarity)"):
        LiteralAtom(var, negated)


def test_connectives_require_two_children():
    with pytest.raises(ValueError):
        And((ia(0, 10),))
    with pytest.raises(ValueError):
        Or(())


def test_classify_single_atom_is_atomic():
    assert classify(ia(0, 100)) is PredicateClass.ATOMIC
    assert classify(TRUE) is PredicateClass.ATOMIC
    assert classify(FALSE) is PredicateClass.ATOMIC


def test_classify_conjunction_of_literals_is_basic():
    p = And((Atom(LiteralAtom(0)), Atom(LiteralAtom(1, True))))
    assert classify(p) is PredicateClass.BASIC


def test_classify_disjunction_is_general():
    assert classify(Or((ia(0, 10), ia(20, 30)))) is PredicateClass.GENERAL
    assert classify(Not(ia(0, 10))) is PredicateClass.GENERAL
    assert classify(And((ia(0, 10), Or((ia(0, 5), ia(7, 9)))))) is PredicateClass.GENERAL


def test_predicate_size_single_atom():
    assert predicate_size(ia(0, 100)) == 1


def test_predicate_size_counts_atoms_and_operators():
    p = And((ia(0, 100), Or((ia(50, 150), ia(20, 40)))))
    assert predicate_size(p) == 5
    assert predicate_size(p) == _independent_size(p)


def test_predicate_size_not_true():
    assert predicate_size(Not(TRUE)) == 2


def _independent_size(p):
    """Separate counter: leaves, plus binary-operator count, plus negations."""
    if isinstance(p, (And, Or)):
        return sum(_independent_size(c) for c in p.children) + len(p.children) - 1
    if isinstance(p, Not):
        return 1 + _independent_size(p.child)
    return 1


def test_mk_and_drops_neutral_true():
    assert mk_and([TRUE, ia(0, 10)]) == ia(0, 10)


def test_mk_or_of_empty_list_is_false():
    assert mk_or([]) is FALSE
    assert mk_and([]) is TRUE


def test_mk_and_absorbs_false():
    assert mk_and([ia(0, 10), FALSE]) is FALSE
    assert mk_or([ia(0, 10), TRUE]) is TRUE


def test_mk_and_flattens_nested_conjunction():
    p = mk_and([mk_and([ia(0, 10), ia(5, 20)]), ia(8, 9)])
    assert isinstance(p, And) and len(p.children) == 3


def test_mk_not_builds_plain_node():
    p = mk_not(ia(0, 10))
    assert isinstance(p, Not) and p.child == ia(0, 10)


def test_mk_and_size_is_at_most_sum_plus_one():
    p = ia(0, 10)
    q = Or((ia(0, 5), ia(7, 9)))
    assert predicate_size(mk_and([p, q])) <= predicate_size(p) + predicate_size(q) + 1


def test_iter_atoms_walks_the_whole_tree():
    p = And((ia(0, 10), Not(Or((ia(1, 2), ia(3, 4))))))
    assert list(iter_atoms(p)) == [
        IntervalAtom(0, 10),
        IntervalAtom(1, 2),
        IntervalAtom(3, 4),
    ]
