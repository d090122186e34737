"""The value-class contract: every predicate node, binding, transition,
automaton, size triple and concrete DFA is a __slots__ class derived from
predicates._Value, immutable, equal by class and fields, hashed as its
field tuple, and round-trips through pickle and copy.  OpCounters is the
one mutable class."""

import copy
import pickle

import pytest

from symfa import (
    FALSE,
    TRUE,
    And,
    Atom,
    IntervalAtom,
    LiteralAtom,
    Not,
    OpCounters,
    Or,
    Sfa,
    SizeTriple,
    Transition,
    interval_binding,
    propositional_binding,
)
from symfa.algebra import PropositionalBinding
from symfa.oracle import ConcreteDfa, concretize
from symfa.predicates import _Value

P = IntervalAtom(0, 5)
L = LiteralAtom(3, negated=True)
EDGE = Transition("q0", And((Atom(L), Atom(LiteralAtom(0)))), "q1")
AUTOMATON = Sfa(
    binding=interval_binding(),
    states=["q0", "q1"],
    initial="q0",
    accepting={"q1"},
    transitions=[Transition("q0", Atom(P), "q1"), Transition("q1", Not(Atom(P)), "q1")],
)

# One instance of every value class, each field set.
VALUES = [
    P,
    L,
    Atom(P),
    And((Atom(P), Atom(IntervalAtom(7, 9)))),
    Or((Atom(L), TRUE)),
    Not(Atom(L)),
    TRUE,
    FALSE,
    interval_binding(),
    propositional_binding(["a", "b"]),
    EDGE,
    AUTOMATON,
    SizeTriple(2, 1, 3),
    concretize(AUTOMATON, (0, 5)),
]


def _fields(x):
    return tuple(getattr(x, f) for f in type(x).__slots__)


def _leaf_classes(cls):
    """The package's leaf subclasses of cls, without this module's own."""
    subs = [sub for sub in cls.__subclasses__() if sub.__module__ != __name__]
    return {leaf for sub in subs for leaf in _leaf_classes(sub)} if subs else {cls}


def test_the_samples_cover_every_value_class():
    assert {type(x) for x in VALUES} == _leaf_classes(_Value)


@pytest.mark.parametrize("x", VALUES + [OpCounters(1, 2, 3)], ids=lambda x: type(x).__name__)
def test_instances_have_slots_and_no_dict(x):
    assert "__slots__" in type(x).__dict__
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    before = _fields(x)
    for name in type(x).__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert _fields(x) == before


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_equal_by_class_and_fields(x):
    twin = type(x)(*_fields(x))
    assert twin == x and not twin != x
    assert x != _fields(x)
    if type(x) is not ConcreteDfa:  # its delta is a dict
        assert hash(twin) == hash(x) == hash(_fields(x))


def test_cross_type_inequality():
    assert Atom(P) != Not(P)
    assert And((TRUE, FALSE)) != Or((TRUE, FALSE))
    assert TRUE != FALSE
    assert interval_binding() != propositional_binding(["a"])
    assert propositional_binding(["a"]) != propositional_binding(["b"])
    assert IntervalAtom(0, 5) != IntervalAtom(0, 6)
    assert LiteralAtom(3) != LiteralAtom(3, negated=True)
    assert len({Atom(P), Not(P), And((TRUE, FALSE)), Or((TRUE, FALSE)), TRUE, FALSE}) == 6


def test_hash_is_the_field_tuple_hash():
    assert hash(IntervalAtom(0, 5)) == hash((0, 5))
    assert hash(Atom(P)) == hash((P,))
    assert hash(TRUE) == hash(FALSE) == hash(interval_binding()) == hash(())
    assert hash(EDGE) == hash((EDGE.src, EDGE.pred, EDGE.dst))


def test_repr_text():
    assert repr(P) == "IntervalAtom(lo=0, hi=5)"
    assert repr(IntervalAtom(float("-inf"), 2)) == "IntervalAtom(lo=-inf, hi=2)"
    assert repr(Not(Atom(L))) == "Not(child=Atom(payload=LiteralAtom(var=3, negated=True)))"
    assert repr(Or((Atom(P), TRUE))) == (
        "Or(children=(Atom(payload=IntervalAtom(lo=0, hi=5)), TRUE))"
    )
    assert (repr(TRUE), repr(FALSE)) == ("TRUE", "FALSE")
    assert repr(interval_binding()) == "IntervalBinding()"
    assert repr(propositional_binding("ab")) == "PropositionalBinding(props=('a', 'b'))"
    assert repr(SizeTriple(2, 1, 3)) == "SizeTriple(n=2, m=1, l=3)"
    assert repr(OpCounters(1, 2)) == "OpCounters(sat_calls=1, conj_built=2, disj_built=0)"
    assert repr(AUTOMATON) == (
        "Sfa(binding=IntervalBinding(), states=('q0', 'q1'), initial='q0', "
        "accepting=frozenset({'q1'}), transitions=("
        "Transition(src='q0', pred=Atom(payload=IntervalAtom(lo=0, hi=5)), dst='q1'), "
        "Transition(src='q1', pred=Not(child=Atom(payload=IntervalAtom(lo=0, hi=5))), dst='q1')))"
    )


def test_interval_atoms_order_by_lo_then_hi():
    atoms = [IntervalAtom(3, 4), IntervalAtom(0, 9), IntervalAtom(0, 5)]
    assert sorted(atoms) == [IntervalAtom(0, 5), IntervalAtom(0, 9), IntervalAtom(3, 4)]
    assert P < IntervalAtom(0, 6) and P <= P and P >= P and IntervalAtom(1, 2) > P
    for other in (3, (0, 5), L):
        with pytest.raises(TypeError):
            P < other
        with pytest.raises(TypeError):
            P >= other


def test_keyword_construction():
    assert LiteralAtom(3, negated=True) == LiteralAtom(var=3, negated=True) == L
    assert LiteralAtom(3) == LiteralAtom(3, False)
    assert IntervalAtom(hi=5, lo=0) == P
    assert Transition(dst="q1", src="q0", pred=EDGE.pred) == EDGE
    assert SizeTriple(l=3, m=1, n=2) == SizeTriple(2, 1, 3)
    assert PropositionalBinding(props=["a", "b"]) == propositional_binding("ab")
    assert AUTOMATON == Sfa(
        AUTOMATON.binding, tuple(AUTOMATON.states), "q0", frozenset({"q1"}), AUTOMATON.transitions
    )
    assert type(AUTOMATON.states) is tuple and type(AUTOMATON.accepting) is frozenset


class Pair(_Value):
    """A value class written the shortest way: its fields and nothing else."""

    __slots__ = ("left", "right")


class OtherPair(_Value):
    __slots__ = ("left", "right")


def test_a_subclass_gets_init_eq_and_hash_from_its_slots():
    p = Pair(1, "b")
    assert (p.left, p.right) == (1, "b")
    assert Pair(right="b", left=1) == Pair(1, right="b") == p
    wrong = [((), {}), ((1,), {}), ((1, "b", 3), {}), ((1, "b"), {"left": 1}), ((1,), {"x": 2})]
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    assert p != Pair(1, "c") and p != Pair(2, "b") and not p != Pair(1, "b")
    assert p != OtherPair(1, "b") and p != (1, "b")
    assert p.__eq__(OtherPair(1, "b")) is NotImplemented
    assert hash(p) == hash(Pair(1, "b")) == hash((1, "b"))
    assert len({p, Pair(1, "b"), OtherPair(1, "b")}) == 2
    assert repr(p) == "Pair(left=1, right='b')"
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        p.left = 2
    for y in [pickle.loads(pickle.dumps(p, 2)), pickle.loads(pickle.dumps(p)), copy.deepcopy(p)]:
        assert type(y) is Pair and y == p


def test_op_counters_are_mutable_equal_by_fields_and_unhashable():
    c = OpCounters()
    c.sat_calls += 2
    c.disj_built = 1
    assert c == OpCounters(sat_calls=2, disj_built=1)
    assert c != OpCounters(sat_calls=2)
    assert c != c.as_dict()
    with pytest.raises(TypeError):
        hash(c)


@pytest.mark.parametrize("x", VALUES + [OpCounters(1, 2, 3)], ids=lambda x: type(x).__name__)
def test_pickle_and_copy_round_trip(x):
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(x, p)) for p in protocols]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is type(x) and y == x


def test_the_constants_copy_to_themselves():
    assert copy.copy(TRUE) is TRUE and copy.deepcopy(TRUE) is TRUE
    assert copy.deepcopy(FALSE) is FALSE
    assert pickle.loads(pickle.dumps(TRUE)) is TRUE
    assert pickle.loads(pickle.dumps(FALSE, 2)) is FALSE
    assert copy.deepcopy(Or((Atom(P), TRUE))).children[1] is TRUE
