"""Predicate ASTs shared by every algebra.

A predicate is a tree over algebra-specific atoms closed under and/or/not,
plus the constants TRUE and FALSE.  Trees are immutable and hashable, so
structural equality is plain ``==``.  Every node class, like the other
value classes of the package, derives from _Value, which builds its
__eq__, __hash__ and, unless the class checks its input, __init__ from its
__slots__ once, when the class is defined: fields are set once, a node is
equal only to an instance of its own class with equal fields (so Atom(x)
!= Not(x)), and it hashes as the tuple of its fields.
"""

import operator
from enum import Enum

NEG_INF = float("-inf")
POS_INF = float("inf")

# Endpoints are finite ints or the +-inf sentinels; the sentinels are never
# concrete letters.
Bound = int | float


def _check_bound(b: Bound) -> Bound:
    if isinstance(b, bool):
        raise ValueError("interval bound must be an integer or +-inf, got bool")
    if isinstance(b, int):
        return b
    if b == NEG_INF or b == POS_INF:
        return b
    raise ValueError(f"interval bound must be an integer or +-inf, got {b!r}")


_set = object.__setattr__


class _Value:
    """Base of the immutable value classes.  A subclass lists its fields in
    __slots__ and gets, unless it writes them itself, an __init__ taking
    the fields in order and setting each once through _set, an __eq__ true
    only against its own class with equal fields, and a __hash__ of the
    field tuple.  A class that checks or normalises its input writes its
    __init__ and sets each field through _set.  Pickle and copy call the
    class on the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        # Compiled from source once per class, as namedtuple builds its
        # methods: closures over the field names made == several times
        # slower.
        fields = cls.__slots__
        same = " and ".join(f"self.{f} == other.{f}" for f in fields) or "True"
        methods = {
            "__init__": (fields, [f"_set(self, {f!r}, {f})" for f in fields] or ["pass"]),
            "__eq__": (["other"], [
                "if other.__class__ is not self.__class__:",
                "    return NotImplemented",
                f"return {same}",
            ]),
            "__hash__": ([], [f"return hash(({''.join(f'self.{f}, ' for f in fields)}))"]),
        }
        source = "".join(
            f"def {name}(self, {', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body)
            for name, (params, body) in methods.items()
            if name not in cls.__dict__
        )
        namespace = {}
        exec(source, {"_set": _set}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


def _by_bounds(op):
    """An IntervalAtom comparison: op on (lo, hi) pairs, NotImplemented
    against any other class."""

    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op((self.lo, self.hi), (other.lo, other.hi))

    return compare


class IntervalAtom(_Value):
    """Half-open integer interval [lo, hi); denotes {d : lo <= d < hi}.
    IntervalAtoms order by (lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Bound, hi: Bound):
        _check_bound(lo)
        _check_bound(hi)
        if not lo < hi:
            raise ValueError(f"empty interval [{lo},{hi}): need lo < hi")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    __lt__ = _by_bounds(operator.lt)
    __le__ = _by_bounds(operator.le)
    __gt__ = _by_bounds(operator.gt)
    __ge__ = _by_bounds(operator.ge)

    def contains(self, d: int) -> bool:
        return self.lo <= d < self.hi


FULL_INTERVAL = IntervalAtom(NEG_INF, POS_INF)


class LiteralAtom(_Value):
    """A proposition or its negation; polarity lives in the atom itself."""

    __slots__ = ("var", "negated")

    def __init__(self, var: int, negated: bool = False):
        if type(var) is not int or var < 0:
            raise ValueError(f"literal variable index must be an int >= 0, got {var!r}")
        if type(negated) is not bool:
            raise ValueError(f"literal polarity must be a bool, got {negated!r}")
        _set(self, "var", var)
        _set(self, "negated", negated)


class Atom(_Value):
    """payload is an IntervalAtom or a LiteralAtom."""

    __slots__ = ("payload",)


class And(_Value):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("And needs at least 2 children")
        _set(self, "children", children)


class Or(_Value):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("Or needs at least 2 children")
        _set(self, "children", children)


class Not(_Value):
    __slots__ = ("child",)


class _TruePred(_Value):
    """The class of TRUE; pickle and copy give back TRUE itself."""

    __slots__ = ()

    def __repr__(self):
        return "TRUE"

    def __reduce__(self):
        return "TRUE"


class _FalsePred(_Value):
    """The class of FALSE; pickle and copy give back FALSE itself."""

    __slots__ = ()

    def __repr__(self):
        return "FALSE"

    def __reduce__(self):
        return "FALSE"


TRUE = _TruePred()
FALSE = _FalsePred()

Predicate = Atom | And | Or | Not | _TruePred | _FalsePred


class PredicateClass(Enum):
    ATOMIC = "atomic"
    BASIC = "basic"
    GENERAL = "general"


def classify(p: Predicate) -> PredicateClass:
    """Atomic = a single atom or a constant; basic = a conjunction of those.

    Anything else, including any Not node, is general.  Negated propositions
    are atomic because their polarity is folded into the atom payload.
    """
    if isinstance(p, (Atom, _TruePred, _FalsePred)):
        return PredicateClass.ATOMIC
    if isinstance(p, And) and all(
        isinstance(c, (Atom, _TruePred, _FalsePred)) for c in p.children
    ):
        return PredicateClass.BASIC
    return PredicateClass.GENERAL


def _is_basic(p: Predicate) -> bool:
    return classify(p) is not PredicateClass.GENERAL


def predicate_size(p: Predicate) -> int:
    """Parse-tree size: atoms and constants count 1, every binary connective
    counts 1 (an n-ary node is n-1 of them), a negation counts 1."""
    if isinstance(p, (Atom, _TruePred, _FalsePred)):
        return 1
    if isinstance(p, (And, Or)):
        return len(p.children) - 1 + sum(predicate_size(c) for c in p.children)
    if isinstance(p, Not):
        return 1 + predicate_size(p.child)
    raise TypeError(f"not a predicate: {p!r}")


def _flatten(kind, ps):
    out = []
    for p in ps:
        if isinstance(p, kind):
            out.extend(p.children)
        else:
            out.append(p)
    return out


def mk_and(ps) -> Predicate:
    """Conjunction with neutral/absorbing/flattening cleanup only.

    No distribution or other semantic rewriting; size accounting must stay
    an honest reflection of what was built.
    """
    children = _flatten(And, ps)
    if any(isinstance(c, _FalsePred) for c in children):
        return FALSE
    children = [c for c in children if not isinstance(c, _TruePred)]
    if not children:
        return TRUE
    if len(children) == 1:
        return children[0]
    return And(tuple(children))


def mk_or(ps) -> Predicate:
    """Disjunction, dual of mk_and."""
    children = _flatten(Or, ps)
    if any(isinstance(c, _TruePred) for c in children):
        return TRUE
    children = [c for c in children if not isinstance(c, _FalsePred)]
    if not children:
        return FALSE
    if len(children) == 1:
        return children[0]
    return Or(tuple(children))


def mk_not(p: Predicate) -> Not:
    return Not(p)


def iter_atoms(p: Predicate):
    """Yield every atom payload in the tree."""
    if isinstance(p, Atom):
        yield p.payload
    elif isinstance(p, (And, Or)):
        for c in p.children:
            yield from iter_atoms(c)
    elif isinstance(p, Not):
        yield from iter_atoms(p.child)
