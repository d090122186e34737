"""Predicate ASTs shared by every algebra.

A predicate is a tree over algebra-specific atoms closed under and/or/not,
plus the constants TRUE and FALSE.  Trees are immutable and hashable, so
structural equality is plain ``==``.
"""

from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class IntervalAtom:
    """Half-open integer interval [lo, hi); denotes {d : lo <= d < hi}."""

    lo: Bound
    hi: Bound

    def __post_init__(self):
        _check_bound(self.lo)
        _check_bound(self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}): need lo < hi")

    def contains(self, d: int) -> bool:
        return self.lo <= d < self.hi


FULL_INTERVAL = IntervalAtom(NEG_INF, POS_INF)


@dataclass(frozen=True)
class LiteralAtom:
    """A proposition or its negation; polarity lives in the atom itself."""

    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 0:
            raise ValueError(f"literal variable index must be >= 0, got {self.var}")

    def sort_key(self):
        return (self.var, self.negated)


AtomPayload = IntervalAtom | LiteralAtom


@dataclass(frozen=True)
class Atom:
    payload: AtomPayload


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And needs at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or needs at least 2 children")


@dataclass(frozen=True)
class Not:
    child: "Predicate"


@dataclass(frozen=True)
class _TruePred:
    def __repr__(self):
        return "TRUE"


@dataclass(frozen=True)
class _FalsePred:
    def __repr__(self):
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
