"""Algebra bindings: which concrete algebra an automaton's predicates live in.

One class per algebra: IntervalBinding (half-open integer intervals, int
letters; interval_binding()) and PropositionalBinding (propositions p1..pk,
letters 0/1 tuples of length k; propositional_binding(props)).  Their base
AlgebraBinding holds what both share: evaluate, sat (metered through an
OpCounters), splitter's overlap count, and check_same, since two automata
combine only when their bindings are equal.

Each algebra's solved form, the denotation of a predicate, is the
canonical interval tuple of intervals.to_dnf or the 2^k-bit truth table of
propositional.mask_of; both are falsy exactly when empty.  Each class
writes the same operations once for its own form (denote, full, witness,
meet, complement, join, splitter, basic_preds), so constructions denote
every transition once and decide emptiness and coverage on the results.
splitter is the one reading of a state's edges as a deterministic state's:
it tests them for overlap (None when two share a letter), adds the letters
they leave out as one residual edge, and readies them to be met with
another state's edges in one pass: an endpoint sweep over atoms sorted
once per state for intervals, one AND per pair of edges for truth tables.

Bindings are immutable values whose equality and hash predicates._Value
builds from their fields: two are equal when they are of one class with
equal fields, and hash as their field tuple.
OpCounters is the one mutable class: equal by its counts, unhashable.
"""

from . import intervals, propositional
from .errors import BindingMismatch, UnsupportedAlgebra
from .predicates import (
    FULL_INTERVAL,
    And,
    Atom,
    IntervalAtom,
    LiteralAtom,
    Not,
    Or,
    Predicate,
    _FalsePred,
    _TruePred,
    _Value,
    _set,
)


class OpCounters:
    """Algebra-work meters for one operation run."""

    __slots__ = ("sat_calls", "conj_built", "disj_built")

    def __init__(self, sat_calls: int = 0, conj_built: int = 0, disj_built: int = 0):
        self.sat_calls = sat_calls
        self.conj_built = conj_built
        self.disj_built = disj_built

    def __repr__(self):
        return f"OpCounters({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def as_dict(self):
        return {
            "sat_calls": self.sat_calls,
            "conj_built": self.conj_built,
            "disj_built": self.disj_built,
        }


class AlgebraBinding(_Value):
    """What both algebras share; the class attribute is_monotonic is True
    for intervals."""

    __slots__ = ()

    def check_same(self, other: "AlgebraBinding"):
        if self != other:
            raise BindingMismatch(f"algebra mismatch: {self} vs {other}")

    def evaluate(self, p: Predicate, letter) -> bool:
        """Does this letter satisfy p?"""
        return _holds(p, letter)

    def sat(self, p: Predicate, counters: OpCounters | None = None):
        """A letter satisfying p, or None: the witness of p's denotation.

        Counts one sat call.  A propositional witness is the lexicographically
        least satisfying valuation, basic predicates included.
        """
        if counters is not None:
            counters.sat_calls += 1
        return self.witness(self.denote(p))

    def is_sat(self, p: Predicate, counters: OpCounters | None = None) -> bool:
        return self.sat(p, counters) is not None

    def splitter(self, edges, rest, counters: OpCounters | None = None):
        """A state's (target, solved form) edges, ready to be split against,
        or None when two of them share a letter: the one determinism test,
        counted as one sat call when there are two edges or more.

        The result's edges are the input plus, when they leave letters out,
        one residual edge to rest; its split(lefts) yields the non-empty
        meets of the (target, solved form) edges lefts (which may overlap)
        with those edges, as (left target, target, meet), in (left edge,
        edge) order, each meet equal to meet(d, e).  Intervals sort the
        state's atoms once, which serves the overlap test, the residual and
        an index that split sweeps with one bisection per left atom; truth
        tables test overlap by OR and split with one AND per pair of edges.
        """
        if counters is not None and len(edges) > 1:
            counters.sat_calls += 1
        return self._splitter(edges, rest)


class IntervalBinding(AlgebraBinding):
    """Half-open integer intervals; solved forms are canonical interval tuples."""

    __slots__ = ()
    is_monotonic = True
    full = (FULL_INTERVAL,)

    def check_letter(self, letter):
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise TypeError(f"interval letters are ints, got {letter!r}")

    def check_atom(self, payload):
        if not isinstance(payload, IntervalAtom):
            raise UnsupportedAlgebra(f"interval algebra got atom {payload!r}")

    def denote(self, p: Predicate):
        return intervals.to_dnf(p)

    def witness(self, x):
        """x's first interval's lo if finite, else its hi - 1 if finite,
        else 0; None when x is empty."""
        return intervals._witness(x)

    def meet(self, x, y):
        return intervals.intersect_dnf(x, y)

    def complement(self, x):
        return intervals.complement_intervals(x)

    def join(self, xs):
        return intervals.canonical_union([atom for x in xs for atom in x])

    def _splitter(self, edges, rest):
        return intervals.Splitter.of(edges, rest)

    def basic_preds(self, x):
        """One atom per interval of x, the maximal runs of its letters:
        pairwise disjoint basic predicates, as an iterator."""
        return map(Atom, x)


class PropositionalBinding(AlgebraBinding):
    """Propositions named by props, any iterable of distinct nonempty
    strings, kept as a tuple; solved forms are 2^k-bit truth tables."""

    __slots__ = ("props",)
    is_monotonic = False

    def __init__(self, props):
        props = tuple(props)
        if not props:
            raise UnsupportedAlgebra("propositional algebra needs at least one proposition")
        if len(props) > propositional.MAX_PROPS:
            raise UnsupportedAlgebra(
                f"at most {propositional.MAX_PROPS} propositions, got {len(props)}"
            )
        for name in props:
            if not isinstance(name, str) or not name:
                raise UnsupportedAlgebra(f"proposition names are nonempty strings, got {name!r}")
        if len(set(props)) != len(props):
            raise UnsupportedAlgebra("duplicate proposition names")
        _set(self, "props", props)

    @property
    def k(self) -> int:
        return len(self.props)

    def check_letter(self, letter):
        if (
            not isinstance(letter, tuple)
            or len(letter) != self.k
            or any(b not in (0, 1) for b in letter)
        ):
            raise TypeError(f"letters are 0/1 tuples of length {self.k}, got {letter!r}")

    def check_atom(self, payload):
        if not isinstance(payload, LiteralAtom):
            raise UnsupportedAlgebra(f"propositional algebra got atom {payload!r}")
        if not 0 <= payload.var < self.k:
            raise UnsupportedAlgebra(
                f"literal on p{payload.var + 1} but only {self.k} propositions"
            )

    def denote(self, p: Predicate):
        return propositional.mask_of(p, self.k)

    @property
    def full(self):
        return propositional.full_mask(self.k)

    def witness(self, x):
        """The valuation of x's lowest set bit, the first satisfying one in
        all_valuations order; None when x is empty."""
        return propositional._witness(x, self.k)

    def meet(self, x, y):
        return x & y

    def complement(self, x):
        return propositional.full_mask(self.k) ^ x

    def join(self, xs):
        acc = 0
        for x in xs:
            acc |= x
        return acc

    def _splitter(self, edges, rest):
        return propositional.Splitter.of(edges, self.k, rest)

    def basic_preds(self, x) -> list:
        """propositional.disjoint_monomials of x: the paths of its three-way
        decision tree, pairwise disjoint monomials."""
        return propositional.disjoint_monomials(x, self.k)

    def prop_name(self, var: int) -> str:
        return self.props[var]

    def var_index(self, name: str) -> int:
        try:
            return self.props.index(name)
        except ValueError:
            raise UnsupportedAlgebra(f"unknown proposition {name!r}") from None


def _holds(p: Predicate, letter) -> bool:
    kind = type(p)
    if kind is Atom:
        atom = p.payload
        if type(atom) is IntervalAtom:
            return atom.lo <= letter < atom.hi
        # letter bits are 0/1, so the literal holds iff bit != negated
        return letter[atom.var] != atom.negated
    if kind is And:
        for c in p.children:
            if not _holds(c, letter):
                return False
        return True
    if kind is Or:
        for c in p.children:
            if _holds(c, letter):
                return True
        return False
    if kind is Not:
        return not _holds(p.child, letter)
    if kind is _TruePred:
        return True
    if kind is _FalsePred:
        return False
    raise TypeError(f"not a predicate: {p!r}")


def interval_binding() -> IntervalBinding:
    return IntervalBinding()


def propositional_binding(props) -> PropositionalBinding:
    return PropositionalBinding(props)
