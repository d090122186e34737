"""Algebra bindings: which concrete algebra an automaton's predicates live in.

A binding fixes the letter domain and dispatches evaluation and
satisfiability.  Two automata can be combined only when their bindings are
equal.  Satisfiability checks route through an OpCounters so callers can
meter how many times an operation touched the solver.

Each algebra also has a solved form, the denotation of a predicate: the
canonical interval tuple of intervals.to_dnf, or the 2^k-bit truth table of
propositional.mask_of.  Both are falsy exactly when empty, and the binding
combines them with meet/join/complement and picks a letter from one with
witness, so constructions denote every transition once and decide
emptiness and coverage on the results instead of building and re-walking
predicate trees.  splitter is the one reading of a state's edges as a
deterministic state's: it tests them for overlap (None when two share a
letter), adds the letters they leave out as one residual edge, and
readies them to be met with another state's edges in one pass: an
endpoint sweep over atoms sorted once per state for intervals, one AND
per pair of edges for truth tables.
"""

from dataclasses import dataclass, field

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
)

INTERVAL = "interval"
PROPOSITIONAL = "propositional"


@dataclass
class OpCounters:
    """Algebra-work meters for one operation run."""

    sat_calls: int = 0
    conj_built: int = 0
    disj_built: int = 0

    def as_dict(self):
        return {
            "sat_calls": self.sat_calls,
            "conj_built": self.conj_built,
            "disj_built": self.disj_built,
        }


@dataclass(frozen=True)
class AlgebraBinding:
    """Interval algebra over the integers, or propositions p1..pk.

    For the propositional kind, `props` names the k variables; letters are
    0/1 tuples of length k.  For the interval kind `props` is empty and
    letters are ints.
    """

    kind: str
    props: tuple = ()

    def __post_init__(self):
        if self.kind not in (INTERVAL, PROPOSITIONAL):
            raise UnsupportedAlgebra(f"unknown algebra kind: {self.kind!r}")
        if self.kind == INTERVAL:
            if self.props:
                raise UnsupportedAlgebra("interval algebra takes no propositions")
        else:
            if not self.props:
                raise UnsupportedAlgebra("propositional algebra needs at least one proposition")
            if len(self.props) > propositional.MAX_PROPS:
                raise UnsupportedAlgebra(
                    f"at most {propositional.MAX_PROPS} propositions, got {len(self.props)}"
                )
            if len(set(self.props)) != len(self.props):
                raise UnsupportedAlgebra("duplicate proposition names")

    @property
    def is_monotonic(self) -> bool:
        return self.kind == INTERVAL

    @property
    def k(self) -> int:
        return len(self.props)

    def check_same(self, other: "AlgebraBinding"):
        if self != other:
            raise BindingMismatch(f"algebra mismatch: {self} vs {other}")

    def check_letter(self, letter):
        if self.kind == INTERVAL:
            if not isinstance(letter, int) or isinstance(letter, bool):
                raise TypeError(f"interval letters are ints, got {letter!r}")
        else:
            if (
                not isinstance(letter, tuple)
                or len(letter) != self.k
                or any(b not in (0, 1) for b in letter)
            ):
                raise TypeError(f"letters are 0/1 tuples of length {self.k}, got {letter!r}")

    def check_atom(self, payload):
        if self.kind == INTERVAL:
            if not isinstance(payload, IntervalAtom):
                raise UnsupportedAlgebra(f"interval algebra got atom {payload!r}")
        else:
            if not isinstance(payload, LiteralAtom):
                raise UnsupportedAlgebra(f"propositional algebra got atom {payload!r}")
            if not 0 <= payload.var < self.k:
                raise UnsupportedAlgebra(
                    f"literal on p{payload.var + 1} but only {self.k} propositions"
                )

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

    def denote(self, p: Predicate):
        """p's solved form: canonical interval tuple or truth-table int."""
        if self.kind == INTERVAL:
            return intervals.to_dnf(p)
        return propositional.mask_of(p, self.k)

    @property
    def full(self):
        """Solved form of TRUE."""
        if self.kind == INTERVAL:
            return (FULL_INTERVAL,)
        return propositional.full_mask(self.k)

    def witness(self, x):
        """A letter of a solved form, or None when it is empty.

        A truth table gives the valuation of its lowest set bit, the first
        satisfying one in all_valuations order.  An interval list gives its
        first interval's lo if finite, else that interval's hi - 1 if
        finite, else 0.
        """
        if self.kind == INTERVAL:
            return intervals._witness(x)
        return propositional._witness(x, self.k)

    def meet(self, x, y):
        if self.kind == INTERVAL:
            return intervals.intersect_dnf(x, y)
        return x & y

    def complement(self, x):
        if self.kind == INTERVAL:
            return intervals.complement_intervals(x)
        return propositional.full_mask(self.k) ^ x

    def join(self, xs):
        """Union of a list of solved forms."""
        if self.kind == INTERVAL:
            return intervals.canonical_union([atom for x in xs for atom in x])
        acc = 0
        for x in xs:
            acc |= x
        return acc

    def splitter(self, edges, rest):
        """A state's (target, solved form) edges, ready to be split against,
        or None when two of them share a letter: the one determinism test.

        The result's edges are the input plus, when they leave letters out,
        one residual edge to rest; its split(lefts) yields the non-empty
        meets of the (target, solved form) edges lefts (which may overlap)
        with those edges, as (left target, target, meet), in (left edge,
        edge) order, each meet equal to meet(d, e).  Intervals sort the
        state's atoms once, which serves the overlap test, the residual and
        an index that split sweeps with one bisection per left atom; truth
        tables test overlap by OR and split with one AND per pair of edges.
        """
        if self.kind == INTERVAL:
            return intervals.Splitter.of(edges, rest)
        return propositional.Splitter.of(edges, self.k, rest)

    def basic_preds(self, x) -> list:
        """Pairwise disjoint basic predicates whose union denotes x: one
        atom per interval, or propositional.disjoint_monomials."""
        if self.kind == INTERVAL:
            return [Atom(atom) for atom in x]
        return [
            propositional.monomial_to_pred(m)
            for m in propositional.disjoint_monomials(x, self.k)
        ]

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


def interval_binding() -> AlgebraBinding:
    return AlgebraBinding(INTERVAL)


def propositional_binding(props) -> AlgebraBinding:
    return AlgebraBinding(PROPOSITIONAL, tuple(props))
