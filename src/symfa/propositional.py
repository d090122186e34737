"""The propositional algebra: letters are valuations of k propositions.

Atoms are literals (a proposition or its negation), so basic predicates are
monomials.  Every predicate, basic or not, is decided on its truth table: an
int of 2^k bits whose bit i is the predicate's value on valuation i of
all_valuations.  Building one costs O(l) big-int operations on 2^k bits for
a predicate of size l, which is why k is capped.  There is no unique minimal
monomial cover for a valuation set, so nothing here canonicalizes general
propositional predicates.
"""

import functools
from itertools import product

from .predicates import (
    FALSE,
    And,
    Atom,
    LiteralAtom,
    Not,
    Or,
    Predicate,
    TRUE,
    _FalsePred,
    _TruePred,
    mk_and,
    mk_or,
)

# Truth tables are 2^k bits; keep them desk-scale.
MAX_PROPS = 16

Valuation = tuple


def all_valuations(k: int):
    """All of {0,1}^k in lexicographic order."""
    return product((0, 1), repeat=k)


def full_mask(k: int) -> int:
    """Truth table of TRUE: all 2^k bits set."""
    return (1 << (1 << k)) - 1


@functools.cache
def _var_mask(var: int, k: int) -> int:
    """Truth table of proposition var: valuation i sets it iff bit k-1-var
    of i is set, so the table repeats h zeros then h ones, h = 2^(k-1-var).
    Doubling the pattern costs O(var) shifts instead of a 2^k loop."""
    h = 1 << (k - 1 - var)
    mask, width = ((1 << h) - 1) << h, 2 * h
    while width < 1 << k:
        mask |= mask << width
        width <<= 1
    return mask


def _witness(mask: int, k: int) -> Valuation | None:
    """The valuation of the lowest set bit of a truth table, or None."""
    if not mask:
        return None
    i = (mask & -mask).bit_length() - 1
    return tuple((i >> (k - 1 - j)) & 1 for j in range(k))


def prop_nnf(p: Predicate) -> Predicate:
    """Fold negations into literal atoms; no Not nodes survive."""
    return _nnf(p, False)


def _nnf(p: Predicate, neg: bool) -> Predicate:
    if isinstance(p, Not):
        return _nnf(p.child, not neg)
    if isinstance(p, _TruePred):
        return FALSE if neg else TRUE
    if isinstance(p, _FalsePred):
        return TRUE if neg else FALSE
    if isinstance(p, Atom):
        lit = p.payload
        return Atom(LiteralAtom(lit.var, not lit.negated)) if neg else p
    if isinstance(p, And):
        kids = [_nnf(c, neg) for c in p.children]
        return mk_or(kids) if neg else mk_and(kids)
    if isinstance(p, Or):
        kids = [_nnf(c, neg) for c in p.children]
        return mk_and(kids) if neg else mk_or(kids)
    raise TypeError(f"not a predicate: {p!r}")


def _monomials(p: Predicate):
    """Distribute an NNF predicate into monomials (sorted literal tuples).

    A monomial is a sorted, deduplicated tuple of literals; contradictory
    products are dropped as they appear.  Worst case exponential.
    """
    if isinstance(p, _TruePred):
        return [()]
    if isinstance(p, _FalsePred):
        return []
    if isinstance(p, Atom):
        return [(p.payload,)]
    if isinstance(p, Or):
        out = []
        for c in p.children:
            out.extend(_monomials(c))
        return out
    if isinstance(p, And):
        acc = [()]
        for c in p.children:
            nxt = []
            for m in _monomials(c):
                for a in acc:
                    merged = _merge_monomial(a, m)
                    if merged is not None:
                        nxt.append(merged)
            acc = nxt
            if not acc:
                return []
        return acc
    raise TypeError(f"unexpected node after NNF: {p!r}")


def _merge_monomial(a, b):
    pols = {}
    for lit in a + b:
        if pols.setdefault(lit.var, lit.negated) != lit.negated:
            return None
    return tuple(sorted(set(a + b), key=LiteralAtom.sort_key))


def monomial_to_pred(m) -> Predicate:
    return mk_and([Atom(lit) for lit in m])


def monomials_of(p: Predicate):
    """Satisfiable monomials whose union is equivalent to p.

    Deduplicated and sorted by literal order; disjuncts may overlap.  The
    empty monomial (p equivalent to true) collapses the list to [()].
    """
    mono = sorted(
        set(_monomials(prop_nnf(p))),
        key=lambda m: tuple(lit.sort_key() for lit in m),
    )
    if any(m == () for m in mono):
        return [()]
    return mono


def mask_of(p: Predicate, k: int) -> int:
    """The denotation of p as a truth table (bit i = valuation i)."""
    return _mask(p, k, full_mask(k))


def _mask(p: Predicate, k: int, full: int) -> int:
    kind = type(p)
    if kind is Atom:
        lit = p.payload
        mask = _var_mask(lit.var, k)
        return full ^ mask if lit.negated else mask
    if kind is And:
        acc = full
        for c in p.children:
            acc &= _mask(c, k, full)
        return acc
    if kind is Or:
        acc = 0
        for c in p.children:
            acc |= _mask(c, k, full)
        return acc
    if kind is Not:
        return full ^ _mask(p.child, k, full)
    if kind is _TruePred:
        return full
    if kind is _FalsePred:
        return 0
    raise TypeError(f"not a predicate: {p!r}")


class Splitter:
    """One state's pairwise disjoint edges, as truth tables.

    of() ORs the tables in edge order, testing each against the OR of the
    ones before it, and takes the residual as the bits the OR leaves out.
    edges is the input plus, when that residual is not empty, the residual
    edge (rest, residual).
    """

    __slots__ = ("edges",)

    @classmethod
    def of(cls, edges, k, rest):
        """A splitter for (target, truth table) edges whose missing letters
        lead to rest, or None when two edges share a letter."""
        acc = 0
        for _, d in edges:
            if acc & d:
                return None
            acc |= d
        residual = full_mask(k) ^ acc
        self = cls()
        self.edges = tuple(edges) + (((rest, residual),) if residual else ())
        return self

    def split(self, lefts):
        """The non-empty meets of (target, truth table) edges lefts with
        these edges, as (left target, target, meet), ordered by left edge,
        then by edge: one AND per pair of edges."""
        edges = self.edges
        for x, d in lefts:
            for y, e in edges:
                m = d & e
                if m:
                    yield x, y, m

    def signature(self, blocks, counters=None):
        """The letter -> block map of these edges, blocks[j] being edge j's
        target block: (block, OR of its tables) pairs sorted by block.
        Counts one disjunction per table ORed into another."""
        by_block = {}
        for (_, d), b in zip(self.edges, blocks):
            if d:
                by_block[b] = by_block.get(b, 0) | d
        if counters is not None:
            counters.disj_built += sum(1 for _, d in self.edges if d) - len(by_block)
        return tuple(sorted(by_block.items()))

    def pieces(self, blocks):
        """signature's map as (truth table, block) pairs in letter order."""
        return sorted(((d, b) for b, d in self.signature(blocks)), key=lambda e: e[0] & -e[0])


@functools.cache
def _literals(k: int):
    """Per variable i < k, its negated and its plain literal as Atoms."""
    return tuple((Atom(LiteralAtom(i, True)), Atom(LiteralAtom(i, False))) for i in range(k))


def disjoint_monomials(mask: int, k: int) -> list:
    """Cover a truth table by pairwise disjoint basic predicates: the paths
    of its reduced ordered decision tree (Bryant, IEEE TC 1986).

    Variables go in index order.  At depth i the subtable has 2^(k-i) bits,
    its low half with variable i false; equal halves are walked once with
    no literal for i, else the low (negated) half is split first.  A full
    subtable emits its path as mk_and of its literal atoms builds it: TRUE,
    one Atom or an And.  So the cover is exact and pairwise disjoint, no
    member mentions a variable its subtable does not depend on, and it has
    no more members than a split on every variable: expanded predicates
    reintroduce no nondeterminism.  An explicit stack, not a self-calling
    closure, keeps the output out of a reference cycle.
    """
    lits = _literals(k)
    out = []
    stack = [(0, (), mask)]
    while stack:
        i, path, m = stack.pop()
        if not m:
            continue
        width = 1 << (k - i)
        if m == (1 << width) - 1:
            out.append(And(path) if len(path) > 1 else path[0] if path else TRUE)
            continue
        half = width >> 1
        low, high = m & ((1 << half) - 1), m >> half
        if low == high:
            stack.append((i + 1, path, low))
            continue
        negated, plain = lits[i]
        # pushed second, so the negated (low) half is split first
        stack.append((i + 1, path + (plain,), high))
        stack.append((i + 1, path + (negated,), low))
    return out
