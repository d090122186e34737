"""The monotonic algebra of half-open integer intervals.

Letters are finite integers; -inf/+inf appear only as endpoints.  The key
fact exploited everywhere: conjunction of two intervals is an interval and
negation of an interval is at most two intervals, so any predicate has an
equivalent DNF whose atom count is linear in the predicate size.  The
canonical form of a predicate is the unique sorted list of maximal disjoint
intervals denoting it (adjacent intervals merged), and two predicates are
equivalent iff their canonical forms are structurally equal.
"""

from .predicates import (
    FALSE,
    FULL_INTERVAL,
    NEG_INF,
    POS_INF,
    And,
    Atom,
    IntervalAtom,
    Not,
    Or,
    Predicate,
    TRUE,
    _FalsePred,
    _TruePred,
    mk_and,
    mk_or,
)

# Canonical DNF: intervals sorted by lo, pairwise disjoint, with real gaps
# between consecutive members (touching intervals are merged).
IntervalDnf = tuple


def atom_and(x: IntervalAtom, y: IntervalAtom) -> IntervalAtom | None:
    """[max(lo), min(hi)) if proper, else None."""
    lo = max(x.lo, y.lo)
    hi = min(x.hi, y.hi)
    if lo < hi:
        return IntervalAtom(lo, hi)
    return None


def atom_not(x: IntervalAtom) -> IntervalDnf:
    """Complement of an interval: at most two intervals."""
    pieces = []
    if NEG_INF < x.lo:
        pieces.append(IntervalAtom(NEG_INF, x.lo))
    if x.hi < POS_INF:
        pieces.append(IntervalAtom(x.hi, POS_INF))
    return tuple(pieces)


def canonical_union(atoms) -> IntervalDnf:
    """Sort, then merge overlapping or adjacent intervals."""
    atoms = sorted(atoms, key=lambda a: (a.lo, a.hi))
    merged = []
    for a in atoms:
        if merged and a.lo <= merged[-1].hi:
            if a.hi > merged[-1].hi:
                merged[-1] = IntervalAtom(merged[-1].lo, a.hi)
        else:
            merged.append(a)
    return tuple(merged)


def complement_intervals(dnf: IntervalDnf) -> IntervalDnf:
    """Complement of a canonical list is the list of its gaps."""
    gaps = []
    cursor = NEG_INF
    for a in dnf:
        if cursor < a.lo:
            gaps.append(IntervalAtom(cursor, a.lo))
        cursor = a.hi
    if cursor < POS_INF:
        gaps.append(IntervalAtom(cursor, POS_INF))
    return tuple(gaps)


def intersect_dnf(xs: IntervalDnf, ys: IntervalDnf) -> IntervalDnf:
    """Intersection of two canonical lists in one merge pass.

    Pieces come out sorted, and none touch: both inputs have real gaps
    between members, so the result is canonical as built.  A piece equal
    to one of the two atoms it came from reuses that atom.
    """
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x.hi < y.hi:
            i += 1
            inner, outer = x, y
        else:
            j += 1
            inner, outer = y, x
        if outer.lo <= inner.lo:
            out.append(inner)
        elif outer.lo < inner.hi:
            out.append(IntervalAtom(outer.lo, inner.hi))
    return tuple(out)


def any_overlap(dnfs) -> bool:
    """Do two of these canonical lists share a point?

    Sorted by start, any overlapping pair implies an overlapping pair of
    neighbours; atoms of one canonical list never overlap each other.
    """
    spans = sorted((a.lo, a.hi) for d in dnfs for a in d)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        if lo < hi:
            return True
    return False


def to_nnf(p: Predicate) -> Predicate:
    """Eliminate negations, expanding them at atoms into interval unions.

    Output size is at most twice the input size: each negated atom becomes
    at most two atoms, everything else is De Morgan bookkeeping.
    """
    return _nnf(p, False)


def _nnf(p: Predicate, neg: bool) -> Predicate:
    if isinstance(p, Not):
        return _nnf(p.child, not neg)
    if isinstance(p, _TruePred):
        return FALSE if neg else TRUE
    if isinstance(p, _FalsePred):
        return TRUE if neg else FALSE
    if isinstance(p, Atom):
        if not neg:
            return p
        return mk_or([Atom(a) for a in atom_not(p.payload)])
    if isinstance(p, And):
        kids = [_nnf(c, neg) for c in p.children]
        return mk_or(kids) if neg else mk_and(kids)
    if isinstance(p, Or):
        kids = [_nnf(c, neg) for c in p.children]
        return mk_and(kids) if neg else mk_or(kids)
    raise TypeError(f"not a predicate: {p!r}")


def to_dnf(p: Predicate) -> IntervalDnf:
    """Canonical DNF of an arbitrary interval predicate.

    Disjunction is list union with merging; conjunction is pairwise interval
    intersection, which adds rather than multiplies atom counts.  The result
    has at most 2 * predicate_size(p) atoms.
    """
    if type(p) is Atom:
        return (p.payload,)
    return _dnf(to_nnf(p))


def _dnf(p: Predicate) -> IntervalDnf:
    if isinstance(p, _TruePred):
        return (FULL_INTERVAL,)
    if isinstance(p, _FalsePred):
        return ()
    if isinstance(p, Atom):
        return (p.payload,)
    if isinstance(p, Or):
        out = []
        for c in p.children:
            out.extend(_dnf(c))
        return canonical_union(out)
    if isinstance(p, And):
        acc = (FULL_INTERVAL,)
        for c in p.children:
            acc = intersect_dnf(acc, _dnf(c))
            if not acc:
                return ()
        return acc
    raise TypeError(f"unexpected node after NNF: {p!r}")


def canonicalize(p: Predicate) -> IntervalDnf:
    """Alias of to_dnf: equivalent predicates canonicalize identically."""
    return to_dnf(p)


def basic_to_atom(p: Predicate) -> IntervalAtom | None:
    """Fold a basic predicate into the single interval it denotes.

    Conjunction of intervals is an interval, so a basic predicate (an atom,
    a constant, or a conjunction of those) denotes one interval or nothing.
    Returns None for the empty denotation; raises on general predicates.
    """
    if isinstance(p, _TruePred):
        return FULL_INTERVAL
    if isinstance(p, _FalsePred):
        return None
    if isinstance(p, Atom):
        return p.payload
    if isinstance(p, And):
        acc = FULL_INTERVAL
        for c in p.children:
            piece = basic_to_atom(c)
            if piece is None:
                return None
            acc = atom_and(acc, piece)
            if acc is None:
                return None
        return acc
    raise ValueError(f"not a basic interval predicate: {p!r}")


def dnf_to_pred(dnf: IntervalDnf) -> Predicate:
    """Rebuild a predicate from a canonical list (FALSE when empty)."""
    return mk_or([Atom(a) for a in dnf])


def interval_sat(p: Predicate) -> int | None:
    """Least finite letter satisfying p, or None if unsatisfiable."""
    dnf = to_dnf(p)
    if not dnf:
        return None
    first = dnf[0]
    if first.lo != NEG_INF:
        return first.lo
    if first.hi != POS_INF:
        return first.hi - 1
    return 0
