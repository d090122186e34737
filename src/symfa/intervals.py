"""The monotonic algebra of half-open integer intervals.

Letters are finite integers; -inf/+inf appear only as endpoints.  The key
fact exploited everywhere: conjunction of two intervals is an interval and
negation of an interval is at most two intervals, so any predicate has an
equivalent DNF whose atom count is linear in the predicate size.  The
canonical form of a predicate is the unique sorted list of maximal disjoint
intervals denoting it (adjacent intervals merged), and two predicates are
equivalent iff their canonical forms are structurally equal.
"""

from bisect import bisect_right
from operator import attrgetter

from .predicates import (
    FULL_INTERVAL,
    NEG_INF,
    POS_INF,
    And,
    Atom,
    IntervalAtom,
    Not,
    Or,
    Predicate,
    _FalsePred,
    _TruePred,
)

# Canonical DNF: intervals sorted by lo, pairwise disjoint, with real gaps
# between consecutive members (touching intervals are merged).
IntervalDnf = tuple


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


_lo = attrgetter("lo")


class Splitter:
    """One state's pairwise disjoint edges, tiled over the line for sweeps.

    of() sorts the state's atoms once by start.  That one sort tests the
    edges for overlap (neighbours only), reads the residual off the gaps
    between atoms (no union, no complement), and leaves the index that
    split bisects into and signature walks: atoms and gaps tile the line in
    order, and owners holds each tile's edge number, a gap's being the
    residual edge's.  edges is the input plus, when the edges leave
    letters out, that residual edge (rest, gaps).
    """

    __slots__ = ("edges", "atoms", "owners")

    @classmethod
    def of(cls, edges, rest):
        """A splitter for (target, canonical list) edges whose missing
        letters lead to rest, or None when two edges share a letter."""
        spans = sorted([(a.lo, j, a) for j, (_, d) in enumerate(edges) for a in d])
        gap = len(edges)
        tiles = []
        cursor = NEG_INF
        for lo, j, a in spans:
            if lo < cursor:
                return None
            if cursor < lo:
                tiles.append((gap, IntervalAtom(cursor, lo)))
            tiles.append((j, a))
            cursor = a.hi
        if cursor < POS_INF:
            tiles.append((gap, IntervalAtom(cursor, POS_INF)))
        gaps = tuple(a for j, a in tiles if j == gap)
        self = cls()
        self.edges = tuple(edges) + (((rest, gaps),) if gaps else ())
        self.owners, self.atoms = zip(*tiles)
        return self

    def split(self, lefts):
        """The non-empty meets of (target, canonical list) edges lefts with
        these edges, as (left target, target, meet), ordered by left edge,
        then by edge.

        Each left atom finds its first tile by bisection and walks the
        tiles it covers; each step yields one piece, so the cost is
        O(A log B) for A left atoms and B tiles plus one step per piece.
        The pieces of a left edge and one of these edges are sorted and
        pairwise separated, hence their meet as intersect_dnf builds it; a
        piece equal to a whole atom reuses that atom.
        """
        atoms, owners, edges = self.atoms, self.owners, self.edges
        for x, d in lefts:
            groups = {}
            for a in d:
                lo, hi = a.lo, a.hi
                k = bisect_right(atoms, lo, key=_lo) - 1
                while True:
                    b = atoms[k]
                    if b.lo <= lo:
                        piece = a if hi <= b.hi else IntervalAtom(lo, b.hi)
                    else:
                        piece = b if b.hi <= hi else IntervalAtom(b.lo, hi)
                    groups.setdefault(owners[k], []).append(piece)
                    if hi <= b.hi:
                        break
                    k += 1
            for j in sorted(groups):
                yield x, edges[j][0], tuple(groups[j])

    def signature(self, blocks, counters):
        """The letter -> block map of these edges, blocks[j] being edge j's
        target block: the start and block of each maximal run of tiles into
        one block, flattened, so the edges' cut of the line does not show.
        Counts one disjunction per tile merged into a run."""
        sig = [NEG_INF, blocks[self.owners[0]]]
        for a, j in zip(self.atoms, self.owners):
            b = blocks[j]
            if b != sig[-1]:
                sig += a.lo, b
        counters.disj_built += len(self.atoms) - len(sig) // 2
        return tuple(sig)

    def pieces(self, blocks):
        """signature's map as (canonical list, block) pairs in letter order:
        one interval per run, a run of one tile being that tile's atom."""
        runs = []
        for a, j in zip(self.atoms, self.owners):
            if runs and runs[-1][2] == blocks[j]:
                runs[-1][1] = a
            else:
                runs.append([a, a, blocks[j]])
        return [((x if x is y else IntervalAtom(x.lo, y.hi),), b) for x, y, b in runs]


def to_dnf(p: Predicate) -> IntervalDnf:
    """Canonical DNF of an arbitrary interval predicate, in one walk.

    Disjunction is list union with merging, conjunction is a merge-pass
    intersection and negation takes the gaps, so every node's result is
    canonical as built.  Every finite endpoint of the result is an endpoint
    of some atom of p, and consecutive intervals are separated by a real
    gap, so the result has at most (number of atoms + 1) intervals, hence
    at most 2 * predicate_size(p).
    """
    if type(p) is Atom:
        return (p.payload,)
    return _dnf(p)


def _dnf(p: Predicate) -> IntervalDnf:
    kind = type(p)
    if kind is Atom:
        return (p.payload,)
    if kind is Not:
        return complement_intervals(_dnf(p.child))
    if kind is Or:
        return canonical_union([a for c in p.children for a in _dnf(c)])
    if kind is And:
        acc = (FULL_INTERVAL,)
        for c in p.children:
            acc = intersect_dnf(acc, _dnf(c))
            if not acc:
                return ()
        return acc
    if kind is _TruePred:
        return (FULL_INTERVAL,)
    if kind is _FalsePred:
        return ()
    raise TypeError(f"not a predicate: {p!r}")


def _witness(dnf: IntervalDnf) -> int | None:
    """AlgebraBinding.witness for a canonical list."""
    if not dnf:
        return None
    first = dnf[0]
    if first.lo != NEG_INF:
        return first.lo
    if first.hi != POS_INF:
        return first.hi - 1
    return 0
