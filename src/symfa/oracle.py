"""Brute-force ground truth over a small enumerated alphabet.

Any automaton restricted to a finite alphabet is an ordinary DFA, built here
by subset construction with explicit letters.  Language questions are then
classical: product reachability for equality and inclusion, breadth-first
search for separating words, partition refinement for distinguishable-state
counts.  For the interval algebra two alphabets are faithful: the dense
window covering every predicate endpoint plus a margin of 2, and
representatives, one letter per segment the endpoints cut the line into.
Predicates are constant on each segment, so agreement over either implies
agreement over all integers.  The language comparisons (separating_word,
oracle_equal, oracle_subset, oracle_empty) default to representatives,
whose size does not grow with the endpoints' span; concretize defaults to
the dense window, from which tests draw member words.
"""

from collections import deque
from itertools import product as iproduct

from .predicates import IntervalAtom, _Value, iter_atoms
from .propositional import all_valuations
from .sfa import Sfa

WINDOW_MARGIN = 2


class ConcreteDfa(_Value):
    """Total explicit DFA over a finite alphabet.

    States are frozensets of the source automaton's state ids; the empty
    set is the rejecting sink, so delta is total over the alphabet.  It is
    unhashable, since delta is a dict.
    """

    __slots__ = ("alphabet", "states", "initial", "accepting", "delta")

    def accepts(self, word) -> bool:
        q = self.initial
        for x in word:
            q = self.delta[(q, x)]
        return q in self.accepting


def finite_endpoints(*sfas) -> list:
    """All finite interval endpoints appearing in the given automata."""
    pts = set()
    for a in sfas:
        for t in a.transitions:
            for payload in iter_atoms(t.pred):
                if isinstance(payload, IntervalAtom):
                    for b in (payload.lo, payload.hi):
                        if isinstance(b, int):
                            pts.add(b)
    return sorted(pts)


def default_alphabet(*sfas) -> tuple:
    """Dense integer window around all endpoints, or every valuation."""
    binding = sfas[0].binding
    for a in sfas[1:]:
        binding.check_same(a.binding)
    if binding.is_monotonic:
        pts = finite_endpoints(*sfas)
        lo = (pts[0] if pts else 0) - WINDOW_MARGIN
        hi = (pts[-1] if pts else 0) + WINDOW_MARGIN
        return tuple(range(lo, hi + 1))
    return tuple(all_valuations(binding.k))


def representatives(*sfas) -> tuple:
    """One letter per line segment the automata's endpoints induce.

    Predicates are constant on each segment, so restricting words to these
    letters preserves every language-level comparison while keeping the
    explicit DFAs small.  Propositional alphabets are already minimal.
    """
    binding = sfas[0].binding
    if not binding.is_monotonic:
        return default_alphabet(*sfas)
    pts = finite_endpoints(*sfas)
    if not pts:
        return (0,)
    letters = {pts[0] - 1, pts[-1]}
    for a, b in zip(pts, pts[1:]):
        letters.add(a)
        if b - a > 1:
            letters.add(a + 1)
    return tuple(sorted(letters))


def concretize(a: Sfa, alphabet=None) -> ConcreteDfa:
    """Explicit DFA for L(a) restricted to words over the alphabet."""
    if alphabet is None:
        alphabet = default_alphabet(a)
    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    for x in alphabet:
        a.binding.check_letter(x)
    out = a.out_map()
    start = frozenset({a.initial})
    states = [start]
    seen = {start}
    delta = {}
    i = 0
    while i < len(states):
        s = states[i]
        i += 1
        for x in alphabet:
            nxt = frozenset(
                t.dst for q in s for t in out[q] if a.binding.evaluate(t.pred, x)
            )
            delta[(s, x)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    accepting = frozenset(s for s in states if s & a.accepting)
    return ConcreteDfa(alphabet, tuple(states), start, accepting, delta)


def separating_word(a: Sfa, b: Sfa, alphabet=None, mode: str = "equal"):
    """Shortest word the two automata classify differently, or None.

    mode "equal" looks for any disagreement; mode "subset" for a word in
    L(a) but not in L(b).  Exact over the alphabet (by default
    representatives(a, b)): breadth-first search on the product DFA visits
    every reachable pair.
    """
    a.binding.check_same(b.binding)
    if alphabet is None:
        alphabet = representatives(a, b)
    da = concretize(a, alphabet)
    db = concretize(b, alphabet)
    start = (da.initial, db.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (sa, sb), word = queue.popleft()
        in_a = sa in da.accepting
        in_b = sb in db.accepting
        if (in_a != in_b) if mode == "equal" else (in_a and not in_b):
            return list(word)
        for x in da.alphabet:
            nxt = (da.delta[(sa, x)], db.delta[(sb, x)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (x,)))
    return None


def oracle_equal(a: Sfa, b: Sfa, alphabet=None) -> bool:
    return separating_word(a, b, alphabet, mode="equal") is None


def oracle_subset(a: Sfa, b: Sfa, alphabet=None) -> bool:
    return separating_word(a, b, alphabet, mode="subset") is None


def oracle_empty(a: Sfa, alphabet=None) -> bool:
    dfa = concretize(a, representatives(a) if alphabet is None else alphabet)
    return not dfa.accepting


def mn_class_count(dfa: ConcreteDfa) -> int:
    """Distinguishable-state count of the DFA (its minimal-DFA size).

    Moore refinement on the reachable, total DFA: start from the
    accepting/rejecting split and split blocks whose members disagree on
    some letter's target block.
    """
    block = {s: (s in dfa.accepting) for s in dfa.states}
    while True:
        sig = {
            s: (block[s],) + tuple(block[dfa.delta[(s, x)]] for x in dfa.alphabet)
            for s in dfa.states
        }
        ids = {v: i for i, v in enumerate(sorted(set(sig.values())))}
        nxt = {s: ids[sig[s]] for s in dfa.states}
        if len(set(nxt.values())) == len(set(block.values())):
            return len(set(nxt.values()))
        block = nxt


def short_words(alphabet, max_len: int):
    """Every word over the alphabet up to the given length."""
    for n in range(max_len + 1):
        yield from (list(w) for w in iproduct(alphabet, repeat=n))
