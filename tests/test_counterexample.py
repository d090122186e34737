"""includes, equivalent and counterexample: one breadth-first pair search.

The references are genlib.includes_by_product (complement, product and
emptiness, built in full) and oracle.separating_word (explicit DFAs over
one letter per endpoint segment).  Counterexamples are checked with
membership and must be as short as the oracle's.  The words themselves
are pinned by SHA-256 digests in data/golden_counterexample.json; regenerate
them only when the search is meant to return other words:

    PYTHONPATH=src python tests/test_counterexample.py
"""

import gc
import hashlib
import json
import pathlib
import random
from collections import Counter

import pytest

from symfa import (
    FALSE,
    Atom,
    IntervalAtom,
    LiteralAtom,
    BindingMismatch,
    OpCounters,
    ProductMode,
    Sfa,
    Transition,
    complete,
    counterexample,
    equivalent,
    includes,
    interval_binding,
    membership,
    product,
    propositional_binding,
)
from symfa import operations, sfa
from symfa.algebra import IntervalBinding, PropositionalBinding
from symfa.oracle import separating_word
from symfa.sfa import rename_states
from genlib import (
    add_unsat_edge,
    cut_interval_dfa,
    includes_by_product,
    rand_comma_named_sfa,
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_neat_interval_sfa,
    rand_neat_prop_sfa,
    rand_sfa,
    rewrite,
)

PROPS = propositional_binding(["p1", "p2", "p3"])
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_counterexample.json"


def interval_input(rng):
    """An NFA, a deterministic automaton (complete or not, neat or not), a
    neat NFA or a comma-named NFA; one in five gets an unsatisfiable edge."""
    r = rng.random()
    if r < 0.3:
        a = rand_sfa(rng, interval_binding(), n_max=4, m_max=3, pred_size=3)
    elif r < 0.55:
        a = rand_det_interval_sfa(rng, complete=rng.random() < 0.5, neat=rng.random() < 0.5)
    elif r < 0.75:
        a = rand_neat_interval_sfa(rng)
    else:
        a = rand_comma_named_sfa(rng)
    return add_unsat_edge(rng, a) if rng.random() < 0.2 else a


def prop_input(rng):
    """An NFA, a deterministic automaton (complete or not) or a neat NFA
    over three propositions; one in five gets an unsatisfiable edge."""
    r = rng.random()
    if r < 0.4:
        a = rand_sfa(rng, PROPS, n_max=4, m_max=3, pred_size=3)
    elif r < 0.75:
        a = rand_det_prop_sfa(rng, k=3, complete=rng.random() < 0.5)
    else:
        a = rand_neat_prop_sfa(rng, k=3)
    return add_unsat_edge(rng, a) if rng.random() < 0.2 else a


def wide_interval_input(rng):
    """A deterministic automaton with up to 8 states and up to 11 edges per
    state, complete or not, neat or not."""
    return rand_det_interval_sfa(
        rng, n_max=8, max_cuts=10, complete=rng.random() < 0.5, neat=rng.random() < 0.5
    )


def input_pairs(rng, make, count):
    """count pairs; about a third are an input and a rewrite of it (equal
    languages), in either order."""
    for _ in range(count):
        a = make(rng)
        b = rewrite(rng, a, rounds=2) if rng.random() < 0.35 else make(rng)
        yield (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize(
    "make, seed", [(interval_input, 211), (prop_input, 223)], ids=["interval", "propositional"]
)
def test_search_agrees_with_product_reference_and_oracle(make, seed):
    rng = random.Random(seed)
    verdicts = Counter()
    for a, b in input_pairs(rng, make, 300):
        for x, y in ((a, b), (b, a)):
            want = separating_word(x, y, mode="subset")
            w = counterexample(x, y, "subset")
            assert includes(x, y) == includes_by_product(x, y) == (want is None) == (w is None)
            if w is not None:
                assert membership(x, w) and not membership(y, w)
                assert len(w) == len(want)
        want = separating_word(a, b)
        assert equivalent(a, b) == (want is None)
        assert equivalent(a, b) == (includes_by_product(a, b) and includes_by_product(b, a))
        for x, y in ((a, b), (b, a)):
            w = counterexample(x, y, "equal")
            assert (w is None) == (want is None)
            if w is not None:
                assert membership(x, w) != membership(y, w)
                assert len(w) == len(want)
        verdicts[want is None, len(want or ())] += 1
    assert sum(n for (eq, _), n in verdicts.items() if eq) >= 60
    assert {length for eq, length in verdicts if not eq} >= {0, 1, 2}


def refuse(*args, **kwargs):
    raise AssertionError("decisions build no automaton")


def test_each_edge_is_denoted_at_most_once_per_call(monkeypatch):
    calls = Counter()

    def counting(denote):
        def counted(self, p):
            calls[id(p)] += 1
            return denote(self, p)

        return counted

    for binding in (IntervalBinding, PropositionalBinding):
        monkeypatch.setattr(binding, "denote", counting(binding.denote))
    for name in ("complement", "product", "determinize", "is_empty"):
        monkeypatch.setattr(operations, name, refuse)
    monkeypatch.setattr(sfa, "is_deterministic", refuse)
    rng = random.Random(227)
    for i in range(200):
        make = interval_input if i % 2 else prop_input
        a, b = make(rng), make(rng)
        runs = (
            (lambda: includes(a, b), a.transitions + b.transitions),
            (lambda: equivalent(a, b), a.transitions + b.transitions),
            (lambda: counterexample(b, a), a.transitions + b.transitions),
            (lambda: equivalent(a, a), a.transitions),
        )
        for run, edges in runs:
            calls.clear()
            run()
            allowed = Counter(id(t.pred) for t in edges)
            assert all(n <= allowed[p] for p, n in calls.items())


def test_each_macro_state_is_searched_alone_and_once_per_call(monkeypatch):
    """Every _minterms search reads the moves of one input's states, and no
    call searches the same macro-state twice.  Each state gets an
    unsatisfiable self-loop, so two macro-states never read the same
    moves, and b's states are renamed apart from a's."""
    searches = []
    minterms = sfa._minterms

    def recorded(binding, moves, counters):
        searches.append(moves)
        return minterms(binding, moves, counters)

    def looped(a, prefix):
        loops = tuple(Transition(q, FALSE, q) for q in a.states)
        a = Sfa(a.binding, a.states, a.initial, a.accepting, a.transitions + loops)
        return rename_states(a, {q: prefix + q for q in a.states})

    monkeypatch.setattr(sfa, "_minterms", recorded)
    rng = random.Random(241)
    total = 0
    for i in range(200):
        make = interval_input if i % 2 else prop_input
        a, b = looped(make(rng), "a."), looped(make(rng), "b.")
        runs = (
            lambda: includes(a, b),
            lambda: includes(b, a),
            lambda: equivalent(a, b),
            lambda: counterexample(b, a),
        )
        for run in runs:
            searches.clear()
            run()
            total += len(searches)
            keys = [tuple(map(id, moves)) for moves in searches]
            assert len(set(keys)) == len(keys)
            for moves in searches:
                targets = {m[0] for m in moves}
                assert targets <= set(a.states) or targets <= set(b.states)
    assert total  # the inputs hold macro-states the splitter cannot read alone


@pytest.mark.parametrize("algebra", ["interval", "propositional"])
def test_joined_minterms_count_as_disjunctions(algebra):
    """Each side's start state has two overlapping edges into one state:
    its search finds three minterms to that one target, joined into one
    edge at two disjunctions."""
    if algebra == "interval":
        binding = interval_binding()
        spans = ((0, 10), (5, 15), (0, 8), (3, 15))
        x1, x2, y1, y2 = (Atom(IntervalAtom(lo, hi)) for lo, hi in spans)
    else:
        binding = propositional_binding(["p1", "p2"])
        x1, x2 = y2, y1 = [Atom(LiteralAtom(i, False)) for i in range(2)]
    a = Sfa(binding, ("q", "r"), "q", {"r"}, (Transition("q", x1, "r"), Transition("q", x2, "r")))
    b = Sfa(binding, ("p", "s"), "p", {"s"}, (Transition("p", y1, "s"), Transition("p", y2, "s")))
    c = OpCounters()
    assert counterexample(a, b, "equal", c) is None
    # per side: a failed overlap test, 7 search nodes (6 conjunctions) and
    # two joins; then 2 meets at the start pair and 1 at the accepting one
    assert (c.sat_calls, c.conj_built, c.disj_built) == (2 * 8 + 3, 2 * 6 + 3, 2 * 2)
    c = OpCounters()
    assert counterexample(a, b, "subset", c) is None
    # only b is read by _Side.det; each of a's two edges meets b's one edge
    assert (c.sat_calls, c.conj_built, c.disj_built) == (8 + 2, 6 + 2, 2)


def pair_bound(a, b, left_stuck):
    """Sum over the pairs of a × b that the search can reach of
    (out-degree in a, + 1 when a can be stuck) × (out-degree in b + 1),
    plus one overlap test per state that has two edges or more.

    The reachable pairs are the states of the product of the completed
    inputs (a stuck side is at the completion's sink).  The pair where both
    sides are stuck is never explored.
    """
    degree = Counter(t.src for t in a.transitions + b.transitions)
    left = complete(a) if left_stuck else a
    pairs = product(left, complete(b), ProductMode.INTERSECT).states
    total = 0
    for name in pairs:
        p, q = name[1:-1].split(",")
        if p in a.states or q in b.states:
            total += (degree[p] + left_stuck) * (degree[q] + 1)
    return total + sum(1 for q in a.states + b.states if degree[q] > 1)


def test_deterministic_decisions_stay_within_the_pair_bound():
    rng = random.Random(229)
    for i in range(200):
        if i % 2:
            a = rand_det_interval_sfa(rng, complete=rng.random() < 0.5, neat=rng.random() < 0.5)
            b = rand_det_interval_sfa(rng, complete=rng.random() < 0.5)
        else:
            a = rand_det_prop_sfa(rng, k=3, complete=rng.random() < 0.5)
            b = rand_det_prop_sfa(rng, k=3, complete=rng.random() < 0.5)
        if rng.random() < 0.3:
            b = rewrite(rng, a, rounds=2)
        c = OpCounters()
        includes(a, b, c)
        assert c.sat_calls <= pair_bound(a, b, left_stuck=False)
        c = OpCounters()
        equivalent(a, b, c)
        assert c.sat_calls <= pair_bound(a, b, left_stuck=True)


def sweep_bound(a, b):
    """Sum over the reachable pairs (p, q) of the completed inputs of
    atoms(p) + atoms(q) + 1, where atoms(p) counts the intervals of p's
    denoted edges (a stuck side is at the completion's sink, one atom)."""
    ca, cb = complete(a), complete(b)
    atoms = Counter()
    for c in (ca, cb):
        for t in c.transitions:
            atoms[t.src] += len(c.binding.denote(t.pred))
    total = 0
    for name in product(ca, cb, ProductMode.INTERSECT).states:
        p, q = name[1:-1].split(",")
        total += atoms[p] + atoms[q] + 1
    return total


def test_interval_decisions_build_a_linear_number_of_meets():
    """A pair's step splits the two states' edges in one sweep, so it
    builds one meet per left and right edge that share a letter, not one
    per pair of edges."""
    rng = random.Random(241)
    decisions = 0
    for _ in range(10):
        a = cut_interval_dfa(rng, 60)
        r = rewrite(rng, a, rounds=2)
        flipped = a.accepting ^ {rng.choice(a.states)}
        v = Sfa(a.binding, a.states, a.initial, flipped, a.transitions)
        for x, y in ((a, r), (r, a), (a, v)):
            for decide in (includes, equivalent):
                c = OpCounters()
                decide(x, y, c)
                assert c.conj_built <= sweep_bound(x, y)
                decisions += 1
    assert decisions == 60


def test_self_equivalence_at_k12_stays_under_20000_sat_calls():
    binding = propositional_binding([f"p{i + 1}" for i in range(12)])
    a = rand_sfa(random.Random(12), binding, n_max=4, m_max=3, pred_size=6)
    c = OpCounters()
    assert equivalent(a, a, c)
    assert c.sat_calls < 20_000


def test_counterexample_checks_its_arguments():
    rng = random.Random(233)
    a = interval_input(rng)
    with pytest.raises(ValueError):
        counterexample(a, a, mode="superset")
    with pytest.raises(BindingMismatch):
        counterexample(a, prop_input(rng))


def test_decisions_leave_no_cyclic_garbage():
    rng = random.Random(239)
    pairs = [(make(rng), make(rng)) for make in (interval_input, prop_input) * 50]
    gc.collect()
    gc.disable()
    try:
        for a, b in pairs:
            includes(a, b)
            equivalent(a, b)
            counterexample(b, a, "subset")
            assert gc.collect() == 0
    finally:
        gc.enable()


def golden_words():
    """case id -> JSON text of one seeded pair's four counterexamples:
    "subset" and "equal", each in both argument orders."""
    out = {}
    families = (
        ("interval", interval_input, 320),
        ("interval-wide", wide_interval_input, 100),
        ("propositional", prop_input, 320),
    )
    for family, make, count in families:
        rng = random.Random(f"golden-counterexample/{family}")
        for i, (a, b) in enumerate(input_pairs(rng, make, count)):
            words = [
                counterexample(x, y, mode)
                for mode in ("subset", "equal")
                for x, y in ((a, b), (b, a))
            ]
            out[f"{family}/{i}"] = json.dumps(words)
    return out


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_counterexamples_reproduce_golden_words():
    want = json.loads(GOLDEN.read_text())
    got = {case: _digest(text) for case, text in golden_words().items()}
    assert set(got) == set(want)
    changed = sorted(case for case in want if got[case] != want[case])
    assert not changed, f"words differ from the recorded ones: {changed}"


if __name__ == "__main__":
    digests = {case: _digest(text) for case, text in golden_words().items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
