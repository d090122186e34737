import random
from collections import Counter

import pytest

from symfa import (
    TRUE,
    Atom,
    BindingMismatch,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    NondeterministicInput,
    OpCounters,
    POS_INF,
    ProductMode,
    Sfa,
    SfaError,
    Transition,
    canonical_minimal_neat,
    canonical_minimal_normalized,
    complement,
    complete,
    determinize,
    equivalent,
    includes,
    interval_binding,
    is_complete,
    is_deterministic,
    is_empty,
    is_feasible,
    is_neat,
    membership,
    minimize,
    mk_and,
    product,
    propositional_binding,
    size_triple,
    validate,
)
from symfa.oracle import (
    concretize,
    mn_class_count,
    oracle_empty,
    oracle_equal,
    oracle_subset,
    representatives,
    separating_word,
    short_words,
)
from symfa import operations, sfa, transforms
from symfa.algebra import IntervalBinding, PropositionalBinding
from symfa.sfa import _minterms, _Side, _signature_blocks, fresh_state_name, rename_states
from genlib import (
    add_unsat_edge,
    combination_agrees,
    comma_nfa,
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_interval_pred,
    rand_neat_interval_sfa,
    rand_neat_prop_sfa,
    rand_prop_pred,
    rand_comma_named_sfa,
    rand_sfa,
    rewrite,
)


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def lit(i, neg=False):
    return Atom(LiteralAtom(i, neg))


def low_loop():
    """Accepts exactly the words whose letters all lie in [0,150)."""
    return Sfa(
        interval_binding(),
        ("p0",),
        "p0",
        {"p0"},
        (Transition("p0", ia(0, 150), "p0"),),
    )


def overlap_nfa():
    return Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (
            Transition("q0", ia(0, 100), "q0"),
            Transition("q0", ia(50, 200), "q1"),
        ),
    )


def test_product_intersection_examples(two_state):
    prod = product(two_state, low_loop(), ProductMode.INTERSECT)
    assert membership(prod, [50])
    assert membership(prod, [120, 50])
    assert not membership(prod, [150])
    assert not membership(prod, [])
    assert combination_agrees(two_state, low_loop(), prod, lambda x, y: x and y)
    assert is_feasible(prod)


def test_product_with_itself(two_state):
    assert oracle_equal(product(two_state, two_state, ProductMode.INTERSECT), two_state)


def test_product_with_empty_language(two_state):
    dead = Sfa(interval_binding(), ("z",), "z", set(), (Transition("z", ia(0, 10), "z"),))
    assert is_empty(product(two_state, dead, ProductMode.INTERSECT))


def test_product_rejects_mixed_bindings(two_state):
    b = Sfa(propositional_binding(["p1"]), ("s",), "s", {"s"}, ())
    with pytest.raises(BindingMismatch):
        product(two_state, b, ProductMode.INTERSECT)


def test_product_neat_interval_inputs_stay_neat():
    rng = random.Random(67)
    for _ in range(30):
        a = rand_neat_interval_sfa(rng)
        b = rand_neat_interval_sfa(rng)
        prod = product(a, b, ProductMode.INTERSECT)
        assert is_neat(prod)
        assert is_feasible(prod)
        assert combination_agrees(a, b, prod, lambda x, y: x and y)


def test_product_size_bounds():
    rng = random.Random(71)
    for _ in range(30):
        a = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
        b = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
        prod = product(a, b, ProductMode.INTERSECT)
        ta, tb, tp = size_triple(a), size_triple(b), size_triple(prod)
        assert tp.n <= ta.n * tb.n
        assert tp.m <= ta.m * tb.m
        assert tp.m <= 2 * (ta.m + tb.m)


def test_union_requires_deterministic_complete_inputs(two_state):
    with pytest.raises(SfaError):
        product(two_state, low_loop(), ProductMode.UNION)
    with pytest.raises(SfaError):
        product(overlap_nfa(), two_state, ProductMode.UNION)


def test_union_examples(two_state):
    b = complete(low_loop())
    u = product(two_state, b, ProductMode.UNION)
    assert membership(u, [])
    assert membership(u, [50])
    assert not membership(u, [250])
    assert combination_agrees(two_state, b, u, lambda x, y: x or y)


def test_union_agreement_on_random_pairs():
    rng = random.Random(73)
    for _ in range(25):
        a = rand_det_interval_sfa(rng, complete=True, neat=rng.random() < 0.5)
        b = rand_det_interval_sfa(rng, complete=True, neat=rng.random() < 0.5)
        u = product(a, b, ProductMode.UNION)
        assert combination_agrees(a, b, u, lambda x, y: x or y)
    for _ in range(15):
        a = rand_det_prop_sfa(rng)
        b = rand_det_prop_sfa(rng)
        u = product(a, b, ProductMode.UNION)
        assert combination_agrees(a, b, u, lambda x, y: x or y)


def test_complement_two_state_membership(two_state):
    c = complement(two_state)
    assert membership(c, [])
    assert not membership(c, [50])
    assert membership(c, [150])
    for w in short_words(representatives(two_state), 3):
        assert membership(c, w) == (not membership(two_state, w))


def test_complement_twice_restores_two_state(two_state):
    assert complement(complement(two_state)) == two_state


def test_complement_requires_deterministic():
    with pytest.raises(NondeterministicInput):
        complement(overlap_nfa())


def test_complement_general_path_size_bounds():
    rng = random.Random(79)
    for _ in range(30):
        a = rand_det_interval_sfa(rng, complete=False, neat=False)
        c = complement(a)
        ta, tc = size_triple(a), size_triple(c)
        assert tc.n <= ta.n + 1
        assert tc.m <= ta.m + 1
        assert combination_agrees(a, a, c, lambda x, y: not x)


def test_complement_neat_path_stays_neat():
    rng = random.Random(83)
    for _ in range(30):
        a = rand_det_interval_sfa(rng, complete=False, neat=True)
        c = complement(a)
        assert is_neat(c)
        assert combination_agrees(a, a, c, lambda x, y: not x)
    for _ in range(15):
        a = rand_det_prop_sfa(rng, complete=False)
        c = complement(a)
        assert is_neat(c)
        assert combination_agrees(a, a, c, lambda x, y: not x)


def test_determinize_splits_overlap_into_minterms():
    d = determinize(overlap_nfa())
    assert d.initial == "{q0}"
    assert set(d.states) == {"{q0}", "{q0,q1}", "{q1}"}
    assert d.accepting == frozenset({"{q0,q1}", "{q1}"})
    expected = set()
    for src in ("{q0}", "{q0,q1}"):
        expected.add(Transition(src, ia(0, 50), "{q0}"))
        expected.add(Transition(src, ia(50, 100), "{q0,q1}"))
        expected.add(Transition(src, ia(100, 200), "{q1}"))
    assert set(d.transitions) == expected


def test_lone_state_with_overlapping_edges_pays_a_failed_test_then_its_search():
    a = Sfa(
        interval_binding(),
        ("q", "r", "s"),
        "q",
        set(),
        (Transition("q", ia(0, 10), "r"), Transition("q", ia(5, 15), "s")),
    )
    c = OpCounters()
    d = determinize(a, c)
    assert set(d.states) == {"{q}", "{r}", "{s}", "{r,s}"}
    # q: one failed overlap test, then 7 nodes (root, 2 at depth 1, 4 leaves);
    # {r} and {s} have no edges to test; {r,s}'s search is one empty root
    assert (c.sat_calls, c.conj_built) == (1 + 7 + 1, 6)



def test_determinize_joins_the_minterms_of_one_target():
    a = Sfa(
        interval_binding(),
        ("q", "r"),
        "q",
        set(),
        (Transition("q", ia(0, 10), "r"), Transition("q", ia(5, 15), "r")),
    )
    c = OpCounters()
    d = determinize(a, c)
    assert d.states == ("{q}", "{r}")
    assert d.transitions == (Transition("{q}", ia(0, 15), "{r}"),)
    # q: one failed overlap test and 7 search nodes; its three minterms all
    # reach {r}, so two are joined into the first
    assert (c.sat_calls, c.conj_built, c.disj_built) == (1 + 7, 6, 2)


@pytest.mark.parametrize("algebra", ["interval", "propositional"])
def test_det_gives_a_macro_state_one_edge_per_target(algebra):
    """A non-lone macro-state's splitter has one edge per target
    macro-state, each edge's letters reach exactly that target, and the
    edges' union is the union of the members' edges."""
    rng = random.Random(f"per-target/{algebra}")
    if algebra == "interval":
        binding = interval_binding()
    else:
        binding = propositional_binding(["p1", "p2", "p3"])
    joined = 0
    for _ in range(80):
        a = rand_sfa(rng, binding, n_max=4, m_max=3)
        side = _Side(a)
        keys, _ = sfa._explore(
            (a.initial,), lambda m: ((d, t) for t, d in side.det(m).edges if t and d)
        )
        for m in keys:
            if len(m) < 2:
                continue
            edges = [(t, d) for t, d in side.det(m).edges if t]
            targets = [t for t, _ in edges]
            assert len(targets) == len(set(targets))
            assert binding.join([d for _, d in edges]) == binding.join(
                [d for q in m for _, d in side.edges(q)]
            )
            for t, d in edges:
                w = binding.witness(d)
                reached = {e.dst for q in m for e in side.out[q] if binding.evaluate(e.pred, w)}
                assert t == tuple(sorted(reached))
        joined += side.counters.disj_built
    assert joined > 10


def _reference_minterms(b, dens, counters):
    """Recursive include/exclude search, include first: the non-empty
    minterms as (mask, solved form), member 0 on the top bit of the mask,
    counting one sat call per node and two conjunctions per inner node."""
    out = []

    def rec(j, cur, mask):
        counters.sat_calls += 1
        if not cur:
            return
        if j == len(dens):
            out.append((mask, cur))
            return
        counters.conj_built += 2
        rec(j + 1, b.meet(cur, dens[j]), mask | 1 << (len(dens) - 1 - j))
        rec(j + 1, b.meet(cur, b.complement(dens[j])), mask)

    rec(0, b.denote(TRUE), 0)
    return out


def test_minterms_match_include_exclude_search():
    rng = random.Random(23)
    ib = interval_binding()
    cases = []
    for _ in range(400):
        preds = [rand_interval_pred(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        cases.append((ib, [ib.denote(p) for p in preds]))
    infinite = sum(
        any(not -100 < e < 100 for x in dens for a in x for e in (a.lo, a.hi)) for _, dens in cases
    )
    assert infinite > 100
    for k in (1, 3, 5):
        pb = propositional_binding([f"p{i}" for i in range(k)])
        for _ in range(60):
            preds = [rand_prop_pred(rng, k, rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
            cases.append((pb, [pb.denote(p) for p in preds]))
    for b, dens in cases:
        got, want = OpCounters(), OpCounters()
        moves = [(None, d, b.complement(d)) for d in dens]
        assert _minterms(b, moves, got) == _reference_minterms(b, dens, want)
        assert (got.sat_calls, got.conj_built) == (want.sat_calls, want.conj_built)

def test_determinize_two_state_is_stable(two_state):
    d = determinize(two_state)
    assert is_deterministic(d) and is_neat(d)
    assert oracle_equal(d, two_state)
    assert len(d.states) == 2


def test_determinize_properties():
    rng = random.Random(89)
    for _ in range(30):
        a = rand_sfa(rng, interval_binding(), n_max=4, m_max=3, pred_size=3)
        d = determinize(a)
        assert is_deterministic(d) and is_neat(d) and is_feasible(d)
        assert len(d.states) <= 2 ** len(a.states)
        assert oracle_equal(a, d)
    binding = propositional_binding(["p1", "p2", "p3"])
    for _ in range(20):
        a = rand_sfa(rng, binding, n_max=3, m_max=3, pred_size=3)
        d = determinize(a)
        assert is_deterministic(d) and is_neat(d)
        assert len(d.states) <= 2 ** len(a.states)
        assert oracle_equal(a, d)


def test_minimize_two_state_keeps_both_states(two_state):
    mini = minimize(two_state)
    assert mini == rename_states(two_state, {"q0": "{q0}", "q1": "{q1}"})


def test_minimize_collapses_duplicate_state(two_state):
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2"),
        "q0",
        {"q1", "q2"},
        (
            Transition("q0", ia(NEG_INF, 100), "q1"),
            Transition("q0", ia(100, POS_INF), "q0"),
            Transition("q1", ia(NEG_INF, 200), "q2"),
            Transition("q1", ia(200, POS_INF), "q0"),
            Transition("q2", ia(NEG_INF, 200), "q1"),
            Transition("q2", ia(200, POS_INF), "q0"),
        ),
    )
    mini = minimize(a)
    assert len(mini.states) == 2
    assert oracle_equal(mini, two_state)
    assert canonical_minimal_neat(mini) == two_state


def test_minimize_drops_unreachable_states(two_state):
    a = Sfa(
        two_state.binding,
        two_state.states + ("ghost",),
        two_state.initial,
        set(two_state.accepting) | {"ghost"},
        two_state.transitions + (Transition("ghost", ia(0, 1), "ghost"),),
    )
    assert len(minimize(a).states) == 2


def chain(n, accepting):
    """q0 -> q1 -> ... -> q(n-1) on TRUE, the last state looping."""
    states = tuple(f"q{i}" for i in range(n))
    edges = [Transition(states[i], TRUE, states[min(i + 1, n - 1)]) for i in range(n)]
    return Sfa(interval_binding(), states, "q0", accepting(states), edges)


def test_minimize_deep_refinement_chain():
    assert len(minimize(chain(300, lambda qs: {qs[-1]})).states) == 300
    assert len(minimize(chain(300, lambda qs: qs)).states) == 1


def test_minimize_merges_states_that_differ_by_an_unsat_edge():
    unsat = mk_and([ia(0, 1), ia(2, 3)])
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2"),
        "q0",
        {"q1", "q2"},
        (
            Transition("q0", ia(NEG_INF, 5), "q1"),
            Transition("q0", ia(5, POS_INF), "q2"),
            Transition("q1", TRUE, "q1"),
            Transition("q2", TRUE, "q2"),
            Transition("q2", unsat, "q0"),
        ),
    )
    mini = minimize(a)
    assert mini.states == ("{q0}", "{q1,q2}")
    assert oracle_equal(mini, a)


def test_signature_blocks_count_joins_per_state_and_round():
    # q0 reaches q1 by two adjacent edges: one tile merged into a run in
    # each of the two rounds
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2"),
        "q0",
        {"q2"},
        (
            Transition("q0", ia(NEG_INF, 0), "q1"),
            Transition("q0", ia(0, POS_INF), "q1"),
            Transition("q1", TRUE, "q2"),
            Transition("q2", TRUE, "q2"),
        ),
    )
    c = OpCounters()
    block, pieces = _signature_blocks(_Side(a, c), ("q0",), a.accepting)
    assert len(set(block.values())) == 3
    assert pieces(block[("q0",)]) == [((IntervalAtom(NEG_INF, POS_INF),), block[("q1",)])]
    assert c.disj_built == 2
    assert c.sat_calls == 1  # one overlap test, at q0
    assert list(block) == [("q0",), ("q1",), ("q2",)]  # complete: no sink
    # two edges into q1 that a run into q2 keeps apart merge into no run
    apart = (Transition("q0", ia(NEG_INF, 0), "q1"), Transition("q0", ia(5, POS_INF), "q1"))
    apart += (Transition("q0", ia(0, 5), "q2"),) + a.transitions[2:]
    c = OpCounters()
    _signature_blocks(_Side(Sfa(a.binding, a.states, "q0", a.accepting, apart), c), ("q0",), {"q2"})
    assert c.disj_built == 0
    # truth tables: one table ORed into another per round, as for intervals
    b = Sfa(
        propositional_binding(["p1"]),
        a.states,
        "q0",
        a.accepting,
        (Transition("q0", lit(0), "q1"), Transition("q0", lit(0, neg=True), "q1")) + a.transitions[2:],
    )
    c = OpCounters()
    block, pieces = _signature_blocks(_Side(b, c), ("q0",), b.accepting)
    assert pieces(block[("q0",)]) == [(0b11, block[("q1",)])]
    assert c.disj_built == 2


@pytest.mark.parametrize("algebra", ["interval", "propositional"])
def test_signature_blocks_share_a_block_however_the_edges_cut_the_letters(algebra):
    # s1 cuts into two edges what s2 takes in one; s3 maps fewer letters to t
    if algebra == "interval":
        binding, fronts = interval_binding(), [ia(NEG_INF, 0), ia(0, 10), ia(10, POS_INF)]
        s1, s2, s3 = [ia(0, 5), ia(5, 10)], [ia(0, 10)], [ia(0, 9)]
    else:
        binding = propositional_binding(["p1", "p2"])
        both, only = mk_and([lit(0), lit(1)]), mk_and([lit(0), lit(1, neg=True)])
        fronts = [lit(0, neg=True), both, only]
        s1, s2, s3 = [both, only], [lit(0)], [both]
    edges = [Transition("q0", p, s) for p, s in zip(fronts, ("s1", "s2", "s3"))]
    edges += [Transition(s, p, "t") for s, ps in zip(("s1", "s2", "s3"), (s1, s2, s3)) for p in ps]
    a = Sfa(binding, ("q0", "s1", "s2", "s3", "t"), "q0", {"t"}, edges + [Transition("t", TRUE, "t")])
    block, pieces = _signature_blocks(_Side(a), ("q0",), a.accepting)
    assert block[("s1",)] == block[("s2",)] != block[("s3",)]
    assert len(pieces(block[("s1",)])) == (3 if algebra == "interval" else 2)


@pytest.mark.parametrize("algebra", ["interval", "propositional"])
def test_signature_blocks_pieces_partition_the_letters_in_order(algebra):
    rng = random.Random(33)
    for i in range(60):
        complete = rng.random() < 0.5
        if algebra == "interval":
            a = rand_det_interval_sfa(rng, n_max=6, complete=complete)
        else:
            a = rand_det_prop_sfa(rng, n_max=6, complete=complete)
        a = rewrite(rng, a) if i % 3 else rand_sfa(rng, a.binding, n_max=5)
        binding, side = a.binding, _Side(a)
        block, pieces = _signature_blocks(side, (a.initial,), a.accepting)
        for m, b in block.items():
            ps = pieces(b)
            ds = [d for d, _ in ps]
            assert all(not binding.meet(x, y) for j, x in enumerate(ds) for y in ds[j + 1 :])
            assert binding.join(ds) == binding.full
            firsts = [d[0].lo if algebra == "interval" else d & -d for d in ds]
            assert firsts == sorted(firsts)
            if algebra == "interval":
                assert all(len(d) == 1 for d in ds)
                assert all(x[1] != y[1] for x, y in zip(ps, ps[1:]))
            # the pieces are m's own letter -> block map
            for dst, e in side.det(m).edges:
                into = binding.join([d for d, tb in ps if tb == block.get(dst)])
                assert not binding.meet(e, binding.complement(into))


def test_minimize_keeps_one_of_two_unsat_edges_that_merge():
    # q1 and q2 share a block, so q0's two unsatisfiable edges meet there
    unsat = mk_and([ia(0, 1), ia(2, 3)])
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2"),
        "q0",
        {"q1", "q2"},
        (
            Transition("q0", ia(NEG_INF, 0), "q1"),
            Transition("q0", ia(0, POS_INF), "q2"),
            Transition("q0", unsat, "q1"),
            Transition("q0", unsat, "q2"),
            Transition("q1", TRUE, "q1"),
            Transition("q2", TRUE, "q2"),
        ),
    )
    mini = minimize(a)
    assert len(mini.transitions) == 4
    assert validate(mini) == []
    assert oracle_equal(mini, a)


def test_signature_blocks_read_a_sink_and_refuse_overlapping_edges():
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2", "dead"),
        "q0",
        {"q1"},
        (
            Transition("q0", ia(0, 10), "q1"),
            Transition("q0", mk_and([ia(0, 1), ia(2, 3)]), "q2"),
            Transition("q1", TRUE, "q1"),
            Transition("dead", ia(0, 5), "q0"),
        ),
    )
    c = OpCounters()
    block, letters = _signature_blocks(_Side(a, c), ("q0",), a.accepting)
    # q2 is reached by an unsatisfiable edge only, so it is not refined;
    # the sink, the empty macro-state, comes last
    assert list(block) == [("q0",), ("q1",), ()]
    assert block[()] != block[("q0",)]
    assert c.sat_calls == 1  # one overlap test, at q0; dead is not read
    assert c.disj_built == 0
    # minimize reads every state, so an overlap at unreachable dead is refused
    overlapping = Transition("dead", ia(3, 8), "q0")
    b = Sfa(a.binding, a.states, a.initial, a.accepting, a.transitions + (overlapping,))
    c = OpCounters()
    with pytest.raises(NondeterministicInput):
        minimize(b, c)
    assert c.sat_calls == 2  # overlap tests at q0 and dead


def refuse(*args, **kwargs):
    raise AssertionError("constructions read edges through _Side")


def test_minimize_and_canonical_forms_denote_each_edge_at_most_once(monkeypatch):
    """minimize, the canonical forms (on DFAs and NFAs), determinize, both
    products and complement denote each transition at most once per call:
    no check reads the edges before the construction does."""
    calls = Counter()

    def counting(denote):
        def counted(self, p):
            calls[id(p)] += 1
            return denote(self, p)

        return counted

    completed = transforms.complete
    for binding in (IntervalBinding, PropositionalBinding):
        monkeypatch.setattr(binding, "denote", counting(binding.denote))
    for module in (sfa, transforms, operations):
        for name in ("complete", "to_feasible", "is_complete", "is_deterministic"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)

    def denotes_each_once(run, *inputs):
        allowed = Counter(id(t.pred) for x in inputs for t in x.transitions)
        calls.clear()
        run(*inputs)
        assert all(n <= allowed[p] for p, n in calls.items())

    # b, product's second input, draws from its own generator, so a's
    # inputs do not depend on it
    rng, other = random.Random(239), random.Random(241)
    for i in range(160):
        full = rng.random() < 0.5
        if i % 2:
            a = rand_det_interval_sfa(rng, complete=full, neat=rng.random() < 0.5)
            b = rand_det_interval_sfa(other, complete=other.random() < 0.5)
            nfa = rand_sfa(other, a.binding, n_max=4, m_max=3)
            runs = (minimize, canonical_minimal_neat, canonical_minimal_normalized)
        else:
            a = rand_det_prop_sfa(rng, k=3, complete=full)
            b = rand_det_prop_sfa(other, k=3, complete=other.random() < 0.5)
            nfa = None
            runs = (minimize, canonical_minimal_neat, canonical_minimal_normalized)
        if rng.random() < 0.4:
            a = rewrite(rng, a, rounds=2)
        for run in runs + (determinize, complement):
            denotes_each_once(run, a)
        if nfa is not None:
            for run in (canonical_minimal_neat, canonical_minimal_normalized):
                denotes_each_once(run, nfa)
        denotes_each_once(lambda x, y: product(x, y, ProductMode.INTERSECT), a, b)
        ca, cb = completed(a), completed(b)
        denotes_each_once(lambda x, y: product(x, y, ProductMode.UNION), ca, cb)
        denotes_each_once(lambda x: product(x, x, ProductMode.UNION), ca)


def _overlap_tests(*inputs):
    """Sat calls of reading every state of each input once: one overlap
    test per state with two edges or more."""
    return sum(len(ts) > 1 for a in inputs for ts in a.out_map().values())


def _meets(a, b):
    """Edge pairs a product of a and b meets: every pair of edges of every
    pair state its search reaches through non-empty meets."""
    out_a, out_b = a.out_map(), b.out_map()
    seen = {(a.initial, b.initial)}
    stack = list(seen)
    meets = 0
    while stack:
        p, q = stack.pop()
        meets += len(out_a[p]) * len(out_b[q])
        for t1 in out_a[p]:
            for t2 in out_b[q]:
                if a.binding.is_sat(mk_and([t1.pred, t2.pred])) and (t1.dst, t2.dst) not in seen:
                    seen.add((t1.dst, t2.dst))
                    stack.append((t1.dst, t2.dst))
    return meets


def _det_inputs(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            a = rand_det_interval_sfa(rng, complete=rng.random() < 0.5, neat=rng.random() < 0.5)
        else:
            a = rand_det_prop_sfa(rng, k=3, complete=rng.random() < 0.5)
        yield rewrite(rng, a, rounds=2) if rng.random() < 0.4 else a


def test_complement_and_minimize_cost_one_overlap_test_per_state():
    for a in _det_inputs(331, 120):
        for run in (complement, minimize):
            c = OpCounters()
            run(a, c)
            assert c.sat_calls == _overlap_tests(a)
            if run is complement:
                assert (c.conj_built, c.disj_built) == (0, 0)


def test_union_costs_its_overlap_tests_and_one_per_meet():
    inputs = [complete(a) for a in _det_inputs(337, 120)]
    for a, b in zip(inputs, inputs[2:]):  # both of one algebra
        for x, y in ((a, b), (b, a)):
            c = OpCounters()
            product(x, y, ProductMode.UNION, c)
            meets = _meets(x, y)
            assert c.sat_calls == _overlap_tests(x, y) + meets
            assert (c.conj_built, c.disj_built) == (meets, 0)
        c = OpCounters()
        product(a, a, ProductMode.UNION, c)
        assert c.sat_calls == _overlap_tests(a) + _meets(a, a)


def test_canonical_forms_of_an_nfa_cost_what_determinize_does():
    rng = random.Random(347)
    bindings = (interval_binding(), propositional_binding(["p1", "p2", "p3"]))
    nfas = [0, 0]
    for i in range(160):
        a = rand_sfa(rng, bindings[i % 2], n_max=4, m_max=3)
        nfas[i % 2] += not is_deterministic(a)
        want = OpCounters()
        determinize(a, want)
        for run in (canonical_minimal_neat, canonical_minimal_normalized):
            c = OpCounters()
            run(a, c)
            assert (c.sat_calls, c.conj_built) == (want.sat_calls, want.conj_built)
    assert min(nfas) > 40


def test_minimize_requires_deterministic():
    with pytest.raises(NondeterministicInput):
        minimize(overlap_nfa())


def test_minimize_matches_distinguishable_class_count():
    rng = random.Random(97)
    for _ in range(30):
        a = rand_det_interval_sfa(rng, complete=True, neat=rng.random() < 0.5)
        mini = minimize(a)
        dfa = concretize(a, representatives(a))
        assert len(mini.states) == mn_class_count(dfa)
    for _ in range(20):
        a = rand_det_prop_sfa(rng, complete=True)
        mini = minimize(a)
        assert len(mini.states) == mn_class_count(concretize(a))


@pytest.mark.parametrize(
    "binding, unsat",
    [
        (interval_binding(), mk_and([ia(0, 1), ia(5, 6)])),
        (propositional_binding(["p1"]), mk_and([lit(0), lit(0, neg=True)])),
    ],
    ids=["interval", "propositional"],
)
def test_minimize_drops_states_only_an_unsatisfiable_edge_reaches(binding, unsat):
    a = Sfa(
        binding,
        ("q0", "q1"),
        "q0",
        {"q0"},
        (
            Transition("q0", TRUE, "q0"),
            Transition("q0", unsat, "q1"),
            Transition("q1", TRUE, "q1"),
        ),
    )
    mini = minimize(a)
    assert len(mini.states) == mn_class_count(concretize(a, representatives(a))) == 1
    assert mini.transitions == (Transition("{q0}", TRUE, "{q0}"),)
    assert oracle_equal(mini, a)


def test_minimize_properties():
    rng = random.Random(101)
    for _ in range(30):
        neat = rng.random() < 0.5
        a = rand_det_interval_sfa(rng, complete=rng.random() < 0.5, neat=neat)
        mini = minimize(a)
        ta, tm = size_triple(a), size_triple(mini)
        assert tm.n <= ta.n
        assert tm.m <= ta.m
        assert is_deterministic(mini)
        if neat:
            assert is_neat(mini)
        assert oracle_equal(mini, a)
    for _ in range(15):
        a = rand_det_prop_sfa(rng, complete=rng.random() < 0.5)
        mini = minimize(a)
        assert size_triple(mini).n <= size_triple(a).n
        assert is_neat(mini)
        assert oracle_equal(mini, a)


def test_is_empty_examples(two_state):
    assert not is_empty(two_state)
    dead = Sfa(interval_binding(), ("z",), "z", set(), ())
    assert is_empty(dead)


def test_is_empty_respects_assume_feasible():
    a = Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (Transition("q0", mk_and([ia(0, 10), ia(20, 30)]), "q1"),),
    )
    c = OpCounters()
    assert is_empty(a, counters=c)
    assert c.sat_calls == 1
    assert not is_empty(a, assume_feasible=True)


def test_is_empty_oracle_agreement_and_sat_budget():
    rng = random.Random(103)
    for _ in range(40):
        a = rand_sfa(rng, interval_binding(), n_max=4, m_max=3)
        c = OpCounters()
        t = size_triple(a)
        assert is_empty(a, counters=c) == oracle_empty(a)
        assert c.sat_calls <= t.n * t.m
    binding = propositional_binding(["p1", "p2"])
    for _ in range(20):
        a = rand_sfa(rng, binding, n_max=4, m_max=3)
        assert is_empty(a) == oracle_empty(a)


def test_includes_examples(two_state):
    prod = product(two_state, low_loop(), ProductMode.INTERSECT)
    assert includes(prod, two_state)
    assert not includes(two_state, prod)
    assert includes(two_state, two_state)


def test_includes_tolerates_nondeterministic_inputs(two_state):
    assert includes(overlap_nfa(), determinize(overlap_nfa()))
    assert includes(determinize(overlap_nfa()), overlap_nfa())


def test_includes_oracle_agreement():
    rng = random.Random(107)
    for _ in range(30):
        a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        b = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        alphabet = representatives(a, b)
        assert includes(a, b) == oracle_subset(a, b, alphabet)
    binding = propositional_binding(["p1", "p2"])
    for _ in range(20):
        a = rand_sfa(rng, binding, n_max=3, m_max=2, pred_size=3)
        b = rand_sfa(rng, binding, n_max=3, m_max=2, pred_size=3)
        assert includes(a, b) == oracle_subset(a, b)


def test_equivalent_examples(two_state):
    rng = random.Random(109)
    assert equivalent(two_state, rewrite(rng, two_state, rounds=4))
    assert not equivalent(two_state, complement(two_state))
    assert not equivalent(two_state, low_loop())


def test_equivalent_oracle_agreement():
    rng = random.Random(113)
    hits = 0
    for _ in range(25):
        a = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
        b = rewrite(rng, a, rounds=3) if rng.random() < 0.5 else rand_det_interval_sfa(rng)
        want = oracle_equal(a, b, representatives(a, b))
        assert equivalent(a, b) == want
        hits += want
    assert hits > 0


def with_unreachable_state(rng, a):
    """a plus one state no edge leads to, with two edges of its own."""
    ghost = fresh_state_name(set(a.states), "ghost")
    edges = a.transitions + (
        Transition(ghost, ia(0, 5), rng.choice(a.states)),
        Transition(ghost, ia(5, 9), ghost),
    )
    accepting = a.accepting | ({ghost} if rng.random() < 0.5 else set())
    return Sfa(a.binding, a.states + (ghost,), a.initial, accepting, edges)


def test_canonical_form_of_deterministic_input_equals_that_of_its_determinization():
    rng = random.Random(127)
    for _ in range(200):
        complete, neat = rng.random() < 0.5, rng.random() < 0.5
        a = rand_det_interval_sfa(rng, n_max=5, complete=complete, neat=neat)
        if rng.random() < 0.5:
            a = with_unreachable_state(rng, a)
        for _ in range(rng.randint(0, 2)):
            a = add_unsat_edge(rng, a)
        assert is_deterministic(a)
        assert canonical_minimal_neat(a) == canonical_minimal_neat(determinize(a))


def test_decisions_at_larger_k_match_the_oracle():
    rng = random.Random(131)
    verdicts = set()
    for k in (6, 7, 8):
        binding = propositional_binding([f"p{i + 1}" for i in range(k)])
        for _ in range(25):
            a = rand_sfa(rng, binding, n_max=3, m_max=2, pred_size=3)
            b = rewrite(rng, a, rounds=2) if rng.random() < 0.4 else rand_sfa(
                rng, binding, n_max=3, m_max=2, pred_size=3
            )
            want_sub = oracle_subset(a, b)
            want_eq = oracle_equal(a, b)
            assert includes(a, b) == want_sub
            assert equivalent(a, b) == want_eq
            verdicts.add((want_sub, want_eq))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_interval_canonical_equality_iff_equivalent_iff_oracle():
    rng = random.Random(137)
    hits = 0
    for _ in range(300):
        a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        b = rewrite(rng, a, rounds=2) if rng.random() < 0.5 else rand_sfa(
            rng, interval_binding(), n_max=3, m_max=3, pred_size=3
        )
        want = oracle_equal(a, b, representatives(a, b))
        assert equivalent(a, b) == want
        assert (canonical_minimal_neat(a) == canonical_minimal_neat(b)) == want
        hits += want
    assert 0 < hits < 300


def test_complement_is_an_involution():
    rng = random.Random(139)
    bindings = [interval_binding(), propositional_binding(["p1", "p2", "p3", "p4"])]
    for i in range(200):
        binding = bindings[i % 2]
        d = determinize(rand_sfa(rng, binding, n_max=3, m_max=3, pred_size=3))
        cc = complement(complement(d))
        assert oracle_equal(cc, d, representatives(cc, d))
        assert equivalent(cc, d)


# State names that hold commas: composite names ("{a,b}", "(p,q,r)") of two
# different macro-states or pairs can coincide, and the constructions must
# still name every state once.


def test_determinize_names_comma_macro_states_apart():
    a = comma_nfa()
    d = determinize(a)
    assert d.states == ("{s}", "{a,b}", "{a,b}1")
    assert validate(d) == []
    assert is_deterministic(d)
    assert separating_word(d, a) is None


def test_intersect_names_comma_pairs_apart():
    binding = interval_binding()
    x = Sfa(binding, ("p", "p,q"), "p", {"p,q"}, (Transition("p", ia(0, 10), "p,q"),))
    y = Sfa(binding, ("q,r", "r"), "q,r", {"r"}, (Transition("q,r", ia(0, 10), "r"),))
    c = product(x, y, ProductMode.INTERSECT)
    assert c.states == ("(p,q,r)", "(p,q,r)1")
    assert validate(c) == []
    assert c.accepting == frozenset({"(p,q,r)1"})
    assert combination_agrees(x, y, c, lambda u, v: u and v)


def test_minimize_names_comma_blocks_apart():
    binding = interval_binding()
    a = Sfa(
        binding,
        ("a,b", "a", "b"),
        "a,b",
        {"a", "b"},
        (
            Transition("a,b", ia(NEG_INF, 10), "a"),
            Transition("a,b", ia(10, POS_INF), "b"),
            Transition("a", TRUE, "a"),
            Transition("b", TRUE, "b"),
        ),
    )
    m = minimize(a)
    assert m.states == ("{a,b}", "{a,b}1")
    assert validate(m) == []
    assert separating_word(m, a) is None


def test_comma_named_constructions_and_decisions_agree_with_oracle():
    rng = random.Random(151)
    for _ in range(300):
        a, b = rand_comma_named_sfa(rng), rand_comma_named_sfa(rng)
        d = determinize(a)
        assert validate(d) == [] and is_deterministic(d)
        assert separating_word(d, a, representatives(a, d)) is None
        c = product(a, b, ProductMode.INTERSECT)
        assert validate(c) == []
        assert combination_agrees(a, b, c, lambda u, v: u and v)
        assert includes(a, b) == oracle_subset(a, b, representatives(a, b))
