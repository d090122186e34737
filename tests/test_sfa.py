import random
from itertools import combinations

import pytest

from symfa import (
    And,
    Atom,
    IntervalAtom,
    NEG_INF,
    Not,
    OpCounters,
    Or,
    POS_INF,
    Sfa,
    SizeTriple,
    TRUE,
    Transition,
    interval_binding,
    is_complete,
    is_deterministic,
    is_feasible,
    is_neat,
    is_normalized,
    membership,
    mk_and,
    mk_not,
    mk_or,
    propositional_binding,
    size_triple,
    to_normalized,
    validate,
)
from symfa.oracle import concretize, default_alphabet
from symfa.sfa import rename_states
from genlib import (
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_neat_prop_sfa,
    rand_prop_pred,
    rand_sfa,
    random_word,
)


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def one_state(pred=None, accepting=True):
    edges = (Transition("q0", pred, "q0"),) if pred is not None else ()
    return Sfa(interval_binding(), ("q0",), "q0", {"q0"} if accepting else set(), edges)


def test_validate_two_state_is_clean(two_state):
    assert validate(two_state) == []


def test_validate_flags_unknown_states():
    a = Sfa(
        interval_binding(),
        ("q0",),
        "q0",
        {"q9"},
        (Transition("q0", ia(0, 1), "q7"),),
    )
    issues = validate(a)
    assert any("q9" in msg for msg in issues)
    assert any("q7" in msg for msg in issues)


def test_validate_flags_duplicate_transition():
    t = Transition("q0", ia(0, 1), "q0")
    a = Sfa(interval_binding(), ("q0",), "q0", set(), (t, t))
    assert any("duplicate" in msg for msg in validate(a))


def test_validate_flags_a_non_predicate_at_any_depth():
    nested = Or((ia(9, 10), Not(And((ia(0, 1), "junk")))))
    for pred in ("junk", And((ia(0, 5), "junk")), Not("junk"), nested):
        a = one_state(pred)
        assert validate(a) == ["not a predicate: 'junk'"]
        with pytest.raises(TypeError, match="not a predicate"):
            membership(a, [0])


def test_two_state_is_deterministic(two_state):
    assert is_deterministic(two_state)


def test_overlapping_transitions_are_nondeterministic():
    a = Sfa(
        interval_binding(),
        ("q0", "q1", "q2"),
        "q0",
        set(),
        (
            Transition("q0", ia(0, 100), "q1"),
            Transition("q0", ia(50, 200), "q2"),
        ),
    )
    c = OpCounters()
    assert not is_deterministic(a, c)
    assert c.sat_calls == 1


def test_no_transitions_is_deterministic():
    assert is_deterministic(one_state())


def test_two_state_is_complete(two_state):
    assert is_complete(two_state)


def test_partial_loop_is_incomplete():
    assert not is_complete(one_state(ia(10, 20)))


def test_top_loop_is_complete():
    assert is_complete(one_state(TRUE))


def test_two_state_special_forms(two_state):
    assert is_neat(two_state) and is_normalized(two_state) and is_feasible(two_state)


def test_or_labeled_transition_is_not_neat():
    a = one_state(mk_or([ia(0, 10), ia(20, 30)]))
    assert not is_neat(a)
    assert is_normalized(a) and is_feasible(a)


def test_unsat_conjunction_is_infeasible():
    a = one_state(mk_and([ia(0, 10), ia(20, 30)]))
    assert not is_feasible(a)
    assert is_neat(a)


def test_parallel_edges_are_not_normalized():
    a = Sfa(
        interval_binding(),
        ("q0",),
        "q0",
        set(),
        (Transition("q0", ia(0, 10), "q0"), Transition("q0", ia(20, 30), "q0")),
    )
    assert not is_normalized(a)


def test_membership_two_state_examples(two_state):
    assert membership(two_state, [50])
    assert membership(two_state, [150, 50, 199])
    assert not membership(two_state, [50, 250])
    assert not membership(two_state, [])


def test_membership_rejects_bad_letter(two_state):
    with pytest.raises(TypeError):
        membership(two_state, [(1, 0)])


def test_size_triple_two_state(two_state):
    assert size_triple(two_state) == SizeTriple(2, 2, 1)


def test_size_triple_lone_state():
    assert size_triple(one_state()) == SizeTriple(1, 0, 0)


def test_size_triple_after_normalizing_three_parallel_atoms():
    a = Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (
            Transition("q0", ia(0, 10), "q1"),
            Transition("q0", ia(20, 30), "q1"),
            Transition("q0", ia(40, 50), "q1"),
        ),
    )
    n = to_normalized(a)
    assert size_triple(n) == SizeTriple(2, 1, 5)


def test_size_triple_ignores_names_and_order():
    rng = random.Random(31)
    for _ in range(50):
        a = rand_sfa(rng, interval_binding())
        renamed = rename_states(a, {q: f"s{i}" for i, q in enumerate(a.states)})
        shuffled = list(renamed.transitions)
        rng.shuffle(shuffled)
        b = Sfa(renamed.binding, renamed.states, renamed.initial, renamed.accepting, shuffled)
        assert size_triple(a) == size_triple(b)


def test_membership_agrees_with_concrete_dfa():
    rng = random.Random(33)
    for _ in range(40):
        a = rand_sfa(rng, interval_binding(), n_max=4, m_max=3)
        dfa = concretize(a)
        for _ in range(25):
            w = random_word(rng, dfa.alphabet)
            assert membership(a, w) == dfa.accepts(w)
    for _ in range(20):
        a = rand_neat_prop_sfa(rng)
        dfa = concretize(a)
        for _ in range(25):
            w = random_word(rng, dfa.alphabet)
            assert membership(a, w) == dfa.accepts(w)


def test_determinism_and_completeness_agree_with_brute_force():
    rng = random.Random(35)
    for _ in range(60):
        a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        letters = default_alphabet(a)
        out = a.out_map()
        brute_det = all(
            sum(1 for t in out[q] if a.binding.evaluate(t.pred, x)) <= 1
            for q in a.states
            for x in letters
        )
        brute_complete = all(
            any(a.binding.evaluate(t.pred, x) for t in out[q])
            for q in a.states
            for x in letters
        )
        assert is_deterministic(a) == brute_det
        assert is_complete(a) == brute_complete


def _pairwise_reference(a):
    """The definitions, one sat call per predicate tree: no two edges of a
    state share a letter; no letter escapes the union of a state's edges."""
    out = a.out_map().values()
    det = not any(
        a.binding.is_sat(mk_and([t1.pred, t2.pred])) for ts in out for t1, t2 in combinations(ts, 2)
    )
    complete = not any(a.binding.is_sat(mk_not(mk_or([t.pred for t in ts]))) for ts in out)
    return det, complete, sum(len(ts) * (len(ts) - 1) // 2 for ts in out)


def _split_prop_sfa(rng, binding, complete):
    """Deterministic by construction with general labels: each state splits
    the valuations by random p and r into p, not p and r, not p and not r,
    dropping one part when incomplete automata are allowed."""
    states = ("q0", "q1", "q2")
    edges = []
    for q in states:
        p, r = (rand_prop_pred(rng, binding.k, rng.randint(2, 6)) for _ in range(2))
        parts = [p, mk_and([Not(p), r]), mk_and([Not(p), Not(r)])]
        if not complete:
            parts.pop(rng.randrange(3))
        edges.extend(Transition(q, pred, rng.choice(states)) for pred in parts)
    return Sfa(binding, states, "q0", {"q1"}, tuple(edges))


@pytest.mark.parametrize("algebra", ["interval", "k=3", "k=6", "k=8"])
def test_determinism_and_completeness_agree_with_pairwise_definition(algebra):
    rng = random.Random(algebra)
    if algebra == "interval":
        binding = interval_binding()
        det = lambda: rand_det_interval_sfa(rng, complete=rng.random() < 0.5, neat=rng.random() < 0.5)
    else:
        k = int(algebra[2:])
        binding = propositional_binding([f"p{i + 1}" for i in range(k)])
        if k <= 6:
            det = lambda: rand_det_prop_sfa(rng, k, complete=rng.random() < 0.5)
        else:
            det = lambda: _split_prop_sfa(rng, binding, complete=rng.random() < 0.5)
    verdicts = set()
    for i in range(80):
        a = det() if i % 2 else rand_sfa(rng, binding, n_max=4, m_max=3, pred_size=6)
        want_det, want_complete, pairs = _pairwise_reference(a)
        c = OpCounters()
        assert is_deterministic(a, c) == want_det
        assert c.sat_calls <= pairs
        assert is_complete(a) == want_complete
        verdicts.add((want_det, want_complete))
    assert len(verdicts) >= 3
