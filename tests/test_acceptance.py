"""Acceptance suite: ten numbered criteria, one printed line apiece.

Each test drives one criterion at its stated sample count and time budget
and writes "criterion N: PASS/FAIL (label)" through the terminal reporter,
so the verdict stays visible even with output capturing enabled.
"""

import random
import time

import pytest

from symfa import (
    OpCounters,
    ProductMode,
    complement,
    complete,
    determinize,
    emit_sfa,
    equivalent,
    export_dot,
    includes,
    interval_binding,
    is_complete,
    is_deterministic,
    is_empty,
    is_feasible,
    is_neat,
    is_normalized,
    membership,
    minimize,
    mk_or,
    parse_sfa,
    predicate_size,
    product,
    propositional_binding,
    size_triple,
)
from symfa.intervals import to_dnf
from symfa.predicates import IntervalAtom, iter_atoms
from symfa.sfa import SizeTriple
from symfa.transforms import (
    canonical_minimal_neat,
    canonical_minimal_normalized,
)
from symfa.oracle import (
    concretize,
    default_alphabet,
    mn_class_count,
    oracle_empty,
    oracle_equal,
    oracle_subset,
    representatives,
)
from genlib import (
    combination_agrees,
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_interval_pred,
    rand_neat_interval_sfa,
    rand_neat_prop_sfa,
    rand_sfa,
    random_word,
    rewrite,
)
from conftest import DATA


@pytest.fixture
def term(request):
    return request.config.pluginmanager.get_plugin("terminalreporter")


def announce(term, num, label, ok):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({label})"
    if term is not None:
        term.write_line(line)
    else:
        print(line)


def run_criterion(term, num, label, body, limit=None):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if limit is not None:
            assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit}s"
    except BaseException:
        announce(term, num, label, False)
        raise
    announce(term, num, label, True)


def test_criterion_01_fixture_golden_suite(term, two_state):
    def body():
        assert is_neat(two_state)
        assert is_normalized(two_state)
        assert is_deterministic(two_state)
        assert is_complete(two_state)
        assert is_feasible(two_state)
        assert size_triple(two_state) == SizeTriple(2, 2, 1)
        assert membership(two_state, [50])
        assert membership(two_state, [150, 50, 199])
        assert not membership(two_state, [50, 250])
        assert not membership(two_state, [])

    run_criterion(term, 1, "two-state fixture golden suite", body, limit=1.0)


def _pred_window(p):
    pts = sorted(
        b
        for payload in iter_atoms(p)
        if isinstance(payload, IntervalAtom)
        for b in (payload.lo, payload.hi)
        if isinstance(b, int)
    )
    if not pts:
        return range(-2, 3)
    return range(pts[0] - 2, pts[-1] + 3)


def test_criterion_02_linear_dnf_bound(term):
    def body():
        rng = random.Random(20240201)
        binding = interval_binding()
        for _ in range(1000):
            p = rand_interval_pred(rng, rng.randint(1, 60))
            atoms = to_dnf(p)
            assert len(atoms) <= 2 * predicate_size(p)
            q = mk_or(binding.basic_preds(atoms))
            for x in _pred_window(p):
                assert binding.evaluate(p, x) == binding.evaluate(q, x)

    run_criterion(term, 2, "interval DNF linear in predicate size", body, limit=10.0)


def test_criterion_03_product_outdegree_and_exactness(term):
    def body():
        rng = random.Random(20240203)
        for _ in range(200):
            a = rand_det_interval_sfa(rng, n_max=6, max_cuts=4, complete=False, neat=rng.random() < 0.5)
            b = rand_det_interval_sfa(rng, n_max=6, max_cuts=4, complete=False, neat=rng.random() < 0.5)
            ta, tb = size_triple(a), size_triple(b)
            assert ta.m <= 5 and tb.m <= 5
            prod = product(a, b, ProductMode.INTERSECT)
            tp = size_triple(prod)
            assert tp.m <= 2 * (ta.m + tb.m)
            assert tp.n <= ta.n * tb.n and tp.m <= ta.m * tb.m
            assert combination_agrees(a, b, prod, lambda x, y: x and y)

    run_criterion(term, 3, "product out-degree bound and exact intersection", body, limit=30.0)


def test_criterion_04_completion_bound(term):
    def body():
        rng = random.Random(20240204)
        for _ in range(200):
            a = rand_neat_interval_sfa(rng)
            t = size_triple(a)
            c = complete(a)
            added = len(c.transitions) - len(a.transitions)
            assert added <= t.n * (t.m + 1) + 1
            assert is_complete(c)
            assert oracle_equal(a, c)

    run_criterion(term, 4, "completion adds at most n(m+1)+1 transitions", body)


def test_criterion_05_canonical_confluence(term):
    def body():
        rng = random.Random(20240205)
        for _ in range(100):
            a = rand_det_interval_sfa(
                rng, n_max=4, max_cuts=3, complete=rng.random() < 0.5, neat=rng.random() < 0.5
            )
            b = rewrite(rng, a, rounds=rng.randint(2, 4))
            assert canonical_minimal_neat(a) == canonical_minimal_neat(b)
            assert canonical_minimal_normalized(a) == canonical_minimal_normalized(b)

    run_criterion(term, 5, "canonical forms confluent under rewrites", body, limit=60.0)


def test_propositional_canonical_confluence():
    """Criterion 05 over valuations: both forms are equal for an input and
    its rewrites, are their own canonical forms, and keep the language."""
    rng = random.Random(20240215)
    changed = 0
    for i in range(300):
        a = rand_det_prop_sfa(rng, k=3 + i % 3, complete=rng.random() < 0.5)
        b = rewrite(rng, a, rounds=rng.randint(2, 4))
        changed += b != a
        for form in (canonical_minimal_neat, canonical_minimal_normalized):
            c = form(a)
            assert form(b) == c
            assert form(c) == c
            assert oracle_equal(a, c)
    assert changed > 250


def test_criterion_06_neat_closure(term):
    def body():
        rng = random.Random(20240206)
        inputs = [rand_neat_interval_sfa(rng) for _ in range(120)]
        inputs += [rand_neat_prop_sfa(rng) for _ in range(80)]
        for a, b in zip(inputs[0::2], inputs[1::2]):
            prod = product(a, b, ProductMode.INTERSECT)
            assert is_neat(prod)
        for a in inputs:
            d = determinize(a)
            assert is_neat(d)
            assert is_neat(complement(d))
            assert is_neat(minimize(d))

    run_criterion(term, 6, "neat inputs give neat outputs", body)


def test_criterion_07_size_bounds_table(term):
    def body():
        rng = random.Random(20240207)
        for _ in range(100):
            a = rand_sfa(rng, interval_binding(), n_max=5, m_max=3, pred_size=3)
            assert len(a.states) <= 8
            d = determinize(a)
            assert len(d.states) <= 2 ** len(a.states)
            td = size_triple(d)
            mini = minimize(d)
            tm = size_triple(mini)
            assert tm.n <= td.n and tm.m <= td.m
        for _ in range(60):
            # complement bound regime: complete inputs, or incomplete ones
            # whose completion takes the single-residual path (not neat)
            if rng.random() < 0.5:
                a = rand_det_interval_sfa(rng, complete=False, neat=False)
            else:
                a = rand_det_interval_sfa(rng, complete=True, neat=rng.random() < 0.5)
            ta = size_triple(a)
            c = complement(a)
            tc = size_triple(c)
            assert tc.n <= ta.n + 1 and tc.m <= ta.m + 1
        for _ in range(40):
            a = rand_det_prop_sfa(rng, complete=True)
            ta = size_triple(a)
            c = complement(a)
            tc = size_triple(c)
            assert tc.n <= ta.n + 1 and tc.m <= ta.m + 1
            mini = minimize(a)
            tm = size_triple(mini)
            assert tm.n <= ta.n and tm.m <= ta.m
        for _ in range(60):
            a = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
            b = rand_det_interval_sfa(rng, complete=False, neat=rng.random() < 0.5)
            ta, tb = size_triple(a), size_triple(b)
            prod = product(a, b, ProductMode.INTERSECT)
            tp = size_triple(prod)
            assert tp.n <= ta.n * tb.n and tp.m <= ta.m * tb.m

    run_criterion(term, 7, "operation size bounds", body)


def test_criterion_08_decision_procedure_agreement(term):
    def body():
        rng = random.Random(20240208)

        def rand_binding(i):
            if i % 3 == 2:
                k = rng.randint(1, 3)
                return propositional_binding([f"p{j + 1}" for j in range(k)])
            return interval_binding()

        def rand_one(binding):
            return rand_sfa(rng, binding, n_max=3, m_max=3, pred_size=3)

        for i in range(500):
            a = rand_one(rand_binding(i))
            counters = OpCounters()
            t = size_triple(a)
            assert is_empty(a, counters=counters) == oracle_empty(a)
            assert counters.sat_calls <= t.n * t.m

        for i in range(500):
            a = rand_one(rand_binding(i))
            alphabet = default_alphabet(a)
            dfa = concretize(a, alphabet)
            w = random_word(rng, alphabet)
            assert membership(a, w) == dfa.accepts(w)

        for i in range(500):
            binding = rand_binding(i)
            a = rand_one(binding)
            b = rand_one(binding)
            alphabet = representatives(a, b)
            assert includes(a, b) == oracle_subset(a, b, alphabet)

        for i in range(500):
            binding = rand_binding(i)
            a = rand_one(binding)
            b = rewrite(rng, a, rounds=2) if rng.random() < 0.4 else rand_one(binding)
            alphabet = representatives(a, b)
            assert equivalent(a, b) == oracle_equal(a, b, alphabet)

    run_criterion(term, 8, "decision procedures agree with brute force", body)


def test_criterion_09_minimization_exactness(term):
    def body():
        rng = random.Random(20240209)
        for i in range(200):
            if i % 3 == 2:
                a = rand_det_prop_sfa(rng, k=2, n_max=8, complete=True)
                dfa = concretize(a)
            else:
                a = rand_det_interval_sfa(
                    rng, n_max=8, max_cuts=3, complete=True, neat=rng.random() < 0.5
                )
                dfa = concretize(a, representatives(a))
            assert len(a.states) <= 8
            assert len(minimize(a).states) == mn_class_count(dfa)

    run_criterion(term, 9, "minimize hits the distinguishable-class count", body)


def test_criterion_10_cli_round_trip_and_golden_dot(term, two_state, tmp_path, capsys):
    def body():
        from symfa.cli import main

        rng = random.Random(20240210)
        for _ in range(30):
            a = rand_sfa(rng, interval_binding())
            assert parse_sfa(emit_sfa(a)) == a
        for _ in range(20):
            a = rand_sfa(rng, propositional_binding(["p1", "p2"]), pred_size=4)
            assert parse_sfa(emit_sfa(a)) == a
        text = (DATA / "two_state.sfa").read_text()
        assert emit_sfa(parse_sfa(text)) == text
        assert export_dot(two_state) == (DATA / "two_state.dot").read_text()
        out_path = tmp_path / "two_state.dot"
        assert main(["dot", str(DATA / "two_state.sfa"), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == (DATA / "two_state.dot").read_bytes()

    run_criterion(term, 10, "file round-trips and golden DOT bytes", body)
