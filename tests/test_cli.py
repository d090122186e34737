import json
from pathlib import Path

from symfa import (
    Atom,
    IntervalAtom,
    ProductMode,
    Sfa,
    Transition,
    complement,
    determinize,
    emit_sfa,
    interval_binding,
    mk_and,
    parse_sfa,
    product,
)
from symfa import operations
from symfa.cli import main
from symfa.oracle import separating_word
from symfa.serialize import MAX_PRED_DEPTH
from conftest import DATA
from genlib import comma_nfa

TWO_STATE = str(DATA / "two_state.sfa")
GOLDEN_DOT = DATA / "two_state.dot"


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, a):
    p = tmp_path / name
    p.write_text(emit_sfa(a))
    return str(p)


def low_loop_path(tmp_path):
    a = Sfa(
        interval_binding(),
        ("p0",),
        "p0",
        {"p0"},
        (Transition("p0", ia(0, 150), "p0"),),
    )
    return write(tmp_path, "low.sfa", a)


def test_member_exit_codes(capsys):
    assert run(capsys, "member", TWO_STATE, "--word", "50")[0] == 0
    assert run(capsys, "member", TWO_STATE, "--word", "150,50,199")[0] == 0
    assert run(capsys, "member", TWO_STATE, "--word", "50,250")[0] == 1
    assert run(capsys, "member", TWO_STATE, "--word", "")[0] == 1


def test_member_json_report(capsys):
    code, out, err = run(capsys, "member", TWO_STATE, "--word", "50", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"op", "inputs", "output", "counters", "ms", "result"}
    assert payload["op"] == "member"
    assert payload["inputs"] == [{"n": 2, "m": 2, "l": 1}]
    assert payload["output"] is None
    assert set(payload["counters"]) == {"sat_calls", "conj_built", "disj_built"}
    assert payload["result"] is True
    assert isinstance(payload["ms"], (int, float))


def test_metrics_human_report(capsys):
    code, out, _ = run(capsys, "metrics", TWO_STATE)
    assert code == 0
    assert "n=2 m=2 l=1" in out
    assert 'result: {"n": 2, "m": 2, "l": 1}' in out


def test_validate_clean_and_dirty(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", TWO_STATE)
    assert code == 0 and "result: ok" in out
    bad = tmp_path / "bad.sfa"
    bad.write_text('{"algebra": "interval", "states": ["q"], "initial": "q", '
                   '"accepting": ["zz"], "transitions": []}')
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "violation:" in out and "zz" in out


def test_transform_writes_output_file(capsys, tmp_path, two_state):
    out_path = tmp_path / "det.sfa"
    code, out, _ = run(capsys, "determinize", TWO_STATE, "--out", str(out_path), "--json")
    assert code == 0
    assert parse_sfa(out_path.read_text()) == determinize(two_state)
    payload = json.loads(out)
    assert payload["result"] == str(out_path)
    assert payload["output"] == {"n": 2, "m": 2, "l": 1}


def test_complement_round_trip_via_files(capsys, tmp_path, two_state):
    comp = tmp_path / "comp.sfa"
    twice = tmp_path / "twice.sfa"
    assert run(capsys, "complement", TWO_STATE, "--out", str(comp))[0] == 0
    assert run(capsys, "equiv", TWO_STATE, str(comp))[0] == 1
    assert run(capsys, "complement", str(comp), "--out", str(twice))[0] == 0
    assert run(capsys, "equiv", TWO_STATE, str(twice))[0] == 0
    assert parse_sfa(comp.read_text()) == complement(two_state)


def test_intersect_writes_product(capsys, tmp_path, two_state):
    low = low_loop_path(tmp_path)
    out_path = tmp_path / "prod.sfa"
    code, _, _ = run(capsys, "intersect", TWO_STATE, low, "--out", str(out_path))
    assert code == 0
    expected = product(two_state, parse_sfa(Path(low).read_text()), ProductMode.INTERSECT)
    assert parse_sfa(out_path.read_text()) == expected
    assert run(capsys, "include", str(out_path), TWO_STATE)[0] == 0
    assert run(capsys, "include", TWO_STATE, str(out_path))[0] == 1


def test_union_precondition_failure_exits_2(capsys, tmp_path):
    low = low_loop_path(tmp_path)
    out_path = tmp_path / "u.sfa"
    code, _, err = run(capsys, "union", TWO_STATE, low, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:")
    assert not out_path.exists()


def test_empty_exit_codes(capsys, tmp_path):
    assert run(capsys, "empty", TWO_STATE)[0] == 1
    guarded = Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (Transition("q0", mk_and([ia(0, 10), ia(20, 30)]), "q1"),),
    )
    path = write(tmp_path, "guarded.sfa", guarded)
    assert run(capsys, "empty", path)[0] == 0
    assert run(capsys, "empty", path, "--assume-feasible")[0] == 1


def test_equiv_of_file_with_itself(capsys):
    assert run(capsys, "equiv", TWO_STATE, TWO_STATE)[0] == 0


def test_dot_stdout_matches_golden(capsys):
    code, out, err = run(capsys, "dot", TWO_STATE)
    assert code == 0
    assert out == GOLDEN_DOT.read_text()
    assert "op: dot" in err


def test_dot_out_file_matches_golden(capsys, tmp_path):
    target = tmp_path / "two_state.dot"
    code, out, _ = run(capsys, "dot", TWO_STATE, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == GOLDEN_DOT.read_bytes()
    assert "op: dot" in out


def test_debug_commands(capsys, tmp_path, two_state):
    assert run(capsys, "debug-equal", TWO_STATE, TWO_STATE)[0] == 0
    comp = write(tmp_path, "comp.sfa", complement(two_state))
    code, out, _ = run(capsys, "debug-equal", TWO_STATE, comp, "--json")
    assert code == 1
    assert json.loads(out)["result"] == []
    assert run(capsys, "debug-subset", comp, TWO_STATE)[0] == 1


def test_debug_commands_answer_wide_atoms_at_once(capsys, tmp_path):
    # one letter per segment between endpoints, not every integer up to 10^9
    wide = Sfa(
        interval_binding(),
        ("q0", "q1"),
        "q0",
        {"q1"},
        (Transition("q0", ia(0, 10**9), "q1"),),
    )
    narrow = Sfa(
        wide.binding, wide.states, "q0", {"q1"}, (Transition("q0", ia(0, 10**9 - 1), "q1"),)
    )
    w, n = write(tmp_path, "wide.sfa", wide), write(tmp_path, "narrow.sfa", narrow)
    assert run(capsys, "debug-equal", w, w)[0] == 0
    assert run(capsys, "debug-subset", n, w)[0] == 0
    code, out, _ = run(capsys, "debug-subset", w, n, "--json")
    assert code == 1
    assert json.loads(out)["result"] == [10**9 - 1]


def test_include_and_equiv_on_comma_named_states(capsys, tmp_path):
    # determinizing comma_nfa reaches two macro-states both spelled {a,b}
    a = comma_nfa()
    first = Sfa(a.binding, ("x", "y"), "x", {"y"}, (Transition("x", ia(0, 20), "y"),))
    pa, pf = write(tmp_path, "comma.sfa", a), write(tmp_path, "first.sfa", first)
    for cmd, x, y, px, py in (
        ("include", a, a, pa, pa),
        ("equiv", a, a, pa, pa),
        ("include", first, a, pf, pa),
        ("include", a, first, pa, pf),
        ("equiv", first, a, pf, pa),
    ):
        mode = "subset" if cmd == "include" else "equal"
        want = separating_word(x, y, mode=mode) is None
        assert run(capsys, cmd, px, py)[0] == (0 if want else 1)


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "member", "no-such-file.sfa", "--word", "1")
    assert code == 2
    assert err.startswith("error: no-such-file.sfa")


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.sfa"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 1" in err


def test_bad_word_letter_exits_2(capsys):
    code, _, err = run(capsys, "member", TWO_STATE, "--word", "abc")
    assert code == 2
    assert "bad letter" in err


def test_undeclared_state_exits_2_not_1(capsys, tmp_path):
    bad = tmp_path / "undeclared.sfa"
    bad.write_text('{"algebra": "interval", "states": ["q"], "initial": "q", "accepting": ["q"],'
                   ' "transitions": [{"from": "q", "pred": "true", "to": "zz"}]}')
    code, _, err = run(capsys, "equiv", str(bad), TWO_STATE)
    assert code == 2
    assert err.startswith("error:") and "'zz'" in err
    assert run(capsys, "validate", str(bad))[0] == 1


def test_deeply_nested_predicate_exits_2_not_1(capsys, tmp_path):
    deep = tmp_path / "deep.sfa"
    pred = '{"not": ' * 3000 + '"true"' + "}" * 3000
    deep.write_text('{"algebra": "interval", "states": ["q"], "initial": "q", "accepting": [],'
                    ' "transitions": [{"from": "q", "pred": ' + pred + ', "to": "q"}]}')
    code, _, err = run(capsys, "equiv", str(deep), TWO_STATE)
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


def nested_pred(depth, shape):
    """A predicate `depth` levels deep: a chain of `not`s, or of binary
    `and`/`or` nodes alternating, around one interval atom."""
    pred = {"atom": {"lo": 0, "hi": 10}}
    for i in range(depth - 1):
        if shape == "not":
            pred = {"not": pred}
        else:
            pred = {"and" if i % 2 else "or": [pred, {"atom": {"lo": i, "hi": i + 5}}]}
    return pred


def nested_path(tmp_path, depth, shape):
    p = tmp_path / f"{shape}{depth}.sfa"
    p.write_text(json.dumps({
        "algebra": "interval", "states": ["q", "r"], "initial": "q", "accepting": ["r"],
        "transitions": [{"from": "q", "pred": nested_pred(depth, shape), "to": "r"}],
    }))
    return str(p)


def test_predicate_past_depth_cap_is_a_format_error(capsys, tmp_path):
    for shape in ("not", "and-or"):
        path = nested_path(tmp_path, MAX_PRED_DEPTH + 1, shape)
        for cmd in ("validate", "empty", "dot"):
            code, _, err = run(capsys, cmd, path)
            assert code == 2
            assert err.startswith("error:") and "nested too deeply" in err
            assert "unexpected" not in err


def test_depth_cap_error_is_one_short_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for shape in ("not", "and-or"):
        path = nested_path(tmp_path, MAX_PRED_DEPTH + 1, shape)
        code, _, err = run(capsys, "validate", path.rsplit("/", 1)[1])
        assert code == 2
        assert err.count("\n") == 1 and len(err.encode()) < 200, err
        assert "transitions[0].pred" in err and f"at most {MAX_PRED_DEPTH} levels" in err


def test_predicate_at_depth_cap_runs(capsys, tmp_path):
    out = str(tmp_path / "out.sfa")
    for shape in ("not", "and-or"):
        path = nested_path(tmp_path, MAX_PRED_DEPTH, shape)
        for argv in (
            ("validate", path),
            ("empty", path),
            ("member", path, "--word", "3"),
            ("dot", path),
            ("determinize", path, "--out", out),
        ):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1), (argv[0], shape, err)
            assert "error" not in err


def test_unexpected_exception_exits_2_not_1(capsys, monkeypatch):
    def crash(*args):
        raise KeyError("q9")

    monkeypatch.setattr(operations, "equivalent", crash)
    code, _, err = run(capsys, "equiv", TWO_STATE, TWO_STATE)
    assert code == 2
    assert err.startswith("error: unexpected KeyError")
