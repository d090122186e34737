import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from symfa import (
    And,
    Atom,
    IntervalAtom,
    LiteralAtom,
    Or,
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
import symfa
from symfa import operations, propositional_binding
from symfa.cli import COMMANDS, build_parser, main
from symfa.oracle import separating_word
from symfa.serialize import MAX_PRED_DEPTH
from conftest import DATA
from genlib import comma_nfa, rand_det_interval_sfa, rand_det_prop_sfa, rand_sfa

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
    # the report's size triple counts edges of a source no state declares
    bad.write_text('{"algebra": "interval", "states": ["q"], "initial": "q", "accepting": [],'
                   ' "transitions": [{"from": "zz", "pred": "true", "to": "q"}]}')
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, err) == (1, "")
    assert "n=1 m=1 l=1" in out and "unknown state 'zz' as transition source" in out


def test_transform_writes_output_file(capsys, tmp_path, two_state):
    out_path = tmp_path / "det.sfa"
    code, out, _ = run(capsys, "determinize", TWO_STATE, "--out", str(out_path), "--json")
    assert code == 0
    assert parse_sfa(out_path.read_text()) == determinize(two_state)
    payload = json.loads(out)
    assert payload["result"] == str(out_path)
    assert payload["output"] == {"n": 2, "m": 2, "l": 1}


def test_neat_of_a_conjunction_of_disjunctions_is_two_edges(capsys, tmp_path):
    """40 copies of p1 | p2 distribute into 2^40 monomials; neat covers the
    truth table instead and writes two edges."""
    p1, p2 = Atom(LiteralAtom(0)), Atom(LiteralAtom(1))
    wide = And((Or((p1, p2)),) * 40)
    a = Sfa(propositional_binding(["p1", "p2"]), ("q",), "q", {"q"}, (Transition("q", wide, "q"),))
    out_path = tmp_path / "neat.sfa"
    code, _, _ = run(capsys, "neat", write(tmp_path, "wide.sfa", a), "--out", str(out_path))
    assert code == 0
    assert len(parse_sfa(out_path.read_text()).transitions) == 2


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


JSON_OPT = (("--json",), "json", False, False, "machine-readable report")
SFA_ARG = ((), "sfa", True, None, "input SFA file")
TWO_ARGS = [((), "a", True, None, "first SFA file"), ((), "b", True, None, "second SFA file")]
OUT_OPT = (("--out",), "out", True, None, "where to write the resulting SFA")
WORD_HELP = "comma-separated letters: integers, or 0/1 strings like 101; empty for the empty word"


def parser_surface():
    """Each subcommand, in order, with its help and every argument but -h as
    (option strings, dest, required, default, help), read off the parser's
    actions rather than its --help text, whose layout varies by version."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [
        (name, helps[name], [
            (tuple(a.option_strings), a.dest, a.required, a.default, a.help)
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for name, sp in sub.choices.items()
    ]


def test_parser_surface_is_pinned():
    def one(*extra):
        return [JSON_OPT, SFA_ARG, *extra]

    def two(*extra):
        return [JSON_OPT, *TWO_ARGS, *extra]

    assert parser_surface() == [
        ("validate", "check the file against the format invariants", one()),
        ("metrics", "report the size triple n, m, l", one()),
        ("neat", "expand predicates into basic transitions", one(OUT_OPT)),
        ("normalize", "merge parallel edges into disjunctions", one(OUT_OPT)),
        ("feasible", "drop unsatisfiable transitions", one(OUT_OPT)),
        ("complete", "add a sink for uncovered letters", one(OUT_OPT)),
        ("determinize", "subset construction with minterms", one(OUT_OPT)),
        ("minimize", "merge indistinguishable states", one(OUT_OPT)),
        ("complement", "accept exactly the rejected words", one(OUT_OPT)),
        ("canon-neat", "canonical minimal neat form", one(OUT_OPT)),
        ("canon-norm", "canonical minimal normalized form", one(OUT_OPT)),
        ("intersect", "product accepting the intersection", two(OUT_OPT)),
        ("union", "product accepting the union", two(OUT_OPT)),
        ("member", "decide whether a word is accepted",
         one((("--word",), "word", True, None, WORD_HELP))),
        ("empty", "decide language emptiness",
         one((("--assume-feasible",), "assume_feasible", False, False,
              "skip satisfiability checks during the reachability search"))),
        ("include", "decide language inclusion of the first file in the second", two()),
        ("equiv", "decide language equality", two()),
        ("dot", "export Graphviz DOT",
         one((("--out",), "out", False, None, "write DOT here instead of standard output"))),
        ("debug-equal", "brute-force equality over an enumerated alphabet", two()),
        ("debug-subset", "brute-force inclusion over an enumerated alphabet", two()),
    ]


def test_importing_the_cli_leaves_the_oracle_unloaded():
    """Nor does it load dataclasses or inspect, which the value classes do
    without; -S keeps site's own imports out of the check."""
    src = str(Path(symfa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, symfa.cli; "
        "print([m for m in ('symfa.oracle', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


JUNK = (None, True, 0, -1, 7, 2**70, 1.5, "", "q0", "p1", "inf", "-inf", "true", [], {}, [0, 1],
        {"atom": {"lo": 3, "hi": 1}}, {"atom": {"var": "p9", "neg": False}}, {"not": "true"})
WORDS = ("", "5", "-3,200", "101", "0,1", "x", "1,,2", "0110")


def _mutate(rng, node, times):
    """Delete times randomly chosen nodes of a JSON document, or replace
    each by a junk value or a copy of another of its nodes."""
    for _ in range(times):
        slots, stack = [], [node]
        while stack:
            x = stack.pop()
            items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
            for key, child in items:
                slots.append((x, key))
                stack.append(child)
        if slots:
            parent, key = rng.choice(slots)
            r = rng.random()
            if r < 0.2:
                del parent[key]
            else:
                other, other_key = rng.choice(slots)
                value = rng.choice(JUNK) if r < 0.6 else other[other_key]
                parent[key] = json.loads(json.dumps(value))  # shares nothing
    return node


def _rand_doc(rng, i):
    """A seeded genlib automaton as a JSON document: a DFA or an
    unrestricted one, interval for even i, propositional (k = 3) for odd."""
    if i % 2:
        binding = propositional_binding(["p1", "p2", "p3"])
        a = rand_det_prop_sfa(rng) if rng.random() < 0.5 else rand_sfa(rng, binding)
    else:
        a = rand_det_interval_sfa(rng) if rng.random() < 0.5 else rand_sfa(rng, interval_binding())
    return json.loads(emit_sfa(a))


def test_cli_on_mutated_files_never_fails_unexpectedly(capsys, tmp_path):
    """A seeded robustness probe: every command on genlib files with one or
    two JSON nodes replaced or deleted exits 0, 1 or 2, never through the
    handler for unexpected exceptions."""
    rng = random.Random(251)
    names = sorted(COMMANDS)
    codes = set()
    for i in range(300):
        name = rng.choice(names)
        cmd = COMMANDS[name]
        argv = [name]
        for j in range(len(cmd.files)):
            doc = _rand_doc(rng, i)
            if j == 0 or rng.random() < 0.5:
                _mutate(rng, doc, rng.randint(1, 2))
            path = tmp_path / f"in{j}.sfa"
            path.write_text(json.dumps(doc))
            argv.append(str(path))
        if cmd.extra:
            flag = cmd.extra[0]
            if flag == "--out":
                argv.append(f"--out={tmp_path / 'out.sfa'}")
            elif flag == "--word":
                argv.append(f"--word={rng.choice(WORDS)}")
            else:
                argv.append(flag)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "unexpected" not in err, (argv, err)
        codes.add(code)
    assert codes == {0, 1, 2}
