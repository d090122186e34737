import json
import random
import sys

import pytest

from symfa import (
    And,
    Atom,
    FALSE,
    FormatError,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    Or,
    POS_INF,
    Sfa,
    TRUE,
    Transition,
    emit_sfa,
    interval_binding,
    parse_sfa,
    propositional_binding,
    validate,
)
from symfa.serialize import MAX_PRED_DEPTH
from genlib import (
    rand_comma_named_sfa,
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_neat_prop_sfa,
    rand_sfa,
)
from conftest import DATA


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def test_two_state_file_round_trips_byte_identically(two_state):
    text = (DATA / "two_state.sfa").read_text()
    assert parse_sfa(text) == two_state
    assert emit_sfa(parse_sfa(text)) == text


def test_parse_emit_is_identity_on_random_automata():
    rng = random.Random(131)
    for _ in range(40):
        a = rand_sfa(rng, interval_binding())
        assert parse_sfa(emit_sfa(a)) == a
    for _ in range(20):
        a = rand_neat_prop_sfa(rng)
        assert parse_sfa(emit_sfa(a)) == a
    for _ in range(20):
        a = rand_sfa(rng, propositional_binding(["p1", "p2"]), pred_size=4)
        assert parse_sfa(emit_sfa(a)) == a


def test_parse_preserves_predicate_shape():
    a = Sfa(
        interval_binding(),
        ("q0",),
        "q0",
        {"q0"},
        (Transition("q0", Or((ia(0, 10), Not(ia(5, POS_INF)), TRUE)), "q0"),),
    )
    assert parse_sfa(emit_sfa(a)) == a


def test_interval_bounds_use_words_for_infinities():
    a = Sfa(interval_binding(), ("q0",), "q0", set(), (Transition("q0", ia(NEG_INF, 7), "q0"),))
    text = emit_sfa(a)
    assert '"lo": "-inf"' in text and '"hi": 7' in text
    assert parse_sfa(text) == a


def test_propositional_neg_defaults_to_false():
    binding = propositional_binding(["p1"])
    text = """
    {"algebra": {"kind": "propositional", "props": ["p1"]},
     "states": ["s"], "initial": "s", "accepting": [],
     "transitions": [{"from": "s", "pred": {"atom": {"var": "p1"}}, "to": "s"}]}
    """
    a = parse_sfa(text)
    assert a.binding == binding
    assert a.transitions[0].pred == Atom(LiteralAtom(0, False))


def test_rejects_unknown_top_level_field():
    with pytest.raises(FormatError, match="unknown field 'color'"):
        parse_sfa('{"algebra": "interval", "states": [], "initial": "q", '
                  '"accepting": [], "transitions": [], "color": "red"}')


def test_rejects_missing_field():
    with pytest.raises(FormatError, match="missing field"):
        parse_sfa('{"algebra": "interval", "states": [], "initial": "q", "accepting": []}')


def test_rejects_unknown_transition_field():
    with pytest.raises(FormatError, match=r"transitions\[0\]"):
        parse_sfa('{"algebra": "interval", "states": ["q"], "initial": "q", '
                  '"accepting": [], "transitions": [{"from": "q", "pred": "true", '
                  '"to": "q", "weight": 3}]}')


def test_rejects_empty_interval():
    with pytest.raises(FormatError, match="need lo < hi"):
        parse_sfa('{"algebra": "interval", "states": ["q"], "initial": "q", '
                  '"accepting": [], "transitions": [{"from": "q", '
                  '"pred": {"atom": {"lo": 5, "hi": 5}}, "to": "q"}]}')


def test_rejects_boolean_interval_bound():
    with pytest.raises(FormatError, match="bound must be an integer"):
        parse_sfa('{"algebra": "interval", "states": ["q"], "initial": "q", '
                  '"accepting": [], "transitions": [{"from": "q", '
                  '"pred": {"atom": {"lo": true, "hi": 5}}, "to": "q"}]}')


def test_rejects_unknown_proposition():
    with pytest.raises(FormatError, match="p9"):
        parse_sfa('{"algebra": {"kind": "propositional", "props": ["p1"]}, '
                  '"states": ["q"], "initial": "q", "accepting": [], '
                  '"transitions": [{"from": "q", '
                  '"pred": {"atom": {"var": "p9"}}, "to": "q"}]}')


def test_rejects_single_child_connective():
    with pytest.raises(FormatError, match="at least 2 children"):
        parse_sfa('{"algebra": "interval", "states": ["q"], "initial": "q", '
                  '"accepting": [], "transitions": [{"from": "q", '
                  '"pred": {"and": ["true"]}, "to": "q"}]}')


def test_syntax_error_reports_line_and_column():
    with pytest.raises(FormatError, match=r"line \d+ column \d+"):
        parse_sfa('{"algebra": "interval",\n  "states": [,]}')


def test_parse_leaves_semantic_checks_to_validate():
    a = parse_sfa('{"algebra": "interval", "states": ["q"], "initial": "q", '
                  '"accepting": ["zz"], "transitions": []}')
    assert any("zz" in msg for msg in validate(a))


def reference_pred(p, binding):
    """A predicate as the JSON value the file holds."""
    if p == TRUE:
        return "true"
    if p == FALSE:
        return "false"
    if isinstance(p, (And, Or)):
        return {"and" if isinstance(p, And) else "or": [reference_pred(c, binding) for c in p.children]}
    if isinstance(p, Not):
        return {"not": reference_pred(p.child, binding)}
    atom = p.payload
    if isinstance(atom, IntervalAtom):
        lo = "-inf" if atom.lo == NEG_INF else atom.lo
        hi = "inf" if atom.hi == POS_INF else atom.hi
        return {"atom": {"lo": lo, "hi": hi}}
    return {"atom": {"var": binding.prop_name(atom.var), "neg": atom.negated}}


def reference_emit(a):
    """The file layout emit_sfa promises: the document through
    json.dumps(indent=2, ensure_ascii=False), plus a newline."""
    b = a.binding
    doc = {
        "algebra": "interval" if b.is_monotonic else {"kind": "propositional", "props": list(b.props)},
        "states": list(a.states),
        "initial": a.initial,
        "accepting": sorted(a.accepting),
        "transitions": [
            {"from": t.src, "pred": reference_pred(t.pred, b), "to": t.dst} for t in a.transitions
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_emit_matches_json_dumps_layout_on_random_automata():
    rng = random.Random(307)
    samples = []
    for _ in range(30):
        samples.append(rand_sfa(rng, interval_binding(), pred_size=6))
        samples.append(rand_det_interval_sfa(rng))
        samples.append(rand_comma_named_sfa(rng))
        samples.append(rand_sfa(rng, propositional_binding(["p1", "p2", "p3"]), pred_size=6))
        samples.append(rand_det_prop_sfa(rng))
        samples.append(rand_neat_prop_sfa(rng))
    for a in samples:
        assert emit_sfa(a) == reference_emit(a)


ODD_NAMES = ('say "hi"', "back\\slash", "two\nlines", "bell\x07", "tab\t", "é", "日本", "😀", "")


def test_emit_quotes_odd_names_like_json():
    states = ODD_NAMES
    props = [n or "p" for n in ODD_NAMES]
    binding = propositional_binding(props)
    edges = tuple(
        Transition(q, Atom(LiteralAtom(i % len(props), i % 2 == 1)), states[-1 - i])
        for i, q in enumerate(states)
    )
    for a in (
        Sfa(binding, states, states[1], set(states[::2]), edges),
        Sfa(interval_binding(), states, "😀", {"two\nlines"}, (Transition("é", ia(NEG_INF, 0), ""),)),
    ):
        text = emit_sfa(a)
        assert text == reference_emit(a)
        assert "😀" in text and "日本" in text and "bell\\u0007" in text
        assert parse_sfa(text) == a


def test_emit_writes_empty_lists_as_brackets():
    a = Sfa(interval_binding(), (), "q", set(), ())
    text = emit_sfa(a)
    assert text == reference_emit(a)
    for key in ("states", "accepting", "transitions"):
        assert f'"{key}": []' in text
    assert parse_sfa(text) == a


def test_emit_connectives_with_many_children():
    binding = propositional_binding([f"p{i}" for i in range(12)])
    wide_and = And(tuple(Atom(LiteralAtom(i, i % 3 == 0)) for i in range(12)))
    wide_or = Or(tuple(ia(10 * i, 10 * i + 5) for i in range(40)) + (TRUE, FALSE))
    for a in (
        Sfa(binding, ("q",), "q", {"q"}, (Transition("q", Or((wide_and, Not(wide_and))), "q"),)),
        Sfa(interval_binding(), ("q",), "q", set(), (Transition("q", And((wide_or, Not(wide_or))), "q"),)),
    ):
        text = emit_sfa(a)
        assert text == reference_emit(a)
        assert parse_sfa(text) == a


def test_predicate_at_depth_cap_emits_and_parses_back_at_default_recursion_limit():
    pred = ia(0, 5)
    for i in range(1, MAX_PRED_DEPTH):  # a lone atom is the first level
        pred = Not(pred) if i % 3 == 0 else (And if i % 2 else Or)((pred, ia(i, i + 5)))
    a = Sfa(interval_binding(), ("q",), "q", set(), (Transition("q", pred, "q"),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = emit_sfa(a)
        assert parse_sfa(text) == a
    finally:
        sys.setrecursionlimit(limit)
    assert text == reference_emit(a)
    deeper = Sfa(interval_binding(), ("q",), "q", set(), (Transition("q", Not(pred), "q"),))
    with pytest.raises(FormatError, match=f"at most {MAX_PRED_DEPTH} levels"):
        parse_sfa(emit_sfa(deeper))
