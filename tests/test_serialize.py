import copy
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
    export_dot,
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


PROP = {"kind": "propositional", "props": ["p1", "p2"]}
DROP = object()


def doc(pred="true", **fields):
    """A one-state document with one transition labelled pred; a field given
    as DROP is left out, any other given field replaces the default."""
    d = {"algebra": "interval", "states": ["q"], "initial": "q", "accepting": [],
         "transitions": [{"from": "q", "pred": pred, "to": "q"}]}
    d.update(fields)
    return json.dumps({k: v for k, v in d.items() if v is not DROP})


def edge(**fields):
    e = {"from": "q", "pred": "true", "to": "q"}
    e.update(fields)
    return {k: v for k, v in e.items() if v is not DROP}


def nots(depth):
    pred = {"atom": {"lo": 0, "hi": 1}}
    for _ in range(depth - 1):
        pred = {"not": pred}
    return pred


# Every parse error, one malformed document each, with the message pinned
# whole: the path, and line/column for syntax errors, are part of the contract.
IV = {"atom": {"lo": 0, "hi": 5}}
PARSE_ERRORS = [
    ("top level not an object", "[]",
     'top level must be an object'),
    ("top level unknown field", doc(color="red"),
     "top level: unknown field 'color'"),
    ("top level missing field", doc(transitions=DROP),
     "top level: missing field 'transitions'"),
    ("algebra unknown name", doc(algebra="regex"),
     'algebra: expected "interval" or a propositional object, got \'regex\''),
    ("algebra unknown kind", doc(algebra={"kind": "bool"}),
     'algebra: expected "interval" or a propositional object, got {\'kind\': \'bool\'}'),
    ("algebra list", doc(algebra=["interval"]),
     'algebra: expected "interval" or a propositional object, got [\'interval\']'),
    ("algebra interval with props", doc(algebra={"kind": "interval", "props": ["p1"]}),
     "algebra: unknown field 'props'"),
    ("algebra missing props", doc(algebra={"kind": "propositional"}),
     "algebra: missing field 'props'"),
    ("algebra unknown field", doc(algebra={"kind": "propositional", "props": ["p1"], "k": 1}),
     "algebra: unknown field 'k'"),
    ("algebra props not a list", doc(algebra={"kind": "propositional", "props": "p1"}),
     'algebra.props: must be a list of nonempty strings'),
    ("algebra no props", doc(algebra={"kind": "propositional", "props": []}),
     'algebra: propositional algebra needs at least one proposition'),
    ("algebra duplicate props", doc(algebra={"kind": "propositional", "props": ["p1", "p1"]}),
     'algebra: duplicate proposition names'),
    ("algebra empty prop name", doc(algebra={"kind": "propositional", "props": [""]}),
     "algebra: proposition names are nonempty strings, got ''"),
    ("states not a list", doc(states="q"),
     'states: must be a list of strings'),
    ("states not strings", doc(states=["q", 1]),
     'states: must be a list of strings'),
    ("initial not a string", doc(initial=0),
     'initial: must be a string'),
    ("accepting not strings", doc(accepting=[None]),
     'accepting: must be a list of strings'),
    ("transitions not a list", doc(transitions={"from": "q"}),
     'transitions: must be a list'),
    ("transition not an object", doc(transitions=[edge(), "q->q"]),
     'transitions[1]: must be an object'),
    ("transition unknown field", doc(transitions=[edge(weight=3)]),
     "transitions[0]: unknown field 'weight'"),
    ("transition missing field", doc(transitions=[edge(), edge(to=DROP)]),
     "transitions[1]: missing field 'to'"),
    ("from not a string", doc(transitions=[edge(**{"from": 0})]),
     "transitions[0]: 'from' and 'to' must be strings"),
    ("to not a string", doc(transitions=[edge(), edge(to=["q"])]),
     "transitions[1]: 'from' and 'to' must be strings"),
    ("pred a number", doc(3),
     'transitions[0].pred: expected a single-key predicate object, got 3'),
    ("pred an unknown word", doc("maybe"),
     "transitions[0].pred: expected a single-key predicate object, got 'maybe'"),
    ("pred null", doc(None),
     'transitions[0].pred: expected a single-key predicate object, got None'),
    ("pred empty object", doc({}),
     'transitions[0].pred: expected a single-key predicate object, got {}'),
    ("pred two keys", doc({"not": "true", "atom": {"lo": 0, "hi": 1}}),
     "transitions[0].pred: expected a single-key predicate object, got {'not': 'true', 'atom': {'lo': 0, 'hi': 1}}"),
    ("and with one child", doc({"and": ["true"]}),
     'transitions[0].pred.and: needs a list of at least 2 children'),
    ("or with no list", doc({"or": "true"}),
     'transitions[0].pred.or: needs a list of at least 2 children'),
    ("or with no children", doc({"or": []}),
     'transitions[0].pred.or: needs a list of at least 2 children'),
    ("unknown predicate key", doc({"xor": ["true", "false"]}),
     "transitions[0].pred: unknown predicate key 'xor'"),
    ("nested unknown key", doc({"or": ["true", {"not": {"and": [IV, {"nand": 1}]}}]}),
     "transitions[0].pred.or[1].not.and[1]: unknown predicate key 'nand'"),
    ("atom not an object", doc({"or": ["true", {"not": {"and": [IV, {"atom": 5}]}}]}),
     'transitions[0].pred.or[1].not.and[1].atom: must be an object'),
    ("interval atom unknown field", doc({"atom": {"lo": 0, "hi": 5, "mid": 2}}),
     "transitions[0].pred.atom: unknown field 'mid'"),
    ("interval atom missing field", doc({"atom": {"lo": 0}}),
     "transitions[0].pred.atom: missing field 'hi'"),
    ("bool lo", doc({"atom": {"lo": True, "hi": 5}}),
     'transitions[0].pred.atom: bound must be an integer or "-inf", got True'),
    ("bool hi", doc({"atom": {"lo": 0, "hi": False}}),
     'transitions[0].pred.atom: bound must be an integer or "inf", got False'),
    ("float lo", doc({"atom": {"lo": 1.0, "hi": 5}}),
     'transitions[0].pred.atom: bound must be an integer or "-inf", got 1.0'),
    ("float hi", doc({"and": [IV, {"atom": {"lo": 0, "hi": 5.5}}]}),
     'transitions[0].pred.and[1].atom: bound must be an integer or "inf", got 5.5'),
    ("inf as lo", doc({"atom": {"lo": "inf", "hi": 5}}),
     'transitions[0].pred.atom: bound must be an integer or "-inf", got \'inf\''),
    ("-inf as hi", doc({"atom": {"lo": 0, "hi": "-inf"}}),
     'transitions[0].pred.atom: bound must be an integer or "inf", got \'-inf\''),
    ("null bound", doc({"atom": {"lo": None, "hi": 5}}),
     'transitions[0].pred.atom: bound must be an integer or "-inf", got None'),
    ("empty interval", doc({"atom": {"lo": 5, "hi": 5}}),
     'transitions[0].pred.atom: empty interval [5,5): need lo < hi'),
    ("reversed interval", doc({"not": {"atom": {"lo": 7, "hi": "-inf"}}}),
     'transitions[0].pred.not.atom: bound must be an integer or "inf", got \'-inf\''),
    ("full line reversed", doc({"atom": {"lo": "inf", "hi": "-inf"}}),
     'transitions[0].pred.atom: bound must be an integer or "-inf", got \'inf\''),
    ("literal in interval file", doc({"atom": {"var": "p1"}}),
     "transitions[0].pred.atom: unknown field 'var'"),
    ("interval atom in propositional file", doc({"atom": {"lo": 0, "hi": 5}}, algebra=PROP),
     "transitions[0].pred.atom: unknown field 'lo'"),
    ("literal extra field", doc({"atom": {"var": "p1", "neg": True, "sign": "-"}}, algebra=PROP),
     "transitions[0].pred.atom: unknown field 'sign'"),
    ("literal missing var", doc({"atom": {"neg": True}}, algebra=PROP),
     "transitions[0].pred.atom: missing or non-string 'var'"),
    ("literal non-string var", doc({"atom": {"var": 1}}, algebra=PROP),
     "transitions[0].pred.atom: missing or non-string 'var'"),
    ("literal non-bool neg", doc({"atom": {"var": "p1", "neg": 1}}, algebra=PROP),
     "transitions[0].pred.atom: 'neg' must be a boolean"),
    ("literal null neg", doc({"not": {"atom": {"var": "p2", "neg": None}}}, algebra=PROP),
     "transitions[0].pred.not.atom: 'neg' must be a boolean"),
    ("unknown proposition", doc({"and": [{"atom": {"var": "p1"}}, {"atom": {"var": "p9"}}]}, algebra=PROP),
     "transitions[0].pred.and[1].atom: unknown proposition 'p9'"),
    ("literal not an object", doc({"atom": "p1"}, algebra=PROP),
     'transitions[0].pred.atom: must be an object'),
    ("depth cap", doc(nots(201)),
     'transitions[0].pred.not ... (196 more) ... .not.not.not: predicate nested too deeply (at most 200 levels)'),
    ("depth cap under a connective", doc({"and": [IV, nots(200)]}),
     'transitions[0].pred.and[1] ... (196 more) ... .not.not.not: predicate nested too deeply (at most 200 levels)'),
    ("depth cap in a short path", doc({"or": [IV, {"and": [IV, "true"]}]}).replace('"true"', json.dumps(nots(199))),
     'transitions[0].pred.or[1] ... (196 more) ... .not.not.not: predicate nested too deeply (at most 200 levels)'),
    ("top level unknown and missing fields", doc(color="red", initial=DROP),
     "top level: unknown field 'color'"),
    ("interval atom unknown and missing fields", doc({"atom": {"mid": 2, "lo": 0}}),
     "transitions[0].pred.atom: unknown field 'mid'"),
    ("algebra too many props", doc(algebra={"kind": "propositional", "props": [f"p{i}" for i in range(17)]}),
     'algebra: at most 16 propositions, got 17'),
    ("bool lo after the equal int", doc(transitions=[edge(pred={"atom": {"lo": 1, "hi": 5}}), edge(pred={"atom": {"lo": True, "hi": 5}})]),
     'transitions[1].pred.atom: bound must be an integer or "-inf", got True'),
    ("float lo after the equal int", doc(transitions=[edge(pred={"atom": {"lo": 1, "hi": 5}}), edge(pred={"not": {"atom": {"lo": 1.0, "hi": 5}}})]),
     'transitions[1].pred.not.atom: bound must be an integer or "-inf", got 1.0'),
    ("int neg after the equal bool", doc(transitions=[edge(pred={"atom": {"var": "p1", "neg": False}}), edge(pred={"atom": {"var": "p1", "neg": 0}})], algebra=PROP),
     "transitions[1].pred.atom: 'neg' must be a boolean"),
    ("syntax error", '{"algebra": "interval",\n  "states": [,]}',
     'line 2 column 14: Expecting value'),
    ("syntax error at end", '{"algebra": "interval"',
     "line 1 column 23: Expecting ',' delimiter"),
    ("empty text", "",
     'line 1 column 1: Expecting value'),
    ("nested past the recursion limit", "[" * 100000 + "]" * 100000,
     'predicate nested too deeply'),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in PARSE_ERRORS], ids=[c[0] for c in PARSE_ERRORS])
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(FormatError) as e:
        parse_sfa(text)
    assert str(e.value) == message


@pytest.mark.parametrize("text, message", [
    ("{}", "top level: missing field 'algebra'"),
    (doc(transitions=[{"pred": "true"}]), "transitions[0]: missing field 'from'"),
    (doc({"atom": {}}), "transitions[0].pred.atom: missing field 'lo'"),
])
def test_first_missing_field_is_named_in_the_documented_order(text, message):
    """With several fields missing, the message names the first in the
    order the format lists them, whatever the hash seed."""
    with pytest.raises(FormatError) as e:
        parse_sfa(text)
    assert str(e.value) == message


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


def tree_nodes(p):
    """Every node of p, a node reached twice listed twice."""
    if isinstance(p, (And, Or)):
        return [p] + [n for c in p.children for n in tree_nodes(c)]
    if isinstance(p, Not):
        return [p] + tree_nodes(p.child)
    return [p]


def fresh(p):
    """p rebuilt with a new object for every node."""
    if isinstance(p, (And, Or)):
        return type(p)(tuple(fresh(c) for c in p.children))
    if isinstance(p, Not):
        return Not(fresh(p.child))
    if isinstance(p, Atom):
        return Atom(copy.copy(p.payload))
    return p


def unshared(a):
    return Sfa(a.binding, a.states, a.initial, a.accepting,
               tuple(Transition(t.src, fresh(t.pred), t.dst) for t in a.transitions))


def shared_samples():
    rng = random.Random(509)
    samples = []
    for _ in range(25):
        samples.append(rand_sfa(rng, interval_binding(), n_max=5, m_max=4, pred_size=6))
        samples.append(rand_det_interval_sfa(rng))
        samples.append(rand_sfa(rng, propositional_binding(["p1", "p2", "p3"]), n_max=5, m_max=4, pred_size=6))
        samples.append(rand_det_prop_sfa(rng))
        samples.append(rand_neat_prop_sfa(rng))
    return samples


def test_parse_builds_each_distinct_atom_and_connective_once():
    p, q = ia(0, 5), ia(7, POS_INF)
    either = Or((p, Not(p)))
    preds = (p, either, And((either, q)), Not(p), Or((p, Not(p))), And((q, either)), TRUE)
    a = Sfa(interval_binding(), ("q0",), "q0", set(), tuple(Transition("q0", x, "q0") for x in preds))
    b = parse_sfa(emit_sfa(a))
    assert b == a
    every = [n for t in b.transitions for n in tree_nodes(t.pred)]
    ids = {}
    for n in every:
        ids.setdefault(n, set()).add(id(n))
    assert all(len(objects) == 1 for objects in ids.values())
    assert len(ids) == 7 < len(every)  # [0,5) [7,inf) not either and(either,q) and(q,either) true
    assert b.transitions[1].pred is b.transitions[4].pred is b.transitions[2].pred.children[0]


def test_parse_shares_equal_predicates_of_seeded_automata():
    shared = 0
    for a in shared_samples():
        b = parse_sfa(emit_sfa(a))
        every = [n for t in b.transitions for n in tree_nodes(t.pred)]
        distinct = set(every)
        assert len({id(n) for n in every}) == len(distinct)
        shared += len(every) - len(distinct)
    assert shared > 100


def test_emit_and_dot_write_shared_and_separate_predicates_alike():
    """Equal predicates as one object (a parsed file) or as separate
    objects give byte-identical file and DOT text."""
    for a in shared_samples():
        separate = unshared(a)
        b = parse_sfa(emit_sfa(separate))
        assert b == separate
        assert emit_sfa(b) == emit_sfa(separate) == reference_emit(a)
        assert export_dot(b) == export_dot(separate)
