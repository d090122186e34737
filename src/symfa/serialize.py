"""The SFA file format: strict JSON with exact round-tripping.

Top level: {"algebra", "states", "initial", "accepting", "transitions"}.
The algebra is "interval" or {"kind": "propositional", "props": [...]}.
Predicates: "true", "false", {"and": [...]}, {"or": [...]}, {"not": ...},
{"atom": {"lo": int|"-inf", "hi": int|"inf"}} for intervals,
{"atom": {"var": "<name>", "neg": bool}} for propositions.  Unknown fields
are rejected; errors carry the JSON path (and line/column for syntax).

parse_sfa reads json.loads' output in one walk.  It compares each object's
keys with the set it allows in one step and builds no path on the way
down: a malformed node raises, and each level the error passes on its way
out adds its step, so the path is assembled only for the message.  Within
one document each distinct atom is built once, keyed by its checked
fields, and each distinct connective once, keyed by its kind and its
children's identities, so equal predicates of one file are one object.

emit_sfa writes exactly json.dumps(doc, indent=2, ensure_ascii=False) plus
a newline, with keys in the order algebra, states, initial, accepting
(sorted), transitions and, per transition, from, pred, to; it writes that
text itself, one walk per distinct predicate object.
"""

import functools
import json

from .algebra import AlgebraBinding, interval_binding, propositional_binding
from .errors import FormatError, UnsupportedAlgebra
from .predicates import (
    And,
    Atom,
    FALSE,
    IntervalAtom,
    LiteralAtom,
    NEG_INF,
    Not,
    Or,
    POS_INF,
    Predicate,
    TRUE,
)
from .sfa import MAX_PRED_DEPTH, Sfa, Transition

# The fields each object holds, in the order a missing one is reported.
_TOP = dict.fromkeys(("algebra", "states", "initial", "accepting", "transitions")).keys()
_EDGE = dict.fromkeys(("from", "pred", "to")).keys()
_BOUNDS = dict.fromkeys(("lo", "hi")).keys()
_LITERAL = dict.fromkeys(("var", "neg")).keys()  # "neg" may be left out


def parse_sfa(text: str) -> Sfa:
    """Parse a file's text; a document nested past the interpreter's
    recursion limit is a FormatError like any other malformed input."""
    try:
        return _parse_document(text)
    except RecursionError:
        raise FormatError("predicate nested too deeply") from None


def _parse_document(text: str) -> Sfa:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    if doc.keys() != _TOP:
        raise FormatError(f"top level: {_key_error(doc, _TOP)}")
    binding = _parse_algebra(doc["algebra"])
    states = _parse_strings(doc["states"], "states")
    initial = doc["initial"]
    if not isinstance(initial, str):
        raise FormatError("initial: must be a string")
    accepting = _parse_strings(doc["accepting"], "accepting")
    raw = doc["transitions"]
    if not isinstance(raw, list):
        raise FormatError("transitions: must be a list")
    atom, nodes = _atom_reader(binding), {}
    transitions = []
    try:
        for i, item in enumerate(raw):
            if type(item) is not dict:
                raise FormatError(f"transitions[{i}]: must be an object")
            if item.keys() != _EDGE:
                raise FormatError(f"transitions[{i}]: {_key_error(item, _EDGE)}")
            src, dst = item["from"], item["to"]
            if type(src) is not str or type(dst) is not str:
                raise FormatError(f"transitions[{i}]: 'from' and 'to' must be strings")
            transitions.append(Transition(src, _parse_pred(item["pred"], 1, atom, nodes), dst))
    except _Bad as e:
        path = f"transitions[{i}].pred" + "".join(reversed(e.steps))
        raise FormatError(f"{_short_path(path) if e.short else path}: {e.msg}") from None
    return Sfa(binding, tuple(states), initial, frozenset(accepting), tuple(transitions))


def _key_error(obj, allowed) -> str:
    """Why obj's keys are not allowed: its first unknown field, else the
    first missing one."""
    for key in obj:
        if key not in allowed:
            return f"unknown field {key!r}"
    return f"missing field {next(key for key in allowed if key not in obj)!r}"


def _parse_strings(obj, path):
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise FormatError(f"{path}: must be a list of strings")
    return obj


def _parse_algebra(obj) -> AlgebraBinding:
    if obj == "interval":
        return interval_binding()
    if isinstance(obj, dict):
        fields = ("kind", "props") if obj.get("kind") == "propositional" else ("kind",)
        if obj.keys() != set(fields):
            raise FormatError(f"algebra: {_key_error(obj, fields)}")
        if obj.get("kind") == "interval":
            return interval_binding()
        if obj.get("kind") == "propositional":
            props = obj.get("props")
            if not isinstance(props, list):
                raise FormatError("algebra.props: must be a list of nonempty strings")
            try:
                return propositional_binding(props)
            except UnsupportedAlgebra as e:
                raise FormatError(f"algebra: {e}") from None
    raise FormatError(f"algebra: expected \"interval\" or a propositional object, got {obj!r}")


class _Bad(Exception):
    """A malformed predicate node: the message, and the path steps from the
    node that raised out to the last level it passed, innermost first.  The
    depth cap's path is shortened (short)."""

    def __init__(self, msg, step=None, short=False):
        self.msg, self.steps, self.short = msg, [] if step is None else [step], short


def _atom_reader(binding: AlgebraBinding):
    """The atom parser of one document: the Atom of an "atom" field's body,
    each distinct one built once, keyed by its checked fields."""
    atoms = {}

    def interval(body):
        if type(body) is not dict:
            raise _Bad("must be an object", ".atom")
        if body.keys() != _BOUNDS:
            raise _Bad(_key_error(body, _BOUNDS), ".atom")
        lo, hi = body["lo"], body["hi"]
        if type(lo) is not int:
            lo = NEG_INF if lo == "-inf" else _bad_bound(lo, "-inf")
        if type(hi) is not int:
            hi = POS_INF if hi == "inf" else _bad_bound(hi, "inf")
        found = atoms.get((lo, hi))
        if found is None:
            try:
                found = atoms[lo, hi] = Atom(IntervalAtom(lo, hi))
            except ValueError as e:
                raise _Bad(str(e), ".atom") from None
        return found

    def literal(body):
        if type(body) is not dict:
            raise _Bad("must be an object", ".atom")
        if not body.keys() <= _LITERAL:
            for key in body:
                if key not in _LITERAL:
                    raise _Bad(f"unknown field {key!r}", ".atom")
        var, neg = body.get("var"), body.get("neg", False)
        if type(var) is not str:
            raise _Bad("missing or non-string 'var'", ".atom")
        if type(neg) is not bool:
            raise _Bad("'neg' must be a boolean", ".atom")
        found = atoms.get((var, neg))
        if found is None:
            try:
                found = atoms[var, neg] = Atom(LiteralAtom(binding.var_index(var), neg))
            except Exception as e:
                raise _Bad(str(e), ".atom") from None
        return found

    return interval if binding.is_monotonic else literal


def _parse_pred(obj, depth, atom, nodes) -> Predicate:
    """obj's predicate, obj being depth levels down (a transition's pred is
    level 1); atom is the document's atom reader, and nodes its table of
    connectives, keyed by kind and children's ids.  The table holds every
    connective built, and with it the children whose ids key it, so those
    ids stay valid.  A module function, not a closure: a closure that calls
    itself is a reference cycle, left for the collector after each parse."""
    if depth > MAX_PRED_DEPTH:
        raise _Bad(f"predicate nested too deeply (at most {MAX_PRED_DEPTH} levels)", short=True)
    if type(obj) is not dict or len(obj) != 1:
        if obj == "true":
            return TRUE
        if obj == "false":
            return FALSE
        raise _Bad(f"expected a single-key predicate object, got {obj!r}")
    ((key, body),) = obj.items()
    if key == "atom":
        return atom(body)
    if key == "not":
        try:
            child = _parse_pred(body, depth + 1, atom, nodes)
        except _Bad as e:
            e.steps.append(".not")
            raise
        ids = (Not, id(child))
        found = nodes.get(ids)
        if found is None:
            found = nodes[ids] = Not(child)
        return found
    if key == "and" or key == "or":
        if type(body) is not list or len(body) < 2:
            raise _Bad("needs a list of at least 2 children", f".{key}")
        kids = []
        try:
            for c in body:
                kids.append(_parse_pred(c, depth + 1, atom, nodes))
        except _Bad as e:
            e.steps.append(f".{key}[{len(kids)}]")
            raise
        kind = And if key == "and" else Or
        ids = (kind, *map(id, kids))
        found = nodes.get(ids)
        if found is None:
            found = nodes[ids] = kind(tuple(kids))
        return found
    raise _Bad(f"unknown predicate key {key!r}")


def _bad_bound(v, word):
    raise _Bad(f"bound must be an integer or \"{word}\", got {v!r}", ".atom")


def _short_path(path: str) -> str:
    """The path's first and last three steps, with the count of those between."""
    steps = path.split(".")
    if len(steps) <= 7:
        return path
    return f"{'.'.join(steps[:3])} ... ({len(steps) - 6} more) ... .{'.'.join(steps[-3:])}"


def emit_sfa(a: Sfa) -> str:
    """The file's text in the layout above; each name is quoted once per
    call, and each predicate object, keyed by identity, walked once: the
    pieces its first walk wrote are reused for every later transition it
    labels."""
    quote = functools.cache(functools.partial(json.dumps, ensure_ascii=False))
    if a.binding.is_monotonic:
        props, algebra = [], '"interval"'
    else:
        props = [quote(p) for p in a.binding.props]
        algebra = f'{{\n    "kind": "propositional",\n    "props": {_list(props, 4)}\n  }}'
    out = [
        f'{{\n  "algebra": {algebra},\n  "states": {_list([quote(q) for q in a.states], 2)},'
        f'\n  "initial": {quote(a.initial)},'
        f'\n  "accepting": {_list([quote(q) for q in sorted(a.accepting)], 2)},\n  "transitions": ['
    ]
    pieces = {}
    for i, t in enumerate(a.transitions):
        out.append(f'{"," if i else ""}\n    {{\n      "from": {quote(t.src)},\n      "pred": ')
        written = pieces.get(id(t.pred))
        if written is None:
            start = len(out)
            _emit_pred(t.pred, props, out, "\n      ")
            pieces[id(t.pred)] = out[start:]
        else:
            out += written
        out.append(f',\n      "to": {quote(t.dst)}\n    }}')
    out.append("\n  ]\n}\n" if a.transitions else "]\n}\n")
    return "".join(out)


def _list(items, indent):
    """A list of literals whose opening bracket ends a line indented by indent."""
    nl = "\n" + " " * indent
    return "[" + nl + "  " + ("," + nl + "  ").join(items) + nl + "]" if items else "[]"


def _emit_pred(p: Predicate, props, out, nl):
    """Append p's text; nl is a newline plus the indent of p's first line."""
    if isinstance(p, Atom):
        atom, inner = p.payload, nl + "    "
        if isinstance(atom, IntervalAtom):
            lo = '"-inf"' if atom.lo == NEG_INF else int.__repr__(atom.lo)
            hi = '"inf"' if atom.hi == POS_INF else int.__repr__(atom.hi)
            body = f'"lo": {lo},{inner}"hi": {hi}'
        else:
            body = f'"var": {props[atom.var]},{inner}"neg": {"true" if atom.negated else "false"}'
        out.append(f'{{{nl}  "atom": {{{inner}{body}{nl}  }}{nl}}}')
    elif isinstance(p, Not):
        out.append(f'{{{nl}  "not": ')
        _emit_pred(p.child, props, out, nl + "  ")
        out.append(nl + "}")
    elif isinstance(p, (And, Or)):
        inner = nl + "    "
        out.append(f'{{{nl}  "{"and" if isinstance(p, And) else "or"}": [')
        for i, c in enumerate(p.children):
            out.append("," + inner if i else inner)
            _emit_pred(c, props, out, inner)
        out.append(f"{nl}  ]{nl}}}")
    else:
        out.append({TRUE: '"true"', FALSE: '"false"'}[p])
