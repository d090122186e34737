"""The SFA file format: strict JSON with exact round-tripping.

Top level: {"algebra", "states", "initial", "accepting", "transitions"}.
The algebra is "interval" or {"kind": "propositional", "props": [...]}.
Predicates: "true", "false", {"and": [...]}, {"or": [...]}, {"not": ...},
{"atom": {"lo": int|"-inf", "hi": int|"inf"}} for intervals,
{"atom": {"var": "<name>", "neg": bool}} for propositions.  Unknown fields
are rejected; errors carry the JSON path (and line/column for syntax).

emit_sfa writes exactly json.dumps(doc, indent=2, ensure_ascii=False) plus
a newline, with keys in the order algebra, states, initial, accepting
(sorted), transitions and, per transition, from, pred, to; it writes that
text itself in one walk of each predicate.
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
from .sfa import Sfa, Transition

# Levels a predicate may nest (a lone atom is one level).  Every predicate
# walk recurses once per level, so deeper input is refused at the boundary.
MAX_PRED_DEPTH = 200


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
    _check_keys(doc, {"algebra", "states", "initial", "accepting", "transitions"}, "top level")
    binding = _parse_algebra(doc["algebra"])
    states = _parse_strings(doc["states"], "states")
    initial = doc["initial"]
    if not isinstance(initial, str):
        raise FormatError("initial: must be a string")
    accepting = _parse_strings(doc["accepting"], "accepting")
    raw = doc["transitions"]
    if not isinstance(raw, list):
        raise FormatError("transitions: must be a list")
    transitions = []
    for i, item in enumerate(raw):
        path = f"transitions[{i}]"
        if not isinstance(item, dict):
            raise FormatError(f"{path}: must be an object")
        _check_keys(item, {"from", "pred", "to"}, path)
        src, dst = item["from"], item["to"]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise FormatError(f"{path}: 'from' and 'to' must be strings")
        transitions.append(Transition(src, parse_pred(item["pred"], binding, f"{path}.pred"), dst))
    return Sfa(binding, tuple(states), initial, frozenset(accepting), tuple(transitions))


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise FormatError(f"{path}: unknown field {key!r}")
    for key in allowed:
        if key not in obj:
            raise FormatError(f"{path}: missing field {key!r}")


def _parse_strings(obj, path):
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise FormatError(f"{path}: must be a list of strings")
    return obj


def _parse_algebra(obj) -> AlgebraBinding:
    if obj == "interval":
        return interval_binding()
    if isinstance(obj, dict):
        _check_keys(obj, {"kind", "props"} if obj.get("kind") == "propositional" else {"kind"}, "algebra")
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


def parse_pred(obj, binding: AlgebraBinding, path: str, depth: int = 1) -> Predicate:
    if depth > MAX_PRED_DEPTH:
        where = _short_path(path)
        raise FormatError(f"{where}: predicate nested too deeply (at most {MAX_PRED_DEPTH} levels)")
    if obj == "true":
        return TRUE
    if obj == "false":
        return FALSE
    if not isinstance(obj, dict) or len(obj) != 1:
        raise FormatError(f"{path}: expected a single-key predicate object, got {obj!r}")
    key, body = next(iter(obj.items()))
    if key in ("and", "or"):
        if not isinstance(body, list) or len(body) < 2:
            raise FormatError(f"{path}.{key}: needs a list of at least 2 children")
        kids = [parse_pred(c, binding, f"{path}.{key}[{i}]", depth + 1) for i, c in enumerate(body)]
        # rebuild through the plain node so the shape on disk is preserved
        return And(tuple(kids)) if key == "and" else Or(tuple(kids))
    if key == "not":
        return Not(parse_pred(body, binding, f"{path}.not", depth + 1))
    if key == "atom":
        return Atom(_parse_atom(body, binding, f"{path}.atom"))
    raise FormatError(f"{path}: unknown predicate key {key!r}")


def _short_path(path: str) -> str:
    """The path's first and last three steps, with the count of those between."""
    steps = path.split(".")
    if len(steps) <= 7:
        return path
    return f"{'.'.join(steps[:3])} ... ({len(steps) - 6} more) ... .{'.'.join(steps[-3:])}"


def _parse_atom(body, binding: AlgebraBinding, path: str):
    if not isinstance(body, dict):
        raise FormatError(f"{path}: must be an object")
    if binding.is_monotonic:
        _check_keys(body, {"lo", "hi"}, path)
        lo = _parse_bound(body["lo"], "-inf", NEG_INF, path)
        hi = _parse_bound(body["hi"], "inf", POS_INF, path)
        try:
            return IntervalAtom(lo, hi)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from None
    for key in body:
        if key not in ("var", "neg"):
            raise FormatError(f"{path}: unknown field {key!r}")
    if "var" not in body or not isinstance(body["var"], str):
        raise FormatError(f"{path}: missing or non-string 'var'")
    neg = body.get("neg", False)
    if not isinstance(neg, bool):
        raise FormatError(f"{path}: 'neg' must be a boolean")
    try:
        return LiteralAtom(binding.var_index(body["var"]), neg)
    except Exception as e:
        raise FormatError(f"{path}: {e}") from None


def _parse_bound(v, word, sentinel, path):
    if v == word:
        return sentinel
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise FormatError(f"{path}: bound must be an integer or \"{word}\", got {v!r}")


def emit_sfa(a: Sfa) -> str:
    """The file's text in the layout above; each name is quoted once per call."""
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
    for i, t in enumerate(a.transitions):
        out.append(f'{"," if i else ""}\n    {{\n      "from": {quote(t.src)},\n      "pred": ')
        _emit_pred(t.pred, props, out, "\n      ")
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
