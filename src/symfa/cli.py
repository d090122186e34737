"""Command-line front end.

One subcommand per transform, construction, or decision procedure, all
reading the JSON file format.  Every run prints a report (sizes of inputs
and output, algebra-work counters, wall time); --json switches it to one
machine-readable object.  Decision subcommands also signal their answer
through the exit status, true -> 0 and false -> 1, so shell pipelines can
branch on it; any error exits 2.
"""

import argparse
import json
import sys
import time

from . import operations, oracle, transforms
from .algebra import OpCounters
from .dot import export_dot
from .errors import FormatError, SfaError
from .operations import ProductMode
from .serialize import emit_sfa, parse_sfa
from .sfa import membership, size_triple, validate

TRANSFORMS = {
    "neat": (transforms.to_neat, "expand predicates into basic transitions"),
    "normalize": (transforms.to_normalized, "merge parallel edges into disjunctions"),
    "feasible": (transforms.to_feasible, "drop unsatisfiable transitions"),
    "complete": (transforms.complete, "add a sink for uncovered letters"),
    "determinize": (operations.determinize, "subset construction with minterms"),
    "minimize": (operations.minimize, "merge indistinguishable states"),
    "complement": (operations.complement, "accept exactly the rejected words"),
    "canon-neat": (
        transforms.canonical_minimal_neat,
        "canonical minimal neat form (interval algebra)",
    ),
    "canon-norm": (
        transforms.canonical_minimal_normalized,
        "canonical minimal normalized form (interval algebra)",
    ),
}

PRODUCTS = {
    "intersect": (ProductMode.INTERSECT, "product accepting the intersection"),
    "union": (ProductMode.UNION, "product accepting the union"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfa",
        description="symbolic finite automata over interval and propositional algebras",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")

    def one(name, help_text, parents=(common,)):
        sp = sub.add_parser(name, help=help_text, parents=list(parents))
        sp.add_argument("sfa", help="input SFA file")
        return sp

    def two(name, help_text):
        sp = sub.add_parser(name, help=help_text, parents=[common])
        sp.add_argument("a", help="first SFA file")
        sp.add_argument("b", help="second SFA file")
        return sp

    one("validate", "check the file against the format invariants")
    one("metrics", "report the size triple n, m, l")
    for name, (_, help_text) in TRANSFORMS.items():
        sp = one(name, help_text)
        sp.add_argument("--out", required=True, help="where to write the resulting SFA")
    for name, (_, help_text) in PRODUCTS.items():
        sp = two(name, help_text)
        sp.add_argument("--out", required=True, help="where to write the resulting SFA")
    sp = one("member", "decide whether a word is accepted")
    sp.add_argument(
        "--word",
        required=True,
        help="comma-separated letters: integers, or 0/1 strings like 101; empty for the empty word",
    )
    sp = one("empty", "decide language emptiness")
    sp.add_argument(
        "--assume-feasible",
        action="store_true",
        help="skip satisfiability checks during the reachability search",
    )
    two("include", "decide language inclusion of the first file in the second")
    two("equiv", "decide language equality")
    sp = one("dot", "export Graphviz DOT")
    sp.add_argument("--out", help="write DOT here instead of standard output")
    two("debug-equal", "brute-force equality over an enumerated alphabet")
    two("debug-subset", "brute-force inclusion over an enumerated alphabet")
    return parser


def _read(path: str):
    """Parse a file without checking its invariants (for `validate`)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SfaError(f"{path}: {e.strerror or e}") from None
    try:
        return parse_sfa(text)
    except SfaError as e:
        raise SfaError(f"{path}: {e}") from None


def _load(path: str):
    """Parse a file and reject it unless it is well-formed, so no algorithm
    ever runs on an automaton that violates the format invariants."""
    a = _read(path)
    issues = validate(a)
    if issues:
        raise FormatError(f"{path}: " + "; ".join(issues))
    return a


def _parse_word(raw: str, binding):
    if raw.strip() == "":
        return []
    letters = []
    for tok in raw.split(","):
        tok = tok.strip()
        if binding.is_monotonic:
            try:
                letters.append(int(tok))
            except ValueError:
                raise SfaError(f"bad letter {tok!r}: expected an integer") from None
        else:
            if len(tok) != binding.k or any(c not in "01" for c in tok):
                raise SfaError(
                    f"bad letter {tok!r}: expected {binding.k} characters of 0/1"
                )
            letters.append(tuple(int(c) for c in tok))
    return letters


def _report(args, op, inputs, output, counters, ms, result):
    payload = {
        "op": op,
        "inputs": [size_triple(x).as_dict() for x in inputs],
        "output": size_triple(output).as_dict() if output is not None else None,
        "counters": counters.as_dict(),
        "ms": round(ms, 3),
        "result": result,
    }
    stream = sys.stderr if getattr(args, "_report_to_stderr", False) else sys.stdout
    if args.json:
        print(json.dumps(payload), file=stream)
        return
    print(f"op: {op}", file=stream)
    for i, triple in enumerate(payload["inputs"]):
        print(f"input[{i}]: n={triple['n']} m={triple['m']} l={triple['l']}", file=stream)
    if payload["output"] is not None:
        t = payload["output"]
        print(f"output: n={t['n']} m={t['m']} l={t['l']}", file=stream)
    if isinstance(result, list) and op == "validate":
        for issue in result:
            print(f"violation: {issue}", file=stream)
        if not result:
            print("result: ok", file=stream)
    else:
        print(f"result: {json.dumps(result)}", file=stream)
    c = payload["counters"]
    print(
        f"counters: sat_calls={c['sat_calls']} conj_built={c['conj_built']}"
        f" disj_built={c['disj_built']}",
        file=stream,
    )
    print(f"time: {payload['ms']} ms", file=stream)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise SfaError(f"{path}: {e.strerror or e}") from None


def _dispatch(args) -> int:
    cmd = args.cmd
    counters = OpCounters()
    if cmd == "validate":
        a = _read(args.sfa)
        t0 = time.perf_counter()
        issues = validate(a)
        _report(args, cmd, [a], None, counters, _ms(t0), issues)
        return 0 if not issues else 1
    if cmd == "metrics":
        a = _load(args.sfa)
        t0 = time.perf_counter()
        triple = size_triple(a)
        _report(args, cmd, [a], None, counters, _ms(t0), triple.as_dict())
        return 0
    if cmd in TRANSFORMS:
        fn = TRANSFORMS[cmd][0]
        a = _load(args.sfa)
        t0 = time.perf_counter()
        out = fn(a, counters)
        ms = _ms(t0)
        _write(args.out, emit_sfa(out))
        _report(args, cmd, [a], out, counters, ms, args.out)
        return 0
    if cmd in PRODUCTS:
        mode = PRODUCTS[cmd][0]
        a, b = _load(args.a), _load(args.b)
        t0 = time.perf_counter()
        out = operations.product(a, b, mode, counters)
        ms = _ms(t0)
        _write(args.out, emit_sfa(out))
        _report(args, cmd, [a, b], out, counters, ms, args.out)
        return 0
    if cmd == "member":
        a = _load(args.sfa)
        word = _parse_word(args.word, a.binding)
        t0 = time.perf_counter()
        res = membership(a, word, counters)
        _report(args, cmd, [a], None, counters, _ms(t0), res)
        return 0 if res else 1
    if cmd == "empty":
        a = _load(args.sfa)
        t0 = time.perf_counter()
        res = operations.is_empty(a, assume_feasible=args.assume_feasible, counters=counters)
        _report(args, cmd, [a], None, counters, _ms(t0), res)
        return 0 if res else 1
    if cmd in ("include", "equiv"):
        a, b = _load(args.a), _load(args.b)
        t0 = time.perf_counter()
        if cmd == "include":
            res = operations.includes(a, b, counters)
        else:
            res = operations.equivalent(a, b, counters)
        _report(args, cmd, [a, b], None, counters, _ms(t0), res)
        return 0 if res else 1
    if cmd == "dot":
        a = _load(args.sfa)
        t0 = time.perf_counter()
        text = export_dot(a)
        ms = _ms(t0)
        if args.out:
            _write(args.out, text)
            _report(args, cmd, [a], None, counters, ms, args.out)
        else:
            # keep standard output byte-clean for the DOT text
            args._report_to_stderr = True
            sys.stdout.write(text)
            _report(args, cmd, [a], None, counters, ms, "-")
        return 0
    if cmd in ("debug-equal", "debug-subset"):
        a, b = _load(args.a), _load(args.b)
        t0 = time.perf_counter()
        mode = "equal" if cmd == "debug-equal" else "subset"
        witness = oracle.separating_word(a, b, mode=mode)
        res = True if witness is None else [list(x) if isinstance(x, tuple) else x for x in witness]
        _report(args, cmd, [a, b], None, counters, _ms(t0), res)
        return 0 if witness is None else 1
    raise SfaError(f"unknown command {cmd!r}")


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SfaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # exit 1 means "the answer is false", so a crash must not reach it
        print(f"error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
