"""Command-line front end.

One subcommand per transform, construction, or decision procedure, all
reading the JSON file format.  Every run prints a report (sizes of inputs
and output, algebra-work counters, wall time); --json switches it to one
machine-readable object.  Decision subcommands also signal their answer
through the exit status, true -> 0 and false -> 1, so shell pipelines can
branch on it; any error exits 2.

`COMMANDS` is the one list of subcommands: it builds the parser, and
`_dispatch` runs each entry along the same path.
"""

import argparse
import json
import sys
import time

from . import operations, transforms
from .algebra import OpCounters
from .dot import export_dot
from .errors import FormatError, SfaError
from .operations import ProductMode
from .serialize import emit_sfa, parse_sfa
from .sfa import membership, size_triple, validate


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


class Command:
    """One subcommand: its help, the positional SFA files it reads (name to
    help, each read by `load`), one more argument as a flag and argparse
    keywords, and `step`, the library call the report's `ms` times.  The
    step takes the loaded automata, the values `operands` derives before the
    clock starts, and the counters.  A command with `--out` writes what its
    step returns, an automaton or DOT text, and reports where it went; any
    other reports the step's value and exits 1 when `ok` of it is false."""

    def __init__(self, help_text, files, extra, step, ok=lambda result: True, load=_load,
                 operands=lambda args, *inputs: ()):
        self.help, self.files, self.extra, self.step = help_text, files, extra, step
        self.ok, self.load, self.operands = ok, load, operands


ONE = {"sfa": "input SFA file"}
TWO = {"a": "first SFA file", "b": "second SFA file"}
OUT = ("--out", {"required": True, "help": "where to write the resulting SFA"})
WORD = ("--word", {
    "required": True,
    "help": "comma-separated letters: integers, or 0/1 strings like 101; empty for the empty word",
})
ASSUME_FEASIBLE = ("--assume-feasible", {
    "action": "store_true",
    "help": "skip satisfiability checks during the reachability search",
})
DOT_OUT = ("--out", {"help": "write DOT here instead of standard output"})


def _answer(result) -> bool:
    return result is True


def _brute_force(a, b, mode):
    """The oracle's answer: True, or a shortest word that separates a and b."""
    from . import oracle  # only the debug-* commands load it

    witness = oracle.separating_word(a, b, oracle.representatives(a, b), mode=mode)
    if witness is None:
        return True
    return [list(x) if isinstance(x, tuple) else x for x in witness]


# Steps name library functions inside their bodies, so those are looked up
# when a command runs, not when this table is built.
COMMANDS = {
    "validate": Command("check the file against the format invariants", ONE, None,
                        lambda a, c: validate(a), ok=lambda issues: not issues, load=_read),
    "metrics": Command("report the size triple n, m, l", ONE, None,
                       lambda a, c: size_triple(a).as_dict()),
    "neat": Command("expand predicates into basic transitions", ONE, OUT,
                    lambda a, c: transforms.to_neat(a, c)),
    "normalize": Command("merge parallel edges into disjunctions", ONE, OUT,
                         lambda a, c: transforms.to_normalized(a, c)),
    "feasible": Command("drop unsatisfiable transitions", ONE, OUT,
                        lambda a, c: transforms.to_feasible(a, c)),
    "complete": Command("add a sink for uncovered letters", ONE, OUT,
                        lambda a, c: transforms.complete(a, c)),
    "determinize": Command("subset construction with minterms", ONE, OUT,
                           lambda a, c: operations.determinize(a, c)),
    "minimize": Command("merge indistinguishable states", ONE, OUT,
                        lambda a, c: operations.minimize(a, c)),
    "complement": Command("accept exactly the rejected words", ONE, OUT,
                          lambda a, c: operations.complement(a, c)),
    "canon-neat": Command("canonical minimal neat form", ONE, OUT,
                          lambda a, c: transforms.canonical_minimal_neat(a, c)),
    "canon-norm": Command("canonical minimal normalized form", ONE, OUT,
                          lambda a, c: transforms.canonical_minimal_normalized(a, c)),
    "intersect": Command("product accepting the intersection", TWO, OUT,
                         lambda a, b, c: operations.product(a, b, ProductMode.INTERSECT, c)),
    "union": Command("product accepting the union", TWO, OUT,
                     lambda a, b, c: operations.product(a, b, ProductMode.UNION, c)),
    "member": Command("decide whether a word is accepted", ONE, WORD,
                      lambda a, word, c: membership(a, word, c), _answer,
                      operands=lambda args, a: [_parse_word(args.word, a.binding)]),
    "empty": Command("decide language emptiness", ONE, ASSUME_FEASIBLE,
                     lambda a, assume_feasible, c: operations.is_empty(a, assume_feasible, c),
                     _answer, operands=lambda args, a: [args.assume_feasible]),
    "include": Command("decide language inclusion of the first file in the second", TWO, None,
                       lambda a, b, c: operations.includes(a, b, c), _answer),
    "equiv": Command("decide language equality", TWO, None,
                     lambda a, b, c: operations.equivalent(a, b, c), _answer),
    "dot": Command("export Graphviz DOT", ONE, DOT_OUT, lambda a, c: export_dot(a)),
    "debug-equal": Command("brute-force equality over an enumerated alphabet", TWO, None,
                           lambda a, b, c: _brute_force(a, b, "equal"), _answer),
    "debug-subset": Command("brute-force inclusion over an enumerated alphabet", TWO, None,
                            lambda a, b, c: _brute_force(a, b, "subset"), _answer),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfa",
        description="symbolic finite automata over interval and propositional algebras",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        for file_arg, help_text in cmd.files.items():
            sp.add_argument(file_arg, help=help_text)
        if cmd.extra:
            flag, kwargs = cmd.extra
            sp.add_argument(flag, **kwargs)
    return parser


def _report(args, stream, inputs, output, counters, ms, result):
    op = args.cmd
    payload = {
        "op": op,
        "inputs": [size_triple(x).as_dict() for x in inputs],
        "output": size_triple(output).as_dict() if output is not None else None,
        "counters": counters.as_dict(),
        "ms": round(ms, 3),
        "result": result,
    }
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
    cmd = COMMANDS[args.cmd]
    inputs = [cmd.load(getattr(args, file_arg)) for file_arg in cmd.files]
    operands = cmd.operands(args, *inputs)
    counters = OpCounters()
    t0 = time.perf_counter()
    value = cmd.step(*inputs, *operands, counters)
    ms = (time.perf_counter() - t0) * 1000.0
    output, stream = None, sys.stdout
    if "out" in args:
        # the value is an automaton or DOT text; the result says where it went
        if not isinstance(value, str):
            output, value = value, emit_sfa(value)
        if args.out:
            _write(args.out, value)
        else:
            # keep standard output byte-clean for the DOT text
            sys.stdout.write(value)
            stream = sys.stderr
        value = args.out or "-"
    _report(args, stream, inputs, output, counters, ms, value)
    return 0 if cmd.ok(value) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SfaError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # exit 1 means "the answer is false", so a crash must not reach it
        print(f"error: unexpected {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
