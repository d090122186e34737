"""The README's "Library tour" runs as written and its results hold, and
its CLI block lists the parser's subcommands.

Each line of the tour's code block that ends in `# True` or `# False` is an
expression whose value must be exactly that boolean; every other line runs
as is, in order, in one namespace.
"""

import argparse
import pathlib
import re

from symfa.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CHECK = re.compile(r"(?P<expr>\S.*?)\s+# (?P<want>True|False)")


def code_block(section: str, fence: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(fence, text.index(section)) + len(fence)
    return text[start:text.index("\n```", start)]


def test_readme_library_tour_results_hold():
    lines, wanted = [], []
    for line in code_block("## Library tour", "```python\n").splitlines():
        m = CHECK.fullmatch(line)
        if m:
            lines.append(f"_results.append({m['expr']})")
            wanted.append((m["expr"], m["want"] == "True"))
        else:
            lines.append(line)
    namespace = {"_results": []}
    exec(compile("\n".join(lines), str(README), "exec"), namespace)
    assert len(wanted) >= 4
    got = list(zip((expr for expr, _ in wanted), namespace["_results"]))
    assert got == [(expr, want) for expr, want in wanted]
    assert all(type(value) is bool for value in namespace["_results"])


def test_readme_cli_block_names_every_subcommand_in_parser_order():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = [line.split()[:2] for line in code_block("## CLI", "```sh\n").splitlines()]
    assert listed == [["symfa", name] for name in sub.choices]
