"""The README's "Library tour" runs as written and its results hold.

Each line of the tour's code block that ends in `# True` or `# False` is an
expression whose value must be exactly that boolean; every other line runs
as is, in order, in one namespace.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CHECK = re.compile(r"(?P<expr>\S.*?)\s+# (?P<want>True|False)")


def tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("\n```", start)]


def test_readme_library_tour_results_hold():
    lines, wanted = [], []
    for line in tour_block().splitlines():
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
