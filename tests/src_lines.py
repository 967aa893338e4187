"""Count the Python lines of ``src/`` and ``tests/`` by kind: code, docstring,
comment and blank.

Usage, from the repository root::

    python tests/src_lines.py [REV]

prints, for ``src/``, for ``tests/`` and for the two together, the counts of
the working tree, and with a git revision ``REV`` also those of ``REV`` and
the difference, so that code moved between them shows as no saving; then one
row per module of ``src/``, with ``REV`` also its change in total lines. A
line is docstring if it lies within a
module, class or function docstring, blank lines inside one included; else
blank if it holds only whitespace, comment if its first character other than
whitespace is ``#``, and code otherwise.
"""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
TREES = ["src", "tests"]
# width of the label column
LABEL = 20


def count(text: str) -> dict[str, int]:
    """The lines of one Python source, by kind."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def totals(sources: dict[str, str]) -> dict[str, int]:
    """The counts summed over ``sources``, a text per path."""
    result = dict.fromkeys(KINDS, 0)
    for text in sources.values():
        for kind, n in count(text).items():
            result[kind] += n
    return result


def working_tree(tree: str) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
            for p in sorted((ROOT / tree).rglob("*.py"))}


def revision(rev: str, tree: str) -> dict[str, str]:
    paths = [p for p in _git("ls-tree", "-r", "--name-only", rev, tree).split() if p.endswith(".py")]
    return {p: _git("show", f"{rev}:{p}") for p in paths}


def _row(label: str, counts: dict[str, int], sign: bool = False) -> str:
    fmt = "{:+,}" if sign else "{:,}"
    cells = [fmt.format(sum(counts.values()))] + [fmt.format(counts[k]) for k in KINDS]
    return f"{label:<{LABEL}}" + "".join(f"{c:>11}" for c in cells)


def _header(label: str, *extra: str) -> str:
    return f"{label:<{LABEL}}" + "".join(f"{h:>11}" for h in ("total", *KINDS, *extra))


def main(argv: list[str]) -> int:
    now = {tree: working_tree(tree) for tree in TREES}
    then = {tree: revision(argv[0], tree) if argv else {} for tree in TREES}
    for label, trees in (("src/", ["src"]), ("tests/", ["tests"]), ("src/ + tests/", TREES)):
        after = totals({p: t for tree in trees for p, t in now[tree].items()})
        print(_header(label))
        print(_row("working tree", after))
        if argv:
            before = totals({p: t for tree in trees for p, t in then[tree].items()})
            print(_row(argv[0][:LABEL], before))
            print(_row("difference", {k: after[k] - before[k] for k in KINDS}, sign=True))
        print()
    print(_header("module", *(["change"] if argv else [])))
    now, then = now["src"], then["src"]
    for path in sorted(now.keys() | then.keys()):
        counts = count(now[path]) if path in now else dict.fromkeys(KINDS, 0)
        change = sum(counts.values()) - (sum(count(then[path]).values()) if path in then else 0)
        print(_row(path.removeprefix("src/"), counts) + (f"{change:>+11,}" if argv else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
