"""Every imported name is read.

The scan walks each Python file under ``src/``, ``tests/``,
``benchmarks/``, ``scripts/`` and ``examples/`` and fails on a name an
``import`` binds that nothing in the same file reads.  A name is read
when it appears as a name anywhere in the file (an attribute's base
included), inside a string annotation (``"Simulator"`` behind
``TYPE_CHECKING``), or, under ``tests/`` and ``benchmarks/``, as a test
function's parameter (pytest resolves fixtures by name).  A mention in a
docstring or comment is not a read.  An import marked ``# noqa: F401``
is a deliberate re-export and passes, as do ``__future__`` imports.

Matching is by bare name over the whole file, so an import shadowed by
a local of the same name passes: the scan proves an import dead, never
alive.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "scripts", "examples")
#: Where a function parameter can name an imported fixture.
FIXTURE_DIRS = ("tests", "benchmarks")


def _files() -> Iterator[Path]:
    for top in SCANNED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """The names a (possibly quoted) annotation reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)
        elif isinstance(sub, ast.Name):
            yield sub.id


def _reads(tree: ast.AST, fixtures: bool) -> Set[str]:
    """Every name ``tree`` reads."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                names.update(_annotation_names(node.annotation))
            if fixtures:
                names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            names.update(_annotation_names(node.annotation))
    return names


def _imports(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for each name an unmarked import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = node.names
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            aliases = node.names
        else:
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in statement):
            continue
        for alias in aliases:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def unused_imports() -> List[str]:
    """``path:line: name`` for every imported name nothing reads."""
    found = []
    for path in _files():
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        relative = path.relative_to(ROOT)
        reads = _reads(tree, relative.parts[0] in FIXTURE_DIRS)
        for bound, line in _imports(tree, source.splitlines()):
            if bound not in reads:
                found.append(f"{relative}:{line}: {bound}")
    return found


def test_every_imported_name_is_read():
    unused = unused_imports()
    assert not unused, "imports nothing reads -- delete them:\n" + "\n".join(unused)


SNIPPET = """\
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .simulator import Simulator
from .pool import run  # noqa: F401
from .docs import Mentioned
def f(sim: "Simulator") -> None:
    # Mentioned only in a comment and a plain string.
    return TYPE_CHECKING, "Mentioned"
"""


def test_the_scan_sees_string_annotations_and_marked_reexports():
    tree = ast.parse(SNIPPET)
    reads = _reads(tree, fixtures=False)
    unread = [
        name for name, _ in _imports(tree, SNIPPET.splitlines()) if name not in reads
    ]
    assert unread == ["Mentioned"]


if __name__ == "__main__":  # pragma: no cover - manual listing
    print("\n".join(unused_imports()))
