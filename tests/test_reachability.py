"""Every definition in ``src/`` has a reader outside ``tests/``.

The scan covers each module-level function and class in ``src/`` and
each method except dunders.  A definition is reached when its name is
read -- as a name, an attribute or an imported name -- by ``src/`` code
outside the definition's own body, or anywhere in ``examples/``,
``scripts/`` or ``perfbench/`` (where a string in ``perfbench/probes.py``
also counts: the probes wrap their targets by attribute name).  A
module-level name in the root ``repro._EXPORTS`` table is the documented
API and passes.  ``tests/`` and ``benchmarks/`` are not roots, and a
subpackage's ``_EXPORTS`` strings are not readers.  Whatever else has no
reader must be in :data:`ALLOWLIST` with its reason, or be deleted.

Matching is by bare name, so a common name (``run``, ``close``) is
reached by any reader of any definition of that name: the scan proves a
definition dead, never alive.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("examples", "scripts", "perfbench")
PROBES = Path("perfbench", "probes.py")

#: ``module.qualname`` -> why the definition stays without a reader.
ALLOWLIST: Dict[str, str] = {
    "repro.service.api._Handler.do_GET": "http.server hook: GET dispatch",
    "repro.service.api._Handler.do_POST": "http.server hook: POST dispatch",
    "repro.service.api._Handler.log_message": "http.server hook: no access log",
    "repro.service.api._Server.process_request": (
        "socketserver hook: tracks connections"
    ),
    "repro.service.api._Server.shutdown_request": (
        "socketserver hook: untracks connections"
    ),
    "repro.service.api._Server.handle_error": "socketserver hook: quiet on peer resets",
    "repro.experiments.faults.FaultPlan.activated": (
        "test seam: the chaos suites install plans with it"
    ),
    "repro.topology.topology.Topology.from_edges": (
        "builds the generated topologies of the differential tests"
    ),
}


class Definition(NamedTuple):
    qualname: str  # ``repro.pkg.module.Class.method``
    name: str
    path: Path
    lineno: int
    end_lineno: int
    method: bool


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _top_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)
        else:
            yield node


def _definitions(path: Path, src: Path, tree: ast.Module) -> Iterator[Definition]:
    module = _module_name(path, src)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in _top_level(tree.body):
        if not isinstance(node, defs) or _is_dunder(node.name):
            continue
        yield Definition(
            f"{module}.{node.name}",
            node.name,
            path,
            node.lineno,
            node.end_lineno,
            False,
        )
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not _is_dunder(member.name):
                    yield Definition(
                        f"{module}.{node.name}.{member.name}",
                        member.name,
                        path,
                        member.lineno,
                        member.end_lineno,
                        True,
                    )


def _reads(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(package: Path) -> Dict[str, Tuple[str, ...]]:
    """A package root's ``_EXPORTS`` table (``{}`` when it has none)."""
    for node in _parse(package / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _root_exports(src: Path) -> Set[str]:
    return {name for names in _exports(src / "repro").values() for name in names}


def _bound_names(module: Path) -> Set[str]:
    """Names a module (or a package, through its own table) provides."""
    if module.is_dir():
        return {n for names in _exports(module).values() for n in names}
    names: Set[str] = set()
    for node in _top_level(_parse(module).body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return names


def scan(root: Path = ROOT) -> Tuple[List[Definition], List[Definition]]:
    """``(unreached, all definitions)`` of the tree at ``root``, before
    the allowlist applies."""
    src = root / "src"
    probes = root / PROBES
    definitions: List[Definition] = []
    src_reads: Dict[str, List[Tuple[Path, int]]] = {}
    for path in sorted(src.rglob("*.py")):
        tree = _parse(path)
        definitions.extend(_definitions(path, src, tree))
        for name, line in _reads(tree):
            src_reads.setdefault(name, []).append((path, line))

    entry_reads: Set[str] = set()
    for directory in ENTRY_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = _parse(path)
            entry_reads.update(name for name, _ in _reads(tree))
            if path == probes:
                entry_reads.update(
                    node.value
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                )

    exported = _root_exports(src)
    unreached = []
    for d in definitions:
        if d.name in entry_reads or (d.name in exported and not d.method):
            continue
        if any(
            path != d.path or not d.lineno <= line <= d.end_lineno
            for path, line in src_reads.get(d.name, ())
        ):
            continue
        unreached.append(d)
    return unreached, definitions


def _where(d: Definition) -> str:
    return f"{d.path.relative_to(ROOT)}:{d.lineno}: {d.qualname}"


def test_every_src_definition_has_a_reader() -> None:
    unreached, definitions = scan()
    missing = [d for d in unreached if d.qualname not in ALLOWLIST]
    assert not missing, (
        "definitions in src/ that nothing outside tests/ reads -- delete them, "
        "or allowlist one with its reason:\n"
        + "\n".join(_where(d) for d in missing)
    )

    known = {d.qualname for d in definitions}
    unreached_names = {d.qualname for d in unreached}
    stale = sorted(
        f"{entry}: {'no such definition' if entry not in known else 'now has a reader'}"
        for entry in ALLOWLIST
        if entry not in unreached_names
    )
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)


def test_every_lazy_export_names_a_definition() -> None:
    """A deleted definition takes its ``_EXPORTS`` entry with it."""
    missing = []
    for init in sorted(SRC.rglob("__init__.py")):
        package = init.parent
        for submodule, names in _exports(package).items():
            target = package / submodule
            if not target.is_dir():
                target = target.with_suffix(".py")
            provided = _bound_names(target)
            missing.extend(
                f"{init.relative_to(ROOT)}: {submodule}.{name}"
                for name in names
                if name not in provided
            )
    assert not missing, "_EXPORTS entries with no definition:\n" + "\n".join(missing)


def _unreached(root: Path, files: Dict[str, str]) -> Set[str]:
    """The unreached qualnames of a tree made of ``files`` under ``root``."""
    files = {"src/repro/__init__.py": "", **files}
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return {d.qualname for d in scan(root)[0]}


class TestScanRules:
    """The scan on small made-up trees: a rule that stopped holding
    would let dead code through, or fail on live code."""

    def test_a_definition_nothing_reads_is_unreached(self, tmp_path):
        module = """
            def used():
                pass

            def dead():
                pass

            used()
        """
        assert _unreached(tmp_path, {"src/repro/mod.py": module}) == {"repro.mod.dead"}

    def test_a_read_inside_its_own_body_does_not_count(self, tmp_path):
        module = """
            def countdown(n):
                return countdown(n - 1) if n else 0
        """
        assert _unreached(tmp_path, {"src/repro/mod.py": module}) == {
            "repro.mod.countdown"
        }

    def test_entry_directories_read_but_tests_do_not(self, tmp_path):
        module = """
            class Api:
                def run(self):
                    pass

                def probe(self):
                    pass

                def __repr__(self):
                    return "Api()"
        """
        files = {
            "src/repro/mod.py": module,
            "examples/demo.py": "from repro.mod import Api\nApi().run()\n",
            "tests/test_mod.py": "from repro.mod import Api\nApi().probe()\n",
            "benchmarks/test_bench.py": "from repro.mod import Api\nApi().probe()\n",
        }
        assert _unreached(tmp_path, files) == {"repro.mod.Api.probe"}

    def test_strings_read_only_in_the_probe_table(self, tmp_path):
        module = """
            def kernel():
                pass

            def named_elsewhere():
                pass
        """
        files = {
            "src/repro/mod.py": module,
            "perfbench/probes.py": 'TARGETS = [("repro.mod", "kernel")]\n',
            "perfbench/run.py": 'NOTE = "named_elsewhere"\n',
        }
        assert _unreached(tmp_path, files) == {"repro.mod.named_elsewhere"}

    def test_root_exports_pass_module_level_names_not_methods(self, tmp_path):
        module = """
            def api():
                pass

            class Box:
                def api(self):
                    pass
        """
        files = {
            "src/repro/__init__.py": '_EXPORTS = {"mod": ("api", "Box")}\n',
            "src/repro/mod.py": module,
        }
        assert _unreached(tmp_path, files) == {"repro.mod.Box.api"}

    def test_subpackage_exports_are_not_readers(self, tmp_path):
        files = {
            "src/repro/sub/__init__.py": '_EXPORTS = {"impl": ("helper",)}\n',
            "src/repro/sub/impl.py": "def helper():\n    pass\n",
        }
        assert _unreached(tmp_path, files) == {"repro.sub.impl.helper"}
