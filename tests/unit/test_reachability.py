"""Every top-level definition in ``src/repro`` is reached from an entry point.

The entry points are the command-line modules (``repro.cli``, the
``[project.scripts]`` targets), the public API (``repro.api.__all__`` and
``DeepMorph``), module-level dunders such as ``repro.__version__`` and
``repro.api``'s lazy ``__getattr__`` (read by Python and by tools, not by
name), every identifier in ``examples/``, ``perfbench/`` and
``benchmarks/``, and each module-level statement that runs at import
(anything but an import, a docstring or ``__all__``).

From there the scan is transitive and name-based:

* an identifier used in a reached definition reaches every top-level
  definition of that name; an identifier is a name, an attribute, or a string
  constant that is a valid identifier;
* a name that starts with ``_`` resolves only inside its own module (and the
  modules it is imported into by name), so that the ``_REGISTRY`` tables of
  different modules stay apart;
* ``from x import a as b`` makes ``b`` reach ``a``.

A definition nothing reaches is dead code: the test names each one as
``path:line name``.  It uses the standard library's ``ast`` only.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ENTRY_DIRS = ("examples", "perfbench", "benchmarks")

#: Modules whose definitions may stay unreached, each with its reason.
ALLOWLIST = {
    # Fitted the shipped classifier weights (``repro-table1`` loads them);
    # the Table I recalibration reworks it (ROADMAP item 1(c)).
    "repro.experiments.calibrate",
}

#: A use of an identifier: the module it appears in (``None`` outside
#: ``src/``) and the identifier.
Use = Tuple[Optional[str], str]


@dataclass(eq=False)
class Definition:
    module: str
    name: str
    path: Path
    line: int
    node: ast.stmt


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not _is_dunder(name)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _identifiers(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


def _bound_names(stmt: ast.stmt) -> Optional[List[str]]:
    """Names a definition statement binds, or ``None`` if it is not one."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    if isinstance(stmt, ast.Assign):
        names: List[str] = []
        for target in stmt.targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            if not all(isinstance(elt, ast.Name) for elt in elts):
                return None
            names.extend(elt.id for elt in elts)
        return names
    return None


def _runs_at_import(stmt: ast.stmt) -> bool:
    """Whether a statement that defines nothing is more than an import or a docstring."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    if isinstance(stmt, ast.AugAssign) and getattr(stmt.target, "id", None) == "__all__":
        return False
    return not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


class Scan:
    """The reachability graph over ``src/repro``."""

    def __init__(self) -> None:
        self.definitions: List[Definition] = []
        self.by_name: Dict[str, List[Definition]] = defaultdict(list)
        self.by_module: Dict[Tuple[str, str], List[Definition]] = defaultdict(list)
        # (module, local name) -> [(source module, source name)]
        self.imports: Dict[Tuple[str, str], List[Tuple[str, str]]] = defaultdict(list)
        # public local name -> (source module, source name) it renames
        self.renames: Dict[str, Set[Tuple[str, str]]] = defaultdict(set)
        self.roots: List[Use] = []
        for path in sorted(SRC.rglob("*.py")):
            self._add_module(path)
        self._add_entry_points()

    def _add_module(self, path: Path) -> None:
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        is_package = path.name == "__init__.py"
        self._record_imports(module, module if is_package else module.rpartition(".")[0], tree)
        for stmt in tree.body:
            names = _bound_names(stmt)
            if names is None:
                if _runs_at_import(stmt):
                    self.roots.extend((module, ident) for ident in _identifiers(stmt))
                continue
            for name in names:
                if name == "__all__":
                    continue
                definition = Definition(module, name, path, stmt.lineno, stmt)
                self.definitions.append(definition)
                self.by_name[name].append(definition)
                self.by_module[(module, name)].append(definition)
                if module.startswith("repro.cli") or _is_dunder(name):
                    self.roots.append((module, name))

    def _record_imports(self, module: Optional[str], package: str, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                source = ".".join(base + ([source] if source else []))
            for alias in node.names:
                local = alias.asname or alias.name
                if module is not None:
                    self.imports[(module, local)].append((source, alias.name))
                if local != alias.name and not _is_private(local):
                    self.renames[local].add((source, alias.name))

    def _add_entry_points(self) -> None:
        import repro.api

        self.roots.extend((None, name) for name in [*repro.api.__all__, "DeepMorph"])
        for directory in ENTRY_DIRS:
            for path in sorted((ROOT / directory).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                self._record_imports(None, "", tree)
                self.roots.extend((None, ident) for ident in _identifiers(tree))

    def _resolve(self, module: Optional[str], name: str, seen: Set[Use]) -> List[Definition]:
        """Definitions that ``name``, used inside ``module``, can refer to."""
        if (module, name) in seen:
            return []
        seen.add((module, name))
        if not _is_private(name):
            found = list(self.by_name.get(name, ()))
            for source, original in self.renames.get(name, ()):
                found.extend(self._resolve(source, original, seen))
            return found
        if module is None:  # an entry-point file: no module to scope it to
            return list(self.by_name.get(name, ()))
        found = list(self.by_module.get((module, name), ()))
        for source, original in self.imports.get((module, name), ()):
            found.extend(self._resolve(source, original, seen))
        return found

    def unreached(self) -> List[Definition]:
        reached: Set[Definition] = set()
        done: Set[Use] = set()
        pending = list(self.roots)
        while pending:
            use = pending.pop()
            if use in done:
                continue
            done.add(use)
            for definition in self._resolve(*use, set()):
                if definition not in reached:
                    reached.add(definition)
                    uses = _identifiers(definition.node)
                    pending.extend((definition.module, ident) for ident in uses)
        return [d for d in self.definitions if d not in reached]


def test_every_definition_is_reached_from_an_entry_point():
    dead = [d for d in Scan().unreached() if d.module not in ALLOWLIST]
    lines = [f"{d.path.relative_to(ROOT)}:{d.line} {d.name}" for d in dead]
    assert not lines, "unreached from any entry point:\n" + "\n".join(lines)
