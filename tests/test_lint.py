"""Repo lint checks that run without external tooling.

CI additionally runs ``ruff check`` (see ``[tool.ruff]`` in pyproject.toml)
with rules ``RUF013`` and ``F401``; the AST sweeps below enforce the same
contracts in the plain tier-1 environment, which installs no linters.  The
first covers ``RUF013``: a parameter defaulting to ``None`` must annotate
the ``None`` (``Optional[X]`` or ``X | None``), not pretend to be a plain
``X``.  The sweep found (and PR 10 fixed) ``MeshNoc.__init__``'s
``stats: StatsRegistry = None`` and ``DynamicEnergyModel.energies_pj``.

A second sweep mirrors ``F401`` (unused imports): every name an import
binds must be read in its scope (the module, or the function a local
import sits in), be listed in ``__all__``, or carry ``# noqa: F401`` on
its line.  Package ``__init__.py`` files are exempt, as in ruff's
per-file ignores: their imports are re-exports.

A third sweep keeps hidden runtime switches out of ``src/``: every
``os.environ`` / ``os.getenv`` read must be on the allowlist below, which
is empty — ``src/`` reads no environment.  A deployment setting belongs in
a CLI flag; a test-only mode belongs in ``tests/``.  Nor does ``src/`` read
the host clock: no module imports ``time`` or ``datetime``.  A simulated
number must not depend on the host, and ``tests/ledger.json`` pins every
verb's output and call counts exactly; host seconds belong in
``e2ebench/``.

A fourth sweep keeps dead knobs out of ``repro/config.py``: every field of
its dataclasses must be read as an attribute somewhere in ``src/`` outside
a ``__post_init__`` (validation alone is not a use).  A field nothing reads
changes nothing when set.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SCAN_DIRS = ("src", "tests", "benchmarks")


def _py_files() -> Iterator[Path]:
    for base in SCAN_DIRS:
        root = REPO_ROOT / base
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


def _allows_none(annotation: ast.expr) -> bool:
    """Does this annotation admit None (Optional/Union-with-None/Any)?"""
    text = ast.unparse(annotation)
    return "Optional" in text or "None" in text or "Any" in text


def _implicit_optional_args(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pos_defaults = args.defaults
            pairs = list(
                zip(positional[len(positional) - len(pos_defaults):], pos_defaults)
            ) + [
                (arg, default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, default in pairs:
                if (
                    isinstance(default, ast.Constant)
                    and default.value is None
                    and arg.annotation is not None
                    and not _allows_none(arg.annotation)
                ):
                    yield node.lineno, f"{node.name}(... {arg.arg} ...)"
        elif isinstance(node, ast.ClassDef):
            # Dataclass-style annotated assignments: ``field: X = None``.
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                    and not _allows_none(stmt.annotation)
                ):
                    target = getattr(stmt.target, "id", "?")
                    yield stmt.lineno, f"{node.name}.{target}"


def test_no_implicit_optional_defaults():
    offenders: List[str] = []
    for path in _py_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, where in _implicit_optional_args(tree):
            rel = path.relative_to(REPO_ROOT)
            offenders.append(f"{rel}:{lineno}: {where}")
    assert not offenders, (
        "implicit-Optional defaults (annotate as Optional[X] / X | None):\n"
        + "\n".join(offenders)
    )


def _noqa_f401(line: str) -> bool:
    if "# noqa" not in line:
        return False
    codes = line.split("# noqa", 1)[1]
    return not codes.startswith(":") or "F401" in codes


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set:
    """Every name ``tree`` reads: in code, in quoted annotations, and as an
    ``__all__`` entry."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue  # a Literal[...] value, not a type expression
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return names


def _unused_imports(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[int, str]]:
    """Imports whose name is never read in their scope: the module for a
    top-level import, the enclosing function (nested ones included) for a
    function-local one."""
    scopes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        read = _read_names(scope)
        body = list(ast.iter_child_nodes(scope))
        while body:
            node = body.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # its own scope
            body.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or bound in read:
                    continue
                lineno = getattr(alias, "lineno", node.lineno)
                if _noqa_f401(lines[lineno - 1]) or _noqa_f401(lines[node.lineno - 1]):
                    continue
                yield lineno, alias.name if alias.asname is None else f"{alias.name} as {bound}"


def test_no_unused_imports():
    offenders: List[str] = []
    for path in _py_files():
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        for lineno, name in _unused_imports(tree, text.splitlines()):
            offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {name}")
    assert not offenders, "unused imports (F401):\n" + "\n".join(offenders)


def test_unused_import_sweep_matches_f401():
    source = (
        "import os\n"
        "import json  # noqa: F401\n"
        "import sys  # noqa: E402\n"
        "from typing import List, Optional\n"
        "from a import b, c\n"
        "__all__ = ['c']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    import re\n"
        "    return os.sep\n"
        "def g():\n"
        "    return re\n"
    )
    found = [name for _, name in _unused_imports(ast.parse(source), source.splitlines())]
    assert sorted(found) == ["List", "b", "re", "sys"]


#: The only environment reads ``src/`` may make: file -> the one variable
#: its reads must name.  Empty: it may shrink, never widen.
ENV_ALLOWLIST: Dict[str, str] = {}
_ENV_NAMES = ("environ", "environb", "getenv")


def _env_reads(tree: ast.AST) -> Iterator[int]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENV_NAMES for alias in node.names):
                yield node.lineno


def test_environment_reads_are_allowlisted():
    offenders: List[str] = []
    used = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        text = path.read_text()
        lines = text.splitlines()
        for lineno in _env_reads(ast.parse(text, filename=str(path))):
            line = lines[lineno - 1]
            if rel in ENV_ALLOWLIST and ENV_ALLOWLIST[rel] in line:
                used.add(rel)
            else:
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "environment reads outside the allowlist (use a constructor "
        "argument or CLI flag instead):\n" + "\n".join(offenders)
    )
    assert used == set(ENV_ALLOWLIST), "stale ENV_ALLOWLIST entries"


_CLOCK_MODULES = ("time", "datetime")


def _clock_imports(tree: ast.AST) -> Iterator[int]:
    """Lines importing ``time`` or ``datetime`` (or anything inside them)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in _CLOCK_MODULES for name in names):
            yield node.lineno


def test_src_reads_no_host_clock():
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for lineno in _clock_imports(ast.parse(text, filename=str(path))):
            rel = path.relative_to(REPO_ROOT).as_posix()
            offenders.append(f"{rel}:{lineno}: {lines[lineno - 1].strip()}")
    assert not offenders, "host clock imports in src/:\n" + "\n".join(offenders)


def test_clock_sweep_flags_each_import_form():
    source = (
        "import time\n"
        "from time import perf_counter\n"
        "import datetime as dt\n"
        "from datetime import datetime\n"
        "from . import time_model\n"
        "import timeit\n"
        "def f():\n"
        "    import time\n"
    )
    assert list(_clock_imports(ast.parse(source))) == [1, 2, 3, 4, 8]


def _dataclass_fields(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, Class.field)`` for every field of a top-level dataclass."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, f"{node.name}.{stmt.target.id}"


def _attributes_read(tree: ast.AST) -> set:
    """Every attribute name ``tree`` loads, skipping ``__post_init__`` bodies."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def _dead_fields(config: ast.AST, read: set) -> List[Tuple[int, str]]:
    return [
        (lineno, name)
        for lineno, name in _dataclass_fields(config)
        if name.split(".")[1] not in read
    ]


def test_config_fields_are_read():
    read = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text(), filename=str(path)))
    config = REPO_ROOT / "src" / "repro" / "config.py"
    dead = _dead_fields(ast.parse(config.read_text()), read)
    assert not dead, "config fields nothing in src/ reads (delete them):\n" + "\n".join(
        f"src/repro/config.py:{lineno}: {name}" for lineno, name in dead
    )


def test_dead_field_sweep_ignores_validation():
    source = (
        "@dataclass(frozen=True)\n"
        "class Knobs:\n"
        "    used: int = 1\n"
        "    validated: int = 2\n"
        "    unread: int = 3\n"
        "    def __post_init__(self):\n"
        "        assert self.validated >= 0\n"
        "class Plain:\n"
        "    ignored: int = 4\n"
        "def run(knobs):\n"
        "    knobs.unread = 5\n"
        "    return knobs.used\n"
    )
    tree = ast.parse(source)
    dead = [name for _, name in _dead_fields(tree, _attributes_read(tree))]
    assert dead == ["Knobs.validated", "Knobs.unread"]
