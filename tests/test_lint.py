"""Repo lint checks that run without external tooling.

CI additionally runs ``ruff check`` (see ``[tool.ruff]`` in pyproject.toml)
with rule ``RUF013``; this AST sweep enforces the same contract in the
plain tier-1 environment, which installs no linters: a parameter defaulting
to ``None`` must annotate the ``None`` (``Optional[X]`` or ``X | None``),
not pretend to be a plain ``X``.  The sweep found (and PR 10 fixed)
``MeshNoc.__init__``'s ``stats: StatsRegistry = None`` and
``DynamicEnergyModel.energies_pj``.

A second sweep keeps hidden runtime switches out of ``src/``: every
``os.environ`` / ``os.getenv`` read must be on the allowlist below.  A new
mode belongs in a constructor argument or a CLI flag, where tests can set
it without touching the process environment.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

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


#: The only environment reads ``src/`` may make: file -> the one variable
#: its reads must name.
ENV_ALLOWLIST = {
    "src/repro/analysis/rescache.py": "REPRO_CACHE_DIR",
    "src/repro/analysis/snapshot.py": "QEI_NO_SNAPSHOT",
}
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
