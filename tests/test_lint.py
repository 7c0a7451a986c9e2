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

A fifth sweep keeps one-value knobs out of the serving and cluster policy
configs: every ``ServeConfig`` and ``ClusterConfig`` field must be passed as
a keyword to its class by some call in ``src/``, ``benchmarks/`` or
``e2ebench/``.  A field only tests set has one value in use, so it belongs
as a constant on the class that reads it (``Frontend.QUEUE_DEPTH``); a test
that needs another value patches the constant.

A sixth sweep does the same for function parameters: every defaulted
parameter of a module- or class-level function in ``src/repro`` must be
passed by some call in ``src/``, ``tests/``, ``benchmarks/``, ``e2ebench/``
or ``examples/``.  Calls match by name.  A keyword, a positional argument
in its slot, ``partial(f, ...)`` and any ``**`` splat pass it; so, for an
``__init__``, does a call to the class or a subclass or a subclass's
``super().__init__``.  A registered experiment driver also receives the
names ``experiment_kwargs`` forwards from the CLI, and a ``QueryWorkload``
subclass any ``dict(...)`` keyword or string dict key (the per-workload
parameter tables).  A default nothing passes is a constant in disguise.

A seventh sweep keeps the CEE's micro-op vocabulary to what programs
issue: every ``K_*`` kind ``repro/core/cfa.py`` assigns must lead a tuple
that some ``return`` in ``src/repro/core`` returns.  A kind no program
issues is a driver branch nothing runs.

An eighth sweep keeps one build path: outside
``repro.analysis.snapshot.build`` (and ``make_workload`` itself), nothing
in ``src/repro`` calls ``make_workload(...)`` or a workload's ``.build()``.
Every other caller builds through that function, which builds each image
once per process and restores it after.  The allowlist below names each
exception with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

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


#: Policy configs whose every field needs a caller outside ``tests/``.
POLICY_CONFIGS = ("ServeConfig", "ClusterConfig")
#: Where a setter counts: the program and the benchmarks, not the tests.
SETTER_DIRS = ("src", "benchmarks", "e2ebench")


def _keywords_passed(tree: ast.AST, classes: Tuple[str, ...]) -> set:
    """``(Class, keyword)`` for every keyword a call to ``classes`` passes."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in classes:
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def _fields_without_setter(
    config: ast.AST, sources: Dict[str, str], classes: Tuple[str, ...]
) -> List[Tuple[int, str]]:
    """Fields of ``classes`` that no source under ``SETTER_DIRS`` passes;
    ``sources`` maps a repo-relative path to its text."""
    passed = set()
    for rel, text in sources.items():
        if rel.split("/", 1)[0] in SETTER_DIRS:
            passed |= _keywords_passed(ast.parse(text, filename=rel), classes)
    return [
        (lineno, name)
        for lineno, name in _dataclass_fields(config)
        if name.split(".")[0] in classes and tuple(name.split(".")) not in passed
    ]


def test_policy_fields_have_a_setter():
    config = ast.parse((REPO_ROOT / "src" / "repro" / "config.py").read_text())
    defined = {
        node.name for node in ast.iter_child_nodes(config) if isinstance(node, ast.ClassDef)
    }
    assert set(POLICY_CONFIGS) <= defined, "stale POLICY_CONFIGS entry"
    sources = {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text()
        for base in SETTER_DIRS
        for path in sorted((REPO_ROOT / base).rglob("*.py"))
    }
    unset = _fields_without_setter(config, sources, POLICY_CONFIGS)
    assert not unset, (
        "policy fields no caller outside tests/ sets (make each a class "
        "constant where it is read):\n"
        + "\n".join(f"src/repro/config.py:{lineno}: {name}" for lineno, name in unset)
    )


def test_setter_sweep_counts_only_program_callers():
    config = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Knobs:\n"
        "    set_once: int = 1\n"
        "    test_only: int = 2\n"
        "    never: int = 3\n"
        "@dataclass(frozen=True)\n"
        "class Machine:\n"
        "    cores: int = 4\n"
    )
    sources = {
        "src/run.py": "k = Knobs(set_once=5)\n",
        "tests/test_run.py": "k = config.Knobs(test_only=6, **extra)\n",
    }
    unset = [name for _, name in _fields_without_setter(config, sources, ("Knobs",))]
    assert unset == ["Knobs.test_only", "Knobs.never"]


#: Where a call counts as passing a parameter: the program, its tests, the
#: benchmarks and the examples.
CALLER_DIRS = ("src", "tests", "benchmarks", "e2ebench", "examples")


def _call_name(func: ast.expr):
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _defaulted_params(
    fn: ast.FunctionDef, method: bool
) -> List[Tuple[str, Optional[int]]]:
    """``(name, index)`` per defaulted parameter of ``fn``: ``index`` is
    its position after ``self``/``cls``, or None when keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    decorators = {_call_name(d) for d in fn.decorator_list}
    skip = 1 if method and "staticmethod" not in decorators and positional else 0
    first_default = len(positional) - len(args.defaults)
    params = [
        (arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first_default
    ]
    params += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return params


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """``(owner class or "", function)`` for module- and class-level defs."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield "", node
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, stmt


class _Calls:
    """Every call in a set of sources, indexed by the name it calls."""

    def __init__(self, trees: List[ast.AST]):
        #: name -> [(positional count, keywords, has ``**``)]
        self.by_name: Dict[str, list] = {}
        #: class -> its base-class names
        self.bases: Dict[str, set] = {}
        #: class -> the ``super().__init__`` calls in its body
        self.super_inits: Dict[str, list] = {}
        #: every ``dict(...)`` keyword and string dict-display key
        self.dict_keys: set = set()
        for tree in trees:
            self._scan(tree)

    @staticmethod
    def _shape(args: List[ast.expr], keywords: List[ast.keyword]):
        positional = 0
        for arg in args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        named = {kw.arg for kw in keywords if kw.arg}
        return positional, named, any(kw.arg is None for kw in keywords)

    def _scan(self, tree: ast.AST) -> None:
        stack: List[Tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.ClassDef):
                owner = node.name
                self.bases.setdefault(node.name, set()).update(
                    _call_name(base) for base in node.bases
                )
            elif isinstance(node, ast.Dict):
                self.dict_keys.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif isinstance(node, ast.Call):
                func = node.func
                name = _call_name(func)
                shape = self._shape(node.args, node.keywords)
                if name == "dict":
                    self.dict_keys.update(shape[1])
                if name == "partial" and node.args:
                    name = _call_name(node.args[0])
                    shape = self._shape(node.args[1:], node.keywords)
                if (
                    name == "__init__"
                    and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Call)
                    and _call_name(func.value.func) == "super"
                ):
                    self.super_inits.setdefault(owner, []).append(shape)
                elif name:
                    self.by_name.setdefault(name, []).append(shape)
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))

    def subclasses(self, cls: str) -> set:
        """``cls`` and every class that derives from it, transitively."""
        found = {cls}
        grew = True
        while grew:
            grew = False
            for name, bases in self.bases.items():
                if name not in found and bases & found:
                    found.add(name)
                    grew = True
        return found


def _passes(shape, name: str, index: Optional[int]) -> bool:
    positional, named, splat = shape
    return splat or name in named or (index is not None and index < positional)


def _forwarded_names(main: ast.AST) -> set:
    """The keywords ``experiment_kwargs`` builds its ``values`` dict from."""
    for node in ast.walk(main):
        if isinstance(node, ast.FunctionDef) and node.name == "experiment_kwargs":
            return {
                kw.arg
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and _call_name(call.func) == "dict"
                for kw in call.keywords
            }
    return set()


def _registered_drivers(registry: ast.AST) -> set:
    """The driver names ``EXPERIMENTS`` maps verbs to."""
    return {
        value.id
        for node in ast.walk(registry)
        if isinstance(node, ast.Dict)
        for value in node.values
        if isinstance(value, ast.Name)
    }


def _uncalled_defaults(sources: Dict[str, str]) -> List[str]:
    """``path:line: owner.function(param)`` for each defaulted parameter of
    a module- or class-level function in ``src/repro`` that no call in
    ``sources`` (repo-relative path -> text) passes."""
    trees = {rel: ast.parse(text, filename=rel) for rel, text in sources.items()}
    calls = _Calls(list(trees.values()))
    empty = ast.Module(body=[], type_ignores=[])
    forwarded = _forwarded_names(trees.get("src/repro/__main__.py", empty))
    drivers = _registered_drivers(trees.get("src/repro/analysis/registry.py", empty))
    workloads = calls.subclasses("QueryWorkload") - {"QueryWorkload"}
    uncalled = []
    for rel, tree in sorted(trees.items()):
        if not rel.startswith("src/repro/"):
            continue
        for owner, fn in _definitions(tree):
            params = _defaulted_params(fn, method=bool(owner))
            if not params:
                continue
            if fn.name == "__init__" and owner:
                family = calls.subclasses(owner)
                shapes = [s for cls in family for s in calls.by_name.get(cls, [])]
                shapes += [
                    s for cls in family - {owner} for s in calls.super_inits.get(cls, [])
                ]
            else:
                shapes = calls.by_name.get(fn.name, [])
            for name, index in params:
                if any(_passes(shape, name, index) for shape in shapes):
                    continue
                if not owner and fn.name in drivers and name in forwarded:
                    continue
                if owner in workloads and fn.name == "__init__" and name in calls.dict_keys:
                    continue
                where = f"{owner}.{fn.name}" if owner else fn.name
                uncalled.append(f"{rel}:{fn.lineno}: {where}({name})")
    return uncalled


def test_defaulted_parameters_have_a_caller():
    sources = {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text()
        for base in CALLER_DIRS
        for path in sorted((REPO_ROOT / base).rglob("*.py"))
    }
    uncalled = _uncalled_defaults(sources)
    assert not uncalled, (
        "defaulted parameters no call passes (make each a constant where "
        "it is read):\n" + "\n".join(uncalled)
    )


def test_caller_sweep_counts_every_way_to_pass():
    sources = {
        "src/repro/__main__.py": (
            "def experiment_kwargs(name, args):\n"
            "    values = dict(quick=not args.full, seed=args.seed)\n"
        ),
        "src/repro/analysis/registry.py": "EXPERIMENTS = {'fig': fig}\n",
        "src/repro/analysis/figs.py": (
            "def fig(*, quick=True, seed=7, sizes=None): ...\n"
            "def helper(*, quick=True): ...\n"
        ),
        "src/repro/calls.py": (
            "def by_keyword(a, b=1): ...\n"
            "def by_position(a, b=1, c=2): ...\n"
            "def by_partial(a, b=1): ...\n"
            "def by_splat(a, *, b=1): ...\n"
            "def never(a, b=1, *, c=2): ...\n"
            "class Base:\n"
            "    def __init__(self, x=1, y=2, z=3): ...\n"
            "    def method(self, w=4): ...\n"
            "class Leaf(Base):\n"
            "    pass\n"
            "class Child(Base):\n"
            "    def __init__(self):\n"
            "        super().__init__(y=5)\n"
        ),
        "src/repro/workloads.py": (
            "class QueryWorkload:\n"
            "    def __init__(self, system, *, num_queries=1): ...\n"
            "class Scan(QueryWorkload):\n"
            "    def __init__(self, system, *, size=1, ratio=0.5, depth=2):\n"
            "        super().__init__(system, num_queries=size)\n"
            "class Other:\n"
            "    def __init__(self, size=1): ...\n"
        ),
        "tests/test_calls.py": (
            "by_keyword(0, b=2)\n"
            "obj.by_position(0, 2)\n"
            "functools.partial(by_partial, 0, 3)\n"
            "by_splat(0, **options)\n"
            "never(0, *rest)\n"
            "Leaf(6)\n"
            "Base().method()\n"
            "PARAMS = {'scan': (dict(size=3), {'ratio': 0.1})}\n"
        ),
    }
    uncalled = [line.split(": ", 1)[1] for line in _uncalled_defaults(sources)]
    # Files in path order, functions in source order.  A positional call
    # passes only as many parameters as it has arguments, a star splat none;
    # CLI names reach registered drivers only, dict keys workloads only.
    assert uncalled == [
        "fig(sizes)",
        "helper(quick)",
        "by_position(c)",
        "never(b)",
        "never(c)",
        "Base.__init__(z)",
        "Base.method(w)",
        "Scan.__init__(depth)",
        "Other.__init__(size)",
    ]


CORE_DIR = REPO_ROOT / "src" / "repro" / "core"


def _micro_op_kinds(tree: ast.AST) -> List[Tuple[int, str]]:
    """``(line, name)`` of every module-level ``K_*`` assignment."""
    return [
        (node.lineno, target.id)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("K_")
    ]


def _kinds_issued(tree: ast.AST) -> set:
    """Names that lead a tuple some ``return`` statement returns."""
    return {
        node.value.elts[0].id
        for node in ast.walk(tree)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Tuple)
        and node.value.elts
        and isinstance(node.value.elts[0], ast.Name)
    }


def _unissued_kinds(kinds_source: str, program_sources: List[str]) -> List[str]:
    issued = set()
    for text in program_sources:
        issued |= _kinds_issued(ast.parse(text))
    return [
        f"{lineno}: {name}"
        for lineno, name in _micro_op_kinds(ast.parse(kinds_source))
        if name not in issued
    ]


def test_every_micro_op_kind_is_issued():
    unissued = _unissued_kinds(
        (CORE_DIR / "cfa.py").read_text(),
        [path.read_text() for path in sorted(CORE_DIR.rglob("*.py"))],
    )
    assert not unissued, (
        "micro-op kinds no program under src/repro/core returns (delete "
        "each and its driver branch):\n"
        + "\n".join(f"src/repro/core/cfa.py:{line}" for line in unissued)
    )


def test_micro_op_sweep_counts_only_returned_tuple_heads():
    kinds = (
        "K_READ = 0\n"
        "K_DONE = 1\n"
        "K_WAIT = 2\n"
        "K_SPARE = 3\n"
        "OTHER = 4\n"
    )
    program = (
        "class Walk:\n"
        "    def step(self, ctx):\n"
        "        if ctx.state:\n"
        "            return (K_DONE, None)\n"
        "        pending = (K_WAIT,)\n"
        "        return (ctx.addr, K_SPARE)\n"
        "def fetch(ctx):\n"
        "    return K_READ, ctx.addr, 64, 0\n"
    )
    # A kind only assigned, or returned anywhere but the tuple's head,
    # is not issued.
    assert _unissued_kinds(kinds, [program]) == ["3: K_WAIT", "4: K_SPARE"]


#: Where a workload may be built: the one build function, and
#: ``make_workload`` itself, the primitive it calls.
BUILD_SITES = {
    "src/repro/analysis/snapshot.py": "build",
    "src/repro/workloads/__init__.py": "make_workload",
}

#: Other builders, ``path: qualified function`` -> why it builds itself.
BUILD_ALLOWLIST = {
    "src/repro/serve/cluster/cluster.py: SimulatedCluster.__init__": (
        "keeps one image per fleet; its key is the drill seed, so a"
        " process-wide image per seed would grow without bound over a"
        " 200-seed soak"
    ),
}


def _workload_builds(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(qualified function, line)`` of every ``make_workload(...)`` call
    and every ``.build()`` call without arguments."""

    def visit(node: ast.AST, scope: Tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                if _call_name(func) == "make_workload" or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "build"
                    and not child.args
                    and not child.keywords
                ):
                    yield ".".join(scope) or "<module>", child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def _stray_builds(sources: Dict[str, str]) -> List[str]:
    """``path:line: function`` of each build outside the allowed sites."""
    stray = []
    for rel, text in sorted(sources.items()):
        for where, lineno in _workload_builds(ast.parse(text)):
            if BUILD_SITES.get(rel) == where or f"{rel}: {where}" in BUILD_ALLOWLIST:
                continue
            stray.append(f"{rel}:{lineno}: {where}")
    return stray


def test_workloads_build_only_through_the_snapshot_builder():
    sources = {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    }
    stray = _stray_builds(sources)
    assert not stray, (
        "workload builds outside repro.analysis.snapshot.build (call it"
        " instead):\n" + "\n".join(stray)
    )
    builders = {
        f"{rel}: {where}"
        for rel, text in sources.items()
        for where, _ in _workload_builds(ast.parse(text))
    }
    assert set(BUILD_ALLOWLIST) <= builders, "stale BUILD_ALLOWLIST entries"


def test_build_sweep_flags_each_call_form():
    source = (
        "from ..workloads import make_workload\n"
        "import repro.workloads as workloads\n"
        "def fresh(system):\n"
        "    return make_workload('dpdk', system)\n"
        "class Bench:\n"
        "    def setup(self, wl, tree):\n"
        "        workloads.make_workload('jvm', self.system)\n"
        "        wl.build()\n"
        "        tree.build(4)\n"
        "        return snapshot.build('dpdk', {}, 'cha-tlb')\n"
        "def build(system):\n"
        "    return make_workload('dpdk', system)\n"
    )
    assert _stray_builds({"src/repro/x.py": source}) == [
        "src/repro/x.py:4: fresh",
        "src/repro/x.py:7: Bench.setup",
        "src/repro/x.py:8: Bench.setup",
        "src/repro/x.py:12: build",
    ]
    assert _stray_builds({"src/repro/analysis/snapshot.py": source})[-1] == (
        "src/repro/analysis/snapshot.py:8: Bench.setup"
    )
