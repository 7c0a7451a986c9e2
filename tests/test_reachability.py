"""Self-tests of the reachability probe and ledger (``tests/reachability.py``).

The probe itself drives ``repro all`` under the profiler (a CI job, about
5 minutes).  These tests run its walk, profiler hook and check on a tiny
synthetic package instead, plant each kind of failure the check must
report, and check statically that every allowlist entry names a function
that exists in ``src/``.  The ledger's digests, per-package call counts
and comparison run on synthetic data the same way.
"""

import copy
import hashlib
import importlib.util
import json
import textwrap

import pytest

from . import reachability as probe

MODULE = textwrap.dedent(
    """
    def used():
        return helper()

    def helper():
        def nested():  # counted with helper, not on its own
            return 1
        return nested()

    def planted():
        return 2

    def stale():
        return 3

    class Box:
        @property
        def size(self):
            return 4

        def unused(self):
            return 5
    """
)

#: The allowlist the synthetic run passes with.
CLEAN = {"planted.mod:planted": "oracle", "planted.mod:Box.unused": "api"}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("src")
    package = root / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    path = package / "mod.py"
    path.write_text(MODULE)
    module = _load(path)
    ran = probe.reached(probe.collect(lambda: (module.used(), module.stale(), module.Box().size)))
    return probe.functions(root, "planted"), ran


def _load(path):
    spec = importlib.util.spec_from_file_location(f"planted_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_walk_counts_module_and_class_functions_only(run):
    defs, ran = run
    assert set(defs) == {
        "planted.mod:used",
        "planted.mod:helper",
        "planted.mod:planted",
        "planted.mod:stale",
        "planted.mod:Box.size",
        "planted.mod:Box.unused",
    }
    # The decorated property ran: its code object starts at the decorator.
    assert set(probe.unreached(defs, ran)) == set(CLEAN)


def test_clean_allowlist_passes(run):
    assert probe.check(*run, CLEAN) == []


@pytest.mark.parametrize(
    "allowlist, expected",
    [
        ({"planted.mod:Box.unused": "api"}, "planted.mod:planted: never ran"),
        (dict(CLEAN, **{"planted.mod:stale": "oracle"}), "planted.mod:stale: allowlisted"),
        (dict(CLEAN, **{"planted.mod:gone": "paper"}), "planted.mod:gone: allowlisted but no"),
        (dict(CLEAN, **{"planted.mod:planted": "legacy"}), "reason 'legacy' is not one of"),
    ],
    ids=["unreached", "stale", "vanished", "bad-reason"],
)
def test_check_flags_each_planted_failure(run, allowlist, expected):
    errors = probe.check(*run, allowlist)
    assert len(errors) == 1 and expected in errors[0], errors


def test_every_allowlist_entry_resolves_in_src():
    defs = probe.functions(probe.SRC_ROOT, "repro")
    assert sorted(set(probe.ALLOWLIST) - set(defs)) == []
    assert set(probe.ALLOWLIST.values()) <= set(probe.REASONS)


# --------------------------------------------------------------------- #
# The ledger
# --------------------------------------------------------------------- #

COUNTED = textwrap.dedent(
    """
    def twice(xs):
        return [double(x) for x in xs] + list(map(lambda x: x, xs))

    def double(x):
        return 2 * x
    """
)


def test_package_calls_skip_anonymous_code_and_foreign_files(tmp_path):
    package = tmp_path / "planted"
    (package / "sub").mkdir(parents=True)
    (package / "counted.py").write_text(COUNTED)
    (package / "sub" / "deep.py").write_text("def leaf():\n    return 1\n")
    counted = _load(package / "counted.py")
    deep = _load(package / "sub" / "deep.py")

    def outside():  # this file is not under the package: not counted
        return counted.twice([1, 2, 3]), deep.leaf()

    calls = probe.collect(outside)
    # twice once and double three times; the comprehension and the three
    # lambda calls are left out, and a subpackage counts as its top level.
    assert probe.package_calls(calls, package) == {"counted": 4, "sub": 1}


def test_digests_hash_each_object_as_printed_and_the_soak():
    results = [{"experiment": "tab1", "rows": [1]}, {"experiment": "fig7", "rows": []}]
    printed = [json.dumps(result, indent=2) + "\n" for result in results]
    soak = "seed 1: ok\nseed 2: ok\n"
    found = probe.digests("".join(printed), soak)
    sha = {text: hashlib.sha256(text.encode()).hexdigest() for text in printed + [soak]}
    assert found == {
        "fig7": sha[printed[1]],
        "recovery-chaos --seeds 1-2": sha[soak],
        "tab1": sha[printed[0]],
    }


PINNED = {
    "digests": {"fig7": "aa", "recovery-chaos --seeds 1-2": "bb"},
    "calls": {"core": 1000, "mem": 500},
}


def test_identical_ledger_passes():
    assert probe.compare(PINNED, copy.deepcopy(PINNED)) == []


@pytest.mark.parametrize(
    "part, key, value, expected",
    [
        ("digests", "fig7", "cc", "ledger digests[fig7]: aa -> cc"),
        ("calls", "mem", 750, "ledger calls[mem]: 500 -> 750 (+50.0%)"),
        ("calls", "core", None, "ledger calls[core]: 1,000 -> (absent)"),
        ("calls", "noc", 7, "ledger calls[noc]: (absent) -> 7"),
    ],
    ids=["moved-digest", "moved-count", "missing", "extra"],
)
def test_compare_reports_each_moved_entry_once(part, key, value, expected):
    measured = copy.deepcopy(PINNED)
    if value is None:
        del measured[part][key]
    else:
        measured[part][key] = value
    assert probe.compare(PINNED, measured) == [expected]
