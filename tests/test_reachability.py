"""Self-tests of the reachability probe (``tests/reachability.py``).

The probe itself drives ``repro all`` under the profiler (a CI job, about
4 minutes).  These tests run its walk, profiler hook and check on a tiny
synthetic package instead, plant each kind of failure the check must
report, and check statically that every allowlist entry names a function
that exists in ``src/``.
"""

import importlib.util
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
    spec = importlib.util.spec_from_file_location("planted_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran = probe.collect(lambda: (module.used(), module.stale(), module.Box().size))
    return probe.functions(root, "planted"), ran


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
