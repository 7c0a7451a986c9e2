"""Golden-stats guard: the hot-path optimizations must not change timing.

``golden_stats.json`` was captured from the pre-optimization seed tree.  The
tests replay the same workload/scheme pairs and assert simulated cycle
counts, instruction counts and the *full* stats snapshot (hashed) are
bit-identical — so any micro-optimization that accidentally changes
simulated semantics (an extra TLB fill, a skipped counter, a reordered
event) fails loudly.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden_stats.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")

#: (workload, scheme) pairs covering a sliced scheme and the core scheme.
PAIRS = [
    ("dpdk", "cha-tlb"),
    ("dpdk", "core-integrated"),
    ("rocksdb", "cha-tlb"),
    ("rocksdb", "core-integrated"),
    ("flann", "cha-tlb"),
    ("flann", "core-integrated"),
]

SERVE_CASES = [
    ("cha-tlb", 2, 600, 7),
    ("core-integrated", 2, 600, 7),
]

#: (fusion, specialize) mode grid over the one CEE driver.  ``fusion off``
#: makes the fusion guard fail on every transition (the test patches the
#: engine's run horizon below every start cycle), so each step round-trips
#: the ready heap and the drain's sentinel event instead of running inline.
#: ``specialize off`` loads the interpreted oracles of ``cfa_reference.py``
#: in place of every built-in lookup and mutation program, run through the
#: same driver — which checks the firmware's timing against the oracles.
#: Both layers must be independently and jointly invisible to every
#: simulated number.
MODES = [
    ("on", "on"),
    ("on", "off"),
    ("off", "on"),
    ("off", "off"),
]

#: The epoch-memoized memory fast path (mem/fastpath.py) on, or the
#: hierarchy's reference walk; crossed with the full {fusion, specialize}
#: grid below.
FASTMEM_MODES = ["on", "off"]

#: Subset of PAIRS replayed across the full mode grid (one sliced scheme,
#: one core scheme) to bound runtime; the default-mode tests above cover
#: every pair.
MODE_GRID_PAIRS = [
    ("dpdk", "cha-tlb"),
    ("rocksdb", "core-integrated"),
]


def _set_modes(
    monkeypatch, fusion: str, specialize: str, fastmem: str = "on"
) -> None:
    # The accelerator reads the run horizon on every fusion decision, every
    # System registers its firmware and builds its own hierarchy, so
    # patching all three before the measurement builds its systems is
    # sufficient.
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.sim.engine import Engine

    if fusion == "off":
        # A horizon below every cycle: no transition is ever provably the
        # next thing to happen, so none fuses.
        monkeypatch.setattr(Engine, "run_horizon", property(lambda self: -1))
    if specialize == "off":
        from . import cfa_reference

        cfa_reference.load_oracles(monkeypatch)
    if fastmem == "off":
        monkeypatch.setitem(MemoryHierarchy.__init__.__kwdefaults__, "fastmem", False)


def _snapshot_hash(stats) -> str:
    payload = json.dumps(
        {k: v for k, v in sorted(stats.snapshot().items())}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _measure_pair(workload: str, scheme: str, mutations: bool = False) -> dict:
    from repro.analysis.experiments import _build
    from repro.workloads import run_baseline, run_qei

    sys_b, wl_b = _build(workload, scheme, quick=True)
    if mutations:
        # Loading the write-CFA subsystem (firmware mutation programs,
        # seqlock plumbing) must be invisible to a read-only run: same
        # cycles, same instructions, same full stats snapshot.
        sys_b.enable_mutations()
    baseline = run_baseline(sys_b, wl_b)
    sys_q, wl_q = _build(workload, scheme, quick=True)
    if mutations:
        sys_q.enable_mutations()
    qei = run_qei(sys_q, wl_q)
    return {
        "baseline_cycles": baseline.cycles,
        "baseline_instructions": baseline.instructions,
        "qei_cycles": qei.cycles,
        "qei_instructions": qei.instructions,
        "baseline_stats_sha256": _snapshot_hash(sys_b.stats),
        "qei_stats_sha256": _snapshot_hash(sys_q.stats),
    }


def _measure_serve(scheme: str, tenants: int, requests: int, seed: int) -> dict:
    from repro.serve import serve_experiment

    result = serve_experiment(
        schemes=[scheme], tenants=tenants, requests=requests, seed=seed
    )
    report = result.format().encode()
    return {"report_sha256": hashlib.sha256(report).hexdigest()}


def capture() -> dict:
    golden = {"pairs": {}, "serve": {}}
    for workload, scheme in PAIRS:
        golden["pairs"][f"{workload}/{scheme}"] = _measure_pair(workload, scheme)
    for scheme, tenants, requests, seed in SERVE_CASES:
        key = f"{scheme}/t{tenants}/r{requests}/s{seed}"
        golden["serve"][key] = _measure_serve(scheme, tenants, requests, seed)
    return golden


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.skip("golden_stats.json missing; run --capture first")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload,scheme", PAIRS)
def test_roi_pair_matches_golden(workload, scheme):
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme) == golden


@pytest.mark.parametrize("scheme,tenants,requests,seed", SERVE_CASES)
def test_serve_report_matches_golden(scheme, tenants, requests, seed):
    golden = _load_golden()["serve"][f"{scheme}/t{tenants}/r{requests}/s{seed}"]
    assert _measure_serve(scheme, tenants, requests, seed) == golden


@pytest.mark.parametrize("fastmem", FASTMEM_MODES)
@pytest.mark.parametrize("fusion,specialize", MODES)
@pytest.mark.parametrize("workload,scheme", MODE_GRID_PAIRS)
def test_roi_pair_matches_golden_in_all_modes(
    workload, scheme, fusion, specialize, fastmem, monkeypatch
):
    _set_modes(monkeypatch, fusion, specialize, fastmem)
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme) == golden


def test_chaos_report_identical_across_specialize_modes(monkeypatch):
    # The chaos run covers slice kills, recoveries and a live firmware
    # hot-swap (which forces a compiled-table rebuild via firmware.epoch);
    # its full report must be byte-identical whether the built-in programs
    # run as firmware or as their interpreted oracles.
    from repro.faults.chaos import run_chaos

    dumps = {}
    for specialize in ("off", "on"):
        with monkeypatch.context() as patch:
            _set_modes(patch, "on", specialize)
            dumps[specialize] = run_chaos(
                "cha-tlb", seed=7, requests=160, tenants=2
            ).dump()
    assert dumps["on"] == dumps["off"]


def test_recovery_report_identical_across_specialize_modes(monkeypatch):
    # Durability chaos (node crashes + commit-log recovery) under a mixed
    # read/write load: lookup and mutation CFAs run as firmware or as
    # their interpreted oracles, and the cluster report must match byte
    # for byte.
    from repro.faults.chaos import run_recovery_chaos

    dumps = {}
    for specialize in ("off", "on"):
        with monkeypatch.context() as patch:
            _set_modes(patch, "on", specialize)
            dumps[specialize] = run_recovery_chaos(
                "cha-tlb", seed=7, requests=120, nodes=4, tenants=2
            ).dump()
    assert dumps["on"] == dumps["off"]


@pytest.mark.parametrize("workload,scheme", PAIRS)
def test_roi_pair_unchanged_with_mutations_loaded(workload, scheme):
    # Same golden entries as the plain pairs: enabling the mutation
    # subsystem on a read-only run must be bit-invisible.
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme, mutations=True) == golden


if __name__ == "__main__":
    if "--capture" not in sys.argv:
        sys.exit("usage: python tests/test_golden_stats.py --capture")
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
