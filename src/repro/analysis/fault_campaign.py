"""Seeded fault-injection campaign across workloads x integration schemes.

The campaign's invariant — the robustness contract this reproduction makes
about the QEI stack — is that **no hostile input escapes the architecture**:

* every injected fault either aborts with a documented
  :class:`~repro.core.abort.AbortCode` or is provably masked (the query
  completes with the un-faulted oracle's answer);
* every aborted query's software fallback returns the oracle answer within
  the retry budget;
* no Python exception escapes and no query hangs (the CFA watchdog bounds
  every walk);
* the same seed reproduces the identical per-outcome counter vector.

Run it from the shell::

    python -m repro fault-campaign --seed 7 --faults 1000
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import IntegrationScheme, small_config
from ..core.abort import AbortCode
from ..core.accelerator import QueryStatus
from ..core.cfa import OP_UPDATE
from ..core.header import VERSION_OFFSET
from ..core.isa import read_result
from ..core.programs import HashOfListsCfa
from ..core.programs_ext import BPlusTreeCfa
from ..errors import ReproError
from ..faults import FaultInjector, FaultKind
from ..faults.injector import EXPECTED_CODES, MACHINE_KINDS, MASKABLE_KINDS, WRITE_KINDS
from ..system import System
from ..workloads import make_workload
from .experiments import SCHEME_ORDER
from .report import ExperimentResult

#: Workload sizes for the campaign: small enough that a fault resolves in
#: milliseconds, big enough that structures span several pages and levels.
CAMPAIGN_WORKLOADS: Dict[str, dict] = {
    "dpdk": dict(num_flows=192, num_buckets=128, num_queries=24, zipf=False),
    "jvm": dict(num_objects=192, num_queries=24),
    "rocksdb": dict(num_items=128, num_queries=24),
    "snort": dict(num_keywords=48, payload_bytes=96, num_queries=6),
    "flann": dict(num_tables=3, num_items=96, num_points=6, num_buckets=64),
}

#: CEE step budget for campaign systems: far above any legitimate campaign
#: walk (the longest, snort's 96B Aho-Corasick scan, needs ~1k steps) but
#: small enough that an injected pointer cycle aborts in milliseconds.
CAMPAIGN_WATCHDOG_STEPS = 10_000

#: Non-blocking queries in flight per batch fault (flush, slice, swap, storm).
FLUSH_BATCH = 4

#: Cycles after the abort at which the "OS" repairs an unmapped page, so
#: the fallback's first retry genuinely fails and the backoff is exercised.
PAGE_REPAIR_DELAY = 100


class CampaignViolation(ReproError):
    """The campaign's robustness invariant was broken."""


@dataclass
class _Target:
    """One (workload, scheme) system under test, built lazily."""

    system: System
    workload: object
    injector: FaultInjector
    nb_result_base: int
    #: HashMutator, built on first write-path fault (mutation-capable
    #: workloads only).
    mutator: Optional[object] = None
    #: Online resizes committed against this target so far.  Each
    #: RESIZE_STALL fault ends in a committed doubling; unbounded doublings
    #: would dilute the fixed entry population until the injector's bounded
    #: discovery scans stop finding occupied slots, so the handler masks
    #: once the table has grown enough.
    resizes: int = 0


def _build_target(
    workload_name: str, scheme: str, rng: random.Random
) -> _Target:
    cfg = small_config(2)
    cfg = cfg.replace(
        qei=dataclasses.replace(cfg.qei, watchdog_steps=CAMPAIGN_WATCHDOG_STEPS)
    )
    system = System(cfg, scheme)
    workload = make_workload(workload_name, system, **CAMPAIGN_WORKLOADS[workload_name])
    injector = FaultInjector(system.space, rng=rng)
    nb_result_base = system.mem.alloc(16 * FLUSH_BATCH, align=64)
    return _Target(system, workload, injector, nb_result_base)


# --------------------------------------------------------------------- #
# Per-fault protocol: each handler returns its outcome label or raises
# CampaignViolation.
# --------------------------------------------------------------------- #


def _settle(target: _Target, kind: FaultKind, qidx: int, handle) -> bool:
    """Settle one query after a ``kind`` fault; True when it aborted.

    An abort must carry one of the kind's expected codes, in the handle and
    in a non-blocking query's result record, and its software fallback must
    return the oracle.  A completion must return the oracle.
    """
    system, wl = target.system, target.workload
    oracle = wl.expected[qidx]
    if not handle.done:
        # Completed but its completion event posts later, or still in the
        # submit network (the fault missed it): either way, run it out.
        system.accelerator.wait_for(handle)
    if handle.status not in (QueryStatus.ABORTED, QueryStatus.FAULT):
        if handle.value != oracle:
            raise CampaignViolation(
                f"completed query returned {handle.value!r}, oracle {oracle!r}"
            )
        return False
    codes = EXPECTED_CODES[kind]
    if handle.abort_code not in codes:
        raise CampaignViolation(
            f"query aborted with {handle.abort_code.name}, expected one of "
            f"{[c.name for c in codes]}"
        )
    if handle.request.result_addr:
        # A query aborted while still queued for a QST entry leaves its
        # record pending (code NONE); any code written must be expected.
        _, _, recorded = read_result(system.space, handle.request.result_addr)
        if recorded is not AbortCode.NONE and recorded not in codes:
            raise CampaignViolation(f"result record holds {recorded.name}")
    outcome = system.fallback.run_software(
        lambda: wl.software_lookup(qidx), abort_code=handle.abort_code
    )
    if not outcome.resolved or outcome.value != oracle:
        raise CampaignViolation(
            f"fallback returned {outcome.value!r}, oracle {oracle!r}"
        )
    return True


def _memory_fault(target: _Target, kind: FaultKind, rng: random.Random) -> str:
    """Inject one memory-state fault and run one query through the fallback
    executor, healing as the OS-repair hook."""
    system, wl, injector = target.system, target.workload, target.injector
    qidx = rng.randrange(len(wl.queries))
    oracle = wl.expected[qidx]
    fault = injector.inject(kind, wl.header_addr_for(qidx))
    before_retry = injector.heal
    if kind is FaultKind.PAGE_UNMAP:
        # Leave the damage in place briefly: the first software retry hits
        # the still-missing page and the exponential backoff does real work.
        # The repair event checks the injector's epoch so that, if this
        # fault resolves before the event fires, it cannot heal a later one.
        epoch = injector.epoch

        def repair() -> None:
            if injector.epoch == epoch:
                injector.heal()

        before_retry = lambda: system.engine.schedule(  # noqa: E731
            PAGE_REPAIR_DELAY, repair
        )
    try:
        outcome = system.fallback.execute(
            wl.request(qidx), lambda: wl.software_lookup(qidx), before_retry=before_retry
        )
    finally:
        if injector.armed:
            injector.heal()

    if outcome.accelerated:
        if kind not in MASKABLE_KINDS:
            raise CampaignViolation(
                f"header fault must abort, but the query completed with {outcome.value!r}"
            )
        if outcome.value == oracle:
            return "masked"
        if kind is not FaultKind.KEY_FLIP:
            raise CampaignViolation(
                f"silent wrong answer {outcome.value!r} (oracle {oracle!r})"
            )
        # Silent data corruption: the only kind allowed to complete with a
        # wrong answer.  The oracle cross-check catches it and the healed
        # software path must agree with the oracle.
        if wl.software_lookup(qidx) != oracle:
            raise CampaignViolation("healed software result disagrees with oracle")
        return "mismatch-detected"
    code = outcome.abort_code
    if code not in fault.expected:
        raise CampaignViolation(
            f"aborted with {code.name}, expected one of {[c.name for c in fault.expected]}"
        )
    if not outcome.resolved or outcome.value != oracle:
        raise CampaignViolation(
            f"fallback returned {outcome.value!r} (resolved {outcome.resolved}), "
            f"oracle {oracle!r}"
        )
    return f"abort.{code.name.lower()}"


# Disturb steps of the batch kinds: each runs with FLUSH_BATCH non-blocking
# queries in flight, before they settle; code after the ``yield`` runs once
# every query has settled.


@contextmanager
def _interrupt_flush(target: _Target, kind: FaultKind, rng: random.Random):
    # Let an arbitrary amount of progress happen: depending on the scheme's
    # submit latency the queries are queued, in the QST mid-walk, or done.
    engine = target.system.engine
    engine.advance(rng.randrange(1, 400))
    finish = target.system.accelerator.flush()
    engine.run(until=max(finish, engine.now))
    yield


@contextmanager
def _kill_slice(target: _Target, kind: FaultKind, rng: random.Random):
    system, wl = target.system, target.workload
    system.engine.advance(rng.randrange(1, 400))
    homes = system.integration.accelerator_homes()
    victim = homes[rng.randrange(len(homes))]
    system.fail_slice(victim)
    flap = kind is FaultKind.SLICE_FLAP
    if flap:
        # Fail/recover inside the same window: queries the kill caught
        # still abort, but routing snaps straight back to the full set.
        system.recover_slice(victim)
    try:
        yield
    finally:
        if not flap:
            system.recover_slice(victim)
    # Recovery must restore routing: a blocking probe query on the healed
    # machine has to complete against the oracle.
    probe = rng.randrange(len(wl.queries))
    handle = system.accelerator.submit(wl.request(probe), system.engine.now)
    system.accelerator.wait_for(handle)
    if handle.status is QueryStatus.ABORTED or handle.value != wl.expected[probe]:
        raise CampaignViolation("post-recovery probe did not match the oracle")


@contextmanager
def _swap_firmware(target: _Target, kind: FaultKind, rng: random.Random):
    # The swap quiesces: in-flight queries drain, then the table commits.
    system = target.system
    system.engine.advance(rng.randrange(1, 400))
    ticket = system.update_firmware([BPlusTreeCfa(), HashOfListsCfa()])
    system.engine.run()
    if not ticket.done:
        raise CampaignViolation("ticket never committed after drain")
    yield


@contextmanager
def _version_storm(target: _Target, kind: FaultKind, rng: random.Random):
    # Reads racing writer commits either thread a gap between bumps or
    # abort; even -> even, each bump is a whole writer win (lock + commit +
    # release collapsed), the worst case for reader re-validation.
    system = target.system
    lock_addr = target.mutator.header_addr + VERSION_OFFSET
    for _ in range(4):
        system.engine.advance(rng.randrange(20, 160))
        system.space.write_u64(lock_addr, system.space.read_u64(lock_addr) + 2)
    yield


_DISTURB = {
    FaultKind.INTERRUPT_FLUSH: _interrupt_flush,
    FaultKind.SLICE_FAIL: _kill_slice,
    FaultKind.SLICE_FLAP: _kill_slice,
    FaultKind.FIRMWARE_SWAP: _swap_firmware,
    FaultKind.VERSION_STORM: _version_storm,
}


def _batch_fault(target: _Target, kind: FaultKind, rng: random.Random) -> str:
    """Disturb the machine with FLUSH_BATCH non-blocking queries in flight,
    then settle each one against the kind's expected codes."""
    system, wl = target.system, target.workload
    if kind in WRITE_KINDS:
        _ensure_mutator(target)  # armed before the batch is in flight
    indices = [rng.randrange(len(wl.queries)) for _ in range(FLUSH_BATCH)]
    handles = []
    for j, qidx in enumerate(indices):
        result_addr = target.nb_result_base + 16 * j
        system.space.write_u64(result_addr, 0)  # RESULT_PENDING
        system.space.write_u64(result_addr + 8, 0)
        handles.append(system.accelerator.submit(
            wl.request(qidx, blocking=False, result_addr=result_addr), system.engine.now
        ))
    with _DISTURB[kind](target, kind, rng):
        aborted = sum(_settle(target, kind, q, h) for q, h in zip(indices, handles))
    codes = EXPECTED_CODES[kind]
    if not codes:
        return kind.value  # nothing may abort (the swap drains instead)
    return f"abort.{codes[0].name.lower()}" if aborted else "masked"


def _ensure_mutator(target: _Target):
    """Lazily arm the write path on a mutation-capable target."""
    if target.mutator is None:
        target.system.enable_mutations()
        target.mutator = target.workload.make_mutator()
    return target.mutator


def _present_key(target: _Target, rng: random.Random):
    """A (key, stored value) pair the structure is known to hold."""
    wl = target.workload
    present = [i for i in range(len(wl.queries)) if wl.expected[i] is not None]
    if not present:
        return None, None
    qidx = present[rng.randrange(len(present))]
    return wl.key_for(qidx), wl.expected[qidx]


def _refused_write(target: _Target, kind: FaultKind, key: bytes, value: int) -> None:
    """An UPDATE the write CFA must refuse with one of the kind's codes;
    the software fallback then applies it."""
    system, mutator = target.system, target.mutator
    executor = system.mutations()
    handle = executor.submit(mutator, OP_UPDATE, key, value)
    system.accelerator.wait_for(handle)
    if handle.status is not QueryStatus.FAULT:
        raise CampaignViolation("the write CFA completed instead of faulting")
    if handle.abort_code not in EXPECTED_CODES[kind]:
        raise CampaignViolation(f"write faulted with {handle.abort_code.name}")
    result = executor.fallback(mutator, OP_UPDATE, key, value, code=handle.abort_code)
    if result is None or mutator.current(key) != value:
        raise CampaignViolation("the software fallback lost the update")


def _write_abort(target: _Target, kind: FaultKind, rng: random.Random) -> str:
    """An orphaned seqlock (dead writer, no QST intent) must abort the
    write CFA; the software fallback reclaims the lock and applies."""
    system = target.system
    mutator = _ensure_mutator(target)
    key, before = _present_key(target, rng)
    if key is None:
        return "masked"
    lock_addr = mutator.header_addr + VERSION_OFFSET
    # An odd version with no live QST write intent is exactly what a writer
    # crashed before its single commit store leaves behind.
    system.space.write_u64(lock_addr, system.space.read_u64(lock_addr) + 1)
    try:
        _refused_write(target, kind, key, 900_000_000 + rng.randrange(1_000_000))
        if system.space.read_u64(lock_addr) & 1:
            raise CampaignViolation("fallback left the seqlock held")
    finally:
        # Whatever happened, put the key back so later faults (and their
        # read oracle) see the build-time structure.
        if mutator.current(key) != before:
            mutator.software_apply(OP_UPDATE, key, before)
        stuck = system.space.read_u64(lock_addr)
        if stuck & 1:
            system.space.write_u64(lock_addr, stuck + 1)
    return "write.orphan_reclaimed"


def _resize_stall(target: _Target, kind: FaultKind, rng: random.Random) -> str:
    """Stall an online resize mid-migration: reads keep resolving through
    the watermark routing, writes abort to software, and the migration then
    finishes and commits cleanly."""
    system, wl = target.system, target.workload
    if target.resizes >= 2:
        # The table already doubled twice under this campaign; further
        # doublings only dilute the fixed entry population (breaking the
        # injector's bounded occupied-slot discovery for later faults)
        # without adding coverage.
        return "masked"
    mutator = _ensure_mutator(target)
    resizer = system.start_resize(wl.mutable_structure(), chunk_buckets=8)
    resizer.start()
    resizer.step()  # one chunk, then the migration stalls

    # A read during the stall: old-or-new routing, never a wrong value.
    qidx = rng.randrange(len(wl.queries))
    _settle(target, kind, qidx, system.accelerator.submit(wl.request(qidx), system.engine.now))
    # A write during the stall: the CFA refuses (routing is ambiguous for
    # an accelerated store) and software applies through the watermark.
    key, before = _present_key(target, rng)
    try:
        if key is not None:
            _refused_write(target, kind, key, 910_000_000 + rng.randrange(1_000_000))
    finally:
        # Un-stall: drain the migration, commit through the quiesce, restore.
        while not resizer.finished:
            resizer.step()
        resizer.commit()
        system.engine.run()
        if key is not None and mutator.current(key) != before:
            mutator.software_apply(OP_UPDATE, key, before)
    if not resizer.committed:
        raise CampaignViolation("migration never committed after the stall")
    probe = rng.randrange(len(wl.queries))
    if wl.software_lookup(probe) != wl.expected[probe]:
        raise CampaignViolation("post-commit lookup disagrees with the oracle")
    target.resizes += 1
    return "write.resize_stall"


#: Fault kind -> handler; every other kind is a memory fault.
_HANDLERS = {
    **dict.fromkeys(_DISTURB, _batch_fault),
    FaultKind.WRITE_ABORT: _write_abort,
    FaultKind.RESIZE_STALL: _resize_stall,
}


# --------------------------------------------------------------------- #
# Campaign driver
# --------------------------------------------------------------------- #


def _run_campaign_pass(
    seed: int,
    faults: int,
    workload_names: Sequence[str],
    schemes: Sequence[str],
) -> Tuple[Counter, List[str], float]:
    """One full pass; returns (outcome counts, violations, fallback frac)."""
    rng = random.Random(seed)
    targets: Dict[Tuple[str, str], _Target] = {}
    counts: Counter = Counter()
    violations: List[str] = []
    combos = [(w, s) for w in workload_names for s in schemes]

    for _ in range(faults):
        combo = combos[rng.randrange(len(combos))]
        if combo not in targets:
            targets[combo] = _build_target(combo[0], combo[1], rng)
        target = targets[combo]
        kinds = target.injector.kinds_for(target.workload.header_addr_for(0)) + MACHINE_KINDS
        if target.workload.supports_mutation():
            kinds += WRITE_KINDS
        kind = kinds[rng.randrange(len(kinds))]
        where = f"{combo[0]}/{combo[1]}: {kind.value}"
        try:
            counts[_HANDLERS.get(kind, _memory_fault)(target, kind, rng)] += 1
        except CampaignViolation as exc:
            violations.append(f"{where}: {exc}")
        except Exception as exc:  # noqa: BLE001 - escaping exceptions ARE the bug
            violations.append(f"{where}: escaped {type(exc).__name__}: {exc}")

    fractions = [t.system.fallback.fallback_fraction for t in targets.values()]
    fallback_fraction = sum(fractions) / len(fractions) if fractions else 0.0
    return counts, violations, fallback_fraction


def fault_campaign(
    *,
    seed: int = 7,
    faults: int = 1000,
    repeats: int = 2,
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Seeded fault campaign: every fault -> abort code + correct fallback."""
    workload_names = list(workloads or CAMPAIGN_WORKLOADS)
    for name in workload_names:
        if name not in CAMPAIGN_WORKLOADS:
            raise CampaignViolation(f"no campaign parameters for workload {name!r}")
    scheme_names = [IntegrationScheme.parse(s).value for s in (schemes or SCHEME_ORDER)]

    vectors: List[Counter] = []
    all_violations: List[str] = []
    fallback_fraction = 0.0
    for _ in range(max(1, repeats)):
        counts, violations, fallback_fraction = _run_campaign_pass(
            seed, faults, workload_names, scheme_names
        )
        vectors.append(counts)
        all_violations.extend(violations)

    if all_violations:
        preview = "; ".join(all_violations[:5])
        raise CampaignViolation(
            f"{len(all_violations)} invariant violations, e.g.: {preview}"
        )
    deterministic = all(v == vectors[0] for v in vectors[1:])
    if not deterministic:
        raise CampaignViolation(
            f"seed {seed} did not reproduce the outcome vector: {vectors}"
        )

    result = ExperimentResult(
        experiment="fault-campaign",
        title=(
            f"{faults} injected faults x {len(workload_names)} workloads "
            f"x {len(scheme_names)} schemes (seed {seed})"
        ),
        columns=["outcome", "count", "share"],
    )
    total = sum(vectors[0].values()) or 1
    for outcome in sorted(vectors[0]):
        count = vectors[0][outcome]
        result.add_row(outcome=outcome, count=count, share=count / total)
    result.notes.append(
        "invariant held: every fault -> documented abort code + oracle-"
        "matching software fallback; no escaped exceptions; no hangs"
    )
    result.notes.append(f"mean software-fallback fraction {fallback_fraction:.3f}")
    if repeats > 1:
        result.notes.append(
            f"outcome vector reproduced identically across {repeats} runs"
        )
    return result
