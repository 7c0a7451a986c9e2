"""Chaos-resilience tests: slice failure/failover, a poisoned tenant,
firmware hot-swap, and the chaos harness contract.

The infrastructure-fault layer must degrade to slower-but-correct service,
never wrong answers or hangs: a dead slice reroutes (or aborts with
``SLICE_DOWN`` and resolves through the software fallback), a poisoned
tenant's aborted queries resolve through the software fallback without
dragging the others' p99 down, and a firmware hot-swap drains in-flight
queries before committing atomically.
"""

from dataclasses import replace

import pytest

from repro.config import ServeConfig, small_config
from repro.core.abort import AbortCode
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.core.integration import SliceState
from repro.core.programs import HashOfListsCfa
from repro.core.programs_ext import BPlusTreeCfa
from repro.errors import ConfigurationError, FirmwareError, SegmentationFault
from repro.faults.chaos import (
    CHAOS,
    CLUSTER_CHAOS,
    MUTATION_CHAOS,
    RECOVERY_CHAOS,
    ChaosError,
    chaos_schedule,
    check_contract,
    run_chaos,
    run_cluster_chaos,
    run_mutation_chaos,
    run_scenario,
)
from repro.serve import (
    ClosedLoopGenerator,
    QueryServer,
    build_serving_system,
    run_serving,
)
from repro.serve.cluster.lb import LoadBalancer
from repro.serve.cluster.node import RESP_OK
from repro.system import System
from repro.workloads import make_workload


def make_system(scheme="cha-tlb", cores=2):
    system = System(small_config(cores), scheme)
    workload = make_workload(
        "dpdk", system, seed=7, num_flows=256, num_buckets=128, num_queries=32
    )
    system.warm_llc()
    return system, workload


def submit_nb(system, workload, indices):
    base = system.mem.alloc(16 * len(indices), align=64)
    handles = []
    for j, qidx in enumerate(indices):
        system.space.write_u64(base + 16 * j, 0)
        system.space.write_u64(base + 16 * j + 8, 0)
        handles.append(
            system.accelerator.submit(
                QueryRequest(
                    header_addr=workload.header_addr_for(qidx),
                    key_addr=workload._query_addrs[qidx],
                    blocking=False,
                    result_addr=base + 16 * j,
                ),
                system.engine.now,
            )
        )
    return handles


def settle(system, handles):
    for handle in handles:
        if not handle.done:
            system.accelerator.wait_for(handle)


# --------------------------------------------------------------------- #
# Slice health: failover, SLICE_DOWN aborts, recovery
# --------------------------------------------------------------------- #


def test_failed_slice_reroutes_to_survivors():
    system, wl = make_system("cha-tlb")
    integration = system.integration
    home = integration.home_node(0, wl.header_addr_for(0), wl._query_addrs[0])
    system.fail_slice(home)
    assert integration.home_state(home) is SliceState.FAILED
    rerouted = integration.home_node(
        0, wl.header_addr_for(0), wl._query_addrs[0]
    )
    assert rerouted != home
    assert rerouted in integration.routable_homes()
    # The rerouted query still completes with the oracle answer.
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=wl.header_addr_for(0), key_addr=wl._query_addrs[0]
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    assert handle.status is not QueryStatus.ABORTED
    assert handle.value == wl.expected[0]
    # Recovery restores the original routing.
    system.recover_slice(home)
    assert (
        integration.home_node(0, wl.header_addr_for(0), wl._query_addrs[0])
        == home
    )


def test_fail_slice_aborts_in_flight_with_slice_down():
    system, wl = make_system("cha-tlb")
    handles = submit_nb(system, wl, list(range(8)))
    system.engine.advance(5)  # still in the submit network
    victims = {h.home for h in handles}
    victim = sorted(victims)[0]
    system.fail_slice(victim)
    settle(system, handles)
    aborted = [h for h in handles if h.status is QueryStatus.ABORTED]
    for handle in aborted:
        assert handle.abort_code is AbortCode.SLICE_DOWN
    for handle in handles:
        if handle.status is not QueryStatus.ABORTED:
            qidx = handles.index(handle)
            assert handle.value == wl.expected[qidx]
    assert aborted, "at least the victim-bound queries must abort"
    # Every abort resolves through the software fallback.
    for handle in aborted:
        qidx = handles.index(handle)
        outcome = system.fallback.run_software(
            lambda qi=qidx: wl.software_lookup(qi),
            abort_code=AbortCode.SLICE_DOWN,
        )
        assert outcome.resolved
        assert outcome.value == wl.expected[qidx]


def test_single_home_scheme_aborts_while_down_then_recovers():
    system, wl = make_system("device-indirect")
    (home,) = system.integration.accelerator_homes()
    system.fail_slice(home)
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=wl.header_addr_for(1), key_addr=wl._query_addrs[1]
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    assert handle.status is QueryStatus.ABORTED
    assert handle.abort_code is AbortCode.SLICE_DOWN
    system.recover_slice(home)
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=wl.header_addr_for(1), key_addr=wl._query_addrs[1]
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    assert handle.value == wl.expected[1]


def test_fail_slice_rejects_unknown_home():
    system, _ = make_system("cha-tlb")
    with pytest.raises(ConfigurationError):
        system.fail_slice(10_000)


# --------------------------------------------------------------------- #
# Firmware hot-swap
# --------------------------------------------------------------------- #


def test_firmware_hot_swap_waits_for_drain_then_commits():
    system, wl = make_system("cha-tlb")
    handles = submit_nb(system, wl, list(range(8)))
    system.engine.advance(5)
    ticket = system.update_firmware([BPlusTreeCfa(), HashOfListsCfa()])
    assert not ticket.done, "swap must defer until in-flight queries drain"
    assert not system.firmware.supports(BPlusTreeCfa.TYPE_CODE)
    system.engine.run()
    assert ticket.done
    assert system.firmware.supports(BPlusTreeCfa.TYPE_CODE)
    assert system.firmware.supports(HashOfListsCfa.TYPE_CODE)
    settle(system, handles)
    for qidx, handle in enumerate(handles):
        assert handle.status is not QueryStatus.ABORTED
        assert handle.value == wl.expected[qidx]
    # Homes drained for the swap are healthy again.
    for home in system.integration.accelerator_homes():
        assert system.integration.home_state(home) is SliceState.HEALTHY


def test_firmware_swap_rolls_back_on_validation_error():
    system, _ = make_system("cha-tlb")
    with pytest.raises(FirmwareError):
        # Duplicate registration without replace: validation fails on the
        # staged copy; the live table and slice states are untouched.
        system.update_firmware(
            [BPlusTreeCfa(), BPlusTreeCfa()], replace=False
        )
    assert not system.firmware.supports(BPlusTreeCfa.TYPE_CODE)
    for home in system.integration.accelerator_homes():
        assert system.integration.home_state(home) is SliceState.HEALTHY


def test_idle_firmware_swap_commits_immediately():
    system, _ = make_system("device-indirect")
    ticket = system.update_firmware([BPlusTreeCfa()])
    assert ticket.done
    assert system.firmware.supports(BPlusTreeCfa.TYPE_CODE)


# --------------------------------------------------------------------- #
# A poisoned tenant
# --------------------------------------------------------------------- #


def poisoned_server(config, seed=7):
    """A server whose tenant-0 queries all point at a corrupt header."""
    system, built = build_serving_system(
        "cha-tlb", seed=seed, serve_config=config
    )
    bad_header = system.mem.alloc(64, align=64)  # zeroed: VALID flag clear

    class PoisonedServer(QueryServer):
        def _prepare_nb(self, request):
            qreq = super()._prepare_nb(request)
            if request.tenant == 0:
                qreq.header_addr = bad_header
            return qreq

    server = PoisonedServer(system, built, config, seed=seed)
    for tenant in range(config.tenants):
        server.attach(
            ClosedLoopGenerator(
                tenant,
                num_requests=40,
                num_queries=len(built.queries),
                seed=seed,
                stats=system.stats,
            )
        )
    return server


def test_poisoned_tenant_resolves_through_fallback():
    # Baseline: no faults.
    config = ServeConfig(tenants=4)
    baseline = run_serving(
        "cha-tlb", tenants=4, requests=160, seed=7, closed_loop=True
    )
    # Tenant 0 at 100% aborts (corrupt header): every one of its requests
    # is re-run through the software fallback and still resolves.
    report = poisoned_server(config).run()
    poisoned_row = report.tenant(0)
    assert poisoned_row["completed"] == 40
    assert poisoned_row["fallbacks"] == 40
    assert report.aggregate["result_errors"] == 0
    assert report.aggregate["availability"] == 1.0
    # The healthy tenants' p99 stays within 2x of the no-fault baseline.
    for tenant in (1, 2, 3):
        assert report.tenant(tenant)["p99"] <= 2 * baseline.tenant(tenant)[
            "p99"
        ], f"tenant {tenant} p99 degraded more than 2x"


# --------------------------------------------------------------------- #
# The chaos harness
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("damage", ["wrong-value", "unrepaired"])
def test_fallback_damage_is_counted_not_hidden(damage):
    # The software fallback is the last line of defence: a retry that
    # returns a wrong value must count as a result error, and one that
    # never resolves as a failed request.
    server = poisoned_server(ServeConfig(tenants=4))
    lookup = server.workload.software_lookup

    def damaged(index):
        if damage == "unrepaired":
            raise SegmentationFault(0)
        return (lookup(index) or 0) + 1

    server.workload.software_lookup = damaged
    report = server.run()
    if damage == "wrong-value":
        assert report.aggregate["result_errors"] >= 40
        assert report.tenant(0)["failed"] == 0
    else:
        # A read the fallback never resolved is failed, not also completed.
        assert report.tenant(0)["failed"] == 40
        assert report.aggregate["availability"] < 1.0


def test_chaos_schedule_covers_the_contract():
    events = chaos_schedule([0, 1, 2, 3], 400)
    actions = [event.action for event in events]
    assert actions.count("slice-fail") == 2
    assert actions.count("slice-recover") == 2
    assert actions.count("firmware-swap") == 1
    assert [event.trigger for event in events] == sorted(
        event.trigger for event in events
    )


@pytest.mark.parametrize(
    "run",
    [run_chaos, lambda scheme, **kw: run_cluster_chaos(scheme, nodes=4, **kw)],
    ids=["machine", "cluster"],
)
def test_budget_below_the_triggers_still_fires_the_whole_schedule(run):
    # Three requests end the run before the later triggers: the runner
    # fires each straggler afterwards and drains the fleet behind it.
    report = run("cha-tlb", seed=7, requests=3)
    assert len(report.events) == 5
    assert all(event["fired_cycle"] is not None for event in report.events)


def test_chaos_run_meets_contract_and_is_deterministic():
    report = run_chaos("cha-tlb", seed=7, requests=200)
    checks = report.checks
    assert checks["result_errors"] == 0
    assert checks["failed"] == 0
    assert checks["availability"] == 1.0
    assert checks["slice_kills"] == 2
    assert checks["slice_recoveries"] == 2
    assert checks["firmware_swaps"] == 1
    assert checks["swap_committed"]
    assert checks["extension_programs_live"]
    assert all(event["fired_cycle"] is not None for event in report.events)
    # Phase rows segment the timeline at every event.
    names = [phase["name"] for phase in report.serving["phases"]]
    assert names[0] == "baseline" and len(names) == 6
    # Same seed -> byte-identical report.
    again = run_chaos("cha-tlb", seed=7, requests=200)
    assert again.dump() == report.dump()


@pytest.mark.parametrize(
    "scenario, shape, check, bad",
    [
        (CHAOS, dict(requests=200), "result_errors", 3),
        (MUTATION_CHAOS, dict(requests=200), "lost_or_phantom", 2),
        (CLUSTER_CHAOS, dict(requests=160, nodes=4), "history_linearizable", False),
        (RECOVERY_CHAOS, dict(requests=200, nodes=4), "lost_acked_writes", [17]),
        (RECOVERY_CHAOS, dict(requests=200, nodes=4), "diverged_keys", [17]),
    ],
    ids=[
        "chaos-result_errors",
        "mutation-lost_or_phantom",
        "cluster-history_linearizable",
        "recovery-lost_acked_writes",
        "recovery-diverged_keys",
    ],
)
def test_chaos_contract_violation_raises(scenario, shape, check, bad):
    # Each drill meets its contract at this size; breaking one check must
    # fail the contract, and the error must name the broken check.
    report = run_scenario(replace(scenario, **shape), "cha-tlb", seed=7, verify=False)
    check_contract(report)
    report.checks[check] = bad
    with pytest.raises(ChaosError, match=check):
        check_contract(report)


#: A value no write in the drills gives any key.
NEVER_WRITTEN = 0xDEAD_BEEF_0BAD


@pytest.mark.parametrize("judged", ["pinned", "settled", "unwritten"])
def test_lb_counts_a_wrong_read_of_every_judged_key(judged, monkeypatch):
    # The LB judges each first read response: a pinned key against the
    # pin's valid set, a settled key against the converged set, a key no
    # write touched against its build-time answer.  A read of that kind
    # answered with a value the key never held must count as a result
    # error, once per read, and fail the drill's contract.
    on_response = LoadBalancer.on_response
    injected = []

    def wrong_read(self, node, token, kind, value, retry_after):
        pending, _ = token
        if kind == RESP_OK and not pending.resolved and not pending.sreq.is_write:
            pin = self._pins.get(pending.key_position)
            if pin is not None:
                where = None if pin.checkless else "pinned"
            elif pending.key_position in self._settled:
                where = "settled"
            elif pending.key_position in self._dirty:
                where = None  # settled entry evicted: not judged
            else:
                where = "unwritten"
            if where == judged:
                injected.append(pending.key_position)
                value = NEVER_WRITTEN
        on_response(self, node, token, kind, value, retry_after)

    monkeypatch.setattr(LoadBalancer, "on_response", wrong_read)
    drill = replace(RECOVERY_CHAOS, requests=200, nodes=4)
    report = run_scenario(drill, "cha-tlb", seed=7, verify=False)
    assert injected
    assert report.checks["result_errors"] == len(injected)
    with pytest.raises(ChaosError, match="wrong results"):
        check_contract(report)


def test_mutation_contract_reports_audit_failures_once_and_capped():
    report = run_scenario(replace(MUTATION_CHAOS, requests=200), "cha-tlb", seed=7, verify=False)
    problems = [f"key {key}: lost update" for key in range(5)]
    report.checks.update(lost_or_phantom=len(problems), write_problems=problems)
    with pytest.raises(ChaosError) as raised:
        check_contract(report)
    message = str(raised.value)
    assert "5 lost/phantom updates: key 0: lost update; key 1" in message
    assert "key 3" not in message  # at most three audit failures shown
    assert "write_problems" not in message  # counted once, under lost_or_phantom


def test_mutation_chaos_rejects_a_read_only_mix():
    # No writes, no shadow oracle: the drill refuses up front and points
    # at the read-only drill instead of failing inside its report.
    with pytest.raises(ChaosError, match="run_chaos"):
        run_mutation_chaos("cha-tlb", seed=1, requests=50, write_ratio=0)
