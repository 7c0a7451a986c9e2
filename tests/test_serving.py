"""Serving-tier tests: admission control, batching, SLO reports, fallback.

The serving layer (src/repro/serve/) fronts one simulated machine with
multi-tenant load; these tests pin its contracts — bounded queues reject
with retry-after hints, partial bursts flush on timeout, saturation turns
into rejections rather than unbounded buffering, aborted queries resolve
through the software fallback, and every accelerated result agrees with
the software oracle.
"""

import hashlib
import random

import pytest

from repro.config import ServeConfig
from repro.core.cfa import OP_UPDATE
from repro.core.mutations import MUT_UPDATED
from repro.errors import ConfigurationError
from repro.serve import (
    MODE_BLOCKING,
    Batcher,
    Frontend,
    OpenLoopGenerator,
    QueryServer,
    ServeRequest,
    ServingError,
    SloTracker,
    build_serving_system,
    run_serving,
    serve_experiment,
)


def request_for(tenant, request_id=1, index=0, arrival=0):
    return ServeRequest(
        tenant=tenant, index=index, request_id=request_id, arrival_cycle=arrival
    )


# --------------------------------------------------------------------- #
# Frontend: bounded admission + backpressure
# --------------------------------------------------------------------- #


def test_frontend_rejects_when_queue_full_with_retry_after(monkeypatch):
    monkeypatch.setattr(Frontend, "QUEUE_DEPTH", 2)
    frontend = Frontend(ServeConfig(tenants=1))
    assert frontend.offer(request_for(0, 1), now=0).admitted
    assert frontend.offer(request_for(0, 2), now=0).admitted
    verdict = frontend.offer(request_for(0, 3), now=0)
    assert not verdict.admitted
    assert verdict.retry_after == (
        Frontend.RETRY_AFTER_CYCLES + Frontend.RETRY_BACKLOG_CYCLES * 2
    )


def test_frontend_drains_tenants_round_robin(monkeypatch):
    monkeypatch.setattr(Frontend, "QUEUE_DEPTH", 8)
    frontend = Frontend(ServeConfig(tenants=2))
    for request_id in range(1, 4):
        frontend.offer(request_for(0, request_id), now=0)
        frontend.offer(request_for(1, request_id), now=0)
    order = [frontend.next_request(now=1).tenant for _ in range(6)]
    assert order == [0, 1, 0, 1, 0, 1]
    assert frontend.next_request(now=2) is None
    assert frontend.pending == 0


def test_frontend_pending_counts_every_queued_request(monkeypatch):
    # ``pending`` is a running count; it must equal the queue depths after
    # every admitted offer, rejected offer (full queue) and pop.
    rng = random.Random(7)
    monkeypatch.setattr(Frontend, "QUEUE_DEPTH", 4)
    config = ServeConfig(tenants=3)
    frontend = Frontend(config)
    verdicts = set()
    for step in range(2000):
        if rng.random() < 0.55:
            tenant = rng.randrange(config.tenants)
            verdicts.add(frontend.offer(request_for(tenant, step), now=step).admitted)
        else:
            frontend.next_request(now=step)
        assert frontend.pending == sum(
            frontend.queue_depth_of(t) for t in range(config.tenants)
        )
    assert verdicts == {True, False}


def test_saturated_tenant_cannot_starve_others(monkeypatch):
    # Regression: tenant 0 keeps its queue full while tenants 1/2 trickle;
    # across a full dispatch window every round-robin scan must still visit
    # the light tenants — the hot tenant never gets two pops in a row while
    # another tenant has work queued.
    monkeypatch.setattr(Frontend, "QUEUE_DEPTH", 8)
    frontend = Frontend(ServeConfig(tenants=3))
    request_id = 0
    for _ in range(8):
        request_id += 1
        frontend.offer(request_for(0, request_id), now=0)
    for tenant in (1, 2):
        request_id += 1
        frontend.offer(request_for(tenant, request_id), now=0)
    drained = []
    for _ in range(12):
        # The saturated tenant instantly refills the slot it just vacated.
        request = frontend.next_request(now=1)
        if request is None:
            break
        drained.append(request.tenant)
        if request.tenant == 0:
            request_id += 1
            frontend.offer(request_for(0, request_id), now=1)
    # Both light tenants are served within one full scan of the tenant set,
    # and back-to-back hot-tenant pops only happen once they are empty.
    assert drained[:3] == [0, 1, 2]
    assert drained[3:] == [0] * len(drained[3:])


def test_serve_config_validation():
    with pytest.raises(ConfigurationError):
        ServeConfig(tenants=0)
    with pytest.raises(ConfigurationError):
        ServeConfig(offered_load=0.0)
    with pytest.raises(ConfigurationError):
        ServeConfig(write_ratio=1.5)


def test_run_serving_rejects_zero_offered_load():
    # A zero load is an error, not a request for the default load.
    with pytest.raises(ConfigurationError):
        run_serving("cha-tlb", tenants=1, requests=4, offered_load=0.0)


# --------------------------------------------------------------------- #
# End-to-end serving runs
# --------------------------------------------------------------------- #


def test_batched_run_reports_correct_results():
    report = run_serving("cha-tlb", tenants=2, requests=120, seed=7)
    aggregate = report.aggregate
    # Open-loop: every generated request either completes or is rejected.
    assert aggregate["completed"] + aggregate["rejected"] == 120
    assert aggregate["completed"] > 0
    assert aggregate["result_errors"] == 0
    assert aggregate["failed"] == 0
    assert aggregate["fallback_fraction"] == 0.0
    assert 0 < aggregate["p50"] <= aggregate["p95"] <= aggregate["p99"]
    assert aggregate["qps"] > 0
    assert report.elapsed_cycles > 0
    for row in report.tenants:
        assert row["slo_budget_p99"] == SloTracker.SLO_P99_CYCLES
        assert row["completed"] + row["rejected"] == 60


#: sha256 of ``report.dump()`` for a 4-tenant, 5%-write run of 400
#: requests at seed 7: the serving loop's event order and every simulated
#: number it reports, per scheme.
SERVE_REPORT_SHA256 = {
    "cha-tlb": "1eacaf7d480fe80d36e6da9b260c6dff0e9e564aaa5b0e44eb2f9acdd5f0914b",
    "cha-notlb": "0fb49494f710c9f6c20f6fee3486b58e9fb114dcafc5383b83df03253522fff5",
    "device-direct": "b5857e1bb3d5af2d2ef0f7cbbd3ce15e493b16603a03cf879be50da29b366be4",
    "device-indirect": "8ccf87b4470f9bfb7140409abc52ddeea5137790cce0c1088084d481be90fc71",
    "core-integrated": "d9e99642d198365d546bed0610ce95cc487cebb8d29546dde5bc85dd02d02b0b",
}


@pytest.mark.parametrize("scheme", sorted(SERVE_REPORT_SHA256))
def test_serve_report_is_pinned(scheme):
    report = run_serving(scheme, tenants=4, requests=400, seed=7, write_ratio=0.05)
    digest = hashlib.sha256(report.dump().encode()).hexdigest()
    assert digest == SERVE_REPORT_SHA256[scheme]


def test_shadow_oracle_reports_writes_it_did_not_see():
    # The node-side audit: a wrong value is a wrong read, a write applied
    # behind the oracle's back is a phantom update, a tracked write undone
    # behind its back is lost, and a write window left open is reported.
    config = ServeConfig(tenants=1, write_ratio=0.5)
    system, built = build_serving_system("cha-tlb", seed=7, serve_config=config)
    server = QueryServer(system, built, config)
    oracle, table = server.oracle, server.mutator.structure
    index = next(i for i, value in enumerate(built.expected) if value is not None)
    key, old, new = built.key_for(index), built.expected[index], 424242
    assert oracle.final_check() == []

    assert oracle.check_read(index, old, 0, 10)
    assert not oracle.check_read(index, new, 0, 10)
    assert (oracle.reads_checked, oracle.wrong_reads) == (2, 1)

    assert table.update(key, new)
    assert oracle.final_check() == [
        f"phantom update on key {key.hex()}: structure holds {new!r}, "
        f"oracle says {old!r}"
    ]
    token = oracle.begin_write(OP_UPDATE, key, new, 20)
    oracle.end_write(token, MUT_UPDATED, commit_seq=None, commit_cycle=30)
    assert oracle.final_check() == []
    assert table.update(key, old)
    lost = (
        f"lost update on key {key.hex()}: structure holds {old!r}, "
        f"oracle says {new!r}"
    )
    assert oracle.final_check() == [lost]
    oracle.begin_write(OP_UPDATE, key, old, 40)
    assert oracle.final_check() == ["1 write window(s) never closed", lost]


def test_closed_loop_run_completes():
    report = run_serving(
        "core-integrated", tenants=2, requests=80, seed=7, closed_loop=True
    )
    assert report.aggregate["completed"] == 80
    assert report.aggregate["result_errors"] == 0


def test_blocking_mode_completes():
    report = run_serving(
        "cha-tlb", tenants=2, requests=60, seed=7, mode=MODE_BLOCKING
    )
    assert report.mode == MODE_BLOCKING
    assert report.aggregate["completed"] + report.aggregate["rejected"] == 60
    assert report.aggregate["result_errors"] == 0


def test_saturation_turns_into_rejections(monkeypatch):
    # One request in flight at a time, 4-deep queues, arrivals every ~20
    # cycles against a ~500-cycle service time: queues fill, then bounce.
    monkeypatch.setattr(Frontend, "QUEUE_DEPTH", 4)
    config = ServeConfig(tenants=2, offered_load=0.05)
    server, built, system = make_small_server(config)
    server.limit = 1
    for tenant in range(config.tenants):
        server.attach(generator_for(tenant, built, system, config, requests=100))
    report = server.run()
    assert report.aggregate["rejected"] > 0
    assert report.aggregate["completed"] > 0
    assert report.aggregate["completed"] + report.aggregate["rejected"] == 200


def test_partial_bursts_flush_on_timeout(monkeypatch):
    # Arrivals ~1000 cycles apart can never fill a 64-deep burst; the
    # flush timer must bound the batching delay instead.
    monkeypatch.setattr(Batcher, "BATCH_SIZE", 64)
    monkeypatch.setattr(Batcher, "BATCH_TIMEOUT_CYCLES", 128)
    config = ServeConfig(tenants=1, offered_load=0.001)
    system, built = build_serving_system(
        "cha-tlb", seed=7, serve_config=config
    )
    server = system.make_server(built, config, seed=7)
    server.attach(
        OpenLoopGenerator(
            0,
            rate=config.offered_load,
            num_requests=30,
            num_queries=len(built.queries),
            seed=7,
            stats=system.stats,
        )
    )
    report = server.run()
    snapshot = system.stats.snapshot()
    assert snapshot["serve.batcher.flushes.timeout"] > 0
    assert report.aggregate["completed"] == 30
    assert report.aggregate["result_errors"] == 0


def test_aborted_queries_resolve_through_software_fallback():
    # A one-step watchdog aborts every accelerated query; the
    # fallback contract must still produce correct results under load.
    config = ServeConfig(tenants=2)
    server, built, system = make_small_server(config)
    system.accelerator.watchdog_steps = 1
    for tenant in range(config.tenants):
        server.attach(generator_for(tenant, built, system, config, requests=20))
    report = server.run()
    assert report.aggregate["completed"] > 0
    assert report.aggregate["fallback_fraction"] == 1.0
    assert report.aggregate["result_errors"] == 0
    assert report.aggregate["failed"] == 0


# --------------------------------------------------------------------- #
# Wiring validation
# --------------------------------------------------------------------- #


def make_small_server(config):
    system, built = build_serving_system("cha-tlb", seed=7, serve_config=config)
    return system.make_server(built, config, seed=7), built, system


def generator_for(tenant, built, system, config, requests=5):
    return OpenLoopGenerator(
        tenant,
        rate=config.offered_load,
        num_requests=requests,
        num_queries=len(built.queries),
        seed=7,
        stats=system.stats,
    )


def test_duplicate_tenant_generator_rejected():
    config = ServeConfig(tenants=2)
    server, built, system = make_small_server(config)
    server.attach(generator_for(0, built, system, config))
    with pytest.raises(ServingError):
        server.attach(generator_for(0, built, system, config))


def test_run_requires_one_generator_per_tenant():
    config = ServeConfig(tenants=2)
    server, built, system = make_small_server(config)
    server.attach(generator_for(0, built, system, config))
    with pytest.raises(ServingError):
        server.run()


def test_unknown_mode_rejected():
    config = ServeConfig(tenants=1)
    system, built = build_serving_system("cha-tlb", seed=7, serve_config=config)
    with pytest.raises(ServingError):
        system.make_server(built, config, mode="pipelined")


# --------------------------------------------------------------------- #
# The experiment driver
# --------------------------------------------------------------------- #


def test_serve_experiment_one_scheme():
    result = serve_experiment(schemes=["cha-tlb"], tenants=2, requests=60, seed=7)
    assert result.experiment == "serve"
    # Per-tenant rows plus one aggregate row.
    assert len(result.rows) == 3
    assert result.rows[-1]["tenant"] == "all"
    assert all(row["scheme"] == "cha-tlb" for row in result.rows)
