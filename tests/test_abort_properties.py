"""Every way a query can be cut short leaves it ended, recorded and counted.

Hypothesis draws a mix of blocking and non-blocking queries — up to twice
the QST, so some wait in the overflow queue — lets the engine run a random
while, then either flushes the accelerator (an interrupt, Sec. IV-D) or
fails one of its homes, and drains.  Whatever state each query was caught
in (in the submit network, queued, mid-walk in the QST, or already
finished), afterwards:

* every handle is done, and every completed one returns the oracle value;
* every non-blocking result record agrees with its handle's status, value
  and abort code;
* the QST is empty and nothing is in flight;
* the ``qei.abort.*`` counters sum to the FAULT plus ABORTED handles.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.config import small_config  # noqa: E402
from repro.core.accelerator import (  # noqa: E402
    NOT_FOUND_SENTINEL,
    QueryRequest,
    QueryStatus,
)
from repro.core.cfa import (  # noqa: E402
    RESULT_ABORTED,
    RESULT_FAULT,
    RESULT_FOUND,
    RESULT_NOT_FOUND,
)
from repro.core.isa import read_result  # noqa: E402
from repro.system import System  # noqa: E402
from repro.workloads import make_workload  # noqa: E402

SCHEMES = ["core-integrated", "cha-tlb", "device-indirect"]
STATUS_WORD = {
    QueryStatus.FOUND: RESULT_FOUND,
    QueryStatus.NOT_FOUND: RESULT_NOT_FOUND,
    QueryStatus.FAULT: RESULT_FAULT,
    QueryStatus.ABORTED: RESULT_ABORTED,
}


def build(scheme):
    system = System(small_config(2), scheme)
    workload = make_workload(
        "dpdk", system, num_flows=48, num_buckets=32, num_queries=12, zipf=False
    )
    return system, workload


@given(scheme=st.sampled_from(SCHEMES), data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_flush_and_fail_end_every_query_with_its_record(scheme, data):
    system, wl = build(scheme)
    accelerator = system.accelerator
    size = data.draw(st.integers(1, 2 * accelerator.qst.capacity), label="queries")
    queries = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(wl.queries) - 1), st.booleans()),
            min_size=size,
            max_size=size,
        ),
        label="(query, blocking)",
    )
    advance = data.draw(st.integers(0, 400), label="advance")
    homes = system.integration.accelerator_homes()
    failed_home = data.draw(st.none() | st.sampled_from(homes), label="failed home")
    result_base = system.mem.alloc(16 * len(queries), align=64)
    handles = []
    for n, (qidx, blocking) in enumerate(queries):
        request = QueryRequest(
            header_addr=wl.header_addr_for(qidx),
            key_addr=wl._query_addrs[qidx],
            blocking=blocking,
            result_addr=0 if blocking else result_base + 16 * n,
        )
        handles.append((qidx, accelerator.submit(request, system.engine.now)))
    system.engine.advance(advance)
    if failed_home is None:
        accelerator.flush()
    else:
        accelerator.fail_home(failed_home)
    accelerator.drain()

    ended = 0
    for qidx, handle in handles:
        assert handle.done
        if handle.status in (QueryStatus.FOUND, QueryStatus.NOT_FOUND):
            assert handle.value == wl.expected[qidx]
        else:
            ended += 1
        if handle.request.blocking:
            continue
        status, payload, code = read_result(system.space, handle.request.result_addr)
        assert status == STATUS_WORD[handle.status]
        assert code is handle.abort_code
        if handle.status is QueryStatus.FOUND:
            assert payload == handle.value
        elif handle.status is QueryStatus.NOT_FOUND:
            assert payload == NOT_FOUND_SENTINEL
    assert accelerator.qst.occupancy == 0
    assert accelerator.in_flight == 0
    counters = system.stats.snapshot()
    assert ended == sum(
        value for name, value in counters.items() if name.startswith("qei.abort.")
    )
