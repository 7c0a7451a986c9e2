"""Serving a database index from QEI via a firmware update.

In-memory databases spend large fractions of their time in B+-tree index
traversals (the motivation behind index-walker accelerators the paper
compares against).  QEI was not shipped with a B+-tree program — this
example loads one at runtime (the Sec. IV-B firmware-update path), bulk
loads an index of 5,000 rows, and serves point lookups three ways:

* software walker on the out-of-order core model, with its CPI stack,
* blocking QUERY_B offload,
* and an occupancy/latency report from the accelerator's own telemetry.

Run:  python examples/database_index.py
"""

from repro.analysis.cpi_stack import cpi_stack
from repro.analysis.timeline import (
    latency_summary,
    occupancy_timeline,
    jitter_report,
    per_query_table,
)
from repro.core.accelerator import QueryRequest
from repro.core.isa import QueryOperands
from repro.core.programs_ext import BPlusTreeCfa
from repro.cpu.trace import TraceBuilder
from repro.datastructs import BPlusTree
from repro.system import System

ROWS = 5_000
KEY_LENGTH = 16


def row_key(i: int) -> bytes:
    return (b"order:%08d" % i).ljust(KEY_LENGTH, b"\x00")


def main() -> None:
    system = System(scheme="core-integrated")
    system.firmware.register(BPlusTreeCfa())

    index = BPlusTree(system.mem, key_length=KEY_LENGTH, fanout=16)
    index.bulk_load([(row_key(i), 0x7000_0000 + i * 64) for i in range(ROWS)])
    print(f"index: {len(index)} rows, height {index.height}, fanout 16\n")
    system.warm_llc()

    probe_ids = list(range(0, ROWS, 97))

    # --- software walker ------------------------------------------------- #
    builder = TraceBuilder()
    for i in probe_ids:
        key = row_key(i)
        addr = index.store_key(key)
        value = index.emit_lookup(builder, addr, key)
        assert value == 0x7000_0000 + i * 64
    software = system.cores[0].execute(builder.trace)
    print(f"software walker : {software.cycles:>8} cycles for "
          f"{len(probe_ids)} lookups "
          f"({software.cycles / len(probe_ids):.0f}/lookup, "
          f"{software.instructions} instructions)")
    stack = cpi_stack(software, system.config.core)
    print(f"  CPI stack       : {stack.format()} ({stack.dominant()}-bound)")

    # --- QEI offload ------------------------------------------------------ #
    handles = []
    for i in probe_ids:
        handles.append(
            system.accelerator.submit(
                QueryRequest(
                    header_addr=index.header_addr,
                    key_addr=index.store_key(row_key(i)),
                ),
                system.engine.now,
            )
        )
    start = min(h.submit_cycle for h in handles)
    done = max(system.accelerator.wait_for(h) for h in handles)
    for i, handle in zip(probe_ids, handles):
        assert handle.value == 0x7000_0000 + i * 64
    print(f"QEI (firmware)  : {done - start:>8} cycles "
          f"({(done - start) / len(probe_ids):.0f}/lookup, "
          "1 instruction each on the core)\n")

    # --- telemetry --------------------------------------------------------- #
    print("accelerator telemetry:")
    print(" ", latency_summary(system.accelerator).format())
    mean, jitter = jitter_report(handles)
    print(f"  latency jitter (p99/p50): {jitter:.2f}x")
    print("  QST occupancy:", occupancy_timeline(handles, capacity=10))
    print(per_query_table(handles, limit=5))


if __name__ == "__main__":
    main()
