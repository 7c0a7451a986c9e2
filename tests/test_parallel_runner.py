"""Golden determinism of the sharded runner, and the result cache.

The ISSUE-level guarantee: ``--jobs N`` produces byte-identical CLI output
to a serial run, because sharded rows re-merge in the serial iteration
order and every task carries explicit seeds.  Exercised end-to-end through
``repro.__main__.main`` for a row-per-workload experiment (fig7) and an
unsharded one (serve).
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.analysis.parallel import Task, merge_shards, plan_tasks, run_tasks
from repro.analysis.report import ExperimentResult
from repro.analysis.rescache import ResultCache, task_key


def _cli_output(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig7", "--workloads", "dpdk", "rocksdb"],
        ["serve", "--tenants", "2", "--requests", "400"],
    ],
    ids=["fig7", "serve"],
)
def test_jobs4_output_byte_identical_to_serial(capsys, argv):
    serial = _cli_output(capsys, argv + ["--no-cache"])
    parallel = _cli_output(capsys, argv + ["--no-cache", "--jobs", "4"])
    assert parallel == serial


def test_plan_tasks_shards_row_per_workload_experiments():
    tasks = plan_tasks(
        ["fig7", "serve"],
        {"fig7": {"quick": True, "workloads": ["dpdk", "flann"]}, "serve": {}},
    )
    assert [t.experiment for t in tasks] == ["fig7", "fig7", "serve"]
    assert tasks[0].kwargs == {"quick": True, "workloads": ["dpdk"]}
    assert tasks[1].kwargs == {"quick": True, "workloads": ["flann"]}
    assert tasks[2].kwargs == {}


def test_merge_shards_concatenates_rows_in_order():
    shards = []
    for name in ("a", "b"):
        shard = ExperimentResult("Fig. X", "t", ["workload", "v"])
        shard.add_row(workload=name, v=1)
        shards.append(shard)
    merged = merge_shards("figx", shards)
    assert [row["workload"] for row in merged.rows] == ["a", "b"]


def test_result_cache_round_trip_and_invalidation(tmp_path):
    cache = ResultCache(tmp_path)
    result = ExperimentResult("Fig. X", "title", ["workload", "v"], notes=["n"])
    result.add_row(workload="dpdk", v=1.5)

    assert cache.get("figx", {"quick": True}) is None
    cache.put("figx", {"quick": True}, result)

    hit = cache.get("figx", {"quick": True})
    assert hit is not None
    assert hit.format() == result.format()
    # Different kwargs -> different key -> miss.
    assert cache.get("figx", {"quick": False}) is None
    assert task_key("figx", {"quick": True}) != task_key("figx", {"quick": False})

    assert cache.clear() == 1
    assert cache.get("figx", {"quick": True}) is None


def test_run_tasks_serves_hits_from_cache_without_recompute(tmp_path):
    calls = []

    class CountingCache(ResultCache):
        def get(self, name, kwargs):
            calls.append(("get", name))
            return super().get(name, kwargs)

    cache = CountingCache(tmp_path)
    tasks = [Task("tab1", "tab1", {})]
    first = run_tasks(tasks, cache=cache)
    assert len(list(tmp_path.glob("*.json"))) == 1

    # Second run must come from disk and format identically.
    second = run_tasks(tasks, cache=cache)
    assert second[0].format() == first[0].format()
    assert calls == [("get", "tab1"), ("get", "tab1")]


def test_cached_cli_rerun_output_identical(capsys, tmp_path):
    argv = ["tab1", "--cache-dir", str(tmp_path)]
    cold = _cli_output(capsys, argv)
    assert list(tmp_path.glob("*.json")), "expected a cache entry on disk"
    warm = _cli_output(capsys, argv)
    assert warm == cold


def test_cache_entries_are_valid_json(tmp_path):
    cache = ResultCache(tmp_path)
    result = ExperimentResult("Fig. X", "t", ["a"])
    result.add_row(a=1)
    cache.put("figx", {}, result)
    (entry,) = tmp_path.glob("*.json")
    payload = json.loads(entry.read_text())
    assert payload["rows"] == [{"a": 1}]
