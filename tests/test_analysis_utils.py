"""Unit tests for the analysis utilities: report formatting, generators,
configuration validation and CLI plumbing."""

import pytest

from repro.analysis.report import ExperimentResult
from repro.config import (
    CacheConfig,
    IntegrationScheme,
    LlcConfig,
    NocConfig,
    SystemConfig,
    TlbConfig,
    small_config,
)
from repro.errors import ConfigurationError
from repro.workloads.generator import make_keys, pick_queries, zipf_indices


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("Fig. X", "demo", ["name", "value"])
        result.add_row(name="a", value=1.5)
        result.add_row(name="b", value=None)
        return result

    def test_format_contains_header_and_rows(self):
        text = self.make().format()
        assert "Fig. X" in text
        assert "a" in text and "1.500" in text
        assert "-" in text  # None renders as a dash

    def test_column_and_row_access(self):
        result = self.make()
        assert result.column("name") == ["a", "b"]
        assert result.row_for("name", "a")["value"] == 1.5
        assert result.row_for("name", "zzz") is None

    def test_notes_rendered(self):
        result = self.make()
        result.notes.append("hello")
        assert "note: hello" in result.format()

    def test_large_floats_use_one_decimal(self):
        result = ExperimentResult("T", "t", ["v"])
        result.add_row(v=12345.678)
        assert "12345.7" in result.format()


class TestGenerators:
    def test_make_keys_distinct_and_sized(self):
        keys = make_keys(100, 16, seed=1)
        assert len(set(keys)) == 100
        assert all(len(k) == 16 for k in keys)

    def test_make_keys_deterministic(self):
        assert make_keys(10, 8, seed=3) == make_keys(10, 8, seed=3)
        assert make_keys(10, 8, seed=3) != make_keys(10, 8, seed=4)

    def test_zipf_skews_to_low_indices(self):
        draws = zipf_indices(2000, 100, seed=5)
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 90)
        assert head > 3 * tail
        assert all(0 <= d < 100 for d in draws)

    def test_zipf_rejects_empty_population(self):
        with pytest.raises(ValueError):
            zipf_indices(5, 0)

    def test_pick_queries_miss_ratio(self):
        keys = make_keys(50, 16, seed=7)
        stream = pick_queries(keys, 200, miss_ratio=0.5, key_length=16, seed=9)
        misses = sum(1 for q in stream if q not in set(keys))
        assert 60 <= misses <= 140  # ~50% with randomness slack

    def test_pick_queries_all_hits_by_default(self):
        keys = make_keys(20, 16, seed=11)
        stream = pick_queries(keys, 50, key_length=16, seed=13)
        assert all(q in set(keys) for q in stream)


class TestConfigValidation:
    def test_default_config_is_consistent(self):
        config = SystemConfig()
        assert config.llc.slices == config.num_cores
        assert config.noc.num_nodes >= config.num_cores

    def test_slice_core_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_cores=8)  # default LLC has 24 slices

    def test_mesh_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(noc=NocConfig(width=2, height=2))

    def test_cache_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1000, 3, 4)  # not a multiple of assoc*line
        with pytest.raises(ConfigurationError):
            CacheConfig(-1, 4, 4)

    def test_tlb_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            TlbConfig(10, 4, 1)  # entries not divisible by assoc
        with pytest.raises(ConfigurationError):
            TlbConfig(0, 1, 1)

    def test_scheme_parse_accepts_names_and_enums(self):
        assert IntegrationScheme.parse("cha-tlb") is IntegrationScheme.CHA_TLB
        assert (
            IntegrationScheme.parse(IntegrationScheme.CORE_INTEGRATED)
            is IntegrationScheme.CORE_INTEGRATED
        )
        with pytest.raises(ConfigurationError):
            IntegrationScheme.parse("bogus")

    def test_llc_slice_config_is_legal_geometry(self):
        slice_cfg = LlcConfig().slice_config()
        assert slice_cfg.num_sets > 0
        assert slice_cfg.size_bytes % (slice_cfg.associativity * 64) == 0

    def test_small_config_scales_down(self):
        config = small_config(4)
        assert config.num_cores == 4
        assert config.llc.slices == 4
        assert config.memory_bytes < SystemConfig().memory_bytes

    def test_replace_makes_modified_copy(self):
        config = SystemConfig()
        modified = config.replace(memory_bytes=1024 * 1024 * 1024)
        assert modified.memory_bytes != config.memory_bytes
        assert modified.num_cores == config.num_cores


class TestCli:
    def test_list_runs(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "tab3" in out

    def test_tab_experiment_runs(self, capsys):
        from repro.__main__ import main

        assert main(["tab2"]) == 0
        assert "simulated CPU model" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
