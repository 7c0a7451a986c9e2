"""Tests for the three-way oracle battery (``tests/validation.py``)."""

from .validation import ValidationReport, validate_system


def test_validation_passes_on_clean_system():
    report = validate_system(seed=11, keys_per_structure=8)
    assert report.passed, report.format()
    assert report.checks > 50
    assert "OK" in report.format()


def test_validation_is_seed_deterministic():
    a = validate_system(seed=3, keys_per_structure=6)
    b = validate_system(seed=3, keys_per_structure=6)
    assert a.checks == b.checks
    assert a.passed and b.passed


def test_validation_works_on_cha_scheme():
    report = validate_system(seed=5, keys_per_structure=6, scheme="cha-tlb")
    assert report.passed, report.format()


def test_report_formats_mismatches():
    report = ValidationReport(checks=3, mismatches=["x: got 1, want 2"])
    assert not report.passed
    assert "FAILED" in report.format()
    assert "x: got 1" in report.format()
