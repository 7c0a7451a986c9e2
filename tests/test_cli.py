"""CLI surface tests: ``python -m repro`` / the ``qei`` console script.

Pins the shell contract: ``list`` enumerates every experiment sorted and
exits 0, unknown experiment names exit 2 with a one-line hint, the serve
verb honours its flags, size flags override an experiment's defaults only
when given, and pyproject.toml installs the ``qei`` entry point.
"""

import json
from pathlib import Path

from repro.__main__ import EXPERIMENTS, build_parser, experiment_kwargs, main


def test_list_is_sorted_and_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(names)
    assert set(names) == set(EXPERIMENTS)
    assert "serve" in names


def test_unknown_experiment_exits_two_with_one_line_hint(capsys):
    assert main(["definitely-not-an-experiment"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "unknown experiment" in lines[0]
    assert "list" in lines[0]  # points the user at the enumeration


def test_serve_verb_honours_scheme_flag(capsys):
    code = main(
        [
            "serve",
            "--scheme",
            "cha-tlb",
            "--tenants",
            "2",
            "--requests",
            "60",
            "--seed",
            "7",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "serve"
    assert {row["scheme"] for row in payload["rows"]} == {"cha-tlb"}
    assert any(row["tenant"] == "all" for row in payload["rows"])


def test_size_flags_forwarded_only_when_given():
    # Without flags every chaos harness keeps its own request/fleet sizes
    # (recovery-chaos: 400 requests on 6 nodes), not the serve verb's.
    for name in ("chaos", "cluster-chaos", "recovery-chaos"):
        kwargs = experiment_kwargs(name, build_parser().parse_args([name]))
        assert "requests" not in kwargs and "nodes" not in kwargs, name
    given = build_parser().parse_args(
        ["recovery-chaos", "--requests", "200", "--nodes", "4"]
    )
    kwargs = experiment_kwargs("recovery-chaos", given)
    assert (kwargs["requests"], kwargs["nodes"]) == (200, 4)


def test_qei_console_script_is_registered():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '[project.scripts]' in pyproject
    assert 'qei = "repro.__main__:main"' in pyproject
