"""CLI surface tests: ``python -m repro`` / the ``qei`` console script.

Pins the shell contract: ``list`` enumerates every experiment sorted,
each with its driver's own description, and exits 0, unknown experiment
names exit 2 with a one-line hint, the serve verb honours its flags, size
flags override an experiment's defaults only when given, every verb gets
exactly the flags its driver takes, the
``recovery-chaos --seeds`` soak prints one line per seed,
pyproject.toml installs the ``qei`` entry point, and every command line
README.md and this module's docstring show parses and names a verb.
"""

import functools
import json
import re
import shlex
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import EXPERIMENTS, build_parser, experiment_kwargs, main
from repro.analysis.report import ExperimentResult
from repro.faults import chaos


def test_list_is_sorted_and_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == sorted(names)
    assert set(names) == set(EXPERIMENTS)
    assert "serve" in names


def test_list_describes_every_experiment_with_its_own_docstring(capsys):
    assert main(["list"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        name, description = line.split(None, 1)
        doc = EXPERIMENTS[name].__doc__.strip().splitlines()[0]
        assert description == doc
        # A wrapper such as functools.partial would list its type's docstring.
        assert not description.startswith("partial("), name


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


_FIGURE = ({"quick": True}, True, {"schemes": ["cha-tlb"]})
_CHAOS = {"seed": 7, "repeats": 2, "tenants": 4}

#: Per verb: its kwargs with no flags (result-cache keys hang on them, so
#: they must not move), whether ``--workloads dpdk`` reaches it, and what
#: ``--scheme cha-tlb`` adds (None: the driver takes no scheme).
VERB_KWARGS = {
    "ablation-batch": ({"quick": True}, False, None),
    "ablation-comparators": ({"quick": True}, False, None),
    "ablation-flush": ({}, False, None),
    "ablation-hugepages": ({"quick": True}, False, None),
    "ablation-microtlb": ({"quick": True}, False, None),
    "ablation-noc": ({"quick": True}, False, None),
    "ablation-prefetch": ({"quick": True}, True, None),
    "ablation-qst": ({"quick": True}, False, None),
    "chaos": (_CHAOS, False, {"schemes": ["cha-tlb"]}),
    "cluster-chaos": (
        dict(_CHAOS, replication=2), False, {"schemes": ["cha-tlb"]}
    ),
    "fault-campaign": (
        {"seed": 7, "faults": 1000, "repeats": 2}, True, {"schemes": ["cha-tlb"]}
    ),
    "fig1": ({"quick": True}, True, None),
    "fig7": _FIGURE,
    "fig8": ({"quick": True}, True, None),
    "fig9": ({"quick": True}, True, {"scheme": "cha-tlb"}),
    "fig10": ({"quick": True}, False, {"schemes": ["cha-tlb"]}),
    "fig11": ({"quick": True}, True, None),
    "fig12": _FIGURE,
    "interference": ({"quick": True}, True, None),
    "recovery-chaos": (
        dict(_CHAOS, replication=2, quorum=2), False, {"schemes": ["cha-tlb"]}
    ),
    "scalability": ({}, False, None),
    "serve": (
        {"seed": 7, "tenants": 4, "closed_loop": False},
        False,
        {"schemes": ["cha-tlb"]},
    ),
    "tab1": ({}, False, None),
    "tab2": ({}, False, None),
    "tab3": ({}, False, None),
}


def test_verb_kwargs_table_covers_every_experiment():
    assert set(VERB_KWARGS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(VERB_KWARGS))
def test_each_verb_receives_the_flags_its_driver_takes(name):
    # A flag the driver takes must reach it, and one it does not take must
    # not: a silently dropped ``--workloads`` or ``--scheme`` reruns the
    # experiment's defaults under the user's flags.
    no_flags, takes_workloads, scheme = VERB_KWARGS[name]
    parse = build_parser().parse_args
    assert experiment_kwargs(name, parse([name])) == no_flags
    workloads = experiment_kwargs(name, parse([name, "--workloads", "dpdk"]))
    if takes_workloads:
        assert workloads == dict(no_flags, workloads=["dpdk"])
    else:
        assert workloads == no_flags
    schemes = experiment_kwargs(name, parse([name, "--scheme", "cha-tlb"]))
    assert schemes == dict(no_flags, **(scheme or {}))


def test_qei_console_script_is_registered():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '[project.scripts]' in pyproject
    assert 'qei = "repro.__main__:main"' in pyproject


def test_recovery_soak_prints_one_line_per_seed(capsys):
    # Seed 5 passes at drill size; seed 6 loses an acknowledged write
    # (ROADMAP item 1), so the soak exits 1 after printing every seed.
    assert main(["recovery-chaos", "--seeds", "5-6"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("seed 5: ok, violating keys [], peak key states ")
    assert lines[1].startswith(
        "seed 6: FAIL, violating keys [16608118694158627991], peak key states "
    )
    assert "(history_linearizable: " in lines[1]
    assert lines[2] == "recovery-chaos soak: 1/2 seeds passed; failed: [6]"


def test_recovery_soak_json_rows_and_flag_errors(capsys):
    assert main(["recovery-chaos", "--seeds", "5", "--json"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    row = json.loads(line)
    assert row["seed"] == 5 and row["problems"] == [] and row["violations"] == []
    assert row["max_states"] > 0
    parser = build_parser()
    assert parser.parse_args(["recovery-chaos", "--seeds", "1-200"]).seeds == range(1, 201)
    for argv in (["chaos", "--seeds", "1-2"], ["recovery-chaos", "--seeds", "3-1"],
                 ["recovery-chaos", "--seeds", "a-b"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--requests", "200", "--nodes", "4", "--quorum", "1"],
        ["--scheme", "device-indirect", "--tenants", "2", "--replication", "3"],
    ],
)
def test_recovery_soak_gets_the_single_seed_verbs_fleet(monkeypatch, flags):
    # The soak must shape its fleet from the same flags, the same way, as
    # the single-seed verb: a flag that reaches one reaches the other.
    verb, soaked = {}, {}
    driver = EXPERIMENTS["recovery-chaos"]

    @functools.wraps(driver)
    def fake_verb(**kwargs):
        verb.update(kwargs)
        return ExperimentResult("recovery-chaos", "", ["scheme"])

    def fake_soak(seeds, scheme, **shape):
        soaked.update(shape, scheme=scheme)
        return iter(())

    monkeypatch.setitem(EXPERIMENTS, "recovery-chaos", fake_verb)
    monkeypatch.setattr(chaos, "recovery_soak", fake_soak)
    assert main(["recovery-chaos", "--no-cache", *flags]) == 0
    assert main(["recovery-chaos", "--seeds", "3-4", *flags]) == 0
    del verb["seed"], verb["repeats"]
    (verb["scheme"],) = verb.pop("schemes", ["cha-tlb"])
    assert soaked == verb


#: Verbs ``_dispatch`` handles besides the experiments.
_BUILTIN_VERBS = {"list", "all"}


def _documented_commands():
    """Every ``qei ...`` / ``python -m repro ...`` line in README.md and the
    CLI docstring, as (source, argv) with the trailing comment dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    pattern = re.compile(r"^\s*(?:qei|python -m repro)\s+(.*)$")
    for source, text in (("README.md", readme), ("__main__", cli.__doc__)):
        for line in text.splitlines():
            match = pattern.match(line)
            if match:
                yield source, shlex.split(match.group(1), comments=True)


def test_documented_commands_parse_and_name_a_verb():
    commands = list(_documented_commands())
    assert len(commands) >= 15, commands
    parser = build_parser()
    for source, argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{source}: {' '.join(argv)!r} does not parse")
        assert args.experiment in EXPERIMENTS or args.experiment in _BUILTIN_VERBS, (
            source,
            argv,
        )
