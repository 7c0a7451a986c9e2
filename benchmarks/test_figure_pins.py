"""sha256 pins of the Fig. 7, 11 and 12 rows at quick size.

``tests/test_figure_pins.py`` pins the dpdk and flann rows in the tier-1
suite, together with the shared software-baseline trace those figures
rest on; this module pins the other nine rows (jvm, rocksdb and snort),
which take about 20 s between them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    fig7_speedup,
    fig11_instruction_count,
    fig12_dynamic_power,
)

pytestmark = pytest.mark.slow

FIGURES = {
    "fig7": fig7_speedup,
    "fig11": fig11_instruction_count,
    "fig12": fig12_dynamic_power,
}

#: sha256 of ``json.dumps(rows, sort_keys=True)`` for one workload's row.
ROW_PINS = {
    "fig7": {
        "jvm": "4208c5b814a556bf47a621f15effec02597904b5f96143fd1fc65b0c959b786e",
        "rocksdb": "a28616e147228ef29d6ea15a51a39d7326719a6ca52cac0cdae9207995d299ad",
        "snort": "4be22f2fd3e4254a6c5b3a1a46f9da50425c382d7385097db8253add7ad3d4ea",
    },
    "fig11": {
        "jvm": "89c00d6a3763c66482910f6c16ffcccdf55f279578e8e351445e25a3ab4eea20",
        "rocksdb": "eba8287742c76aef2ee83b3a6aa02442ee8009fbbc69a319b7703349a155d575",
        "snort": "0eab4b08b5cad99bea580d29b80fd6bc62925dc938de63bbe2ebc14cef28b949",
    },
    "fig12": {
        "jvm": "a4c053cf1e4b1caa860e3171060c2ab45c05500dfbf44f976562435a47b321f7",
        "rocksdb": "1d4e626dfad217e0791bd4b576119762a35cf9154ec928a669e061ba7c6da169",
        "snort": "28265d43e3326153b4ce542a7a87ff2ec1023e8308221ace07aea3e5b3b56b9c",
    },
}


@pytest.mark.parametrize(
    "figure, name",
    [
        pytest.param(figure, name, id=f"{figure}-{name}")
        for figure in FIGURES
        for name in ROW_PINS[figure]
    ],
)
def test_figure_row_is_pinned(monkeypatch, figure, name):
    monkeypatch.setattr(experiments, "_PAIR_MEMO", {})
    result = FIGURES[figure](quick=True, workloads=[name])
    digest = hashlib.sha256(json.dumps(result.rows, sort_keys=True).encode()).hexdigest()
    assert digest == ROW_PINS[figure][name]
