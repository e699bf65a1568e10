"""Smoke test of the benchmark: every workload for one round, in both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is reported with its unit,
that no op fails, and that only the traced run patches library functions.
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def wrapped_bindings() -> list[str]:
    """Bindings in g2sew modules that currently hold a tracer wrapper."""
    traced_code = (tracer.Tracer._wrap.__code__.co_consts
                   + tracer.Tracer._wrap_newton.__code__.co_consts)
    return [f"{name}.{attr}"
            for name, mod in list(sys.modules.items())
            if name == "g2sew" or name.startswith("g2sew.")
            for attr, val in vars(mod).items()
            if isinstance(val, types.FunctionType) and val.__code__ in traced_code]


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload(workload, monkeypatch):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    installs = []
    install = tracer.Tracer.install

    def counting_install(self):
        install(self)
        installs.append(len(wrapped_bindings()))

    monkeypatch.setattr(tracer.Tracer, "install", counting_install)
    one_round = len(WORKLOADS[workload].KINDS)

    result, _ = bench.run(workload, 1, 0.0, False, min_ops=one_round, setup_reps=1)
    assert installs == []
    assert wrapped_bindings() == []
    assert_metrics(result, SPEC["end_to_end"])
    assert result["attempted"] >= one_round
    assert result["failed"] == 0 and result["correct"]

    result, info = bench.run(workload, 1, 0.0, True, min_ops=one_round, setup_reps=1)
    assert len(installs) == 1 and installs[0] > 0  # patched while traced
    assert wrapped_bindings() == []  # and restored afterwards
    assert info["spans"] > 0
    assert_metrics(result, SPEC["per_layer"])
    assert result["failed"] == 0 and result["correct"]
