"""The JSON layout of every report: a report's fields are its keys."""

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import pytest
from click.testing import CliRunner

from dotgates.cli import main
from dotgates.model import Report

_CONDITIONS = ("conditions.{r_biexciton,r_spectator,threshold_biexciton,threshold_spectator,"
               "peak_rabi,biexciton_ok,spectator_ok,all_ok}")
_PULSE = "pulse.{shape,peak,area,support}"
_DOT_PARAMS = "dot_params.{omega_a,v_f,v_xx}"
_CPHASE = ("kind", _DOT_PARAMS, _PULSE, "gate_time", "{phases,populations,leakage}.{00,01,10,11}",
           "amplitudes.{00,01,10,11}.{re,im}", "residuals.{00,01.0X,10.X0,11.psi+,11.psi-,11.XX}",
           "theta", "fidelity", _CONDITIONS, "warnings")

# the leaf key paths of each run's report.json; "[]" stands for every item of a list
GOLDEN = {
    ("cphase",): _CPHASE,
    ("cphase", "--set", "ratios=[0.3]"): (
        "kind", "runs[].{ratio,omega,file,gate_time,theta,fidelity,warnings}",
        "runs[].phases.{00,01,10,11}"),
    ("zrot",): (
        "kind", "omega_a", "wait", "target_phase", "achieved_phase", "phase_error",
        "composite_phase", "trion_leakage", "final_amplitudes.{0,1,X}.{re,im}", "warnings"),
    ("raman",): (
        "kind", "rabi", "detuning", "gamma", "target_angle", "effective_rabi",
        "pi_time_estimate", "pi_time", "fidelity", "populations.{0,1,e,s}", "lost", "warnings"),
    ("raman", "--set", "detunings=[3,5.5]"): (
        "kind", "runs[].{file,detuning,gamma,pi_time_estimate,pi_time,fidelity,lost}"),
    ("conditions",): ("kind", _DOT_PARAMS, _PULSE, _CONDITIONS),
    ("sweep", "--set", "sweep_param=omega", "--set", "sweep_values=[0.08,0.12]"): (
        "kind", "sweep_kind", "sweep_param", "runs[].{value,dir}",
        *(f"runs[].report.{p}" for p in _CPHASE)),
}


def _expand(pattern):
    """Every path a pattern names: ``a.{b,c}`` stands for ``a.b`` and ``a.c``."""
    head, brace, rest = pattern.partition("{")
    if not brace:
        return [pattern]
    alternatives, _, tail = rest.partition("}")
    return [head + alt + end for alt in alternatives.split(",") for end in _expand(tail)]


def _leaf_paths(value, path=""):
    """The dotted paths of a JSON value's leaves: a nonempty object or a list of
    objects is no leaf, and every item of a list shares the path ``<list>[]``."""
    if isinstance(value, dict) and value:
        return set().union(*(_leaf_paths(v, f"{path}.{k}" if path else k)
                             for k, v in value.items()))
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        return set().union(*(_leaf_paths(v, path + "[]") for v in value))
    return {path}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_report_json_keys_are_the_golden_layout(tmp_path, args):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [*args, "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    keys = _leaf_paths(json.loads((out / "report.json").read_text()))
    golden = [path for pattern in GOLDEN[args] for path in _expand(pattern)]
    assert len(golden) == len(set(golden))
    assert keys == set(golden)


@dataclass(frozen=True)
class _Inner:
    x: float
    tag: str


@dataclass(frozen=True, eq=False)
class _Sample(Report):
    kind: str = field(default="sample", init=False)
    z: complex
    table: Mapping[str, Mapping[str, float]]
    inner: _Inner
    pair: tuple[float, complex]
    flag: bool = True


def test_report_to_dict_walks_the_fields():
    rep = _Sample(1.0 - 2.0j, MappingProxyType({"a": MappingProxyType({"b": 0.5})}),
                  _Inner(3.0, "t"), (1.5, 2.0j))
    d = rep.to_dict()
    assert d == {"kind": "sample", "z": {"re": 1.0, "im": -2.0}, "table": {"a": {"b": 0.5}},
                 "inner": {"x": 3.0, "tag": "t"}, "pair": [1.5, {"re": 0.0, "im": 2.0}],
                 "flag": True}
    assert list(d) == ["kind", "z", "table", "inner", "pair", "flag"]
    assert type(d["table"]) is dict and type(d["table"]["a"]) is dict
    assert type(d["pair"]) is list and d["flag"] is True
    json.dumps(d)
