"""The JSON layout of every report: a report's fields are its keys."""

import json
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping

import pytest
from click.testing import CliRunner

from dotgates.cli import main
from dotgates.dynamics import IntegratorConfig
from dotgates.gates import (
    RamanParams,
    ZGateParams,
    pi_pulse_time,
    run_cphase,
    run_raman_x,
    run_z_rotation,
    square_cphase_pulse,
)
from dotgates.model import DotPairParams, Report, SquarePulse

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


def test_report_construction_freezes_mappings_and_lists():
    rep = _Sample(0j, {"a": {"b": 0.5}}, _Inner(3.0, "t"), [1.5, 2.0j])
    assert type(rep.table) is MappingProxyType and type(rep.table["a"]) is MappingProxyType
    assert rep.pair == (1.5, 2.0j)
    assert rep.to_dict()["pair"] == [1.5, {"re": 0.0, "im": 2.0}]


def test_every_mapping_field_of_the_gate_reports_rejects_assignment():
    p, cfg = DotPairParams(omega_a=150.0), IntegratorConfig(sample_interval=0.05)
    reports = {
        run_cphase(p, square_cphase_pulse(0.1), cfg)[0]:
            {"pulse", "phases", "amplitudes", "populations", "residuals", "leakage"},
        run_z_rotation(p, ZGateParams(SquarePulse(1.0, pi_pulse_time(1.0)), 0.5), cfg)[0]:
            {"final_amplitudes"},
        run_raman_x(RamanParams(), cfg)[0]: {"populations"},
    }
    for report, names in reports.items():
        mappings = {f.name: getattr(report, f.name) for f in fields(report)
                    if isinstance(getattr(report, f.name), Mapping)}
        assert set(mappings) == names
        nested = [v for m in mappings.values() for v in m.values() if isinstance(v, Mapping)]
        assert len(nested) == (4 if "residuals" in names else 0)
        for m in [*mappings.values(), *nested]:
            with pytest.raises(TypeError):
                m["00"] = 0.0
        assert type(report.warnings) is tuple
