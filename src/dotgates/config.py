"""Flat JSON configuration for the command-line runners.

A config file is a single JSON object of scalar (or list) values; every
key has a default, unknown keys are rejected by name, and the same keys
can be overridden on the command line with ``--set key=value``.  Each
experiment kind accepts its own key set:

* ``cphase``     - dot parameters, one calibrated pulse, validity
  thresholds, optionally ``ratios`` (list of omega/v_f values) to emit a
  family of runs, or ``commensurate`` to snap the square-pulse duration
  to whole spectator periods.
* ``zrot``       - the addressed dot's ``omega_a`` (defaults to a scaled-down
  2e3 meV so the lab-frame carrier is integrable), one pi pulse, and the
  ``wait`` between the two pulses.
* ``raman``      - Raman drive parameters, optionally ``detunings`` and
  ``gammas`` lists for a family of runs.
* ``conditions`` - dot parameters plus a pulse; no integration.
* ``sweep``      - ``sweep_kind``, ``sweep_param``, ``sweep_values`` plus
  any base keys of the child kind.

The pulse is described by ``pulse_shape`` (``square`` or ``gaussian``),
``omega`` (peak Rabi energy in meV) and either an explicit ``duration`` /
``sigma`` or ``null`` to derive the calibrated value for the experiment's
target area.

Which runs a ``cphase``, ``zrot`` or ``raman`` config makes is written once,
in :meth:`ExperimentConfig.runs`: :func:`build_config` checks every run's
pulse area, validity ratios, sample count and ``zrot`` carrier over that
list, and the command line runs the same list.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .dynamics import IntegrationError, IntegratorConfig, check_sample_count
from .gates import (CPHASE_AREA, PI_AREA, PulseAreaError, RamanParams, ZGateParams,
                    calibrated_pulse, check_cphase_pulse, check_zrot_carrier,
                    commensurate_gate_time, raman_pi_time, raman_rate, raman_window)
from .model import DotPairParams, GaussianPulse, SquarePulse, check_conditions

__all__ = ["ConfigError", "ExperimentConfig", "Run", "load_config_file",
           "apply_overrides", "build_config", "EXPERIMENT_KINDS"]

# bare pulse area each calibrated experiment targets
_PULSE_AREAS = {"cphase": CPHASE_AREA, "conditions": CPHASE_AREA, "zrot": PI_AREA}

# rounding allowed between a pulse's support and its nominal length, relative
_SUPPORT_RTOL = 1e-9


class ConfigError(ValueError):
    """A configuration file or override is invalid."""


def _float(key: str, v: Any, *, positive: bool = False, nonneg: bool = False,
           nonzero: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"key {key!r} must be finite, got {v!r}")
    if positive and x <= 0:
        raise ConfigError(f"key {key!r} must be > 0, got {v!r}")
    if nonneg and x < 0:
        raise ConfigError(f"key {key!r} must be >= 0, got {v!r}")
    if nonzero and x == 0:
        raise ConfigError(f"key {key!r} must be nonzero")
    return x


def _make_float(**kw: bool) -> Callable[[str, Any], float]:
    return lambda key, v: _float(key, v, **kw)


def _make_opt_float(**kw: bool) -> Callable[[str, Any], float | None]:
    return lambda key, v: None if v is None else _float(key, v, **kw)


def _make_float_list(**kw: bool) -> Callable[[str, Any], tuple[float, ...] | None]:
    def coerce(key: str, v: Any) -> tuple[float, ...] | None:
        if v is None:
            return None
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"key {key!r} must be a list of numbers, got {v!r}")
        return tuple(_float(f"{key}[{i}]", x, **kw) for i, x in enumerate(v))
    return coerce


def _bool(key: str, v: Any) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"key {key!r} must be true or false, got {v!r}")
    return v


def _make_choice(*choices: str) -> Callable[[str, Any], str]:
    def coerce(key: str, v: Any) -> str:
        if v not in choices:
            raise ConfigError(f"key {key!r} must be one of {choices}, got {v!r}")
        return str(v)
    return coerce


def _str(key: str, v: Any) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"key {key!r} must be a nonempty string, got {v!r}")
    return v


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    default: Any
    coerce: Callable[[str, Any], Any]


_SAMPLE_KEYS: dict[str, _Key] = {
    "sample_interval": _Key(IntegratorConfig.sample_interval, _make_float(positive=True)),
}

# only zrot adds a solver key: rtol refines its lab-frame Magnus cells.
# cphase and raman runs read none (the DOP853 fallback of a Liouvillian too
# ill-conditioned or stiff for eig keeps the IntegratorConfig defaults, and
# refuses a stiff one at once), and no run reads atol or max_step
_SOLVER_KEYS: dict[str, _Key] = {
    **_SAMPLE_KEYS,
    "rtol": _Key(IntegratorConfig.rtol, _make_float(positive=True)),
}

_PAIR_KEYS: dict[str, _Key] = {
    "omega_a": _Key(DotPairParams.omega_a, _make_float(positive=True)),
    "v_f": _Key(DotPairParams.v_f, _make_float(nonzero=True)),
    "v_xx": _Key(DotPairParams.v_xx, _make_float()),
}

_PULSE_KEYS: dict[str, _Key] = {
    "pulse_shape": _Key("square", _make_choice("square", "gaussian")),
    "omega": _Key(0.1, _make_float(nonneg=True)),
    "duration": _Key(None, _make_opt_float(nonneg=True)),
    "sigma": _Key(None, _make_opt_float(positive=True)),
    "truncation": _Key(GaussianPulse.truncation, _make_float(positive=True)),
    "t_start": _Key(0.0, _make_float()),
}

_THRESHOLD_KEYS: dict[str, _Key] = {
    "threshold_biexciton": _Key(0.1, _make_float(positive=True)),
    "threshold_spectator": _Key(0.1, _make_float(positive=True)),
}


_SCHEMAS: dict[str, dict[str, _Key]] = {
    "cphase": {
        **_PAIR_KEYS, **_PULSE_KEYS, **_THRESHOLD_KEYS, **_SAMPLE_KEYS,
        "commensurate": _Key(False, _bool),
        "ratios": _Key(None, _make_float_list(positive=True)),
    },
    # the single addressed dot: omega_a is the one pair energy it reads
    "zrot": {
        "omega_a": _Key(2.0e3, _make_float(positive=True)),
        **_PULSE_KEYS,
        "omega": _Key(1.0, _make_float(nonneg=True)),
        **_SOLVER_KEYS,
        "wait": _Key(0.5, _make_float(nonneg=True)),
    },
    "raman": {
        **_SAMPLE_KEYS,
        "rabi": _Key(RamanParams.rabi, _make_float(positive=True)),
        "detuning": _Key(RamanParams.detuning, _make_float(nonzero=True)),
        "gamma": _Key(RamanParams.gamma, _make_float(nonneg=True)),
        "target_angle": _Key(RamanParams.target_angle, _make_float(positive=True)),
        "time_window": _Key(None, _make_opt_float(positive=True)),
        "detunings": _Key(None, _make_float_list(nonzero=True)),
        "gammas": _Key(None, _make_float_list(nonneg=True)),
    },
    "conditions": {**_PAIR_KEYS, **_PULSE_KEYS, **_THRESHOLD_KEYS},
}
_SCHEMAS["sweep"] = {
    "sweep_kind": _Key("cphase", _make_choice(*_SCHEMAS)),
    "sweep_param": _Key(_REQUIRED, _str),
    "sweep_values": _Key(_REQUIRED, _make_float_list()),
}
EXPERIMENT_KINDS = tuple(_SCHEMAS)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file, reporting parse errors with line numbers."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"invalid JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return raw


def apply_overrides(raw: dict[str, Any], overrides: tuple[str, ...]) -> dict[str, Any]:
    """Apply ``key=value`` strings on top of ``raw``; values parse as JSON
    when possible and fall back to bare strings."""
    out = dict(raw)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


@dataclass(frozen=True)
class Run:
    """One run of a config: its runner's checked input (a ``cphase`` pulse, a
    ``zrot`` :class:`ZGateParams`, a ``raman`` :class:`RamanParams`), the
    span it samples, its ratio and a family run's file name."""

    input: SquarePulse | GaussianPulse | ZGateParams | RamanParams
    span: float
    ratio: float | None = None
    name: str | None = None


def _span(env: SquarePulse | GaussianPulse) -> float:
    lo, hi = env.support()
    return hi - lo


def _distinct(named: list[tuple[str, str]]) -> None:
    """Refuse two runs of one name; ``named`` holds each run's ``(name, values)``."""
    seen: dict[str, str] = {}
    for name, at in named:
        if name in seen:
            raise ConfigError(f"runs at {seen[name]} and {at} share the name {name}")
        seen[name] = at


def _check_ratios(p: DotPairParams, env: SquarePulse | GaussianPulse) -> None:
    """Refuse a pulse whose weak-driving ratios (:func:`check_conditions`) overflow."""
    rep, at = check_conditions(p, env), f"omega={env.peak_value():g}, v_f={p.v_f:g}"
    for name, ratio, keys in (("biexciton", rep.r_biexciton, f"{at}, v_xx={p.v_xx:g}"),
                              ("spectator", rep.r_spectator, at)):
        if not math.isfinite(ratio):
            raise ConfigError(f"the {name} ratio is not finite for {keys}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated, fully-defaulted experiment description."""

    kind: str
    values: Mapping[str, Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def dot_params(self) -> DotPairParams:
        """The pair energies; a kind without ``v_f`` or ``v_xx`` keys (zrot,
        whose single dot reads only ``omega_a``) takes their defaults."""
        keys = [k for k in ("omega_a", "v_f", "v_xx") if k in self.values]
        try:
            return DotPairParams(**{k: self.values[k] for k in keys})
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def integrator(self) -> IntegratorConfig:
        """The integrator settings; a kind without an ``rtol`` key takes
        its default."""
        kw = {"rtol": self.values["rtol"]} if "rtol" in self.values else {}
        return IntegratorConfig(sample_interval=self["sample_interval"], **kw)

    def envelope(self, omega: float | None = None) -> SquarePulse | GaussianPulse:
        """Resolve the pulse; ``omega`` overrides the configured peak (used
        by family runs).  A support whose length rounding at a large
        ``t_start`` has moved off the pulse's length, or that is infinite, is
        rejected."""
        if self.kind not in _PULSE_AREAS:
            raise ConfigError(f"kind {self.kind!r} does not define a pulse")
        om = self["omega"] if omega is None else float(omega)
        shape, trunc = self["pulse_shape"], self["truncation"]
        square = shape == "square"
        width = self["duration" if square else "sigma"]
        commensurate = self.values.get("commensurate")
        if commensurate and not square:
            raise ConfigError("commensurate timing applies to square pulses only")
        if width is None and om <= 0:
            raise ConfigError(
                f"omega must be > 0 to derive the pulse {'duration' if square else 'width'}")
        if commensurate:
            if width is not None:
                raise ConfigError("commensurate timing requires duration=null")
            width = commensurate_gate_time(self.dot_params(), om)
        env = calibrated_pulse(shape, om, _PULSE_AREAS[self.kind], self["t_start"], trunc, width)
        lo, hi = env.support()
        length = env.duration if square else 2.0 * trunc * env.sigma
        if not abs((hi - lo) - length) <= _SUPPORT_RTOL * length:
            raise ConfigError(
                f"the pulse support [{lo:.9g}, {hi:.9g}] ps does not span the pulse's "
                f"{length:.9g} ps (limit {_SUPPORT_RTOL:g} relative); keep t_start near 0 "
                "and the pulse length finite")
        return env

    def raman_params(self, detuning: float | None = None,
                     gamma: float | None = None) -> RamanParams:
        try:
            return RamanParams(
                rabi=self["rabi"],
                detuning=self["detuning"] if detuning is None else float(detuning),
                gamma=self["gamma"] if gamma is None else float(gamma),
                target_angle=self["target_angle"],
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def runs(self) -> list[Run]:
        """Every run of a ``cphase``, ``zrot`` or ``raman`` config, in order:
        one, or one per ``ratios`` value at ``omega = r |v_f|``, or one per
        ``gammas`` x ``detunings`` pair (gamma outermost).  The configured
        pulse and every detuning's window, which must be finite and
        positive, are checked whatever the lists hold; each run's pulse must
        meet its gate's area, a cphase pulse give finite validity ratios,
        and no two family runs share a file name."""
        if self.kind != "raman":
            env = self.envelope()
            try:
                if self.kind == "zrot":  # both pulses and the wait between them
                    return [Run(ZGateParams(env, self["wait"]), 2.0 * _span(env) + self["wait"])]
                ratios = self["ratios"]
                pulses = [env] if ratios is None else [
                    self.envelope(r * abs(self["v_f"])) for r in ratios]
                for pulse in pulses:
                    check_cphase_pulse(pulse)
                    _check_ratios(self.dot_params(), pulse)
            except PulseAreaError as e:
                raise ConfigError(str(e)) from None
            runs = [Run(p, _span(p), r, None if r is None else f"family_ratio_{r:g}.csv")
                    for r, p in zip(ratios or (None,), pulses)]
            _distinct([(run.name, f"ratio={run.ratio!r}") for run in runs if run.name])
            return runs
        windows = []
        for nu in self["detunings"] or (self["detuning"],):
            params = self.raman_params(detuning=nu)
            try:
                derived = (raman_rate(params.rabi, nu),
                           raman_pi_time(params.rabi, nu, params.target_angle),
                           raman_window(params, self["time_window"]))
            except (OverflowError, ZeroDivisionError):
                derived = (math.nan,)
            if not all(0.0 < x < math.inf for x in derived):
                raise ConfigError(f"rabi={params.rabi:g} and detuning={nu:g} give a Raman rate, "
                                  "pi time or window that is not finite and positive")
            windows.append((nu, derived[-1]))
        gammas = self["gammas"] if self["gammas"] is not None else (self["gamma"],)
        family = self["detunings"] is not None or self["gammas"] is not None
        runs = [Run(self.raman_params(nu, g), window,
                    name=f"raman_nu_{nu:g}_gamma_{g:g}.csv" if family else None)
                for g in gammas for nu, window in windows]
        _distinct([(run.name, f"detuning={run.input.detuning!r}, gamma={run.input.gamma!r}")
                   for run in runs if run.name])
        return runs

    def sweep_children(self) -> list[tuple[float, str, dict[str, Any]]]:
        """``(value, directory name, raw child config)`` for each sweep value,
        in order; no two values may share a name."""
        base, param = dict(self["child_base"]), self["sweep_param"]
        children = [(v, f"{param}_{v:g}", {**base, "kind": self["sweep_kind"], param: v})
                    for v in self["sweep_values"]]
        _distinct([(name, f"{param}={v!r}") for v, name, _ in children])
        return children


def _validate_keys(raw: dict[str, Any], kind: str,
                   schema: dict[str, _Key]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for key, val in raw.items():
        if key == "kind":
            continue
        if key not in schema:
            readers = [k for k, keys in _SCHEMAS.items() if k != "sweep" and key in keys]
            hint = difflib.get_close_matches(key, schema, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            if readers:  # a key of other kinds is no typo
                extra = f"; read only by {' and '.join(readers)}"
            elif key in ("atol", "max_step"):  # solver settings no run reads
                extra = "; no run reads it"
            raise ConfigError(f"unknown config key {key!r} for kind {kind!r}{extra}")
        values[key] = schema[key].coerce(key, val)
    for key, entry in schema.items():
        if key not in values:
            if entry.default is _REQUIRED:
                raise ConfigError(f"key {key!r} is required for kind {kind!r}")
            values[key] = entry.default
    return values


def build_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a flat config dict and return an :class:`ExperimentConfig`.

    Unknown keys, type errors, and out-of-range values raise
    :class:`ConfigError`; the dot parameters and the pulse or the
    :meth:`~ExperimentConfig.runs` are built once, and every run's pulse
    area, validity ratios, sample count and ``zrot`` carrier checked, so
    bad combinations fail here rather than mid-run.
    """
    raw = dict(raw)
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("config must state its experiment 'kind'")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    if kind == "sweep":
        schema = _SCHEMAS["sweep"]
        own = {k: v for k, v in raw.items() if k in schema}
        child_raw = {k: v for k, v in raw.items() if k not in schema and k != "kind"}
        values = _validate_keys(own, "sweep", schema)
        child_kind, param = values["sweep_kind"], values["sweep_param"]
        child_schema = _SCHEMAS[child_kind]
        if param not in child_schema:
            raise ConfigError(f"sweep_param {param!r} is not a config key of kind {child_kind!r}")
        try:  # a sweep sets numbers: the key must take one
            child_schema[param].coerce(param, 1.0)
        except ConfigError:
            raise ConfigError(f"sweep_param {param!r} is not a numeric key of kind "
                              f"{child_kind!r}") from None
        # validate the child base, then every child, before anything runs
        _validate_keys(child_raw, child_kind, child_schema)
        cfg = ExperimentConfig("sweep", {**values, "child_base": dict(child_raw)})
        for _, _, raw_child in cfg.sweep_children():
            build_config(raw_child)
        return cfg

    cfg = ExperimentConfig(kind, _validate_keys(raw, kind, _SCHEMAS[kind]))
    if kind != "raman":
        cfg.dot_params()
    if kind == "conditions":
        _check_ratios(cfg.dot_params(), cfg.envelope())
        return cfg
    # reject a runaway sample grid or zrot carrier here, before anything is allocated
    for run in cfg.runs():
        try:
            check_sample_count(run.span, cfg["sample_interval"])
            if kind == "zrot":
                check_zrot_carrier(cfg["omega_a"], run.input)
        except (ValueError, IntegrationError) as e:
            raise ConfigError(str(e)) from None
    return cfg
