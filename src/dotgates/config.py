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
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .dynamics import IntegratorConfig, check_sample_count
from .gates import (CPHASE_AREA, PI_AREA, RamanParams, ZGateParams, calibrated_pulse,
                    commensurate_gate_time, raman_pi_time, raman_rate, raman_window)
from .model import DotPairParams, GaussianPulse, SquarePulse

__all__ = ["ConfigError", "ExperimentConfig", "load_config_file",
           "apply_overrides", "build_config", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("cphase", "zrot", "raman", "conditions", "sweep")


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
    sweepable: bool = False


_SAMPLE_KEYS: dict[str, _Key] = {
    "sample_interval": _Key(0.01, _make_float(positive=True), True),
}

# only zrot adds solver keys: rtol and max_step set its lab-frame Magnus
# cells.  cphase and raman runs read none (the DOP853 fallback of an
# ill-conditioned Liouvillian, which no valid raman input reaches, keeps
# the IntegratorConfig defaults), and no run reads atol
_SOLVER_KEYS: dict[str, _Key] = {
    **_SAMPLE_KEYS,
    "rtol": _Key(1e-9, _make_float(positive=True), True),
    "max_step": _Key(None, _make_opt_float(positive=True), True),
}

_PAIR_KEYS: dict[str, _Key] = {
    "omega_a": _Key(2.0e6, _make_float(positive=True), True),
    "v_f": _Key(0.85, _make_float(nonzero=True), True),
    "v_xx": _Key(5.0, _make_float(), True),
}

_PULSE_KEYS: dict[str, _Key] = {
    "pulse_shape": _Key("square", _make_choice("square", "gaussian")),
    "omega": _Key(0.1, _make_float(nonneg=True), True),
    "duration": _Key(None, _make_opt_float(nonneg=True), True),
    "sigma": _Key(None, _make_opt_float(positive=True), True),
    "truncation": _Key(4.0, _make_float(positive=True), True),
    "t_start": _Key(0.0, _make_float(), True),
}

_THRESHOLD_KEYS: dict[str, _Key] = {
    "threshold_biexciton": _Key(0.1, _make_float(positive=True), True),
    "threshold_spectator": _Key(0.1, _make_float(positive=True), True),
}


def _schema(kind: str) -> dict[str, _Key]:
    if kind == "cphase":
        return {
            **_PAIR_KEYS, **_PULSE_KEYS, **_THRESHOLD_KEYS, **_SAMPLE_KEYS,
            "commensurate": _Key(False, _bool),
            "ratios": _Key(None, _make_float_list(positive=True)),
        }
    if kind == "zrot":
        # the single addressed dot: omega_a is the one pair energy it reads
        return {
            "omega_a": _Key(2.0e3, _make_float(positive=True), True),
            **_PULSE_KEYS,
            "omega": _Key(1.0, _make_float(nonneg=True), True),
            **_SOLVER_KEYS,
            "wait": _Key(0.5, _make_float(nonneg=True), True),
        }
    if kind == "raman":
        return {
            **_SAMPLE_KEYS,
            "rabi": _Key(1.33, _make_float(positive=True), True),
            "detuning": _Key(4.0, _make_float(nonzero=True), True),
            "gamma": _Key(0.1, _make_float(nonneg=True), True),
            "target_angle": _Key(math.pi, _make_float(positive=True), True),
            "time_window": _Key(None, _make_opt_float(positive=True), True),
            "detunings": _Key(None, _make_float_list(nonzero=True)),
            "gammas": _Key(None, _make_float_list(nonneg=True)),
        }
    if kind == "conditions":
        return {**_PAIR_KEYS, **_PULSE_KEYS, **_THRESHOLD_KEYS}
    if kind == "sweep":
        return {
            "sweep_kind": _Key("cphase", _make_choice("cphase", "zrot", "raman",
                                                      "conditions")),
            "sweep_param": _Key(_REQUIRED, _str),
            "sweep_values": _Key(_REQUIRED, _make_float_list()),
        }
    raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")


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
        """The integrator settings; a kind without ``rtol`` or ``max_step``
        keys takes their defaults."""
        kw = {"rtol": self.values["rtol"]} if "rtol" in self.values else {}
        if self.values.get("max_step") is not None:
            kw["max_step"] = self["max_step"]
        return IntegratorConfig(sample_interval=self["sample_interval"], **kw)

    def envelope(self, omega: float | None = None) -> SquarePulse | GaussianPulse:
        """Resolve the pulse; ``omega`` overrides the configured peak (used
        by family runs).  A support whose length rounding at a large
        ``t_start`` has moved off the pulse's length, or that is infinite, is
        rejected."""
        if self.kind not in _PULSE_AREAS:
            raise ConfigError(f"kind {self.kind!r} does not define a pulse")
        om = self["omega"] if omega is None else float(omega)
        square = self["pulse_shape"] == "square"
        t_start, trunc = self["t_start"], self["truncation"]
        width = self["duration" if square else "sigma"]
        commensurate = self.values.get("commensurate")
        if commensurate and not square:
            raise ConfigError("commensurate timing applies to square pulses only")
        if width is None:
            if om <= 0:
                raise ConfigError(
                    f"omega must be > 0 to derive the pulse {'duration' if square else 'width'}")
            env = (SquarePulse(om, commensurate_gate_time(self.dot_params(), om), t_start)
                   if commensurate else calibrated_pulse(
                       self["pulse_shape"], om, _PULSE_AREAS[self.kind], t_start, trunc))
        elif commensurate:
            raise ConfigError("commensurate timing requires duration=null")
        elif square:
            env = SquarePulse(amplitude=om, duration=width, t_start=t_start)
        else:
            env = GaussianPulse(peak=om, sigma=width, center=t_start + trunc * width,
                                truncation=trunc)
        lo, hi = env.support()
        length = env.duration if square else 2.0 * trunc * env.sigma
        if not abs((hi - lo) - length) <= _SUPPORT_RTOL * length:
            raise ConfigError(
                f"the pulse support [{lo:.9g}, {hi:.9g}] ps does not span the pulse's "
                f"{length:.9g} ps (limit {_SUPPORT_RTOL:g} relative); keep t_start near 0 "
                "and the pulse length finite")
        return env

    def zgate(self) -> ZGateParams:
        return ZGateParams(pulse=self.envelope(), wait=self["wait"])

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

    def sweep_child_raws(self) -> list[tuple[float, dict[str, Any]]]:
        """``(value, raw child config)`` for each sweep value, in order."""
        base = dict(self["child_base"])
        return [(float(v), {**base, "kind": self["sweep_kind"], self["sweep_param"]: float(v)})
                for v in self["sweep_values"]]


def _run_spans(cfg: ExperimentConfig) -> list[float]:
    """Time span of every trajectory a cphase, zrot or raman run samples."""
    if cfg.kind == "cphase":
        ratios = cfg["ratios"]
        omegas = [None] if ratios is None else [r * abs(cfg["v_f"]) for r in ratios]
        return [hi - lo for lo, hi in (cfg.envelope(om).support() for om in omegas)]
    if cfg.kind == "zrot":
        lo, hi = cfg.envelope().support()
        return [2.0 * (hi - lo) + cfg["wait"]]
    return [_checked_raman_window(cfg, nu) for nu in cfg["detunings"] or (cfg["detuning"],)]


def _checked_raman_window(cfg: ExperimentConfig, nu: float) -> float:
    """Window of the Raman run at detuning ``nu``; its rate, pi time and
    window must be finite and positive."""
    params = cfg.raman_params(detuning=nu)
    try:
        derived = (raman_rate(params.rabi, nu),
                   raman_pi_time(params.rabi, nu, params.target_angle),
                   raman_window(params, cfg["time_window"]))
    except (OverflowError, ZeroDivisionError):
        derived = (math.nan,)
    if not all(0.0 < x < math.inf for x in derived):
        raise ConfigError(f"rabi={params.rabi:g} and detuning={nu:g} give a Raman rate, pi "
                          "time or window that is not finite and positive")
    return derived[-1]


def _validate_keys(raw: dict[str, Any], kind: str,
                   schema: dict[str, _Key]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for key, val in raw.items():
        if key == "kind":
            continue
        if key not in schema:
            readers = [k for k in EXPERIMENT_KINDS if k != "sweep" and key in _schema(k)]
            hint = difflib.get_close_matches(key, schema, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            if readers:  # a key of other kinds is no typo
                extra = f"; read only by {' and '.join(readers)}"
            elif key == "atol":  # an IntegratorConfig field that no run reads
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
    :class:`ConfigError`; resolvable physics objects (dot parameters,
    pulse, integrator) are constructed once so bad combinations fail here
    rather than mid-run.
    """
    raw = dict(raw)
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("config must state its experiment 'kind'")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    if kind == "sweep":
        schema = _schema("sweep")
        own = {k: v for k, v in raw.items() if k in schema or k == "kind"}
        child_raw = {k: v for k, v in raw.items() if k not in schema and k != "kind"}
        values = _validate_keys(own, "sweep", schema)
        child_kind = values["sweep_kind"]
        child_schema = _schema(child_kind)
        param = values["sweep_param"]
        if param not in child_schema:
            raise ConfigError(
                f"sweep_param {param!r} is not a config key of kind {child_kind!r}")
        if not child_schema[param].sweepable:
            raise ConfigError(f"sweep_param {param!r} is not a numeric, sweepable key")
        # validate the child base, then every child, before anything runs
        _validate_keys({**child_raw, "kind": child_kind}, child_kind, child_schema)
        cfg = ExperimentConfig("sweep", {**values, "child_base": dict(child_raw)})
        for _, raw_child in cfg.sweep_child_raws():
            build_config(raw_child)
        return cfg

    schema = _schema(kind)
    values = _validate_keys(raw, kind, schema)
    cfg = ExperimentConfig(kind, values)
    # eager construction: surface parameter problems as ConfigError now
    if kind in ("cphase", "zrot", "conditions"):
        cfg.dot_params()
        cfg.envelope()
    if kind in ("cphase", "zrot", "raman"):
        cfg.integrator()
    if kind == "raman":
        cfg.raman_params()
    if kind in ("cphase", "zrot", "raman"):
        # reject a runaway sample grid here, before anything is allocated
        for span in _run_spans(cfg):
            try:
                check_sample_count(span, cfg["sample_interval"])
            except ValueError as e:
                raise ConfigError(str(e)) from None
    return cfg
