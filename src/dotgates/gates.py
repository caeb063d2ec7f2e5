"""Gate protocols built on the dot-pair model.

Three protocols are implemented:

* :func:`run_cphase` - the two-qubit controlled-phase gate.  A single
  pulse, resonant with the symmetric single-exciton transition of the
  ``11`` block and with sqrt(2)-enhanced area ``2 pi hbar``, drives the
  ``11`` population up to ``psi+`` and back; the returning amplitude
  carries a pi phase while the other spin configurations are only weakly
  (and off-resonantly) driven.  The runner propagates each decoupled spin
  block separately (the two idle-partner blocks share one matrix, so one
  run serves both) and assembles phases, leakage, the entangling phase,
  and a fidelity against the ideal controlled-phase.
* :func:`run_z_rotation` - a single-qubit phase gate from a pair of
  resonant pi pulses separated by a free wait: the first pulse parks the
  ``1`` amplitude in the exciton level, where it accrues phase at the
  optical frequency, and the second pulse brings it back.  The laser phase
  is reset at each pulse, and a zero-wait baseline run isolates the wait
  contribution from the pulse dynamics themselves.
* :func:`run_raman_x` - a spin-flipping Raman rotation through a lossy
  excited level, integrated with a radiative-loss collapse channel; the
  runner locates the actual population maximum and compares it against
  the detuning-based rate estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .dynamics import (
    CollapseChannel,
    IntegrationError,
    IntegratorConfig,
    PhaseUndefinedError,
    Trajectory,
    check_drift,
    concatenate_trajectories,
    evolve_lindblad,
    evolve_schrodinger,
)
from .model import (
    ConditionReport,
    DotPairParams,
    GaussianPulse,
    LaserDrive,
    PSI_SUBSPACE,
    RAMAN_LEVELS,
    SINGLE_DOT,
    SPECTATOR_A_IDLE,
    SPECTATOR_B_IDLE,
    SquarePulse,
    check_conditions,
    lab_single_dot_generator,
    raman_hamiltonian,
    rwa_subspace_generator,
    spectator_generator,
)
from .operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    QuantumState,
    rotating_frame_tag,
)

__all__ = [
    "PulseAreaError",
    "wrap_phase",
    "CPHASE_AREA",
    "PI_AREA",
    "calibrated_pulse",
    "square_cphase_pulse",
    "gaussian_cphase_pulse",
    "commensurate_gate_time",
    "GateReport",
    "pulse_summary",
    "run_cphase",
    "entangling_phase",
    "cphase_fidelity",
    "analytic_11_evolution",
    "selectivity_fidelity",
    "pi_pulse_time",
    "ZGateParams",
    "ZRotationReport",
    "run_z_rotation",
    "raman_rate",
    "raman_pi_time",
    "raman_window",
    "RamanParams",
    "RamanReport",
    "run_raman_x",
]

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

#: relative tolerance on the sqrt(2)-enhanced pulse area before a cphase run
PULSE_AREA_RTOL = 0.01

#: bare pulse area (meV ps) of the cphase pulse: sqrt(2)-enhanced area 2 pi hbar
CPHASE_AREA = _TWO_PI * HBAR_MEV_PS / _SQRT2
#: bare pulse area (meV ps) of a pi pulse
PI_AREA = math.pi * HBAR_MEV_PS

# Above this many carrier radians a lab-frame integration is impractically
# slow; the relative-phase physics depends only on omega_a * wait / hbar, so
# scaled-down omega_a values reproduce it exactly.
_MAX_CARRIER_RADIANS = 1.0e6

_DARK_BLOCK = Basis(("00",), "dark-00-block")


class PulseAreaError(ValueError):
    """Pulse area is incompatible with the requested gate."""


def wrap_phase(x: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    y = math.fmod(float(x) + math.pi, _TWO_PI)
    if y <= 0.0:
        y += _TWO_PI
    return y - math.pi


def calibrated_pulse(shape: str, peak: float, area: float, t_start: float = 0.0,
                     truncation: float = 4.0) -> SquarePulse | GaussianPulse:
    """Pulse of ``shape`` (``"square"`` or ``"gaussian"``) with bare area ``area``.

    ``peak`` (meV, > 0) is the square amplitude or the Gaussian peak; the
    duration is ``area / peak``, and the Gaussian width is solved from the
    truncated-Gaussian area so the calibration holds exactly despite the
    cutoff at ``truncation`` sigma.  The support starts at ``t_start``.
    Raises :class:`ValueError` for any other shape or ``peak <= 0``.
    """
    if shape not in ("square", "gaussian"):
        raise ValueError(f"shape must be 'square' or 'gaussian', got {shape!r}")
    if not peak > 0:
        raise ValueError(f"peak must be positive, got {peak!r}")
    if shape == "square":
        return SquarePulse(amplitude=peak, duration=area / peak, t_start=t_start)
    sigma = area / GaussianPulse(peak=peak, sigma=1.0, truncation=truncation).area()
    return GaussianPulse(peak=peak, sigma=sigma, center=t_start + truncation * sigma,
                         truncation=truncation)


def square_cphase_pulse(omega: float, t_start: float = 0.0) -> SquarePulse:
    """Square pulse whose sqrt(2)-enhanced area is exactly ``2 pi hbar``.

    ``omega`` is the bare (single-dot) Rabi energy in meV; the duration is
    ``2 pi hbar / (sqrt(2) omega)``.
    """
    return calibrated_pulse("square", omega, CPHASE_AREA, t_start)


def gaussian_cphase_pulse(peak: float, truncation: float = 4.0,
                          t_start: float = 0.0) -> GaussianPulse:
    """Gaussian pulse with sqrt(2)-enhanced area ``2 pi hbar``.

    The width is solved from the truncated-Gaussian area so the calibration
    holds exactly despite the cutoff at ``truncation`` sigma.  The pulse is
    placed with its support starting at ``t_start``.
    """
    return calibrated_pulse("gaussian", peak, CPHASE_AREA, t_start, truncation)


def commensurate_gate_time(p: DotPairParams, omega: float) -> float:
    """Gate duration snapped to whole spectator Rabi periods.

    The idle-partner blocks precess with generalized Rabi energy
    ``sqrt(omega^2 + v_f^2)``; choosing the gate time as an integer number
    of those periods returns the spectator population to its ground level
    at the end of the pulse (at the cost of a slightly off-nominal area).
    """
    t0 = calibrated_pulse("square", omega, CPHASE_AREA).duration
    t_spec = _TWO_PI * HBAR_MEV_PS / math.hypot(omega, p.v_f)
    n = max(1, round(t0 / t_spec))
    return n * t_spec


def entangling_phase(phases: Mapping[str, float]) -> float:
    """Local-Z-invariant phase ``phi00 - phi01 - phi10 + phi11``, wrapped.

    This combination is unchanged by single-qubit Z rotations, so it is the
    part of the accumulated phases that actually entangles; an ideal
    controlled-phase gate gives pi.
    """
    return wrap_phase(phases["00"] - phases["01"] - phases["10"] + phases["11"])


def cphase_fidelity(amplitudes: Mapping[str, complex]) -> float:
    """Overlap of the diagonal gate action with an ideal controlled-phase.

    ``|a00 + a01 + a10 - a11|^2 / 16``: both phase errors and amplitude
    leakage reduce it, and it is 1 exactly for ``diag(1, 1, 1, -1)``.
    """
    tr = (complex(amplitudes["00"]) + complex(amplitudes["01"])
          + complex(amplitudes["10"]) - complex(amplitudes["11"]))
    return float(abs(tr) ** 2 / 16.0)


def analytic_11_evolution(p: DotPairParams, area: float, t: float = 0.0,
                          frame: str = "rotating") -> tuple[complex, complex]:
    """Closed-form two-level amplitudes of the ``11`` block during a pulse.

    Ignoring the far-detuned ``XX`` level, a resonant pulse of accumulated
    sqrt(2)-enhanced area ``area`` (in units of hbar) leaves
    ``a11 = cos(area/2)`` and moves ``-i sin(area/2)`` into ``psi+``.  In
    the lab frame the transferred amplitude additionally carries the
    transition phase ``exp(-i (omega_a + v_f) t / hbar)``.
    """
    a11 = complex(math.cos(area / 2.0))
    apsi = -1j * math.sin(area / 2.0)
    if frame == "rotating":
        return a11, apsi
    if frame == LAB_FRAME:
        return a11, complex(apsi * np.exp(-1j * (p.omega_a + p.v_f) * t / HBAR_MEV_PS))
    raise ValueError(f"frame must be 'rotating' or 'lab', got {frame!r}")


def selectivity_fidelity(rabi: float, detuning: float) -> float:
    """Worst-case overlap of an off-resonant pulse with the identity.

    A transition detuned by ``detuning`` from the drive keeps fidelity of
    at least ``1 - (rabi/detuning)^2``; the value is clamped at 0.  Used to
    size how far apart two transitions must sit for one to be addressed
    without touching the other.
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    return max(0.0, 1.0 - (rabi / detuning) ** 2)


def pi_pulse_time(rabi: float) -> float:
    """Duration of a resonant square pi pulse with Rabi energy ``rabi``."""
    return calibrated_pulse("square", rabi, PI_AREA).duration


def pulse_summary(env: SquarePulse | GaussianPulse) -> dict[str, Any]:
    lo, hi = env.support()
    d: dict[str, Any] = {
        "shape": "square" if isinstance(env, SquarePulse) else "gaussian",
        "peak": env.peak_value(),
        "area": env.area(),
        "support": [lo, hi],
    }
    if isinstance(env, GaussianPulse):
        d["sigma"] = env.sigma
        d["center"] = env.center
        d["truncation"] = env.truncation
    return d


@dataclass(frozen=True, eq=False)
class GateReport:
    """Outcome of a controlled-phase run, one entry per spin configuration.

    ``phases`` are the wrapped arguments of the returning computational
    amplitudes; ``populations`` their squared magnitudes; ``residuals`` the
    final populations left outside the computational level of each block.
    ``theta`` is the local-Z-invariant entangling phase and ``fidelity``
    the controlled-phase overlap of the assembled diagonal.
    """

    params: DotPairParams
    pulse: Mapping[str, Any]
    gate_time: float
    phases: Mapping[str, float]
    amplitudes: Mapping[str, complex]
    populations: Mapping[str, float]
    residuals: Mapping[str, Mapping[str, float]]
    leakage: Mapping[str, float]
    theta: float
    fidelity: float
    conditions: ConditionReport
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulse", MappingProxyType(dict(self.pulse)))
        object.__setattr__(self, "phases", MappingProxyType(dict(self.phases)))
        object.__setattr__(self, "amplitudes", MappingProxyType(dict(self.amplitudes)))
        object.__setattr__(self, "populations", MappingProxyType(dict(self.populations)))
        object.__setattr__(self, "residuals", MappingProxyType(
            {k: MappingProxyType(dict(v)) for k, v in self.residuals.items()}))
        object.__setattr__(self, "leakage", MappingProxyType(dict(self.leakage)))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "cphase",
            "dot_params": {
                "omega_a": self.params.omega_a,
                "v_f": self.params.v_f,
                "v_xx": self.params.v_xx,
            },
            "pulse": dict(self.pulse),
            "gate_time": self.gate_time,
            "phases": dict(self.phases),
            "amplitudes": {k: {"re": v.real, "im": v.imag}
                           for k, v in self.amplitudes.items()},
            "populations": dict(self.populations),
            "residuals": {k: dict(v) for k, v in self.residuals.items()},
            "leakage": dict(self.leakage),
            "theta": self.theta,
            "fidelity": self.fidelity,
            "conditions": self.conditions.as_dict(),
            "warnings": list(self.warnings),
        }


def run_cphase(p: DotPairParams, envelope: SquarePulse | GaussianPulse,
               config: IntegratorConfig | None = None,
               threshold_biexciton: float = 0.1,
               threshold_spectator: float = 0.1,
               ) -> tuple[GateReport, dict[str, Trajectory]]:
    """Simulate one controlled-phase pulse across all four spin blocks.

    The envelope must satisfy ``sqrt(2) * area == 2 pi hbar`` within 1%
    (:class:`PulseAreaError` otherwise); a zero-area envelope is allowed
    and reports the identity.  Returns the report plus the per-block
    trajectories, all in the rotating frame of the gate laser and keyed by
    the initial spin configuration.
    """
    cfg = config or IntegratorConfig()
    area = envelope.area()
    warn: list[str] = []
    if area == 0.0:
        warn.append("zero-area pulse: no gate is applied")
    else:
        dev = abs(area - CPHASE_AREA) / CPHASE_AREA
        if dev > PULSE_AREA_RTOL:
            raise PulseAreaError(
                f"sqrt(2)-enhanced pulse area {(_SQRT2 * area):.6f} deviates from "
                f"2*pi*hbar = {_SQRT2 * CPHASE_AREA:.6f} by {dev:.2%} (limit "
                f"{PULSE_AREA_RTOL:.0%})"
            )

    t0, t1 = envelope.support()
    omega_l = p.omega_a + p.v_f
    frame = rotating_frame_tag(omega_l)
    bps = envelope.breakpoints()

    h11 = rwa_subspace_generator(p, envelope)
    spect = spectator_generator(p, envelope)
    if isinstance(envelope, SquarePulse):
        # constant over the support: hand over the matrices for exact eigh
        mid = 0.5 * (t0 + t1)
        h11, spect = h11(mid), spect(mid)
    def block(h, basis: Basis, label: str) -> Trajectory:
        # a driven block maps an array of times to its stack of matrices;
        # the square pulse's matrices take eigh regardless
        return evolve_schrodinger(h, QuantumState.basis_state(basis, label, frame),
                                  (t0, t1), cfg, breakpoints=bps, batched=True)

    traj_11 = block(h11, PSI_SUBSPACE, "11")
    traj_01 = block(spect, SPECTATOR_A_IDLE, "01")
    # both idle blocks hold the same matrix and start in their first level
    traj_10 = Trajectory(traj_01.times, traj_01.states, SPECTATOR_B_IDLE, frame, "pure",
                         traj_01.metadata)
    ones = np.ones((traj_11.times.size, 1), dtype=complex)
    traj_00 = Trajectory(traj_11.times, ones, _DARK_BLOCK, frame, "pure")

    trajs = {"00": traj_00, "01": traj_01, "10": traj_10, "11": traj_11}
    amplitudes = {k: traj.final_amplitude(k) for k, traj in trajs.items()}
    phases = {k: (0.0 if k == "00" else float(np.angle(v)))
              for k, v in amplitudes.items()}
    populations = {k: float(abs(v) ** 2) for k, v in amplitudes.items()}
    residuals = {
        "00": {},
        "01": {"0X": float(traj_01.population("0X")[-1])},
        "10": {"X0": float(traj_10.population("X0")[-1])},
        "11": {lbl: float(traj_11.population(lbl)[-1])
               for lbl in ("psi+", "psi-", "XX")},
    }
    leakage = {k: max(0.0, 1.0 - populations[k]) for k in populations}

    conditions = check_conditions(p, envelope, threshold_biexciton, threshold_spectator)
    if not conditions.biexciton_ok:
        warn.append(
            f"biexciton ratio {conditions.r_biexciton:.3f} >= threshold "
            f"{conditions.threshold_biexciton:g}: XX leakage is not negligible")
    if not conditions.spectator_ok:
        warn.append(
            f"spectator ratio {conditions.r_spectator:.3f} >= threshold "
            f"{conditions.threshold_spectator:g}: idle blocks are driven hard")

    report = GateReport(
        params=p,
        pulse=pulse_summary(envelope),
        gate_time=t1 - t0,
        phases=phases,
        amplitudes=amplitudes,
        populations=populations,
        residuals=residuals,
        leakage=leakage,
        theta=entangling_phase(phases),
        fidelity=cphase_fidelity(amplitudes),
        conditions=conditions,
        warnings=tuple(warn),
    )
    return report, trajs


@dataclass(frozen=True)
class ZGateParams:
    """Two resonant pi pulses around a free wait, acting on one dot.

    ``pulse`` must carry bare area ``pi hbar`` within 1%.  ``amplitudes``
    is the initial spin superposition ``(a0, a1)``; the default is the
    equal superposition, which maximizes the visibility of the relative
    phase.
    """

    pulse: SquarePulse | GaussianPulse
    wait: float
    amplitudes: tuple[complex, complex] = (1.0 / _SQRT2, 1.0 / _SQRT2)

    def __post_init__(self) -> None:
        if self.wait < 0:
            raise ValueError("wait must be >= 0")
        dev = abs(self.pulse.area() - PI_AREA) / PI_AREA
        if dev > PULSE_AREA_RTOL:
            raise PulseAreaError(
                f"pulse area {self.pulse.area():.6f} deviates from pi*hbar = "
                f"{PI_AREA:.6f} by {dev:.2%}; the exciton shelving needs pi pulses"
            )
        a0, a1 = complex(self.amplitudes[0]), complex(self.amplitudes[1])
        norm = math.hypot(abs(a0), abs(a1))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"initial amplitudes have norm {norm:.9f}, expected 1")
        if abs(a0) < 1e-12 or abs(a1) < 1e-12:
            raise ValueError("both spin amplitudes must be nonzero to read a relative phase")
        object.__setattr__(self, "amplitudes", (a0, a1))


@dataclass(frozen=True, eq=False)
class ZRotationReport:
    """Relative-phase outcome of the shelve/wait/unshelve sequence.

    ``achieved_phase`` is the wait-induced relative phase after the
    zero-wait baseline is subtracted; ``target_phase`` is the wrapped
    optical phase ``omega_a * wait / hbar`` the protocol is designed to
    imprint.  ``composite_phase`` is the baseline pulse-pair contribution
    itself.  Because each pulse resets the laser phase, the carrier phase
    gathered during the first pulse stays in it: for square pi pulses of
    length ``T`` it is ``wrap(pi - omega_a * T / hbar)``, which is +-pi only
    when the carrier makes whole cycles per pulse.  ``trion_leakage`` is
    the population stranded in the exciton level at the end.
    """

    omega_a: float
    wait: float
    target_phase: float
    achieved_phase: float
    composite_phase: float
    trion_leakage: float
    final_amplitudes: tuple[complex, complex, complex]
    warnings: tuple[str, ...] = ()

    @property
    def phase_error(self) -> float:
        return wrap_phase(self.achieved_phase - self.target_phase)

    def to_dict(self) -> dict[str, Any]:
        a0, a1, ax = self.final_amplitudes
        return {
            "kind": "zrot",
            "omega_a": self.omega_a,
            "wait": self.wait,
            "target_phase": self.target_phase,
            "achieved_phase": self.achieved_phase,
            "phase_error": self.phase_error,
            "composite_phase": self.composite_phase,
            "trion_leakage": self.trion_leakage,
            "final_amplitudes": {
                "0": {"re": a0.real, "im": a0.imag},
                "1": {"re": a1.real, "im": a1.imag},
                "X": {"re": ax.real, "im": ax.imag},
            },
            "warnings": list(self.warnings),
        }


def run_z_rotation(p: DotPairParams, gate: ZGateParams,
                   config: IntegratorConfig | None = None,
                   ) -> tuple[ZRotationReport, Trajectory]:
    """Simulate the shelve/wait/unshelve single-qubit phase gate in the lab frame.

    The addressed dot is driven at its bare exciton resonance.  Each pulse
    starts with the laser carrier phase reset to zero (``carrier_origin``
    at the pulse start); without that reset the optical phase accumulated
    during the wait is cancelled by the second pulse instead of imprinted.
    A second, zero-wait run provides the baseline pulse-pair phase, which
    is subtracted so the reported phase isolates the wait contribution.
    All three pulses take their states from one propagator, built on the
    batched Magnus path (over one carrier period for a square pulse).

    Returns the report and the full lab-frame trajectory of the main run.
    """
    cfg = config or IntegratorConfig()
    pulse = gate.pulse
    t0, t1 = pulse.support()
    span = t1 - t0
    total_radians = p.omega_a * (2.0 * span + gate.wait) / HBAR_MEV_PS
    if total_radians > _MAX_CARRIER_RADIANS:
        raise IntegrationError(
            f"lab-frame carrier would oscillate through {total_radians:.3g} radians; "
            "this is impractically slow to integrate.  The imprinted phase depends "
            "only on omega_a * wait / hbar, so rerun with a scaled-down omega_a "
            "(e.g. 2e3 meV) and a correspondingly chosen wait."
        )

    a0, a1 = gate.amplitudes
    psi0 = np.array([a0, a1, 0.0], dtype=complex)

    # a square envelope leaves only the carrier, periodic from its origin
    period = _TWO_PI * HBAR_MEV_PS / p.omega_a if isinstance(pulse, SquarePulse) else None

    # Every pulse restarts the carrier with its envelope, so its H depends
    # only on the time since it began: one propagator U(t - t0), whose
    # columns are the runs from the three basis states, serves all three
    # pulses as U @ start.  Both envelopes map arrays of times, so the block
    # is batched: Magnus steps refined to rtol, over one period or the span.
    drive = LaserDrive(pulse, p.omega_a, carrier_origin=t0)
    columns = evolve_schrodinger(
        lab_single_dot_generator(p.omega_a, drive),
        [QuantumState.basis_state(SINGLE_DOT, lbl) for lbl in SINGLE_DOT.labels],
        (t0, t1), cfg, breakpoints=pulse.breakpoints(), period=period, batched=True)
    u = np.stack([c.states for c in columns], axis=2)
    offsets = columns[0].times - t0
    meta = columns[0].metadata

    def pulse_states(start: np.ndarray) -> np.ndarray:
        states = u @ start
        check_drift(np.linalg.norm(states, axis=1))
        return states

    seg1 = Trajectory(columns[0].times, pulse_states(psi0), SINGLE_DOT, LAB_FRAME, "pure",
                      meta)
    mid_state = seg1.final_state()

    # main arm: free wait, then the second pulse from where the wait ends;
    # the one solve is counted once, with the first pulse
    parts = [seg1]
    if gate.wait > 0:
        h_free = np.zeros((3, 3), dtype=complex)
        h_free[SINGLE_DOT.index("X"), SINGLE_DOT.index("X")] = p.omega_a
        free = evolve_schrodinger(h_free, mid_state, (t1, t1 + gate.wait), cfg)
        parts.append(free)
        after_wait = free.states[-1]
    else:
        after_wait = mid_state.amplitudes
    parts.append(Trajectory((t1 + gate.wait) + offsets, pulse_states(after_wait), SINGLE_DOT,
                            LAB_FRAME, "pure", {"propagator": meta["propagator"]}))
    traj = concatenate_trajectories(parts)

    # baseline arm: identical second pulse immediately after the first
    fin_base = pulse_states(mid_state.amplitudes)[-1]

    def rel_phase(amps: np.ndarray) -> float:
        return float(np.angle(amps[1]) - np.angle(amps[0]))

    warn: list[str] = []
    fin_main = traj.states[-1]
    if min(abs(fin_main[0]), abs(fin_main[1]), abs(fin_base[0]), abs(fin_base[1])) < 1e-6:
        raise PhaseUndefinedError(
            "a spin amplitude vanished after the pulse pair; the relative phase "
            "cannot be read out"
        )
    phi_main = rel_phase(fin_main)
    phi_base = rel_phase(fin_base)
    achieved = wrap_phase(phi_base - phi_main)
    target = wrap_phase(p.omega_a * gate.wait / HBAR_MEV_PS)
    phi_in = rel_phase(np.array([a0, a1], dtype=complex))
    composite = wrap_phase(phi_base - phi_in)

    leak = float(abs(fin_main[SINGLE_DOT.index("X")]) ** 2)
    if leak > 1e-2:
        warn.append(f"exciton level retains population {leak:.3e} after the second pulse")

    report = ZRotationReport(
        omega_a=p.omega_a,
        wait=gate.wait,
        target_phase=target,
        achieved_phase=achieved,
        composite_phase=composite,
        trion_leakage=leak,
        final_amplitudes=(complex(fin_main[0]), complex(fin_main[1]),
                          complex(fin_main[2])),
        warnings=tuple(warn),
    )
    return report, traj


def raman_rate(rabi: float, detuning: float) -> float:
    """Effective two-photon Rabi energy ``rabi^2 / (2 |detuning|)`` in meV."""
    if rabi <= 0:
        raise ValueError("rabi must be positive")
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    return rabi**2 / (2.0 * abs(detuning))


def raman_pi_time(rabi: float, detuning: float, target_angle: float = math.pi) -> float:
    """Estimated time for a Raman rotation of ``target_angle``."""
    if not (0.0 < target_angle <= math.pi):
        raise ValueError("target_angle must be in (0, pi]")
    return target_angle * HBAR_MEV_PS / raman_rate(rabi, detuning)


def raman_window(params: "RamanParams", time_window: float | None = None) -> float:
    """Length of a Raman run: ``time_window``, else 1.6 times the rate estimate."""
    if time_window is not None:
        return float(time_window)
    return 1.6 * raman_pi_time(params.rabi, params.detuning, params.target_angle)


@dataclass(frozen=True)
class RamanParams:
    """Raman spin-flip drive: one laser Rabi energy, one-photon detuning,
    and the radiative decay rate of the intermediate level (1/ps)."""

    rabi: float = 1.33
    detuning: float = 4.0
    gamma: float = 0.1
    target_angle: float = math.pi

    def __post_init__(self) -> None:
        if self.rabi <= 0:
            raise ValueError("rabi must be positive")
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not (0.0 < self.target_angle <= math.pi):
            raise ValueError("target_angle must be in (0, pi]")


@dataclass(frozen=True, eq=False)
class RamanReport:
    """Outcome of a Raman rotation: when the transfer peaks and how much
    population survives the lossy intermediate level."""

    params: RamanParams
    effective_rabi: float
    pi_time_estimate: float
    pi_time: float
    fidelity: float
    populations: Mapping[str, float]
    lost: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "populations", MappingProxyType(dict(self.populations)))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "raman",
            "rabi": self.params.rabi,
            "detuning": self.params.detuning,
            "gamma": self.params.gamma,
            "target_angle": self.params.target_angle,
            "effective_rabi": self.effective_rabi,
            "pi_time_estimate": self.pi_time_estimate,
            "pi_time": self.pi_time,
            "fidelity": self.fidelity,
            "populations": dict(self.populations),
            "lost": self.lost,
            "warnings": list(self.warnings),
        }


def run_raman_x(params: RamanParams, config: IntegratorConfig | None = None,
                time_window: float | None = None,
                ) -> tuple[RamanReport, Trajectory]:
    """Simulate a Raman rotation starting from spin ``0``.

    The master equation includes a collapse channel dumping the excited
    level into a sink at rate ``gamma``, a pessimistic stand-in for
    radiative decay (every emitted photon is treated as lost population).
    The rotation time is read off as the location of the populated-``1``
    maximum inside the window, defaulting to 1.6 times the rate estimate.
    """
    cfg = config or IntegratorConfig()
    t_est = raman_pi_time(params.rabi, params.detuning, params.target_angle)
    window = raman_window(params, time_window)
    if window <= 0:
        raise ValueError("time_window must be positive")

    h = raman_hamiltonian(params.rabi, params.detuning)
    channels: tuple[CollapseChannel, ...] = ()
    if params.gamma > 0:
        sink = np.zeros((4, 4), dtype=complex)
        sink[RAMAN_LEVELS.index("s"), RAMAN_LEVELS.index("e")] = 1.0
        channels = (CollapseChannel(sink, params.gamma, "radiative loss"),)

    rho0 = QuantumState.basis_state(RAMAN_LEVELS, "0", h.frame).density()
    traj = evolve_lindblad(h, rho0, (0.0, window), channels, cfg)

    p1 = traj.population("1")
    i = int(np.argmax(p1))
    warn: list[str] = []
    if i == p1.size - 1:
        warn.append("transfer still rising at the window end; extend time_window")
    t_pi = float(traj.times[i])
    pops = {lbl: float(traj.population(lbl)[i]) for lbl in RAMAN_LEVELS.labels}
    report = RamanReport(
        params=params,
        effective_rabi=raman_rate(params.rabi, params.detuning),
        pi_time_estimate=t_est,
        pi_time=t_pi,
        fidelity=float(p1[i]),
        populations=pops,
        lost=pops["s"],
        warnings=tuple(warn),
    )
    return report, traj
