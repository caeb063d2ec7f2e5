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
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from .dynamics import (
    CollapseChannel,
    IntegrationError,
    IntegratorConfig,
    PhaseUndefinedError,
    Trajectory,
    check_drift,
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
    Report,
    SINGLE_DOT,
    SPECTATOR_A_IDLE,
    SPECTATOR_B_IDLE,
    SquarePulse,
    check_conditions,
    lab_single_dot_generator,
    raman_generator,
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
    "check_cphase_pulse",
    "run_cphase",
    "entangling_phase",
    "cphase_fidelity",
    "analytic_11_evolution",
    "selectivity_fidelity",
    "pi_pulse_time",
    "ZGateParams",
    "ZRotationReport",
    "check_zrot_carrier",
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

#: relative tolerance on the area of a cphase or zrot pulse before the run
PULSE_AREA_RTOL = 0.01

#: bare pulse area (meV ps) of the cphase pulse: sqrt(2)-enhanced area 2 pi hbar
CPHASE_AREA = _TWO_PI * HBAR_MEV_PS / _SQRT2
#: bare pulse area (meV ps) of a pi pulse
PI_AREA = math.pi * HBAR_MEV_PS

# the most carrier radians a lab-frame zrot run integrates (check_zrot_carrier)
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
                     truncation: float = 4.0,
                     width: float | None = None) -> SquarePulse | GaussianPulse:
    """Pulse of ``shape`` (``"square"`` or ``"gaussian"``) with bare area ``area``.

    ``peak`` (meV, > 0) is the square amplitude or the Gaussian peak; the
    duration is ``area / peak``, and the Gaussian width is solved from the
    truncated-Gaussian area so the calibration holds exactly despite the
    cutoff at ``truncation`` sigma.  A given ``width`` (the square's
    duration or the Gaussian's sigma) replaces the calibrated one; ``area``
    is then not read and ``peak`` may be 0.  The support starts at
    ``t_start``.  Raises :class:`ValueError` for any other shape or, with
    no ``width``, ``peak <= 0``.
    """
    if shape not in ("square", "gaussian"):
        raise ValueError(f"shape must be 'square' or 'gaussian', got {shape!r}")
    if width is None and not peak > 0:
        raise ValueError(f"peak must be positive, got {peak!r}")
    if shape == "square":
        return SquarePulse(peak, area / peak if width is None else width, t_start)
    sigma = (area / GaussianPulse(peak=peak, sigma=1.0, truncation=truncation).area()
             if width is None else width)
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


def _check_area(area: float, target: float, scale: float, quantity: str,
                target_name: str) -> None:
    """Raise :class:`PulseAreaError` when ``area`` deviates from ``target`` by
    more than :data:`PULSE_AREA_RTOL`; the message quotes both times ``scale``."""
    dev = abs(area - target) / target
    if dev > PULSE_AREA_RTOL:
        raise PulseAreaError(
            f"{quantity} {scale * area:.6f} deviates from {target_name} = "
            f"{scale * target:.6f} by {dev:.2%} (limit {PULSE_AREA_RTOL:.0%})")


def check_cphase_pulse(envelope: SquarePulse | GaussianPulse) -> float:
    """The bare area of a cphase ``envelope``: zero, or with ``sqrt(2) * area``
    within :data:`PULSE_AREA_RTOL` of ``2 pi hbar`` (:class:`PulseAreaError`
    otherwise)."""
    area = envelope.area()
    if area != 0.0:
        _check_area(area, CPHASE_AREA, _SQRT2, "sqrt(2)-enhanced pulse area", "2*pi*hbar")
    return area


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
class GateReport(Report):
    """Outcome of a controlled-phase run, one entry per spin configuration.

    ``phases`` are the wrapped arguments of the returning computational
    amplitudes; ``populations`` their squared magnitudes; ``residuals`` the
    final populations left outside the computational level of each block.
    ``theta`` is the local-Z-invariant entangling phase and ``fidelity``
    the controlled-phase overlap of the assembled diagonal.
    """

    kind: str = field(default="cphase", init=False)
    dot_params: DotPairParams
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
    warn = [] if check_cphase_pulse(envelope) else ["zero-area pulse: no gate is applied"]

    t0, t1 = envelope.support()
    frame = rotating_frame_tag(p.omega_a + p.v_f)

    def block(h, basis: Basis, label: str) -> Trajectory:
        state = QuantumState.basis_state(basis, label, frame)
        return evolve_schrodinger(h, state, (t0, t1), cfg)

    traj_11 = block(rwa_subspace_generator(p, envelope), PSI_SUBSPACE, "11")
    traj_01 = block(spectator_generator(p, envelope), SPECTATOR_A_IDLE, "01")
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

    def ratio(r: float) -> str:  # three decimals, but one short line for a huge ratio
        return f"{r:.3f}" if r < 1e6 else f"{r:.3e}"
    conditions = check_conditions(p, envelope, threshold_biexciton, threshold_spectator)
    if not conditions.biexciton_ok:
        warn.append(
            f"biexciton ratio {ratio(conditions.r_biexciton)} >= threshold "
            f"{conditions.threshold_biexciton:g}: XX leakage is not negligible")
    if not conditions.spectator_ok:
        warn.append(
            f"spectator ratio {ratio(conditions.r_spectator)} >= threshold "
            f"{conditions.threshold_spectator:g}: idle blocks are driven hard")

    report = GateReport(
        dot_params=p,
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

    ``pulse`` must carry bare area ``pi hbar`` within 1%.
    """

    pulse: SquarePulse | GaussianPulse
    wait: float

    def __post_init__(self) -> None:
        if self.wait < 0:
            raise ValueError("wait must be >= 0")
        _check_area(self.pulse.area(), PI_AREA, 1.0, "pulse area", "pi*hbar")


@dataclass(frozen=True, eq=False)
class ZRotationReport(Report):
    """Relative-phase outcome of the shelve/wait/unshelve sequence.

    ``achieved_phase`` is the wait-induced relative phase after the
    zero-wait baseline is subtracted; ``target_phase`` is the wrapped
    optical phase ``omega_a * wait / hbar`` the protocol is designed to
    imprint.  ``composite_phase`` is the baseline pulse-pair contribution
    itself.  Because each pulse resets the laser phase, the carrier phase
    gathered during the first pulse stays in it: for square pi pulses of
    length ``T`` it is ``wrap(pi - omega_a * T / hbar)``, which is +-pi only
    when the carrier makes whole cycles per pulse.  ``trion_leakage`` is
    the population stranded in the exciton level at the end, and
    ``phase_error`` the wrapped ``achieved_phase - target_phase``.
    """

    kind: str = field(default="zrot", init=False)
    omega_a: float
    wait: float
    target_phase: float
    achieved_phase: float
    phase_error: float = field(init=False)
    composite_phase: float
    trion_leakage: float
    final_amplitudes: Mapping[str, complex]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "phase_error", wrap_phase(self.achieved_phase - self.target_phase))


def check_zrot_carrier(omega_a: float, gate: ZGateParams) -> None:
    """Raise :class:`IntegrationError` when the lab-frame carrier at ``omega_a``
    would turn through more than ``_MAX_CARRIER_RADIANS`` over ``gate``'s pulses and wait."""
    lo, hi = gate.pulse.support()
    total_radians = omega_a * (2.0 * (hi - lo) + gate.wait) / HBAR_MEV_PS
    if total_radians > _MAX_CARRIER_RADIANS:
        raise IntegrationError(
            f"lab-frame carrier would oscillate through {total_radians:.3g} radians; "
            "this is impractically slow to integrate.  The imprinted phase depends "
            "only on omega_a * wait / hbar, so rerun with a scaled-down omega_a "
            "(e.g. 2e3 meV) and a correspondingly chosen wait."
        )


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
    All three pulses take their states from one propagator, which the
    pulse's block routes (Floquet for a square pulse, Magnus otherwise).

    Returns the report and the full lab-frame trajectory of the main run.
    """
    cfg = config or IntegratorConfig()
    check_zrot_carrier(p.omega_a, gate)
    pulse = gate.pulse
    t0, t1 = pulse.support()

    # the equal superposition shows the relative phase best
    psi0 = np.array([1.0 / _SQRT2, 1.0 / _SQRT2, 0.0], dtype=complex)

    # Every pulse restarts the carrier with its envelope, so its H depends
    # only on the time since it began: one propagator U(t - t0), whose
    # columns are the runs from the three basis states, serves all three
    # pulses as U @ start.
    drive = LaserDrive(pulse, p.omega_a, carrier_origin=t0)
    columns = evolve_schrodinger(
        lab_single_dot_generator(p.omega_a, drive),
        [QuantumState.basis_state(SINGLE_DOT, lbl) for lbl in SINGLE_DOT.labels],
        (t0, t1), cfg)
    u = np.stack([c.states for c in columns], axis=2)
    offsets = columns[0].times - t0
    meta = columns[0].metadata

    def pulse_states(start: np.ndarray) -> np.ndarray:
        states = u @ start
        check_drift(np.linalg.norm(states, axis=1), "norm", meta.get("propagator"))
        return states

    first = pulse_states(psi0)
    mid_state = QuantumState(first[-1], SINGLE_DOT)

    # main arm: free wait (zero-length for a zero wait), then the second pulse;
    # each junction keeps one sample, and the one pulse solve is counted once
    h_free = np.zeros((3, 3), dtype=complex)
    h_free[SINGLE_DOT.index("X"), SINGLE_DOT.index("X")] = p.omega_a
    free = evolve_schrodinger(h_free, mid_state, (t1, t1 + gate.wait), cfg)
    times = [columns[0].times, free.times[1:], (t1 + gate.wait) + offsets[1:]]
    states = [first, free.states[1:], pulse_states(free.states[-1])[1:]]
    traj = Trajectory(np.concatenate(times), np.concatenate(states), SINGLE_DOT, LAB_FRAME,
                      "pure", meta)

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
    composite = wrap_phase(phi_base - rel_phase(psi0))

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
        final_amplitudes=dict(zip(SINGLE_DOT.labels, map(complex, fin_main))),
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
class RamanReport(Report):
    """Outcome of a Raman rotation: the drive's :class:`RamanParams`, when
    the transfer peaks and how much population survives the lossy
    intermediate level."""

    kind: str = field(default="raman", init=False)
    rabi: float
    detuning: float
    gamma: float
    target_angle: float
    effective_rabi: float
    pi_time_estimate: float
    pi_time: float
    fidelity: float
    populations: Mapping[str, float]
    lost: float
    warnings: tuple[str, ...] = ()


def run_raman_x(params: RamanParams, config: IntegratorConfig | None = None,
                time_window: float | None = None,
                ) -> tuple[RamanReport, Trajectory]:
    """Simulate a Raman rotation starting from spin ``0``.

    The drive is a :func:`~dotgates.model.raman_generator` block, square over
    the whole window, so the 10 entries of ``vec(rho)`` that spin ``0``
    reaches run as one matrix (``liouvillian-eig``); the rest stay zero.  The
    master equation includes a collapse channel dumping the excited level
    into a sink at rate ``gamma``, a pessimistic stand-in for radiative decay
    (every emitted photon is treated as lost population).
    The rotation time is read off as the location of the populated-``1``
    maximum inside the window, defaulting to 1.6 times the rate estimate.
    """
    cfg = config or IntegratorConfig()
    t_est = raman_pi_time(params.rabi, params.detuning, params.target_angle)
    window = raman_window(params, time_window)
    if window <= 0:
        raise ValueError("time_window must be positive")

    h = raman_generator(params.detuning, SquarePulse(params.rabi, window))
    sink = np.zeros((4, 4), dtype=complex)  # a zero gamma leaves the channel out
    sink[RAMAN_LEVELS.index("s"), RAMAN_LEVELS.index("e")] = 1.0
    channels = (CollapseChannel(sink, params.gamma),)

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
        **asdict(params),
        effective_rabi=raman_rate(params.rabi, params.detuning),
        pi_time_estimate=t_est,
        pi_time=t_pi,
        fidelity=float(p1[i]),
        populations=pops,
        lost=pops["s"],
        warnings=tuple(warn),
    )
    return report, traj
