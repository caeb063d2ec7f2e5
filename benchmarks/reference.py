"""Independent reference propagators for the gate-job benchmark.

Everything here is rebuilt from the physical model, not imported from
``dotgates``: the rotating-frame blocks of the driven dot pair, the
pulse calibrations, and the Raman master equation.  Constant Hamiltonians
are propagated with one matrix exponential, smooth envelopes with a
Richardson-extrapolated midpoint product of exponentials, and the Raman
Lindbladian with one exponential of its 16x16 superoperator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

HBAR = 0.6582119569  # meV ps
SQRT2 = math.sqrt(2.0)
# sqrt(2)-enhanced controlled-phase area 2 pi hbar, as a bare-pulse area
CPHASE_BARE_AREA = 2.0 * math.pi * HBAR / SQRT2


def wrap(x: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def pair_block(v_f: float, v_xx: float, drive) -> np.ndarray:
    """RWA block (11, psi+, psi-, XX) in the frame of the 11 -> psi+ line.

    The drive reaches only psi+, with the sqrt(2)-enhanced coupling.  An
    array of drive values gives a stack of blocks.
    """
    static = np.diag([0.0, 0.0, -2.0 * v_f, v_xx - 2.0 * v_f]).astype(complex)
    coupling = np.zeros((4, 4))
    coupling[0, 1] = coupling[1, 0] = coupling[1, 3] = coupling[3, 1] = SQRT2 / 2.0
    return static + np.multiply.outer(drive, coupling)


def spectator_block(v_f: float, drive) -> np.ndarray:
    """RWA block (01, 0X): the lone exciton sits -v_f off the gate laser."""
    static = np.diag([0.0, -v_f]).astype(complex)
    return static + np.multiply.outer(drive, np.array([[0.0, 0.5], [0.5, 0.0]]))


def square_duration(omega: float) -> float:
    """Square-pulse length giving the controlled-phase area."""
    return CPHASE_BARE_AREA / omega


def gaussian_sigma(peak: float, truncation: float = 4.0) -> float:
    """Width of a Gaussian cut at +-truncation sigma with the controlled-phase area."""
    return CPHASE_BARE_AREA / (peak * math.sqrt(2.0 * math.pi)
                               * math.erf(truncation / SQRT2))


def square_amplitudes(omega: float, v_f: float, v_xx: float,
                      duration: float) -> dict[str, complex]:
    """Returning amplitudes of the driven blocks after a square pulse."""
    u11 = expm(-1j * pair_block(v_f, v_xx, omega) * duration / HBAR)
    us = expm(-1j * spectator_block(v_f, omega) * duration / HBAR)
    return {"11": complex(u11[0, 0]), "01": complex(us[0, 0]),
            "10": complex(us[0, 0])}


def _midpoint_product(blocks, t0: float, t1: float, steps: int) -> np.ndarray:
    dt = (t1 - t0) / steps
    h = blocks(t0 + dt * (np.arange(steps) + 0.5))
    w, v = np.linalg.eigh(h)
    cells = (v * np.exp(-1j * w * dt / HBAR)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    u = np.eye(h.shape[-1], dtype=complex)
    for c in cells:
        u = c @ u
    return u


def envelope_propagator(blocks, t0: float, t1: float, steps: int) -> np.ndarray:
    """Propagator over [t0, t1] of a smooth ``blocks(times) -> (n, d, d)``.

    The midpoint product has an even error series in the step, so
    combining ``steps`` and ``2 * steps`` cancels its leading term.
    """
    coarse = _midpoint_product(blocks, t0, t1, steps)
    fine = _midpoint_product(blocks, t0, t1, 2 * steps)
    return (4.0 * fine - coarse) / 3.0


def gaussian_amplitudes(peak: float, v_f: float, v_xx: float, sigma: float,
                        truncation: float = 4.0,
                        steps: int = 2000) -> dict[str, complex]:
    """Returning amplitudes under a Gaussian envelope on [0, 2 truncation sigma]."""
    center = truncation * sigma

    def envelope(t):
        return peak * np.exp(-0.5 * ((t - center) / sigma) ** 2)

    t1 = 2.0 * center
    u11 = envelope_propagator(lambda t: pair_block(v_f, v_xx, envelope(t)),
                              0.0, t1, steps)
    us = envelope_propagator(lambda t: spectator_block(v_f, envelope(t)),
                             0.0, t1, steps)
    return {"11": complex(u11[0, 0]), "01": complex(us[0, 0]),
            "10": complex(us[0, 0])}


def zrot_target_phase(omega_a: float, wait: float) -> float:
    """Relative phase the shelved wait imprints: wrap(omega_a wait / hbar)."""
    return wrap(omega_a * wait / HBAR)


def zrot_composite_phase(omega_a: float, rabi: float) -> float:
    """Relative phase of the zero-wait pulse pair, wrap(pi - omega_a T / hbar).

    Each square pi pulse of length ``T = pi hbar / rabi`` resets the laser
    phase at its start, so the carrier phase the shelved amplitude gathers
    during the first pulse stays in the result.  It is +-pi only when the
    carrier makes whole cycles in one pulse.
    """
    return wrap(math.pi - omega_a * math.pi / rabi)


def raman_window(rabi: float, detuning: float, angle: float = math.pi) -> float:
    """Default scan window: 1.6 times the two-photon pi-time estimate."""
    return 1.6 * angle * HBAR * 2.0 * abs(detuning) / rabi**2


def raman_liouvillian(rabi: float, detuning: float, gamma: float) -> np.ndarray:
    """16x16 generator of row-major vec(rho) on levels (0, 1, e, s).

    Both spin levels couple to ``e`` with ``rabi / 2``; ``e`` sits at
    ``detuning`` and decays into the sink ``s`` at rate ``gamma``.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[2, 2] = detuning
    h[0, 2] = h[2, 0] = h[1, 2] = h[2, 1] = rabi / 2.0
    jump = np.zeros((4, 4), dtype=complex)
    jump[3, 2] = 1.0
    eye = np.eye(4)
    jj = jump.conj().T @ jump
    # vec(A X B) = kron(A, B.T) vec(X) for row-major vec
    return (-1j / HBAR * (np.kron(h, eye) - np.kron(eye, h.T))
            + gamma * (np.kron(jump, jump.conj()) - 0.5 * np.kron(jj, eye)
                       - 0.5 * np.kron(eye, jj.T)))


def raman_scan(rabi: float, detuning: float, gamma: float, window: float,
               sample_interval: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and level populations (0, 1, e, s) of a Raman run from 0.

    The grid is ``ceil(window / sample_interval)`` equal cells; one
    exponential of the constant Liouvillian steps across each.
    """
    n = max(1, math.ceil(window / sample_interval))
    times = np.linspace(0.0, window, n + 1)
    step = expm(raman_liouvillian(rabi, detuning, gamma) * (window / n))
    rho = np.zeros(16, dtype=complex)
    rho[0] = 1.0
    pops = np.empty((n + 1, 4))
    pops[0] = rho[::5].real
    for i in range(n):
        rho = step @ rho
        pops[i + 1] = rho[::5].real
    return times, pops
