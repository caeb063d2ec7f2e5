"""Hamiltonians for a pair of optically driven, resonantly coupled dots.

Each dot carries two degenerate ground spin levels ``0`` and ``1`` (energy
zero) and a single bright exciton level ``X`` at energy ``omega_a``.  The
laser couples only the ``1 -> X`` transition; ``0`` is dark because its
excitation is spin-forbidden.  Two dots interact through resonant
excitation transfer with strength ``v_f`` (acting between ``1X`` and
``X1``) and a biexciton shift ``v_xx`` on ``XX``.

Because the drive never touches ``0``, the 9-level pair space splits into
four closed blocks labelled by the spin content:

* ``00``                     - fully dark, nothing happens;
* ``01 <-> 0X`` and ``10 <-> X0`` - one driven dot plus an idle partner
  whose exciton level is pulled by ``-v_f`` through the transfer coupling
  (the "spectator" blocks);
* ``11 <-> psi+ <-> XX``     - the computational block, where the transfer
  coupling splits the single-exciton states into symmetric/antisymmetric
  combinations ``psi+ = (1X + X1)/sqrt(2)`` and ``psi-`` and the drive only
  reaches the symmetric one, with Rabi coupling enhanced by sqrt(2).

Every driven block has the form ``H(t) = h0 + f(t) v`` and is written once,
as a :class:`DrivenBlock` returned by its ``*_generator`` factory.  Calling
the block gives the bare ``ndarray`` for use inside integrators, where
wrapper overhead matters; ``block.at(t)`` is the labelled
:class:`~dotgates.operators.OperatorMatrix` at one time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    OperatorMatrix,
    product_basis,
    rotating_frame_tag,
)

__all__ = [
    "SINGLE_DOT",
    "TWO_DOT",
    "PSI_SUBSPACE",
    "SPECTATOR_A_IDLE",
    "SPECTATOR_B_IDLE",
    "EFFECTIVE_TWO_LEVEL",
    "RAMAN_LEVELS",
    "DotPairParams",
    "SquarePulse",
    "GaussianPulse",
    "LaserDrive",
    "DrivenBlock",
    "effective_hamiltonian",
    "lab_pair_generator",
    "lab_single_dot_generator",
    "lab_psi_subspace_generator",
    "rwa_subspace_generator",
    "spectator_generator",
    "raman_generator",
    "two_dot_excitations",
    "Report",
    "ConditionReport",
    "check_conditions",
]

SINGLE_DOT = Basis(("0", "1", "X"), "dot")
TWO_DOT = product_basis(SINGLE_DOT, SINGLE_DOT, "dot-pair")
PSI_SUBSPACE = Basis(("11", "psi+", "psi-", "XX"), "coupled-11-block")
SPECTATOR_A_IDLE = Basis(("01", "0X"), "spectator-a-idle")
SPECTATOR_B_IDLE = Basis(("10", "X0"), "spectator-b-idle")
EFFECTIVE_TWO_LEVEL = Basis(("11", "psi+"), "effective-two-level")
RAMAN_LEVELS = Basis(("0", "1", "e", "s"), "raman-dot")

_SQRT2 = math.sqrt(2.0)


def two_dot_excitations() -> tuple[int, ...]:
    """Number of excitons in each ``TWO_DOT`` basis state, in basis order."""
    return tuple(label.count("X") for label in TWO_DOT.labels)


@dataclass(frozen=True)
class DotPairParams:
    """Static energies of the dot pair, all in meV.

    ``omega_a`` is the bare exciton energy (a real exciton sits near 2 eV,
    i.e. 2e6 meV), ``v_f`` the excitation-transfer coupling and ``v_xx``
    the biexciton shift.  The block energies built from them,
    ``omega_a + v_f``, ``2 v_f``, ``v_xx - 2 v_f`` and ``2 omega_a + v_xx``,
    must be finite; a ``ValueError`` names the first that is not.
    """

    omega_a: float = 2.0e6
    v_f: float = 0.85
    v_xx: float = 5.0

    def __post_init__(self) -> None:
        if not (self.omega_a > 0):
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if self.v_f == 0.0:
            raise ValueError("v_f must be nonzero; an uncoupled pair has no psi+/psi- split")
        if self.v_xx == 2.0 * self.v_f:
            raise ValueError(
                "v_xx == 2*v_f makes the two-photon transition resonant with XX; "
                "the blockade argument breaks down"
            )
        # the level energies of the blocks, each named by the keys it is made of
        energies = (("omega_a + v_f", self.omega_a + self.v_f),
                    ("2 v_f", 2.0 * self.v_f),
                    ("v_xx - 2 v_f", self.biexciton_detuning),
                    ("2 omega_a + v_xx", 2.0 * self.omega_a + self.v_xx))
        for name, energy in energies:
            if not math.isfinite(energy):
                keys = ", ".join(f"{key}={getattr(self, key):g}"
                                 for key in ("omega_a", "v_f", "v_xx") if key in name)
                raise ValueError(f"the block energy {name} is not finite for {keys}")

    @property
    def biexciton_detuning(self) -> float:
        """Detuning v_xx - 2*v_f of XX from two drive photons (meV)."""
        return self.v_xx - 2.0 * self.v_f


@dataclass(frozen=True)
class SquarePulse:
    """Rectangular envelope: ``amplitude`` on [t_start, t_start+duration)."""

    amplitude: float
    duration: float
    t_start: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        if isinstance(t, np.ndarray):
            inside = (self.t_start <= t) & (t < self.t_start + self.duration)
            return np.where(inside, self.amplitude, 0.0)
        if self.t_start <= t < self.t_start + self.duration:
            return self.amplitude
        return 0.0

    def area(self) -> float:
        return self.amplitude * self.duration

    def peak_value(self) -> float:
        return self.amplitude

    def support(self) -> tuple[float, float]:
        return (self.t_start, self.t_start + self.duration)

    def shifted(self, dt: float) -> "SquarePulse":
        return replace(self, t_start=self.t_start + dt)


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian envelope truncated at ``truncation`` sigma on both sides.

    The reported :meth:`area` is the integral over the truncated support,
    not over the full line, so pulse calibration stays exact.
    """

    peak: float
    sigma: float
    center: float = 0.0
    truncation: float = 4.0

    def __post_init__(self) -> None:
        if self.peak < 0:
            raise ValueError("peak must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.truncation <= 0:
            raise ValueError("truncation must be > 0")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        if isinstance(t, np.ndarray):
            u = (t - self.center) / self.sigma
            values = self.peak * np.exp(-0.5 * u * u)
            values[np.abs(t - self.center) > self.truncation * self.sigma] = 0.0
            return values
        if abs(t - self.center) > self.truncation * self.sigma:
            return 0.0
        u = (t - self.center) / self.sigma
        return self.peak * math.exp(-0.5 * u * u)

    def area(self) -> float:
        k = self.truncation
        return self.peak * self.sigma * math.sqrt(2.0 * math.pi) * math.erf(k / _SQRT2)

    def peak_value(self) -> float:
        return self.peak

    def support(self) -> tuple[float, float]:
        half = self.truncation * self.sigma
        return (self.center - half, self.center + half)

    def shifted(self, dt: float) -> "GaussianPulse":
        return replace(self, center=self.center + dt)


@dataclass(frozen=True)
class LaserDrive:
    """Envelope plus carrier: called at ``t``, the field
    ``Omega(t) * cos(omega_l * (t - origin) / hbar)``.

    ``carrier_origin`` sets where the carrier phase is zero.  Pulses that
    are supposed to be phase-coherent must share one origin; protocols that
    reset the laser phase at each pulse use a fresh origin per pulse.
    """

    envelope: SquarePulse | GaussianPulse
    omega_l: float
    carrier_origin: float = 0.0

    def __post_init__(self) -> None:
        if self.omega_l <= 0:
            raise ValueError("omega_l must be positive")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        if isinstance(t, np.ndarray):
            return self.envelope(t) * np.cos(
                self.omega_l * (t - self.carrier_origin) / HBAR_MEV_PS)
        return self.envelope(t) * math.cos(
            self.omega_l * (t - self.carrier_origin) / HBAR_MEV_PS
        )


@dataclass(frozen=True, eq=False)
class DrivenBlock:
    """A driven block ``H(t) = h0 + f(t) v`` in a fixed basis and frame.

    ``h0`` holds the static energies and couplings, ``v`` the drive
    operator and ``f`` the real drive amplitude (a lab-frame
    :class:`LaserDrive` or a rotating-frame envelope).  Calling the block
    at one time gives the bare matrix, as integrators want it; :meth:`at`
    wraps the same matrix as a Hermitian
    :class:`~dotgates.operators.OperatorMatrix`.  The propagators split
    the block into its :meth:`components` and its span into pieces at
    its kinks (:meth:`breakpoints`), ask each :meth:`restricted` part
    which exact method fits a piece (:meth:`structure`), and evaluate
    ``f`` on arrays of times (as both pulse shapes and a
    :class:`LaserDrive` allow).
    """

    basis: Basis
    frame: str
    h0: np.ndarray
    v: np.ndarray
    f: Callable[[float], float]

    def __call__(self, t: float) -> np.ndarray:
        m = self.f(t) * self.v
        m += self.h0
        return m

    def at(self, t: float) -> OperatorMatrix:
        return OperatorMatrix(self(t), self.basis, self.frame, hermitian=True)

    def breakpoints(self) -> tuple[float, ...]:
        """The kinks of the envelope, bare or under a carrier: the edges of its
        support, where a square jumps and a truncated Gaussian is only C0;
        none for any other ``f``."""
        env = getattr(self.f, "envelope", self.f)
        return env.support() if isinstance(env, (SquarePulse, GaussianPulse)) else ()

    def components(self) -> tuple[tuple[int, ...], ...]:
        """The coupled components: the level indices that the nonzero
        off-diagonal entries of ``h0`` and ``v`` connect, each sorted, in
        the order of their lowest level.  Evolution under ``H`` never
        leaves a component; the single dot's ``0`` is one on its own."""
        d = self.basis.dim
        reach = (self.h0 != 0) | (self.v != 0) | np.eye(d, dtype=bool)
        reach = (reach | reach.T).astype(int)
        # squaring doubles the path length covered: row i becomes i's component
        for _ in range(d.bit_length()):
            reach = np.minimum(reach @ reach, 1)
        return tuple(dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach))

    def restricted(self, levels: Sequence[int]) -> "DrivenBlock":
        """The block on ``levels`` alone, with the same frame and ``f``."""
        cut = np.ix_(levels, levels)
        basis = Basis(tuple(self.basis.labels[i] for i in levels), self.basis.name)
        return replace(self, basis=basis, h0=self.h0[cut], v=self.v[cut])

    def structure(self, t0: float, t1: float) -> np.ndarray | float | None:
        """What ``H`` is on the piece from ``t0`` to ``t1``.

        A zero ``v``, or a piece outside the support of a square or Gaussian
        envelope, bare or under a carrier, gives ``h0``.  A square envelope
        that covers the piece gives, bare, the one matrix ``H`` at the
        piece's midpoint and, under a carrier, which makes ``H`` periodic,
        the carrier period ``2 pi hbar / omega_l``.  Any other piece or
        envelope gives ``None``.
        """
        if not self.v.any():
            return self.h0
        env = getattr(self.f, "envelope", self.f)
        if not isinstance(env, (SquarePulse, GaussianPulse)):
            return None
        lo, hi = env.support()
        if max(t0, t1) <= lo or min(t0, t1) >= hi:
            return self.h0
        if not (isinstance(env, SquarePulse) and lo <= min(t0, t1) <= max(t0, t1) <= hi):
            return None
        if env is self.f:
            return self(0.5 * (t0 + t1))
        return 2.0 * math.pi * HBAR_MEV_PS / self.f.omega_l


def _coupling(basis: Basis, pairs: tuple[tuple[str, str], ...],
              value: float = 1.0) -> np.ndarray:
    """Symmetric matrix with ``value`` on each ``(a, b)`` and ``(b, a)`` entry."""
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    for a, b in pairs:
        m[basis.index(a), basis.index(b)] = m[basis.index(b), basis.index(a)] = value
    return m


def lab_pair_generator(p: DotPairParams, drive: LaserDrive) -> DrivenBlock:
    """Lab-frame 9x9 block of the driven pair.

    Diagonal: the exciton count times ``omega_a``, plus ``v_xx`` on ``XX``;
    ``v_f`` couples ``1X`` and ``X1``.  The field drives ``1 <-> X`` on
    each dot with unit matrix element and never touches ``0``.
    """
    h0 = np.diag(np.array([n * p.omega_a for n in two_dot_excitations()], dtype=complex))
    h0[TWO_DOT.index("XX"), TWO_DOT.index("XX")] += p.v_xx
    h0 += _coupling(TWO_DOT, (("1X", "X1"),), p.v_f)
    # sum over dots of (|1><X| + |X><1|), Pauli blocking built in: 0 is dark
    op3 = _coupling(SINGLE_DOT, (("1", "X"),))
    eye = np.eye(3, dtype=complex)
    v = np.kron(op3, eye) + np.kron(eye, op3)
    return DrivenBlock(TWO_DOT, LAB_FRAME, h0, v, drive)


def lab_single_dot_generator(omega_a: float, drive: LaserDrive) -> DrivenBlock:
    """Lab-frame 3x3 block of one driven dot: ``X`` at ``omega_a``, the
    field on ``1 <-> X`` and ``0`` dark."""
    h0 = np.diag(np.array([0.0, 0.0, omega_a], dtype=complex))
    return DrivenBlock(SINGLE_DOT, LAB_FRAME, h0, _coupling(SINGLE_DOT, (("1", "X"),)), drive)


# the drive couples 11 and XX only to psi+; psi- is dark
_PSI_PLUS_COUPLINGS = (("11", "psi+"), ("psi+", "XX"))


def lab_psi_subspace_generator(p: DotPairParams, drive: LaserDrive) -> DrivenBlock:
    """Lab-frame computational block in the ``11, psi+, psi-, XX`` basis.

    ``psi+`` and ``psi-`` sit at ``omega_a +- v_f``.  The drive couples
    ``11`` and ``XX`` only to ``psi+``, with matrix element sqrt(2) times
    the single-dot one; ``psi-`` is dark and only kept to make the block
    self-contained.
    """
    # psi+/- are the +/- combinations of 1X and X1
    h0 = np.diag(np.array(
        [0.0, p.omega_a + p.v_f, p.omega_a - p.v_f, 2.0 * p.omega_a + p.v_xx], dtype=complex))
    return DrivenBlock(PSI_SUBSPACE, LAB_FRAME, h0,
                       _coupling(PSI_SUBSPACE, _PSI_PLUS_COUPLINGS, _SQRT2), drive)


def rwa_subspace_generator(p: DotPairParams,
                           envelope: Callable[[float], float]) -> DrivenBlock:
    """Computational block in the frame rotating at the psi+ resonance.

    The drive is tuned to the ``11 -> psi+`` transition (``omega_a + v_f``),
    counter-rotating terms dropped.  Diagonal: ``11`` and ``psi+`` at zero,
    ``psi-`` at ``-2 v_f``, ``XX`` at ``v_xx - 2 v_f``.  Couplings are half
    the sqrt(2)-enhanced envelope; ``psi-`` stays dark.
    """
    h0 = np.diag(np.array([0.0, 0.0, -2.0 * p.v_f, p.biexciton_detuning], dtype=complex))
    # _SQRT2 / 2 is exact, so f * (_SQRT2 / 2) rounds like _SQRT2 * f / 2
    v = _coupling(PSI_SUBSPACE, _PSI_PLUS_COUPLINGS, _SQRT2 / 2.0)
    return DrivenBlock(PSI_SUBSPACE, rotating_frame_tag(p.omega_a + p.v_f), h0, v, envelope)


def spectator_generator(p: DotPairParams, envelope: Callable[[float], float],
                        idle_dot: str = "a") -> DrivenBlock:
    """Two-level block for one driven dot while the other sits in ``0``.

    In the rotating frame of the gate laser (``omega_a + v_f``) the driven
    dot's exciton is detuned by ``-v_f``; the idle dot contributes nothing
    because excitation transfer out of ``0`` is blocked.  ``idle_dot``
    picks which dot is dark: ``"a"`` gives the ``01/0X`` block, ``"b"``
    the ``10/X0`` block.  The matrix is the same either way; only the
    basis differs.
    """
    if idle_dot not in ("a", "b"):
        raise ValueError(f"idle_dot must be 'a' or 'b', got {idle_dot!r}")
    basis = SPECTATOR_A_IDLE if idle_dot == "a" else SPECTATOR_B_IDLE
    h0 = np.diag(np.array([0.0, -p.v_f], dtype=complex))
    v = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    return DrivenBlock(basis, rotating_frame_tag(p.omega_a + p.v_f), h0, v, envelope)


def effective_hamiltonian(p: DotPairParams, omega_prime: float) -> OperatorMatrix:
    """Two-level reduction of the computational block for weak driving.

    Valid when ``omega_prime`` (the sqrt(2)-enhanced Rabi energy) is small
    against the biexciton detuning; the far-detuned ``XX`` level is folded
    into an AC-Stark shift ``-omega_prime^2 / (4 (v_xx - 2 v_f))`` on
    ``psi+``.  Emits a warning when the expansion parameter is >= 1.
    """
    delta = p.biexciton_detuning
    ratio = abs(omega_prime / 2.0) / abs(delta)
    if ratio >= 1.0:
        warnings.warn(
            f"effective two-level reduction outside its validity range: "
            f"(omega'/2)/|v_xx - 2 v_f| = {ratio:.3f} >= 1",
            stacklevel=2,
        )
    stark = -(omega_prime**2) / (4.0 * delta)
    m = np.array([[0.0, omega_prime / 2.0], [omega_prime / 2.0, stark]], dtype=complex)
    return OperatorMatrix(m, EFFECTIVE_TWO_LEVEL,
                          rotating_frame_tag(p.omega_a + p.v_f), hermitian=True)


def raman_generator(detuning: float, envelope: Callable[[float], float]) -> DrivenBlock:
    """Single-dot Raman block: both spin levels coupled to a lossy excited level.

    Rotating frame at the laser frequency; the excited level ``e`` sits at
    ``detuning`` and couples to ``0`` and ``1`` with equal strength ``f/2``.
    The fourth level ``s`` is a population sink with no coherent couplings;
    pair it with a collapse operator ``|s><e|`` to model radiative loss out
    of the lambda system.
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero for a Raman process")
    h0 = np.diag(np.array([0.0, 0.0, detuning, 0.0], dtype=complex))
    v = _coupling(RAMAN_LEVELS, (("0", "e"), ("1", "e")), 0.5)
    return DrivenBlock(RAMAN_LEVELS, "rotating@laser", h0, v, envelope)


def _json_value(value: Any) -> Any:
    """``value`` as a report writes it; see :meth:`Report.to_dict`."""
    if isinstance(value, (float, int, str)):
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _json_value(v) for k, v in value.items()}
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is None:
        return value
    return {name: _json_value(getattr(value, name)) for name in fields}


def _frozen(value: Any) -> Any:
    """``value`` with every mapping in it read-only and every list a tuple."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


class Report:
    """Base of every report dataclass: its fields are its JSON keys.

    Construction freezes the given fields (:func:`_frozen`); a subclass
    ``__post_init__`` only adds its computed ones.
    :meth:`to_dict` walks the fields in order and writes nested
    dataclasses and mappings as objects, tuples as lists and a ``complex``
    as ``{"re": ..., "im": ...}``; every other value is kept as it is.
    """

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.init):  # not the computed ones
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def to_dict(self) -> dict[str, Any]:
        return _json_value(self)


@dataclass(frozen=True)
class ConditionReport(Report):
    """Dimensionless validity ratios for a proposed gate pulse.

    ``r_biexciton`` compares the sqrt(2)-enhanced Rabi energy to the
    biexciton detuning (controls leakage into ``XX``); ``r_spectator``
    compares the bare Rabi energy to the transfer coupling (controls how
    strongly spectator blocks are driven off-resonantly).  Each ``_ok``
    flag holds when its ratio is below its threshold.
    """

    r_biexciton: float
    r_spectator: float
    threshold_biexciton: float
    threshold_spectator: float
    peak_rabi: float
    biexciton_ok: bool = field(init=False)
    spectator_ok: bool = field(init=False)
    all_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        bi = self.r_biexciton < self.threshold_biexciton
        sp = self.r_spectator < self.threshold_spectator
        object.__setattr__(self, "biexciton_ok", bi)
        object.__setattr__(self, "spectator_ok", sp)
        object.__setattr__(self, "all_ok", bi and sp)


def check_conditions(p: DotPairParams, envelope: SquarePulse | GaussianPulse,
                     threshold_biexciton: float = 0.1,
                     threshold_spectator: float = 0.1) -> ConditionReport:
    """Evaluate the weak-driving ratios at the pulse peak."""
    peak = envelope.peak_value()
    r_bi = (_SQRT2 * peak / 2.0) / abs(p.biexciton_detuning)
    r_sp = (peak / 2.0) / abs(p.v_f)
    return ConditionReport(
        r_biexciton=float(r_bi),
        r_spectator=float(r_sp),
        threshold_biexciton=float(threshold_biexciton),
        threshold_spectator=float(threshold_spectator),
        peak_rabi=float(peak),
    )
