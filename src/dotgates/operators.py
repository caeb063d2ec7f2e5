"""Labelled linear algebra for small driven few-level systems.

Conventions used throughout the package:

* Energies are in meV and times in ps.  The reduced Planck constant in
  these units is ``HBAR_MEV_PS``; propagators are ``exp(-i H dt / hbar)``.
* Every matrix and state carries an ordered tuple of level labels (a
  :class:`Basis`) and a frame tag, either ``LAB_FRAME`` or the string
  returned by :func:`rotating_frame_tag`.  There is no operator
  arithmetic; the propagators raise :class:`BasisMismatchError` when
  their inputs disagree on basis or frame.
* Product spaces order the first factor as the major index: the labels of
  ``product_basis(u, v)`` are ``a + b`` for ``a`` in ``u`` and ``b`` in
  ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HBAR_MEV_PS",
    "LAB_FRAME",
    "rotating_frame_tag",
    "Basis",
    "product_basis",
    "OperatorMatrix",
    "QuantumState",
    "DensityMatrix",
    "matrix_exponential",
    "BasisMismatchError",
    "UnknownLabelError",
    "NotHermitianError",
]

#: hbar in meV*ps (CODATA value of hbar in eV*s, rescaled).
HBAR_MEV_PS = 0.6582119569

LAB_FRAME = "lab"

# Tolerances for the structural checks below.  Hermiticity is an exact
# property of the constructions we use, so its bound is tight; state norms
# come out of adaptive integration and get more slack.
_HERMITIAN_RTOL = 1e-12
_STATE_NORM_ATOL = 1e-6
_DENSITY_ATOL = 1e-9


class BasisMismatchError(ValueError):
    """Two objects with incompatible bases or frames were combined."""


class UnknownLabelError(KeyError):
    """A level label is not present in the basis."""


class NotHermitianError(ValueError):
    """A matrix declared or required to be Hermitian is not."""


def rotating_frame_tag(omega_l: float) -> str:
    """Frame tag for the frame co-rotating with a carrier at ``omega_l`` meV."""
    return f"rotating@{float(omega_l):.9g}"


@dataclass(frozen=True)
class Basis:
    """Ordered set of level labels naming the axes of vectors and matrices."""

    labels: tuple[str, ...]
    name: str = "basis"

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if len(labels) == 0:
            raise ValueError("basis needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in basis {self.name!r}: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"label {label!r} not in basis {self.name!r} {self.labels}"
            ) from None


def product_basis(left: Basis, right: Basis, name: str | None = None) -> Basis:
    """Basis of the tensor product space, left factor as the major index."""
    labels = tuple(a + b for a in left.labels for b in right.labels)
    return Basis(labels, name or f"{left.name}*{right.name}")


def _frozen_array(values, shape_kind: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape_kind == "vector":
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-d amplitude vector, got shape {arr.shape}")
    else:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _hermitian_defect(m: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m - m.conj().T))) / scale if m.size else 0.0


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A square matrix tied to a basis and a frame.

    ``hermitian=True`` asserts Hermiticity; the constructor verifies it to
    ``1e-12`` relative to the largest entry and raises
    :class:`NotHermitianError` on failure.
    """

    matrix: np.ndarray
    basis: Basis
    frame: str = LAB_FRAME
    hermitian: bool = False

    def __post_init__(self) -> None:
        m = _frozen_array(self.matrix, "matrix")
        if m.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"matrix dim {m.shape[0]} != basis {self.basis.name!r} dim {self.basis.dim}"
            )
        if self.hermitian and _hermitian_defect(m) > _HERMITIAN_RTOL:
            raise NotHermitianError(
                f"matrix declared Hermitian has defect {_hermitian_defect(m):.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def element(self, row_label: str, col_label: str) -> complex:
        return complex(self.matrix[self.basis.index(row_label), self.basis.index(col_label)])


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure-state amplitude vector over a labelled basis, whose norm
    must be 1 within ``1e-6``."""

    amplitudes: np.ndarray
    basis: Basis
    frame: str = LAB_FRAME

    def __post_init__(self) -> None:
        v = _frozen_array(self.amplitudes, "vector")
        if v.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"vector dim {v.shape[0]} != basis {self.basis.name!r} dim {self.basis.dim}"
            )
        if abs(np.linalg.norm(v) - 1.0) > _STATE_NORM_ATOL:
            raise ValueError(f"state norm {np.linalg.norm(v):.9f} is not 1")
        object.__setattr__(self, "amplitudes", v)

    @classmethod
    def basis_state(cls, basis: Basis, label: str, frame: str = LAB_FRAME) -> "QuantumState":
        v = np.zeros(basis.dim, dtype=complex)
        v[basis.index(label)] = 1.0
        return cls(v, basis, frame)

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.basis, self.frame)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    Trace and Hermiticity are enforced to ``1e-9``; eigenvalues may dip to
    ``-1e-9`` to accommodate round-off from integration.
    """

    matrix: np.ndarray
    basis: Basis
    frame: str = LAB_FRAME

    def __post_init__(self) -> None:
        m = _frozen_array(self.matrix, "matrix")
        if m.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"matrix dim {m.shape[0]} != basis {self.basis.name!r} dim {self.basis.dim}"
            )
        if _hermitian_defect(m) > _DENSITY_ATOL:
            raise NotHermitianError(f"density matrix defect {_hermitian_defect(m):.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > _DENSITY_ATOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
        if lo < -_DENSITY_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)


def matrix_exponential(h: OperatorMatrix, dt: float) -> OperatorMatrix:
    """Unitary propagator ``exp(-i h dt / hbar)`` for a Hermitian ``h``.

    Uses an eigendecomposition, so the result is unitary to machine
    precision regardless of ``dt``.  Serves as the exact reference for
    piecewise-constant evolution.
    """
    m = h.matrix
    if not h.hermitian:
        if _hermitian_defect(m) > _HERMITIAN_RTOL:
            raise NotHermitianError(
                f"matrix_exponential needs a Hermitian generator, defect {_hermitian_defect(m):.3e}"
            )
    w, v = np.linalg.eigh(m)
    phases = np.exp(-1j * w * float(dt) / HBAR_MEV_PS)
    u = (v * phases) @ v.conj().T
    return OperatorMatrix(u, h.basis, h.frame)
