"""Labelled linear algebra for small driven few-level systems.

Conventions used throughout the package:

* Energies are in meV and times in ps.  The reduced Planck constant in
  these units is ``HBAR_MEV_PS``; propagators are ``exp(-i H dt / hbar)``.
* Every matrix and state carries an ordered tuple of level labels (a
  :class:`Basis`) and a frame tag, either ``LAB_FRAME`` or the string
  returned by :func:`rotating_frame_tag`.  Combining objects whose basis
  or frame disagree raises :class:`BasisMismatchError` instead of silently
  producing garbage.
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
    "tensor",
    "projector",
    "basis_change",
    "matrix_exponential",
    "BasisMismatchError",
    "UnknownLabelError",
    "NotHermitianError",
    "NotUnitaryError",
]

#: hbar in meV*ps (CODATA value of hbar in eV*s, rescaled).
HBAR_MEV_PS = 0.6582119569

LAB_FRAME = "lab"

# Tolerances for the structural checks below.  Hermiticity and unitarity are
# exact properties of the constructions we use, so the bounds are tight;
# state norms come out of adaptive integration and get more slack.
_HERMITIAN_RTOL = 1e-12
_UNITARY_ATOL = 1e-10
_STATE_NORM_ATOL = 1e-6
_DENSITY_ATOL = 1e-9


class BasisMismatchError(ValueError):
    """Two objects with incompatible bases or frames were combined."""


class UnknownLabelError(KeyError):
    """A level label is not present in the basis."""


class NotHermitianError(ValueError):
    """A matrix declared or required to be Hermitian is not."""


class NotUnitaryError(ValueError):
    """A matrix required to be unitary is not."""


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

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


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

    def _check_compatible(self, other: "OperatorMatrix") -> None:
        if self.basis.labels != other.basis.labels:
            raise BasisMismatchError(
                f"bases differ: {self.basis.name!r} vs {other.basis.name!r}"
            )
        if self.frame != other.frame:
            raise BasisMismatchError(f"frames differ: {self.frame!r} vs {other.frame!r}")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_compatible(other)
        return OperatorMatrix(
            self.matrix + other.matrix,
            self.basis,
            self.frame,
            hermitian=self.hermitian and other.hermitian,
        )

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        s = complex(scalar)
        keep = self.hermitian and s.imag == 0.0
        return OperatorMatrix(self.matrix * s, self.basis, self.frame, hermitian=keep)

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_compatible(other)
        return OperatorMatrix(self.matrix @ other.matrix, self.basis, self.frame)

    def apply(self, state: "QuantumState") -> "QuantumState":
        if self.basis.labels != state.basis.labels or self.frame != state.frame:
            raise BasisMismatchError("operator and state disagree on basis or frame")
        return QuantumState(self.matrix @ state.amplitudes, state.basis, state.frame,
                            normalized=False)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure-state amplitude vector over a labelled basis.

    By default the norm must be 1 within ``1e-6``; pass ``normalized=False``
    for intermediate unnormalized vectors.
    """

    amplitudes: np.ndarray
    basis: Basis
    frame: str = LAB_FRAME
    normalized: bool = True

    def __post_init__(self) -> None:
        v = _frozen_array(self.amplitudes, "vector")
        if v.shape[0] != self.basis.dim:
            raise BasisMismatchError(
                f"vector dim {v.shape[0]} != basis {self.basis.name!r} dim {self.basis.dim}"
            )
        if self.normalized and abs(np.linalg.norm(v) - 1.0) > _STATE_NORM_ATOL:
            raise ValueError(f"state norm {np.linalg.norm(v):.9f} is not 1")
        object.__setattr__(self, "amplitudes", v)

    @classmethod
    def basis_state(cls, basis: Basis, label: str, frame: str = LAB_FRAME) -> "QuantumState":
        v = np.zeros(basis.dim, dtype=complex)
        v[basis.index(label)] = 1.0
        return cls(v, basis, frame)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.basis.index(label)])

    def population(self, label: str) -> float:
        return float(abs(self.amplitude(label)) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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

    def population(self, label: str) -> float:
        i = self.basis.index(label)
        return float(self.matrix[i, i].real)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def tensor(a: OperatorMatrix, b: OperatorMatrix, name: str | None = None) -> OperatorMatrix:
    """Kronecker product of two operators; ``a`` becomes the major index."""
    if a.frame != b.frame:
        raise BasisMismatchError(f"frames differ: {a.frame!r} vs {b.frame!r}")
    return OperatorMatrix(
        np.kron(a.matrix, b.matrix),
        product_basis(a.basis, b.basis, name),
        a.frame,
        hermitian=a.hermitian and b.hermitian,
    )


def projector(basis: Basis, ket: str, bra: str | None = None,
              frame: str = LAB_FRAME) -> OperatorMatrix:
    """|ket><bra| over ``basis``; ``bra`` defaults to ``ket``."""
    bra = ket if bra is None else bra
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    m[basis.index(ket), basis.index(bra)] = 1.0
    return OperatorMatrix(m, basis, frame, hermitian=(ket == bra))


def basis_change(op: OperatorMatrix, u: OperatorMatrix | np.ndarray,
                 new_basis: Basis | None = None) -> OperatorMatrix:
    """Transform ``op`` by the unitary ``u``: returns ``u^H op u``.

    Columns of ``u`` are the new basis vectors expressed in the old basis.
    ``u`` must be unitary to ``1e-10`` or :class:`NotUnitaryError` is raised.
    """
    if isinstance(u, OperatorMatrix):
        if u.frame != op.frame:
            raise BasisMismatchError(f"frames differ: {u.frame!r} vs {op.frame!r}")
        if new_basis is None:
            new_basis = u.basis
        u = u.matrix
    u = np.asarray(u, dtype=complex)
    if u.shape != op.matrix.shape:
        raise BasisMismatchError(f"unitary shape {u.shape} != operator shape {op.matrix.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > _UNITARY_ATOL:
        raise NotUnitaryError(f"basis-change matrix has unitarity defect {defect:.3e}")
    if new_basis is None:
        new_basis = op.basis
    return OperatorMatrix(u.conj().T @ op.matrix @ u, new_basis, op.frame,
                          hermitian=op.hermitian)


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
