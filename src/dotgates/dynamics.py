"""Time evolution, trajectories, and phase bookkeeping.

:func:`evolve_schrodinger` propagates pure states and
:func:`evolve_lindblad` density matrices with collapse channels.  Both are
the linear ODE ``y' = G(t) y``, ``G = -iH/hbar`` on a state vector or the
Lindblad superoperator on row-major ``vec(rho)`` (Havel, J. Math. Phys. 44,
534 (2003)), solved by one private core for a stack of start vectors on a
regular grid.  The input's structure picks the method, which
``Trajectory.metadata["propagator"]`` names.  A
:class:`~dotgates.model.DrivenBlock` ``H = h0 + f(t) v`` is first split
into its coupled components
(:meth:`~dotgates.model.DrivenBlock.components`), the levels that the
nonzero off-diagonal entries of ``h0`` and ``v`` connect.  Evolution never
leaves a component, so each one that a start state touches runs on its
own sub-block and every other level stays exactly ``+0.0``: the
``cphase`` 11 block runs as ``11, psi+, XX`` without the dark ``psi-``,
the lab single dot as ``1, X`` and a constant ``0``, the 9-level lab pair
as its four spin blocks.  Each component reports its own structure over
the span (:meth:`~dotgates.model.DrivenBlock.structure`):

=============================  =======  =====================================
constant, ``H`` Hermitian      eigh     one ``eigh``, ``C = V^H y0``
other constant                 eig      one ``eig``, ``C = solve(V, y0)``
component constant over span   eigh     ``h0`` (a zero ``v``) or its one
                                        matrix (a square envelope)
component periodic over span   floquet  one period, then its powers (a
                                        square envelope under a carrier)
any other component            magnus4  fourth-order Magnus steps, chained
any other callable             DOP853   adaptive high-order Runge-Kutta,
                                        unsplit
=============================  =======  =====================================

Both spectral paths give ``y(t) = growth(t) (C V^T)``, ``growth =
exp(t lam)``, with ``exp`` called only at every 64th sample and the rows in
between their anchor's times powers of ``exp(lam step)``; where the
rounding of the sample times (or an inserted breakpoint) would move a row
by more than 1e-13 that way, every sample takes ``exp``
(:func:`_growth`).  A Lindblad generator calls its ``eig``
path ``liouvillian-eig``, and eigenvectors too ill-conditioned to trust
hand it to DOP853.  Magnus cells are evaluated,
exponentiated and chained in batched numpy (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009)), a chunk of bounded bytes at a time.  Since
``[h0 + f2 v, h0 + f1 v] = (f1 - f2) [h0, v]``, a cell's exponent is
``-i (w/2) (2 h0 + (f1 + f2) v) - (sqrt3/12) w^2 (f1 - f2) [h0, v]``
(``w = dt/hbar``, ``f1``, ``f2`` at the two Gauss-Legendre nodes): three
fixed matrices, ``[h0, v]`` computed once per run, weighted per cell.  In a
rotating frame one step per sample cell suffices (split where its exponent
is too large).  In the lab frame the optical carrier sets the step: the
cells are halved until the finer of two successive counts is within
``rtol`` at every sample, the one-period Floquet solve compared after the
powers that carry it there (Shirley, Phys. Rev. 138, B979 (1965)).  A
block's envelope edges join the ``breakpoints``, where the sample grid
gets a point and DOP853 restarts instead of stepping across a kink.
Several states on one basis and frame share one run of the method.  Every
pure state must keep unit norm and every density trajectory unit trace
(:func:`check_drift`) and positivity, and a ``nan`` fails each check.

:func:`evolve_expm` is the deliberately simple reference propagator; it is
exact for piecewise-constant Hamiltonians and is what the regression tests
check the adaptive integrators against.

Phase extraction (:func:`accumulated_phase`) unwraps the complex argument
of one amplitude along a trajectory.  Samples with magnitude below a floor
carry no usable phase; they are linearly interpolated and flagged, and a
series that is mostly below the floor raises :class:`PhaseUndefinedError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .operators import (
    _HERMITIAN_RTOL,
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    BasisMismatchError,
    DensityMatrix,
    OperatorMatrix,
    QuantumState,
    _hermitian_defect,
    matrix_exponential,
    rotating_frame_tag,
)
from .model import DrivenBlock

__all__ = [
    "IntegratorConfig",
    "IntegrationError",
    "PhaseUndefinedError",
    "Trajectory",
    "CollapseChannel",
    "evolve_schrodinger",
    "evolve_lindblad",
    "evolve_expm",
    "check_drift",
    "PhaseSeries",
    "accumulated_phase",
    "to_rotating_frame",
    "to_lab_frame",
    "concatenate_trajectories",
    "MAX_SAMPLES",
    "check_sample_count",
]

# Norm/trace conservation expected from the integrator at default tolerances.
_FINAL_DRIFT_TOL = 1e-7
_ANY_DRIFT_TOL = 1e-6
_POSITIVITY_TOL = 1e-6

#: amplitudes below this magnitude carry no numerically meaningful phase
PHASE_FLOOR = 1e-10

#: most samples one trajectory may hold; a 4x4 density trajectory of this
#: length already takes 256 MB
MAX_SAMPLES = 1_000_000

# the adaptive scheme behind every non-exact path
_ADAPTIVE_METHOD = "DOP853"

# Above this condition number the eigenvectors of a constant generator are too
# close to defective to trust (errors grow as cond * eps); DOP853 takes over.
_MAX_EIGVEC_COND = 1e6

# Gauss-Legendre nodes of the fourth-order Magnus step, as fractions of a cell
_GAUSS_LEGENDRE_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# Above this ||Omega||_F a Magnus step splits into substeps: the local error
# grows as the fifth power of the step, so large v_xx or a coarse
# sample_interval stay accurate.
_MAX_MAGNUS_NORM = 0.1

# Taylor remainder allowed in each step's exponential
_TAYLOR_TOL = 1e-17

# Bytes of one (d, d) stack in a Magnus chunk: 2048 cells of a 4x4 block,
# 3640 of a 3x3, 8192 of a 2x2.  A run holds its states plus one chunk's
# workspace, whatever its length: six such stacks and the chained rows,
# allocated once, about six times this (~3 MB) in all.  Measured on a
# 2-core Xeon VM: a default Gaussian cphase, whose 11 block runs as a 3x3
# component, peaks at 6.0 MB traced (15.5 MB with its 4x4 block in one
# 9334-cell chunk); a Gaussian zrot at the default omega_a ran ~8% faster
# than in 16384-cell chunks, and ~5% slower at half the budget.
_MAGNUS_CHUNK_BYTES = 1 << 19

# Most Magnus steps one run may take, in either frame and substeps included.
# It bounds the time, not the memory (the steps go in chunks): a run this
# long takes about half a minute on a 2-core Xeon VM.
_MAX_MAGNUS_STEPS = 16 * MAX_SAMPLES

# Bytes of the (d, d, n) stack the positivity check factorizes at once:
# 1024 samples of a 4x4 density matrix
_POSITIVITY_CHUNK_BYTES = 1 << 18

# Samples between two direct exponentials on the spectral paths, and the
# most the rounding of the sample times may then move a state
_GROWTH_ANCHOR = 64
_GROWTH_TOL = 1e-13


def solve_ivp(*args: Any, **kwargs: Any) -> Any:
    """:func:`scipy.integrate.solve_ivp`, imported on first call.

    Importing ``scipy.integrate`` costs about 0.3 s, and only the adaptive
    paths need it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class IntegrationError(RuntimeError):
    """The ODE solver failed or violated a conservation check."""


class PhaseUndefinedError(ValueError):
    """Too much of an amplitude series sits below the phase floor."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical knobs shared by both propagators.

    ``sample_interval`` controls how densely the solution is stored, and
    on the rotating-frame Magnus path it is also the step (split into
    substeps where one step would be too large).  On the lab-frame Magnus
    path, the one-period solve of a periodic block among them, the Magnus
    cells double until the finer count is within ``rtol``, and
    ``max_step`` caps a cell's width; ``atol`` is not read there.  A
    Magnus run in either frame that would take more than
    ``_MAX_MAGNUS_STEPS`` cells raises :class:`IntegrationError` instead.
    ``rtol``, ``atol`` and ``max_step`` govern the DOP853 solves: a
    callable that is not a block and an ill-conditioned constant
    generator.  The exact ``eigh`` and ``eig`` paths and the
    rotating-frame Magnus path read none of them.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    max_step: float = math.inf
    sample_interval: float = 0.01

    def __post_init__(self) -> None:
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")


@dataclass(frozen=True)
class CollapseChannel:
    """A Lindblad jump operator with rate in 1/ps."""

    operator: Any  # OperatorMatrix or ndarray
    rate: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("collapse rate must be >= 0")


def _read_only(a: Any, dtype: type) -> np.ndarray:
    """``a`` if it is a ``dtype`` array read-only down to its memory's owner, else a copy."""
    b = a
    while type(b) is np.ndarray and not b.flags.writeable and b.base is not None:
        b = b.base
    if type(b) is not np.ndarray or b.flags.writeable or a.dtype != dtype:
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: times plus states, tied to a basis and frame.

    ``kind`` is ``"pure"`` (states shaped ``(n, d)``) or ``"density"``
    (``(n, d, d)``).  Both are read-only: an input that nothing can write
    (another trajectory's, a frozen solver output) is adopted, others copied.
    """

    times: np.ndarray
    states: np.ndarray
    basis: Basis
    frame: str
    kind: str = "pure"
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        t, s = _read_only(self.times, float), _read_only(self.states, complex)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if self.kind == "pure":
            if s.ndim != 2 or s.shape != (t.size, self.basis.dim):
                raise ValueError(f"pure states must have shape (n, d), got {s.shape}")
        elif self.kind == "density":
            d = self.basis.dim
            if s.ndim != 3 or s.shape != (t.size, d, d):
                raise ValueError(f"density states must have shape (n, d, d), got {s.shape}")
        else:
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")
        if t.size > 1:
            dt = np.diff(t)
            if not (np.all(dt > 0) or np.all(dt < 0)):
                raise ValueError("times must be strictly monotone")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def amplitude(self, label: str) -> np.ndarray:
        if self.kind != "pure":
            raise ValueError("amplitudes exist only for pure-state trajectories")
        return self.states[:, self.basis.index(label)]

    def population(self, label: str) -> np.ndarray:
        i = self.basis.index(label)
        if self.kind == "pure":
            return np.abs(self.states[:, i]) ** 2
        return self.states[:, i, i].real

    def populations(self) -> dict[str, np.ndarray]:
        return {lbl: self.population(lbl) for lbl in self.basis.labels}

    def norms(self) -> np.ndarray:
        if self.kind != "pure":
            raise ValueError("norms exist only for pure-state trajectories")
        return np.linalg.norm(self.states, axis=1)

    def traces(self) -> np.ndarray:
        if self.kind != "density":
            raise ValueError("traces exist only for density trajectories")
        return np.einsum("nii->n", self.states).real

    def min_eigenvalue(self) -> float:
        if self.kind != "density":
            raise ValueError("eigenvalue check applies to density trajectories")
        sym = 0.5 * (self.states + np.conj(np.swapaxes(self.states, 1, 2)))
        return float(np.min(np.linalg.eigvalsh(sym)))

    def final_state(self) -> QuantumState | DensityMatrix:
        if self.kind == "pure":
            return QuantumState(self.states[-1], self.basis, self.frame)
        return DensityMatrix(self.states[-1], self.basis, self.frame)

    def final_amplitude(self, label: str) -> complex:
        return complex(self.amplitude(label)[-1])


def _as_matrix_fn(h: Any, basis: Basis, frame: str,
                  t_probe: float) -> np.ndarray | Callable[[float], np.ndarray]:
    """Normalize Hamiltonian inputs: the matrix itself when ``h`` is
    constant, else ``t -> ndarray``.  An :class:`OperatorMatrix` or a
    :class:`~dotgates.model.DrivenBlock` must carry the state's basis and
    frame; any other input is checked for shape, a callable at ``t_probe``."""
    if isinstance(h, (OperatorMatrix, DrivenBlock)):
        if h.basis.labels != basis.labels or h.frame != frame:
            raise BasisMismatchError("Hamiltonian and state disagree on basis or frame")
        if isinstance(h, OperatorMatrix):
            return h.matrix
    elif not (callable(h) or isinstance(h, np.ndarray)):
        raise TypeError(f"cannot interpret {type(h).__name__} as a Hamiltonian")
    sample = h(t_probe) if callable(h) else h
    d = basis.dim
    if np.shape(sample) != (d, d):
        raise BasisMismatchError(f"Hamiltonian shape {np.shape(sample)} != ({d}, {d})")
    return h if callable(h) else np.asarray(h, dtype=complex)


def check_sample_count(span: float, dt: float) -> int:
    """Number of grid cells over ``span`` at spacing ``dt``.

    Raises :class:`ValueError` when the grid would hold more than
    :data:`MAX_SAMPLES` samples, before anything is allocated.
    """
    cells = abs(span) / dt
    # compared before rounding up, which an infinite count cannot take
    if not cells + 1 <= MAX_SAMPLES:
        raise ValueError(
            f"sample_interval {dt:g} ps over a {abs(span):g} ps span asks for "
            f"{cells + 1:.3g} samples; the limit is {MAX_SAMPLES:.3g}")
    return max(1, math.ceil(cells))


def _sample_grid(t0: float, t1: float, dt: float,
                 breakpoints: Sequence[float]) -> tuple[np.ndarray, list[float], float]:
    """Sample grid from t0 to t1 plus the interior breakpoints, in order,
    and the signed step of its uniform samples, ``(t1 - t0) / cells``."""
    forward = t1 > t0
    lo, hi = (t0, t1) if forward else (t1, t0)
    interior = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    n = check_sample_count(hi - lo, dt)
    grid = np.linspace(lo, hi, n + 1)
    if interior:
        grid = np.unique(np.concatenate([grid, np.asarray(interior)]))
    if not forward:
        grid = grid[::-1].copy()
        interior = interior[::-1]
    return grid, interior, (t1 - t0) / n


def _growth(times: np.ndarray, step: float, lam: np.ndarray, scale: complex) -> np.ndarray:
    """``exp(scale * lam * (t - times[0]))`` at every sample, shaped ``(n, D)``.

    ``times`` is a grid from :func:`_sample_grid` and ``step`` its step.
    ``np.exp`` runs at anchors only, every ``_GROWTH_ANCHOR``-th sample; a
    sample ``j`` steps past its anchor takes the anchor's row times
    ``exp(scale lam tau_j)``, ``tau_j = j * step``, computed once for
    every ``j``.

    A sample's float offset from its anchor misses ``tau_j`` by the
    rounding of the sample times (of order ``eps |t|``), which moves its
    row by up to ``|scale lam|`` times that.  When that exceeds
    ``_GROWTH_TOL`` (a 2000 meV level a few ps from the origin: 1e-12)
    every sample takes the direct exponential instead, bit for bit.  So
    does a grid with inserted breakpoints, whose later samples sit a
    fraction of a step off the powers.
    """
    n = times.size
    u = times - times[0]
    j = np.arange(n) % _GROWTH_ANCHOR
    tau = np.arange(min(n, _GROWTH_ANCHOR)) * step
    miss = np.max(np.abs((u - u[np.arange(n) - j]) - tau[j]))

    def exponentials(offsets: np.ndarray) -> np.ndarray:
        e = np.outer(offsets, lam).astype(complex, copy=False)
        e *= scale
        return np.exp(e, out=e)

    if abs(scale) * np.max(np.abs(lam)) * miss > _GROWTH_TOL:
        return exponentials(u)
    powers, anchors = exponentials(tau), exponentials(u[::_GROWTH_ANCHOR])
    whole, rest = divmod(n, _GROWTH_ANCHOR)
    cut = whole * _GROWTH_ANCHOR
    growth = np.empty((n, lam.size), dtype=complex)
    if whole:
        np.multiply(anchors[:whole, None], powers,
                    out=growth[:cut].reshape(whole, _GROWTH_ANCHOR, lam.size))
    np.multiply(anchors[whole:], powers[:rest], out=growth[cut:])
    return growth


def _integrate(gen: Callable[[float], np.ndarray], scale: complex, y0: np.ndarray,
               grid: np.ndarray, interior: list[float],
               cfg: IntegratorConfig) -> tuple[np.ndarray, int]:
    """Adaptive solve of ``Y' = scale * gen(t) Y`` (``Y`` shaped as ``y0``) onto ``grid``,
    restarting at each interior breakpoint.

    An explicit step cannot be much longer than ``1 / |scale G|``, so when
    ``|scale| max|G| |t1 - t0|``, with ``G`` taken at both ends and the
    breakpoints, exceeds :data:`MAX_SAMPLES` the solve would run for hours:
    :class:`IntegrationError` is raised before it starts.  Returns the
    flattened states and the number of right-hand-side evaluations.
    """
    t0, t1 = float(grid[0]), float(grid[-1])
    knots = [t0, *interior, t1]
    steps = abs(scale) * max(float(np.max(np.abs(gen(t)))) for t in knots) * abs(t1 - t0)
    if not steps <= MAX_SAMPLES:
        raise IntegrationError(
            f"generator too stiff: DOP853 would need ~{steps:.3g} steps "
            f"(limit {MAX_SAMPLES:.3g})")
    shape = y0.shape

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return (scale * (gen(t) @ y.reshape(shape))).ravel()

    y = y0.ravel()
    states = np.empty((grid.size, y.size), dtype=complex)
    states[0] = y
    pos = 1
    nfev = 0
    forward = t1 > t0
    for a, b in zip(knots[:-1], knots[1:]):
        mask = ((grid > a) & (grid <= b)) if forward else ((grid < a) & (grid >= b))
        pts = grid[mask]
        sol = solve_ivp(rhs, (a, b), y, method=_ADAPTIVE_METHOD, t_eval=pts,
                        rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step)
        if not sol.success:
            raise IntegrationError(f"solver failed on [{a:g}, {b:g}]: {sol.message}")
        states[pos:pos + pts.size] = sol.y.T
        pos += pts.size
        nfev += sol.nfev
        y = states[pos - 1]
    return states, nfev


def _floquet_offsets(grid: np.ndarray, period: float,
                     ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Offsets of the one-period solve for a forward ``grid``, and its assembly.

    A sample ``n`` periods and a remainder ``tau`` past ``grid[0]`` has the
    propagator ``U(tau) U(period)^n``, so one solve over the first period
    needs ``U(grid[0] + s, grid[0])`` at offsets ``s`` that hold every
    distinct ``tau`` of the grid and end at the period.  The remainders
    crowd together where the sample spacing is close to a whole number of
    periods, so as many evenly spaced offsets again keep every cell of the
    solve short.  The returned function maps the ``(m, d, d)`` propagators
    at the offsets to the ``(n, d, d)`` stack on ``grid``, taking the
    powers by repeated squaring.
    """
    # divmod takes its remainder from fmod, which is exact: for the
    # non-negative offsets of a forward grid every tau lies in [0, period),
    # so the offsets stay sorted and inside the span
    cycles, tau = np.divmod(grid - grid[0], period)
    taus, which = np.unique(tau, return_inverse=True)
    offsets = np.union1d(taus, np.linspace(0.0, period, taus.size + 1))
    which = np.searchsorted(offsets, taus)[which]
    cycles = cycles.astype(int)

    def assemble(u: np.ndarray) -> np.ndarray:
        n, d = int(cycles[-1]) + 1, u.shape[1]
        powers = np.empty((n, d, d), dtype=complex)
        powers[0] = np.eye(d)
        # powers[:filled] hold U^0 .. U^(filled-1), and step is U^filled
        filled, step = 1, u[-1]
        while filled < n:
            take = min(filled, n - filled)
            np.matmul(step, powers[:take], out=powers[filled:filled + take])
            filled += take
            step = step @ step
        return u[which] @ powers[cycles]

    return offsets, assemble


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cellwise matrix product of two ``(d, d, n)`` stacks."""
    return np.einsum("ijn,jkn->ikn", a, b, out=out)


class _MagnusWork:
    """The buffers every chunk of one Magnus run reuses, for up to ``cells`` cells.

    Six slots each hold one ``(d, d)`` stack with room for the chain's
    padding, ``weights`` the three coefficients of every cell's exponent,
    ``rows`` the chained states of the ``k`` start vectors and ``starts``
    their values at the chain's block starts.  The slots are shared in
    turn: :func:`_magnus_exponents` writes the exponent to 3; the norm
    check squares into 0; :func:`_taylor_expm` keeps its powers in 4 and 5
    and its sums in 0-2; :func:`_chain_states` lays the cells out in 3 and
    their running products in 4.
    """

    def __init__(self, d: int, k: int, cells: int) -> None:
        self.cells = cells
        blocks = math.isqrt(cells - 1) + 1
        room = cells + blocks
        self._slots = np.empty((6, d * d * room), dtype=complex)
        self.weights = np.empty((3, cells), dtype=complex)
        self.rows = np.empty(k * room * d, dtype=complex)
        self.starts = np.empty((blocks, k, d), dtype=complex)

    def stack(self, slot: int, *shape: int) -> np.ndarray:
        """The start of ``slot`` as a C-contiguous array of ``shape``."""
        return self._slots[slot, :math.prod(shape)].reshape(shape)


def _exponent_terms(block: DrivenBlock) -> np.ndarray:
    """The fixed matrices of every Magnus exponent of ``block``, as the
    ``(d * d, 3)`` columns ``-i h0``, ``-i v / 2`` and
    ``-(sqrt3/12) [h0, v]`` (see :func:`_magnus_exponents`)."""
    h0, v = block.h0, block.v
    terms = np.stack([-1j * h0, -0.5j * v, (-math.sqrt(3.0) / 12.0) * (h0 @ v - v @ h0)])
    return terms.reshape(3, -1).T.copy()


def _magnus_exponents(block: DrivenBlock, terms: np.ndarray, edges: np.ndarray,
                      work: _MagnusWork) -> np.ndarray:
    """Fourth-order Magnus exponents of the cells between consecutive ``edges``.

    With ``H = h0 + f(t) v`` at the two Gauss-Legendre nodes of a cell,
    ``[H2, H1] = (f1 - f2) [h0, v]``, so the exponent
    ``-i w/2 (H1 + H2) - (sqrt3/12) w^2 [H2, H1]``, ``w = dt/hbar``, is
    ``-i (w/2) (2 h0 + (f1 + f2) v) - (sqrt3/12) w^2 (f1 - f2) [h0, v]``:
    the three columns of ``terms`` (:func:`_exponent_terms`) weighted by
    ``w``, ``(f1 + f2) w`` and ``(f1 - f2) w^2``.  ``f`` is evaluated in
    one call at every node.  The result is the ``(d, d, n)`` stack in slot
    3 of ``work``.
    """
    dt = np.diff(edges)
    n = dt.size
    d = block.h0.shape[0]
    nodes = np.concatenate([edges[:-1] + c * dt for c in _GAUSS_LEGENDRE_NODES])
    f = block.f(nodes)
    w = dt / HBAR_MEV_PS
    weights = work.weights[:, :n]
    weights[0] = w
    np.multiply(np.add(f[:n], f[n:]), w, out=weights[1])
    np.multiply(np.subtract(f[:n], f[n:]), w * w, out=weights[2])
    omega = work.stack(3, d, d, n)
    np.matmul(terms, weights, out=omega.reshape(d * d, n))
    return omega


def _taylor_expm(omega: np.ndarray, norm: float, work: _MagnusWork) -> np.ndarray:
    """``exp`` of every ``(d, d)`` slice of ``omega``, largest Frobenius norm ``norm``.

    The Taylor degree ``m`` is the lowest whose remainder term
    ``norm^(m+1) / (m+1)!`` is at most ``_TAYLOR_TOL``.  The polynomial is
    summed as ``B0 + W (B1 + W (B2 + ...))`` with ``W = omega^3`` and each
    ``Bq`` a quadratic in ``omega`` (Paterson-Stockmeyer), about half the
    products of plain Horner.  A polynomial, unlike an eigendecomposition,
    keeps every zero coupling exactly zero.  The result is one of the
    slots 0-2 of ``work``.
    """
    m, term = 1, 0.5 * norm * norm
    while term > _TAYLOR_TOL:
        m += 1
        term *= norm / (m + 1)
    coef = [1.0 / math.factorial(k) for k in range(m + 1)]
    d, _, n = omega.shape
    eye = np.eye(d)[:, :, None]
    u, scratch, block = (work.stack(slot, d, d, n) for slot in range(3))
    powers = [eye, omega, _mm(omega, omega, out=work.stack(4, d, d, n)) if m > 1 else None]

    def quadratic(q: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        # the lowest power is the identity, a (d, d, 1) term that needs no scratch
        top = min(m, 3 * q + 2)
        np.multiply(coef[top], powers[top - 3 * q], out=out)
        for k in range(top - 1, 3 * q - 1, -1):
            out += np.multiply(coef[k], powers[k - 3 * q], out=scratch if k > 3 * q else None)
        return out

    if m < 3:
        return quadratic(0, u, scratch)
    cube = _mm(omega, powers[2], out=work.stack(5, d, d, n))
    q = m // 3
    if m % 3:
        quadratic(q, u, scratch)
    else:
        # the top block is a multiple of the identity: no product needed
        np.multiply(coef[m], cube, out=u)
        q -= 1
        u += quadratic(q, block, scratch)
    for q in range(q - 1, -1, -1):
        quadratic(q, block, scratch)
        _mm(cube, u, out=scratch)
        scratch += block
        u, scratch = scratch, u
    return u


def _chain_states(u: np.ndarray, psi0: np.ndarray, work: _MagnusWork) -> np.ndarray:
    """Each row of ``psi0`` carried through the cell propagators ``u`` (``(d, d, n)``).

    Returns the ``(k, n, d)`` states after each cell, a view of ``work``.
    The cells are cut into about ``sqrt(n)`` blocks: the running products
    inside every block are built for all blocks at once, the block starts
    follow one block at a time, and both are shared by the rows, so the
    Python loops take about ``2 sqrt(n)`` turns instead of ``k n``.
    """
    d, _, n = u.shape
    k = psi0.shape[0]
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    full, rest = divmod(n, size)
    # cells[j, :, :, b] is cell b * size + j, the identity past the last;
    # prod[j] runs over that block to it
    cells = work.stack(3, size, d, d, blocks)
    by_block = cells.transpose(1, 2, 3, 0)
    by_block[:, :, :full] = u[:, :, :full * size].reshape(d, d, full, size)
    if rest:
        by_block[:, :, full, :rest] = u[:, :, full * size:]
        by_block[:, :, full, rest:] = np.eye(d)[:, :, None]
    prod = work.stack(4, size, d, d, blocks)
    prod[0] = cells[0]
    for j in range(1, size):
        np.einsum("ijb,jkb->ikb", cells[j], prod[j - 1], out=prod[j])
    starts = work.starts[:blocks]
    starts[0] = psi0
    for b in range(1, blocks):
        np.einsum("ij,rj->ri", prod[-1, :, :, b - 1], starts[b - 1], out=starts[b])
    out = work.rows[:k * blocks * size * d].reshape(k, blocks, size, d)
    np.einsum("jikb,brk->rbji", prod, starts, out=out)
    return out.reshape(k, blocks * size, d)[:, :n]


def _split_cells(grid: np.ndarray, substeps: int, lo: int, hi: int) -> np.ndarray:
    """Points ``lo`` to ``hi`` of ``grid`` with every cell cut into ``substeps``
    equal cells; point ``j * substeps`` is ``grid[j]``.  With one substep
    they are the slice of ``grid`` itself."""
    if substeps == 1:
        return grid[lo:hi + 1]
    first = lo // substeps
    edges = grid[first:-(-hi // substeps) + 1]
    cell, q = np.divmod(np.arange(lo - first * substeps, hi - first * substeps + 1), substeps)
    return edges[cell] + np.append(np.diff(edges), 0.0)[cell] * (q / substeps)


def _magnus_states(block: DrivenBlock, psi0: np.ndarray, grid: np.ndarray,
                   substeps: float = 1) -> tuple[np.ndarray, int, int]:
    """States on ``grid`` from ``substeps`` equal fourth-order Magnus cells per grid cell.

    ``psi0`` holds one initial state per row.  The Magnus cells go in
    chunks of ``_MAGNUS_CHUNK_BYTES`` per ``(d, d)`` stack, whichever grid
    cells they fall in, through buffers allocated once per run
    (:class:`_MagnusWork`), and only the states on ``grid`` are kept.
    When a chunk holds a cell with ``||Omega||_F`` above
    ``_MAX_MAGNUS_NORM``, ``substeps`` and the position reached grow by
    the same factor, so the chunk is redone from the same time with every
    cell from there on split further.  A run of
    more than :data:`_MAX_MAGNUS_STEPS` cells raises
    :class:`IntegrationError` before its first chunk, or once a split asks
    for it.  Returns the ``(k, n, d)`` states, the number of evaluations
    of ``f`` and the Magnus cells per grid cell.
    """
    k, d = psi0.shape
    cells = grid.size - 1
    terms = _exponent_terms(block)

    def work(substeps: float) -> int:
        steps = cells * substeps
        if not steps <= _MAX_MAGNUS_STEPS:
            raise IntegrationError(
                f"the Magnus solve would take {steps:.3g} steps, {substeps:.3g} substeps "
                f"in each of {cells} cells (limit {_MAX_MAGNUS_STEPS:.3g})")
        return int(steps)

    total = work(substeps)
    substeps = int(substeps)
    chunk = max(1, _MAGNUS_CHUNK_BYTES // (16 * d * d))  # 16 bytes a complex entry
    states = np.empty((k, grid.size, d), dtype=complex)
    states[:, 0] = psi0
    psi = psi0.copy()
    pos, nfev, buffers = 0, 0, None
    while pos < total:
        take = min(total - pos, chunk)
        if buffers is None or buffers.cells < take:
            buffers = _MagnusWork(d, k, take)
        omega = _magnus_exponents(block, terms, _split_cells(grid, substeps, pos, pos + take),
                                  buffers)
        nfev += 2 * take
        # np.linalg.norm's Frobenius norms, squared in a free slot
        square = buffers.stack(0, d, d, take)
        np.multiply(np.conjugate(omega, out=square), omega, out=square)
        norm = float(np.max(np.sqrt(np.add.reduce(square.real, axis=(0, 1)))))
        if norm > _MAX_MAGNUS_NORM:
            # (pos f) / (substeps f) rounds to the time pos / substeps does
            factor = math.ceil(norm / _MAX_MAGNUS_NORM)
            total = work(substeps * factor)
            substeps *= factor
            pos *= factor
            continue
        # grid point j is Magnus point j * substeps; chained[:, i] is point pos + 1 + i
        first, last = pos // substeps + 1, (pos + take) // substeps
        skip = first * substeps - pos - 1
        chained = _chain_states(_taylor_expm(omega, norm, buffers), psi, buffers)
        states[:, first:last + 1] = chained[:, skip::substeps]
        psi[:] = chained[:, -1]
        pos += take
    return states, nfev, substeps


def _refined_magnus(block: DrivenBlock, grid: np.ndarray, cfg: IntegratorConfig,
                    assemble: Callable[[np.ndarray], np.ndarray] | None = None,
                    ) -> tuple[np.ndarray, dict[str, Any]]:
    """Propagators ``U(t, grid[0])`` on ``grid`` from Magnus cells refined to ``cfg.rtol``.

    Each grid cell starts as ``ceil(width / max_step)`` Magnus cells, or
    as many as the norm guard asks at ``H(grid[0])`` if more, and the
    count doubles until the finer of two successive counts is within
    ``rtol`` at every sample, or until doubling stops shrinking their
    difference (rounding then dominates); the finer run is kept.  The
    method is fourth order, so the finer run is off by about a fifteenth
    of the difference.  ``assemble`` maps the propagators on ``grid`` to
    those of the samples (the powers of a one-period solve), so the
    comparison sees every sample the caller keeps: the powers multiply the
    period-end error by the number of periods, which the one-period
    propagators alone do not show.  Every run is bounded as
    :func:`_magnus_states` bounds it.  Returns the stack and its metadata.
    """
    eye = np.eye(block.h0.shape[0], dtype=complex)

    def run(substeps: float) -> tuple[np.ndarray, int, int]:
        states, nfev, split = _magnus_states(block, eye, grid, substeps)
        u = states.transpose(1, 2, 0)
        return (u if assemble is None else assemble(u)), nfev, split

    # start where the norm guard would settle, ||Omega|| ~ ||H|| width / hbar,
    # so a coarse grid never asks the guard for a huge split
    width = float(np.max(np.abs(np.diff(grid))))
    rate = float(np.linalg.norm(block(float(grid[0])))) / (HBAR_MEV_PS * _MAX_MAGNUS_NORM)
    u, nfev, substeps = run(max(1.0, float(np.ceil(width * max(rate, 1.0 / cfg.max_step)))))
    nfev += 1
    gap = math.inf
    while True:
        finer, n, substeps = run(2 * substeps)
        nfev += n
        gap, last = float(np.max(np.abs(finer - u))), gap
        u = finer
        if gap <= 15.0 * cfg.rtol or gap >= last:
            return u, {"nfev": nfev, "substeps": substeps}


def check_drift(values: np.ndarray, quantity: str = "norm") -> None:
    """Raise :class:`IntegrationError` when ``values``, the norms or traces
    of a trajectory in sample order, leave 1 by more than ``1e-7`` at the
    end or ``1e-6`` anywhere, or hold a ``nan``; ``quantity`` names them in
    the message."""
    drift = np.abs(values - 1.0)
    worst = np.max(drift)
    # written so that a nan norm or trace fails
    if not (drift[-1] <= _FINAL_DRIFT_TOL and worst <= _ANY_DRIFT_TOL):
        hint = ("tighten rtol/atol or shrink max_step" if math.isfinite(worst)
                else "the inputs overflow double precision")
        raise IntegrationError(f"{quantity} drifted by {worst:.3e}; {hint}")


def _propagate(gen: np.ndarray | Callable[[float], np.ndarray], scale: complex,
               y0: np.ndarray, t0: float, t1: float, cfg: IntegratorConfig,
               breakpoints: Sequence[float] = (), period: float | None = None,
               ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Solve ``y' = scale * gen(t) y`` from every row of ``y0`` over ``[t0, t1]``.

    ``gen`` is a constant ``(D, D)`` matrix, one coupled component of a
    Schrodinger :class:`~dotgates.model.DrivenBlock` (as
    :func:`_propagate_components` hands it over) or any other callable,
    routed as the module docstring tables.  A ``period`` declares ``gen``
    periodic: a forward span of at least one period takes Floquet, the one
    period solved by Magnus for a block and by DOP853 for any other
    callable.
    Returns the sample times, the ``(k, n, D)`` states and the metadata
    (``propagator``, with ``nfev`` and ``substeps`` where they apply; none
    for a zero-length span).
    """
    if t0 == t1:
        return np.array([t0]), y0[:, None, :], {}
    times, interior, step = _sample_grid(t0, t1, cfg.sample_interval, breakpoints)
    k, d = y0.shape
    if isinstance(gen, np.ndarray):
        # both spectral paths give growth(t) (C V^T) from one decomposition
        if _hermitian_defect(gen) <= _HERMITIAN_RTOL:
            name, (lam, v) = "eigh", np.linalg.eigh(gen)
            coeffs = [v.conj().T @ y for y in y0]
        else:
            name, (lam, v) = "eig", np.linalg.eig(gen)
            trusted = np.linalg.cond(v) <= _MAX_EIGVEC_COND
            coeffs = [np.linalg.solve(v, y) for y in y0] if trusted else None
        if coeffs is not None:
            growth = _growth(times, step, lam, scale)
            states = np.empty((k, times.size, d), dtype=complex)
            for j, c in enumerate(coeffs):
                # the state's coefficients folded into V: no (n, D) product per state
                np.matmul(growth, c[:, None] * v.T, out=states[j])
            states[:, 0] = y0
            return times, states, {"propagator": name}
    elif period is not None and t1 - t0 >= period:
        offsets, assemble = _floquet_offsets(times, period)
        if isinstance(gen, DrivenBlock):
            f = gen.f
            u, meta = _refined_magnus(replace(gen, f=lambda s: f(t0 + s)), offsets, cfg,
                                      assemble)
        else:
            flat, nfev = _integrate(lambda s: gen(t0 + s), scale, np.eye(d, dtype=complex),
                                    offsets, [], cfg)
            u, meta = assemble(flat.reshape(-1, d, d)), {"nfev": nfev}
        return times, np.stack([u @ y for y in y0]), {"propagator": "floquet", **meta}
    elif isinstance(gen, DrivenBlock) and gen.frame == LAB_FRAME:
        u, meta = _refined_magnus(gen, times, cfg)
        return times, np.stack([u @ y for y in y0]), {"propagator": "magnus4", **meta}
    elif isinstance(gen, DrivenBlock):
        states, nfev, substeps = _magnus_states(gen, y0, times)
        return times, states, {"propagator": "magnus4", "nfev": nfev, "substeps": substeps}
    matrices = gen if callable(gen) else lambda t: gen
    # one state keeps the matrix-vector product, bit for bit
    flat, nfev = _integrate(matrices, scale, y0[0] if k == 1 else y0.T, times, interior, cfg)
    states = flat.reshape(times.size, d, k).transpose(2, 0, 1)
    return times, states, {"propagator": _ADAPTIVE_METHOD, "nfev": nfev}


def _propagate_components(block: DrivenBlock, psi0: np.ndarray, t0: float, t1: float,
                          cfg: IntegratorConfig, breakpoints: Sequence[float],
                          ) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """:func:`_propagate` of ``block`` from every row of ``psi0``, one coupled
    component at a time.

    Each component that a row touches runs on its own sub-block, from the
    rows that touch it, by the method its ``structure`` over the span
    allows; every other amplitude stays exactly ``+0.0``.  The metadata
    name the method of the driven components (``eigh`` when none is
    driven), sum their ``nfev`` and keep the largest ``substeps``.
    """
    if t0 == t1:
        return np.array([t0]), psi0[:, None, :], {}
    times, _, _ = _sample_grid(t0, t1, cfg.sample_interval, breakpoints)
    k, d = psi0.shape
    states = np.zeros((k, times.size, d), dtype=complex)
    meta: dict[str, Any] = {}
    for levels in map(list, block.components()):
        rows = np.flatnonzero(psi0[:, levels].any(axis=1))
        if rows.size == 0:
            continue
        part = block.restricted(levels)
        found = part.structure(t0, t1)
        constant = isinstance(found, np.ndarray)
        _, sub, run = _propagate(found if constant else part, -1j / HBAR_MEV_PS,
                                 psi0[np.ix_(rows, levels)], t0, t1, cfg, breakpoints,
                                 None if constant else found)
        for row, s in zip(rows, sub):
            states[row][:, levels] = s
        if part.v.any() or not meta:  # a driven component names the run
            meta["propagator"] = run["propagator"]
        if "nfev" in run:
            meta["nfev"] = meta.get("nfev", 0) + run["nfev"]
        if "substeps" in run:
            meta["substeps"] = max(meta.get("substeps", 0), run["substeps"])
    return times, states, meta


def evolve_schrodinger(h_of_t: Any, state: QuantumState | Sequence[QuantumState],
                       t_span: tuple[float, float],
                       config: IntegratorConfig | None = None,
                       breakpoints: Sequence[float] = ()) -> Trajectory | list[Trajectory]:
    """Propagate ``i hbar dpsi/dt = H(t) psi`` over ``t_span``.

    ``h_of_t`` is a constant :class:`OperatorMatrix` or a
    :class:`~dotgates.model.DrivenBlock`, whose basis and frame must be the
    states', or a bare ndarray or callable of time, checked for shape only.
    What it is picks the method, as the module docstring tables: each
    coupled component of a block that a state touches takes the method its
    ``structure`` over the span allows, with the block's ``breakpoints``
    joining ``breakpoints``.  ``t_span`` may run backwards for
    time-reversed evolution.

    ``state`` is one :class:`QuantumState`, which gives one
    :class:`Trajectory`, or a sequence of states on one basis and frame,
    which gives a list with one trajectory per state, in order.  The
    states share the eigendecomposition, the Magnus exponentials or the
    propagator the lab-frame Magnus and Floquet paths build from the basis
    states, and the adaptive path integrates them as the columns of one
    ``(d, k)`` array in one solve.  On the other paths each state's
    arithmetic is that of a single-state call, so the results match one
    bit for bit.  The trajectories share the call's metadata.  Raises
    :class:`IntegrationError` when the solver fails or a norm drifts by
    more than ``1e-7`` at the end (or ``1e-6`` anywhere).
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    inputs = [state] if isinstance(state, QuantumState) else list(state)
    if not inputs:
        raise ValueError("no state to propagate")
    basis, frame = inputs[0].basis, inputs[0].frame
    if any(s.basis != basis or s.frame != frame for s in inputs):
        raise BasisMismatchError("the states disagree on basis or frame")
    psi0 = np.array([s.amplitudes for s in inputs], dtype=complex)
    h = _as_matrix_fn(h_of_t, basis, frame, t0)
    if isinstance(h, DrivenBlock):
        times, states, meta = _propagate_components(h, psi0, t0, t1, cfg,
                                                    (*breakpoints, *h.breakpoints()))
    else:
        times, states, meta = _propagate(h, -1j / HBAR_MEV_PS, psi0, t0, t1, cfg, breakpoints)
    for s in states:
        check_drift(np.linalg.norm(s, axis=1))
    states.setflags(write=False)  # a fresh array: the trajectories adopt its rows
    trajs = [Trajectory(times, s, basis, frame, "pure", meta) for s in states]
    return trajs[0] if isinstance(state, QuantumState) else trajs


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two ``(d, d)`` matrices, bit for bit: every entry
    is the same one product, broadcast without ``np.kron``'s reshaping."""
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def _liouvillian(h: np.ndarray, ops: Sequence[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """Lindblad generator acting on row-major ``vec(rho)``.

    Uses ``vec(A X B) = kron(A, B.T) vec(X)``; each item of ``ops`` is a
    jump operator ``L``, its ``L^dagger L`` and its rate.
    """
    eye = np.eye(h.shape[0])
    sup = (-1j / HBAR_MEV_PS) * (_kron(h, eye) - _kron(eye, h.T))
    for L, LdL, g in ops:
        sup += g * (_kron(L, L.conj()) - 0.5 * _kron(LdL, eye) - 0.5 * _kron(eye, LdL.T))
    return sup


def evolve_lindblad(h_of_t: Any, rho0: DensityMatrix, t_span: tuple[float, float],
                    channels: Sequence[CollapseChannel] = (),
                    config: IntegratorConfig | None = None,
                    breakpoints: Sequence[float] = ()) -> Trajectory:
    """Propagate the Lindblad master equation for ``rho0`` over ``t_span``.

    The generator is the ``d^2 x d^2`` Liouvillian on row-major ``vec(rho)``.
    With a constant ``h_of_t`` it is eigendecomposed once and
    ``rho(t) = V exp(lam t) V^-1 rho0`` (``liouvillian-eig``).  For a
    time-dependent ``h_of_t`` (the Liouvillian rebuilt at each evaluation),
    and when the eigenvectors are too ill-conditioned to trust, the equation
    is integrated adaptively; an ill-conditioned generator too stiff for
    that (a loss rate of ``1e10``/ps, say) raises :class:`IntegrationError`
    at once.  Collapse terms use rates in 1/ps and are not divided by hbar.
    The trace must stay within ``1e-7`` of one at the end (``1e-6``
    anywhere) and every sample must be positive to ``-1e-6``, or
    :class:`IntegrationError` is raised.  Positivity is decided by the
    Cholesky factorization of ``(rho + rho^H)/2 + 1e-6 I``, whole stacks of
    samples at a time; only a failure computes the eigenvalues, so the
    message still quotes the exact minimum.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    d = rho0.basis.dim
    h = _as_matrix_fn(h_of_t, rho0.basis, rho0.frame, t0)
    ops: list[tuple[np.ndarray, np.ndarray, float]] = []
    for ch in channels:
        L = ch.operator.matrix if isinstance(ch.operator, OperatorMatrix) else np.asarray(
            ch.operator, dtype=complex)
        if L.shape != (d, d):
            raise BasisMismatchError(f"collapse operator shape {L.shape} != ({d}, {d})")
        if ch.rate > 0:
            ops.append((L, L.conj().T @ L, float(ch.rate)))
    gen = _liouvillian(h, ops) if isinstance(h, np.ndarray) else (
        lambda t: _liouvillian(h(t), ops))
    times, states, meta = _propagate(gen, 1.0, rho0.matrix.reshape(1, d * d), t0, t1, cfg,
                                     breakpoints)
    if meta.get("propagator") == "eig":
        meta["propagator"] = "liouvillian-eig"
    states.setflags(write=False)  # a fresh array: the trajectory adopts it
    traj = Trajectory(times, states[0].reshape(times.size, d, d), rho0.basis, rho0.frame,
                      "density", meta)
    check_drift(traj.traces(), "trace")
    _check_positivity(traj)
    return traj


def _check_positivity(traj: Trajectory) -> None:
    """Raise :class:`IntegrationError` when a density matrix of ``traj`` has an
    eigenvalue below ``-1e-6``.

    ``(rho + rho^H)/2 + 1e-6 I`` has a Cholesky factor exactly when every
    eigenvalue of the Hermitian part lies above ``-1e-6``.  The lower
    triangles and real diagonals of the shifted matrices, all that the
    factorization reads, are laid out as a ``(d, d, n)`` stack of at most
    ``_POSITIVITY_CHUNK_BYTES``, one buffer reused for every chunk, and
    factorized together in ``d`` pivot steps of whole-array arithmetic
    (:func:`_factorizes`), not one LAPACK call per sample.  Only a failing
    chunk calls :meth:`Trajectory.min_eigenvalue`, whose exact value then
    decides and goes into the message.  A chunk with a ``nan`` or ``inf``
    entry fails with minimum ``nan``.
    """
    n, d = traj.states.shape[0], traj.states.shape[1]
    flat = traj.states.reshape(n, d * d)
    size = max(1, min(n, _POSITIVITY_CHUNK_BYTES // (16 * d * d)))
    buf = np.empty((d, d, size), dtype=complex)
    rows, cols = np.tril_indices(d, -1)
    diag = np.arange(d)
    for a in range(0, n, size):
        lower = flat[a:a + size, rows * d + cols]
        lower += flat[a:a + size, cols * d + rows].conj()
        lower *= 0.5
        main = flat[a:a + size, diag * (d + 1)]
        m = buf[..., :main.shape[0]]
        m[rows, cols] = lower.T
        m[diag, diag] = main.T.real + _POSITIVITY_TOL
        if not (np.isfinite(lower).all() and np.isfinite(main).all()):
            lo = math.nan
        elif _factorizes(m):
            continue
        else:
            lo = traj.min_eigenvalue()
        if not lo >= -_POSITIVITY_TOL:
            raise IntegrationError(f"density matrix lost positivity: min eigenvalue {lo:.3e}")
        return


def _factorizes(m: np.ndarray) -> bool:
    """Whether every Hermitian matrix of the finite ``(d, d, n)`` stack ``m``,
    given by its lower triangle and real diagonal, has a Cholesky factor,
    decided as LAPACK decides: every pivot, the diagonal entry less the
    squared row of the factor so far, must be positive.  Overwrites the
    lower triangle with the factor's columns."""
    for j in range(m.shape[0]):
        if j:
            m[j:, j] -= (m[j:, :j] * m[j, :j].conj()).sum(axis=1)
        pivot = m[j, j].real
        if not (pivot > 0.0).all():
            return False
        m[j + 1:, j] /= np.sqrt(pivot)
    return True


def evolve_expm(h_of_t: Any, state: QuantumState, t_grid: Sequence[float]) -> Trajectory:
    """Propagate by exact matrix exponentials on each cell of ``t_grid``.

    The Hamiltonian is sampled at cell midpoints, so the result is exact
    whenever ``H`` is constant between consecutive grid points.  This is
    the reference propagator the adaptive integrator is tested against.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    h = _as_matrix_fn(h_of_t, state.basis, state.frame, float(times[0]))
    states = np.empty((times.size, state.basis.dim), dtype=complex)
    states[0] = state.amplitudes
    for i in range(1, times.size):
        mid = 0.5 * (times[i] + times[i - 1])
        m = OperatorMatrix(h if isinstance(h, np.ndarray) else h(float(mid)), state.basis)
        states[i] = matrix_exponential(m, times[i] - times[i - 1]).matrix @ states[i - 1]
    return Trajectory(times, states, state.basis, state.frame, "pure")


@dataclass(frozen=True, eq=False)
class PhaseSeries:
    """Unwrapped phase of one amplitude along a trajectory.

    ``interpolated`` marks samples whose magnitude was below the floor
    (their phase is filled in linearly); ``jump_mask`` marks intervals
    where the unwrapped phase moved by more than pi/2 between consecutive
    defined samples, which usually means the sampling is too coarse to
    trust continuity or the amplitude passed through a node.  A hop across
    interpolated samples marks every interval it spans.
    """

    times: np.ndarray
    values: np.ndarray
    interpolated: np.ndarray
    jump_mask: np.ndarray
    label: str
    floor: float

    def __post_init__(self) -> None:
        for name in ("times", "values", "interpolated", "jump_mask"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def final(self) -> float:
        return float(self.values[-1])

    @property
    def max_jump(self) -> float:
        """Largest phase step between consecutive defined samples."""
        steps = np.diff(self.values[~self.interpolated])
        return float(np.max(np.abs(steps))) if steps.size else 0.0

    @property
    def any_jump_flag(self) -> bool:
        return bool(np.any(self.jump_mask))


def accumulated_phase(traj: Trajectory, label: str,
                      floor: float = PHASE_FLOOR) -> PhaseSeries:
    """Unwrapped phase of ``traj.amplitude(label)`` versus time.

    Raises :class:`PhaseUndefinedError` when fewer than two samples, or
    less than half of them, sit above the magnitude floor.
    """
    if traj.times.size > 1 and traj.times[0] > traj.times[-1]:
        raise ValueError("phase accumulation expects a forward-time trajectory")
    amp = traj.amplitude(label)
    defined = np.abs(amp) >= floor
    n_def = int(np.count_nonzero(defined))
    if n_def < 2:
        raise PhaseUndefinedError(
            f"amplitude {label!r} has {n_def} samples above the floor {floor:g}; "
            "no phase can be tracked"
        )
    if n_def < 0.5 * amp.size:
        raise PhaseUndefinedError(
            f"amplitude {label!r} sits below the floor {floor:g} for "
            f"{amp.size - n_def} of {amp.size} samples; phase is undefined "
            "over most of the window"
        )
    unwrapped = np.unwrap(np.angle(amp[defined]))
    values = np.interp(traj.times, traj.times[defined], unwrapped)
    # pin the defined samples exactly (interp can round)
    values[defined] = unwrapped
    # hops are measured between defined samples: interpolation across a
    # node would split a pi hop into steps that each stay below pi/2
    idx = np.flatnonzero(defined)
    hops = np.abs(np.diff(unwrapped)) > (math.pi / 2.0)
    jump_mask = np.zeros(amp.size - 1, dtype=bool)
    for a, b in zip(idx[:-1][hops], idx[1:][hops]):
        jump_mask[a:b] = True
    return PhaseSeries(
        times=traj.times.copy(),
        values=values,
        interpolated=~defined,
        jump_mask=jump_mask,
        label=label,
        floor=floor,
    )


def _reframe(traj: Trajectory, omega_l: float, excitations: Sequence[int],
             sign: float, frame: str) -> Trajectory:
    """Multiply each amplitude by ``exp(sign i omega_l n t / hbar)``, relabel ``frame``."""
    if len(excitations) != traj.basis.dim:
        raise ValueError("need one excitation number per basis state")
    n = np.asarray(excitations, dtype=float)
    f = np.exp(sign * 1j * omega_l * np.outer(traj.times, n) / HBAR_MEV_PS)
    if traj.kind == "pure":
        states = traj.states * f
    else:
        states = traj.states * f[:, :, None] * f[:, None, :].conj()
    return Trajectory(traj.times, states, traj.basis, frame, traj.kind, dict(traj.metadata))


def to_rotating_frame(traj: Trajectory, omega_l: float,
                      excitations: Sequence[int]) -> Trajectory:
    """Map a lab-frame trajectory into the frame rotating at ``omega_l``.

    ``excitations`` lists the exciton number of each basis state, in basis
    order; each amplitude picks up ``exp(+i omega_l n t / hbar)``.
    """
    if traj.frame != LAB_FRAME:
        raise BasisMismatchError(f"expected a lab-frame trajectory, got {traj.frame!r}")
    return _reframe(traj, omega_l, excitations, +1.0, rotating_frame_tag(omega_l))


def to_lab_frame(traj: Trajectory, omega_l: float,
                 excitations: Sequence[int]) -> Trajectory:
    """Inverse of :func:`to_rotating_frame`."""
    expected = rotating_frame_tag(omega_l)
    if traj.frame != expected:
        raise BasisMismatchError(f"expected frame {expected!r}, got {traj.frame!r}")
    return _reframe(traj, omega_l, excitations, -1.0, LAB_FRAME)


def concatenate_trajectories(parts: Sequence[Trajectory]) -> Trajectory:
    """Join consecutive trajectory segments into one.

    Segments must share basis, frame, and kind, and each must start where
    the previous one ended (the duplicated junction sample is dropped).
    Metadata is merged with later segments winning, except ``nfev``, which
    is summed.
    """
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    times = [first.times]
    states = [first.states]
    for prev, cur in zip(parts[:-1], parts[1:]):
        if cur.basis.labels != first.basis.labels or cur.frame != first.frame \
                or cur.kind != first.kind:
            raise BasisMismatchError("trajectory segments disagree on basis, frame, or kind")
        skip = 1 if cur.times[0] == prev.times[-1] else 0
        if cur.times[skip if skip < cur.times.size else -1] < prev.times[-1]:
            raise ValueError("trajectory segments overlap in time")
        times.append(cur.times[skip:])
        states.append(cur.states[skip:])
    meta: dict[str, Any] = {}
    for part in parts:
        meta.update(part.metadata)
    if "nfev" in meta:
        meta["nfev"] = sum(part.metadata.get("nfev", 0) for part in parts)
    return Trajectory(np.concatenate(times), np.concatenate(states, axis=0),
                      first.basis, first.frame, first.kind, meta)
