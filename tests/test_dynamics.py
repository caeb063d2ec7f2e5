import math
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import pytest

from dotgates import dynamics
from dotgates.dynamics import (
    CollapseChannel,
    IntegrationError,
    IntegratorConfig,
    PhaseUndefinedError,
    Trajectory,
    accumulated_phase,
    check_drift,
    evolve_expm,
    evolve_lindblad,
    evolve_schrodinger,
    to_rotating_frame,
)
from dotgates.model import (
    PSI_SUBSPACE,
    SPECTATOR_B_IDLE,
    DotPairParams,
    RAMAN_LEVELS,
    DrivenBlock,
    GaussianPulse,
    LaserDrive,
    SquarePulse,
    lab_single_dot_generator,
    raman_generator,
    rwa_subspace_generator,
    spectator_generator,
)
from dotgates.operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    BasisMismatchError,
    DensityMatrix,
    OperatorMatrix,
    QuantumState,
    matrix_exponential,
    rotating_frame_tag,
)

B2 = Basis(("g", "e"), "two-level")
B3 = Basis(("0", "1", "X"), "dot")


def _random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def test_integrator_config_validation():
    cfg = IntegratorConfig()
    assert cfg.rtol == 1e-9
    assert cfg.atol == 1e-12
    assert cfg.sample_interval == 0.01
    for bad in (dict(rtol=0.0), dict(atol=-1e-12), dict(sample_interval=0.0)):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


def test_constant_hamiltonian_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    h = OperatorMatrix(_random_hermitian(rng, 3), B3, hermitian=True)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 = QuantumState(v / np.linalg.norm(v), B3)
    t_final = 2.5
    traj = evolve_schrodinger(h, psi0, (0.0, t_final))
    expected = matrix_exponential(h, t_final).matrix @ psi0.amplitudes
    np.testing.assert_allclose(traj.states[-1], expected, atol=1e-8)
    np.testing.assert_allclose(traj.norms(), 1.0, atol=1e-8)


def test_rabi_oscillation_analytic():
    g = 0.5  # H = g sigma_x: population oscillates as sin^2(g t / hbar)
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    t_pi = math.pi * HBAR_MEV_PS / (2.0 * g)
    traj = evolve_schrodinger(h, QuantumState.basis_state(B2, "g"), (0.0, 2 * t_pi))
    pe = traj.population("e")
    expected = np.sin(g * traj.times / HBAR_MEV_PS) ** 2
    np.testing.assert_allclose(pe, expected, atol=1e-9)
    # full inversion at t_pi, full return at 2 t_pi
    i = int(np.argmin(np.abs(traj.times - t_pi)))
    assert pe[i] == pytest.approx(1.0, abs=1e-6)
    assert pe[-1] == pytest.approx(0.0, abs=1e-9)


def test_square_pulse_edges_handled_exactly():
    # piecewise-constant drive: adaptive integration with breakpoints must
    # agree with the exact matrix-exponential product over the three pieces
    env = SquarePulse(amplitude=0.3, duration=1.0, t_start=0.5)
    vf = 0.85

    def h(t):
        g = env(t) / 2.0
        return np.array([[0.0, g], [g, -vf]], dtype=complex)

    psi0 = QuantumState.basis_state(B2, "g")
    traj = evolve_schrodinger(h, psi0, (0.0, 2.0), breakpoints=env.support())
    exact = evolve_expm(h, psi0, [0.0, 0.5, 1.5, 2.0])
    np.testing.assert_allclose(traj.states[-1], exact.states[-1], atol=1e-9)
    # the sample grid carries the breakpoints exactly
    assert np.any(traj.times == 0.5)
    assert np.any(traj.times == 1.5)


def test_evolve_expm_is_exact_for_constant_generator():
    g = 0.5
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    t = 1.7
    traj = evolve_expm(h, QuantumState.basis_state(B2, "g"), [0.0, t])
    theta = g * t / HBAR_MEV_PS
    np.testing.assert_allclose(
        traj.states[-1], [math.cos(theta), -1j * math.sin(theta)], atol=1e-14)


def test_time_reversal_returns_initial_state():
    env = SquarePulse(amplitude=0.4, duration=1.2, t_start=0.3)

    def h(t):
        g = env(t)
        return np.array([[0.0, g], [g, -0.5]], dtype=complex)

    psi0 = QuantumState(np.array([0.8, 0.6j]), B2)
    fwd = evolve_schrodinger(h, psi0, (0.0, 2.0), breakpoints=env.support())
    end = QuantumState(fwd.states[-1], fwd.basis, fwd.frame)
    back = evolve_schrodinger(h, end, (2.0, 0.0), breakpoints=env.support())
    assert back.times[0] == 2.0 and back.times[-1] == 0.0
    np.testing.assert_allclose(back.states[-1], psi0.amplitudes, atol=1e-7)


def test_norm_drift_raises_integration_error():
    # a non-Hermitian generator leaks norm; the conservation check must trip
    h = np.array([[0.0, 0.0], [0.0, -0.5j]], dtype=complex)
    psi0 = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    with pytest.raises(IntegrationError):
        evolve_schrodinger(h, psi0, (0.0, 1.0))


def test_drift_on_a_spectral_route_names_no_tolerance():
    # eig reads no rtol or atol: the generator itself loses the norm
    with pytest.raises(IntegrationError, match="norm drifted by 5.322e-01") as err:
        evolve_schrodinger(np.array([[0, 0], [0, -0.5j]]), QuantumState.basis_state(B2, "e"),
                           (0.0, 1.0))
    assert "rtol" not in str(err.value) and "atol" not in str(err.value)


@pytest.mark.parametrize("method, frame, hint", [
    ("DOP853", LAB_FRAME, "tighten rtol/atol"),
    ("floquet", LAB_FRAME, "tighten rtol"),
    ("magnus4", LAB_FRAME, "tighten rtol"),
    ("magnus4", "rotating@5", "shorten sample_interval"),
    ("eigh", LAB_FRAME, "the generator does not conserve the trace"),
    ("eig", "rotating@5", "the generator does not conserve the trace"),
    ("liouvillian-eig", LAB_FRAME, "the generator does not conserve the trace"),
])
def test_drift_hint_names_what_the_route_reads(method, frame, hint):
    with pytest.raises(IntegrationError) as err:
        check_drift(np.array([1.0, 0.5]), "trace", method, frame)
    assert str(err.value) == f"trace drifted by 5.000e-01; {hint}"


def test_hamiltonian_basis_frame_checks():
    h = OperatorMatrix(np.zeros((2, 2)), B2, frame="rotating@5", hermitian=True)
    psi0 = QuantumState.basis_state(B2, "g")  # lab frame
    with pytest.raises(BasisMismatchError):
        evolve_schrodinger(h, psi0, (0.0, 1.0))
    with pytest.raises(BasisMismatchError):
        evolve_schrodinger(np.zeros((3, 3)), psi0, (0.0, 1.0))


def test_driven_block_basis_and_frame_are_checked():
    p = DotPairParams()
    env = SquarePulse(amplitude=0.1, duration=2.0)
    rotating = rwa_subspace_generator(p, env)
    lab_state = QuantumState.basis_state(PSI_SUBSPACE, "11")
    with pytest.raises(BasisMismatchError):
        evolve_schrodinger(rotating, lab_state, (0.0, 2.0))
    # the default spectator block has dot a idle, not dot b
    idle_a = spectator_generator(p, env)
    idle_b_state = QuantumState.basis_state(SPECTATOR_B_IDLE, "10", idle_a.frame)
    with pytest.raises(BasisMismatchError):
        evolve_schrodinger(idle_a, idle_b_state, (0.0, 2.0))
    with pytest.raises(BasisMismatchError):
        evolve_lindblad(idle_a, idle_b_state.density(), (0.0, 2.0))
    # the matching labels pass; a plain callable is checked for shape only
    ok = QuantumState.basis_state(PSI_SUBSPACE, "11", rotating.frame)
    traj = evolve_schrodinger(rotating, ok, (0.0, 2.0))
    assert traj.frame == rotating.frame
    evolve_schrodinger(lambda t: rotating(t), lab_state, (0.0, 0.1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_fails_the_conservation_checks():
    # exp(-i w t / hbar) overflows to nan once w t passes the largest double
    h = np.diag([0.0, 1e308]).astype(complex)
    psi0 = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    with pytest.raises(IntegrationError, match="norm drifted by nan"):
        evolve_schrodinger(h, psi0, (0.0, 2.0))
    with pytest.raises(IntegrationError, match="trace drifted by nan"):
        evolve_lindblad(h, psi0.density(), (0.0, 2.0))
    # a nan coherence leaves the trace alone but must fail positivity
    rho = np.tile(psi0.density().matrix, (3, 1, 1))
    rho[1, 0, 1] = np.nan
    traj = Trajectory(np.arange(3.0), rho, B2, LAB_FRAME, "density")
    with pytest.raises(IntegrationError, match="min eigenvalue nan"):
        dynamics._check_positivity(traj)


def test_zero_span_returns_single_sample():
    h = OperatorMatrix(np.eye(2), B2, hermitian=True)
    psi0 = QuantumState.basis_state(B2, "e")
    traj = evolve_schrodinger(h, psi0, (1.0, 1.0))
    assert traj.times.size == 1
    assert traj.times[0] == 1.0
    np.testing.assert_allclose(traj.states[0], psi0.amplitudes)


def test_trajectory_validation_and_accessors():
    times = np.linspace(0.0, 1.0, 11)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (11, 1))
    traj = Trajectory(times, states, B2, LAB_FRAME, "pure", {"tag": 1})
    assert traj.times.size == 11
    assert traj.duration == pytest.approx(1.0)
    assert traj.metadata["tag"] == 1
    with pytest.raises(TypeError):
        traj.metadata["tag"] = 2
    np.testing.assert_allclose(traj.population("g"), 1.0)
    np.testing.assert_allclose(traj.amplitude("e"), 0.0)
    assert traj.final_amplitude("g") == 1.0
    with pytest.raises(ValueError):
        traj.traces()
    with pytest.raises(ValueError):
        Trajectory(times[::-1].copy() * 0.0, states, B2, LAB_FRAME)  # constant times
    with pytest.raises(ValueError):
        Trajectory(times, states[:5], B2, LAB_FRAME)
    with pytest.raises(ValueError):
        Trajectory(times, states, B2, LAB_FRAME, kind="mixed")


def test_trajectory_adopts_frozen_arrays_and_copies_writeable_ones():
    times = np.linspace(0.0, 1.0, 5)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (5, 1))
    traj = Trajectory(times, states, B2, LAB_FRAME)
    assert not np.shares_memory(traj.states, states)
    assert not np.shares_memory(traj.times, times)
    states[:, 0] = 2.0
    times[:] = 7.0
    assert np.all(traj.states[:, 0] == 1.0) and traj.times[0] == 0.0
    # another trajectory's arrays are read-only to the bottom: adopted
    twin = Trajectory(traj.times, traj.states, B2, "other-frame")
    assert twin.states is traj.states and twin.times is traj.times
    # a read-only view of a writeable array is still copied
    view = states.view()
    view.setflags(write=False)
    held = Trajectory(traj.times, view, B2, LAB_FRAME)
    assert not np.shares_memory(held.states, states)
    states[:, 1] = 3.0
    assert np.all(held.states[:, 1] == 0.0)
    # the wrong dtype is converted, not adopted
    real = np.ones((5, 2))
    real.setflags(write=False)
    assert Trajectory(traj.times, real, B2, LAB_FRAME).states.dtype == complex


def test_propagated_trajectories_hold_one_copy_of_their_states():
    psi = [QuantumState.basis_state(B2, "g"), QuantumState.basis_state(B2, "e")]
    h = OperatorMatrix(np.array([[0.0, 0.3], [0.3, 1.0]]), B2, hermitian=True)
    ta, tb = evolve_schrodinger(h, psi, (0.0, 2.0))
    assert ta.states.base is tb.states.base  # rows of the one solver array
    assert not ta.states.base.flags.writeable
    decay = CollapseChannel(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), B2), 0.5)
    traj = evolve_lindblad(h, psi[1].density(), (0.0, 2.0), (decay,))
    assert not traj.states.flags.writeable and traj.states.base is not None


def test_lindblad_exponential_decay():
    gamma = 0.5
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho0 = QuantumState.basis_state(B2, "e").density()
    traj = evolve_lindblad(np.zeros((2, 2), dtype=complex), rho0, (0.0, 3.0),
                           channels=(CollapseChannel(lower, gamma),))
    pe = traj.population("e")
    np.testing.assert_allclose(pe, np.exp(-gamma * traj.times), atol=1e-8)
    np.testing.assert_allclose(traj.traces(), 1.0, atol=1e-8)
    assert traj.min_eigenvalue() > -1e-9


def test_lindblad_coherence_decay_rate():
    # a superposition dephases at gamma/2 under the same lowering channel
    gamma = 0.8
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    plus = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    traj = evolve_lindblad(np.zeros((2, 2), dtype=complex), plus.density(),
                           (0.0, 2.0), channels=(CollapseChannel(lower, gamma),))
    coh = np.abs(traj.states[:, 0, 1])
    np.testing.assert_allclose(coh, 0.5 * np.exp(-gamma * traj.times / 2.0), atol=1e-8)


def test_lindblad_without_channels_matches_schrodinger():
    g = 0.4
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    psi0 = QuantumState.basis_state(B2, "g")
    pure = evolve_schrodinger(h, psi0, (0.0, 4.0))
    mixed = evolve_lindblad(h, psi0.density(), (0.0, 4.0))
    np.testing.assert_allclose(mixed.population("e"), pure.population("e"), atol=1e-8)
    # zero-rate channels are inert
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mixed2 = evolve_lindblad(h, psi0.density(), (0.0, 4.0),
                             channels=(CollapseChannel(lower, 0.0),))
    np.testing.assert_allclose(mixed2.states[-1], mixed.states[-1], atol=1e-9)
    # a square block's K is Hermitian, so its constant pieces take eigh
    lifted = dynamics._lifted(_SPECTATOR_SQUARE, ()).structure(0.0, 4.0)
    assert np.array_equal(lifted, lifted.conj().T)


def test_lindblad_samples_a_blocks_envelope_edges():
    # off the sample grid, both edges of the square join it in either equation,
    # so no Magnus cell steps across the kink
    env = SquarePulse(0.3, 1.0, t_start=1.2345)
    block = spectator_generator(DotPairParams(), env)
    psi0 = QuantumState.basis_state(block.basis, "01", block.frame)
    pure = evolve_schrodinger(block, psi0, (0.0, 4.0))
    mixed = evolve_lindblad(block, psi0.density(), (0.0, 4.0))
    np.testing.assert_array_equal(mixed.times, pure.times)
    assert set(env.support()) <= set(mixed.times.tolist())
    psi = pure.states
    np.testing.assert_allclose(mixed.states, psi[:, :, None] * psi[:, None, :].conj(),
                               rtol=0, atol=1e-8)


def test_collapse_channel_validation():
    with pytest.raises(ValueError):
        CollapseChannel(np.eye(2), -0.1)
    rho0 = QuantumState.basis_state(B2, "e").density()
    with pytest.raises(BasisMismatchError):
        evolve_lindblad(np.zeros((2, 2)), rho0, (0.0, 1.0),
                        channels=(CollapseChannel(np.eye(3), 1.0),))


def test_accumulated_phase_unwraps_beyond_pi():
    # a level at energy E accrues phase -E t / hbar, well past the branch cut
    e = 2.0
    h = OperatorMatrix(np.diag([e, 0.0]), B2, hermitian=True)
    psi0 = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    traj = evolve_schrodinger(h, psi0, (0.0, 3.0))
    phase = accumulated_phase(traj, "g")
    assert phase.shape == traj.times.shape
    assert phase[-1] == pytest.approx(-e * 3.0 / HBAR_MEV_PS, abs=1e-6)
    assert abs(phase[-1]) > math.pi  # the wrapped angle could never show this


def test_accumulated_phase_steps_pi_at_sign_crossing():
    # amplitude passes through zero: its sign flip is a pi step in the phase
    g = 0.5
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    period = 2.0 * math.pi * HBAR_MEV_PS / (2.0 * g)
    traj = evolve_schrodinger(h, QuantumState.basis_state(B2, "g"), (0.0, period))
    phase = accumulated_phase(traj, "g")
    # the node sample may sit below the floor: measure between defined ones
    defined = np.abs(traj.amplitude("g")) >= dynamics.PHASE_FLOOR
    assert np.max(np.abs(np.diff(phase[defined]))) == pytest.approx(math.pi, abs=0.1)


def test_accumulated_phase_bridges_an_exact_node():
    # the node sample is exactly zero, so it takes the midpoint of its
    # defined neighbours, which keep the full pi hop between them
    times = np.linspace(0.0, 1.0, 101)
    amp = np.cos(math.pi * times).astype(complex)
    amp[50] = 0.0
    states = np.stack([amp, np.sqrt(1.0 - np.abs(amp) ** 2)], axis=1)
    phase = accumulated_phase(Trajectory(times, states, B2, LAB_FRAME, "pure"), "g")
    assert abs(phase[51] - phase[49]) == pytest.approx(math.pi, abs=1e-12)
    assert phase[50] == pytest.approx(0.5 * (phase[49] + phase[51]))


def test_accumulated_phase_interpolates_below_floor():
    times = np.linspace(0.0, 1.0, 101)
    amp = np.exp(-1j * 0.3 * times)
    amp[40:46] = 1e-12  # a short dead window
    states = np.stack(
        [amp, np.sqrt(np.clip(1.0 - np.abs(amp) ** 2, 0.0, None))], axis=1)
    traj = Trajectory(times, states, B2, LAB_FRAME, "pure")
    phase = accumulated_phase(traj, "g")
    # interpolation bridges the gap on the line the defined samples follow
    np.testing.assert_allclose(phase, -0.3 * times, atol=1e-12)
    assert phase[-1] == pytest.approx(-0.3, abs=1e-9)


def test_accumulated_phase_undefined_raises():
    times = np.linspace(0.0, 1.0, 101)
    states = np.zeros((101, 2), dtype=complex)
    states[:, 1] = 1.0
    traj = Trajectory(times, states, B2, LAB_FRAME, "pure")
    with pytest.raises(PhaseUndefinedError):
        accumulated_phase(traj, "g")  # never above the floor
    states2 = states.copy()
    states2[:40, 0] = 1.0
    states2[:40, 1] = 0.0
    traj2 = Trajectory(times, states2, B2, LAB_FRAME, "pure")
    with pytest.raises(PhaseUndefinedError):
        accumulated_phase(traj2, "g")  # defined for under half the window


def test_rotating_frame_is_the_closed_form_phase():
    om = 3.0
    h = OperatorMatrix(np.diag([0.0, 0.0, om]), B3, hermitian=True)
    psi0 = QuantumState(np.array([0.6, 0.0, 0.8]), B3)
    lab = evolve_schrodinger(h, psi0, (0.0, 2.0))
    rot = to_rotating_frame(lab, om, (0, 0, 1))
    assert rot.frame == rotating_frame_tag(om)
    # amplitude n picks up exp(+i omega n t / hbar): X turns, 0 and 1 do not
    turn = np.exp(1j * om * lab.times / HBAR_MEV_PS)
    np.testing.assert_allclose(rot.amplitude("X"), lab.amplitude("X") * turn, atol=1e-15)
    np.testing.assert_array_equal(rot.states[:, :2], lab.states[:, :2])
    # in its own rotating frame the amplitude is frozen
    np.testing.assert_allclose(rot.amplitude("X"), 0.8, atol=1e-8)
    # a density matrix element picks up exp(+i omega (n_i - n_j) t / hbar)
    rho = Trajectory(lab.times, np.einsum("ni,nj->nij", lab.states, lab.states.conj()),
                     B3, LAB_FRAME, "density")
    rho_rot = to_rotating_frame(rho, om, (0, 0, 1)).states
    np.testing.assert_allclose(rho_rot[:, 2, 0], rho.states[:, 2, 0] * turn, atol=1e-15)
    np.testing.assert_allclose(rho_rot[:, 0, 2], rho.states[:, 0, 2] / turn, atol=1e-15)
    np.testing.assert_allclose(rho_rot[:, 2, 2], rho.states[:, 2, 2], atol=1e-15)
    with pytest.raises(BasisMismatchError):
        to_rotating_frame(rot, om, (0, 0, 1))  # already rotating
    with pytest.raises(ValueError):
        to_rotating_frame(lab, om, (0, 0))


def _lossy_lambda():
    # Raman-like block: two ground levels, a detuned excited level, a sink
    h = np.zeros((4, 4), dtype=complex)
    h[2, 2] = 3.0
    h[0, 2] = h[2, 0] = h[1, 2] = h[2, 1] = 0.7
    sink = np.zeros((4, 4), dtype=complex)
    sink[3, 2] = 1.0
    basis = Basis(("0", "1", "e", "s"), "lambda")
    return h, basis, (CollapseChannel(sink, 0.2),)


def test_untrusted_liouvillian_eigenvectors_fall_back_to_dop853(monkeypatch):
    # eigenvectors too ill-conditioned to trust hand over to the adaptive path
    h, basis, channels = _lossy_lambda()
    rho0 = QuantumState.basis_state(basis, "0").density()
    monkeypatch.setattr(dynamics, "_MAX_EIGVEC_COND", 0.0)
    fallback = evolve_lindblad(h, rho0, (0.0, 12.0), channels)
    adaptive = evolve_lindblad(lambda t: h, rho0, (0.0, 12.0), channels)
    assert fallback.metadata["propagator"] == "DOP853"
    np.testing.assert_allclose(fallback.states, adaptive.states, atol=1e-12)


def test_stiff_ill_conditioned_liouvillian_raises_at_once(monkeypatch):
    # at 1e10/ps the eigenvalues are too stiff and the eigenvectors too
    # ill-conditioned to trust, and DOP853 would need ~1e11 steps: the core
    # refuses before it starts
    h, basis, channels = _lossy_lambda()
    rho0 = QuantumState.basis_state(basis, "0").density()
    stiff = (CollapseChannel(channels[0].operator, 1e10),)

    def no_solve(*args, **kwargs):
        raise AssertionError("DOP853 started on a stiff generator")

    monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="too stiff"):
        evolve_lindblad(h, rho0, (0.0, 12.0), stiff)
    assert time.perf_counter() - start < 1.0


def test_stiff_loss_on_a_split_block_raises_at_once(monkeypatch):
    # split, the 10 entries of vec(rho) that |0><0| reaches pass the
    # conditioning check, but at 1e10/ps the rounding of their eigenvalues
    # over 12 ps (~3e-5) would drift the trace: DOP853 takes over and refuses
    h, basis, channels = _lossy_lambda()
    block = DrivenBlock(basis, LAB_FRAME, h, np.zeros_like(h), lambda t: 0.0)
    rho0 = QuantumState.basis_state(basis, "0").density()
    stiff = (CollapseChannel(channels[0].operator, 1e10),)

    def no_solve(*args, **kwargs):
        raise AssertionError("DOP853 started on a stiff generator")

    monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
    with pytest.raises(IntegrationError, match="too stiff"):
        evolve_lindblad(block, rho0, (0.0, 12.0), stiff)
    # trusted regardless, the spectral path would fail on the trace instead
    monkeypatch.setattr(dynamics, "_MAX_EIGVAL_ROUNDING", math.inf)
    with pytest.raises(IntegrationError, match="trace drifted"):
        evolve_lindblad(block, rho0, (0.0, 12.0), stiff)


def test_stiff_time_dependent_liouvillian_raises_at_once(monkeypatch):
    # a callable generator takes no eigendecomposition; its explicit steps are
    # bounded from G at both ends, as the constant generator's are
    h, basis, channels = _lossy_lambda()
    rho0 = QuantumState.basis_state(basis, "0").density()
    stiff = (CollapseChannel(channels[0].operator, 1e10),)

    def no_solve(*args, **kwargs):
        raise AssertionError("DOP853 started on a stiff generator")

    monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="too stiff"):
        evolve_lindblad(lambda t: h, rho0, (0.0, 12.0), stiff)
    assert time.perf_counter() - start < 1.0


def test_sample_grid_cap_allocates_nothing():
    h = OperatorMatrix(np.eye(2), B2, hermitian=True)
    psi0 = QuantumState.basis_state(B2, "g")
    with pytest.raises(ValueError, match="samples"):
        evolve_schrodinger(h, psi0, (0.0, 30.0), IntegratorConfig(sample_interval=1e-9))


def _random_states(rng, basis, k):
    states = []
    for _ in range(k):
        v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        states.append(QuantumState(v / np.linalg.norm(v), basis))
    return states


def _carrier_two_level(w=40.0):
    """``[[0, c], [c, w]]`` with ``c = 0.8 cos(w t / hbar)`` while a long
    square envelope lasts, and its carrier period."""
    block = DrivenBlock(B2, LAB_FRAME, np.diag([0.0, w]).astype(complex),
                        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                        LaserDrive(SquarePulse(0.8, 100.0), w))
    return block, 2.0 * math.pi * HBAR_MEV_PS / w


def _smooth_three_level():
    rng = np.random.default_rng(12)
    h0, v = _random_hermitian(rng, 3), _random_hermitian(rng, 3, 0.5)
    return DrivenBlock(B3, LAB_FRAME, h0, v, lambda t: np.exp(-((t - 1.0) ** 2)))


@pytest.mark.parametrize("path", ["eigh", "magnus4", "floquet", "DOP853"])
def test_several_states_match_single_state_calls(path):
    rng = np.random.default_rng(21)
    span, cfg = (0.1, 2.3), IntegratorConfig()
    if path == "eigh":
        basis, h = B3, OperatorMatrix(_random_hermitian(rng, 3), B3, hermitian=True)
    elif path == "magnus4":
        basis, h = B3, _smooth_three_level()
    elif path == "floquet":
        h, period = _carrier_two_level()
        basis, span = B2, (0.3, 0.3 + 7.4 * period)
    else:
        block = _smooth_three_level()
        basis, h = B3, lambda t: block(t)
        # separate solves take separate steps: compare at a tolerance where
        # both sit far below 1e-12
        cfg = IntegratorConfig(rtol=1e-13, atol=1e-16)
    states = _random_states(rng, basis, 3)
    joint = evolve_schrodinger(h, states, span, cfg)
    assert isinstance(joint, list) and len(joint) == 3
    for traj, psi0 in zip(joint, states):
        alone = evolve_schrodinger(h, psi0, span, cfg)
        assert traj.metadata["propagator"] == alone.metadata["propagator"] == path
        np.testing.assert_array_equal(traj.times, alone.times)
        if path == "DOP853":
            np.testing.assert_allclose(traj.states, alone.states, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(traj.states, alone.states)


_SQUARE = SquarePulse(amplitude=0.2, duration=3.0, t_start=1.0)
_GAUSSIAN = GaussianPulse(peak=0.2, sigma=0.5, center=3.0)
_CARRIER = 40.0  # meV; a carrier period of 0.103 ps


def _rotating(env):
    return rwa_subspace_generator(DotPairParams(), env)


def _lab(env):
    return lab_single_dot_generator(_CARRIER, LaserDrive(env, _CARRIER, env.support()[0]))


_RAMAN = raman_generator(4.0, SquarePulse(1.33, 5.0))
_RAMAN_START = QuantumState.basis_state(RAMAN_LEVELS, "0", "rotating@laser").density()
_SINK = np.zeros((4, 4), dtype=complex)
_SINK[RAMAN_LEVELS.index("s"), RAMAN_LEVELS.index("e")] = 1.0
_RAMAN_LOSS = (CollapseChannel(_SINK, 0.1),)


def _raman(h=_RAMAN, span=(0.0, 5.0)):
    return evolve_lindblad(h, _RAMAN_START, span, _RAMAN_LOSS)


@dataclass
class _Route:
    """``h`` (a block, a constant or a plain callable) run over ``span``, cut
    at ``breakpoints``, must take ``route``.  ``start`` is a state, or
    amplitudes on the block's basis (by default its second basis state); a
    density runs the master equation under ``channels``.  The states match
    a ``twin`` input's bit for bit or else unsplit DOP853's to ``atol``.  A
    block's pure run matches its channel-free master equation to
    ``lift_atol``: 1e-12, or up to 1e-9 where Magnus splits the lifted cells
    otherwise."""
    h: Any
    span: tuple[float, float]
    route: str
    start: QuantumState | DensityMatrix | np.ndarray | None = None
    breakpoints: tuple[float, ...] = ()
    channels: tuple[CollapseChannel, ...] = ()
    twin: Any = None
    atol: float = 1e-8
    lift_atol: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.start, (QuantumState, DensityMatrix)):
            amplitudes = np.eye(self.h.basis.dim)[1] if self.start is None else self.start
            self.start = QuantumState(amplitudes, self.h.basis, self.h.frame)


def _evolve(h, row, config=None):
    if isinstance(row.start, QuantumState):
        return evolve_schrodinger(h, row.start, row.span, config, row.breakpoints)
    return evolve_lindblad(h, row.start, row.span, row.channels, config, row.breakpoints)


_PAST = (0.503, 4.497)  # past both edges of _SQUARE's support, inside sample cells
_FLOQUET, _PERIOD = _carrier_two_level()
_FLOQUET_SPAN = (0.3, 0.3 + 7.4 * _PERIOD)
_SEEDED = np.random.default_rng(3)
_CONSTANT = OperatorMatrix(_random_hermitian(_SEEDED, 3), B3, hermitian=True)
_CONSTANT_START = _random_states(_SEEDED, B3, 1)[0]
_LOSSY, _LOSSY_BASIS, _LOSSY_LOSS = _lossy_lambda()
_UNDRIVEN = DrivenBlock(B3, LAB_FRAME, _CONSTANT.matrix, np.zeros_like(_CONSTANT.matrix), _GAUSSIAN)
_SPECTATOR_SQUARE = spectator_generator(DotPairParams(), SquarePulse(0.3, 5.0))
_TILTED = np.array([0.6, 0.8j])

ROUTES = {
    "rotating square inside its support": _Route(
        _rotating(_SQUARE), (1.0, 4.0), "eigh", twin=_rotating(_SQUARE)(2.5)),
    "rotating square past its support": _Route(_rotating(_SQUARE), _PAST, "eigh"),
    "lab square over many carrier periods": _Route(_lab(_SQUARE), (1.0, 4.0), "floquet"),
    "lab square past its support": _Route(_lab(_SQUARE), _PAST, "floquet"),
    "lab square shorter than one carrier period": _Route(
        _lab(SquarePulse(0.2, 0.05, 1.0)), (1.0, 1.05), "magnus4", lift_atol=1e-9),
    "rotating gaussian": _Route(
        _rotating(_GAUSSIAN), _GAUSSIAN.support(), "magnus4", lift_atol=1e-9),
    "rotating gaussian past its support": _Route(
        _rotating(_GAUSSIAN), (0.503, 5.497), "magnus4", lift_atol=1e-9),
    "lab gaussian": _Route(_lab(_GAUSSIAN), _GAUSSIAN.support(), "magnus4", lift_atol=1e-9),
    "plain callable": _Route(
        lambda t: np.diag([0.0, 1.0, t]).astype(complex), (0.0, 1.0), "DOP853",
        QuantumState.basis_state(B3, "1")),
    "block behind a plain callable": _Route(
        lambda t: _rotating(_SQUARE)(t), (1.0, 4.0), "DOP853",
        QuantumState.basis_state(PSI_SUBSPACE, "psi+", _rotating(_SQUARE).frame)),
    # the twin splits the same way: a zero drive under the one matrix
    "Raman block inside its support": _Route(
        _RAMAN, (0.0, 5.0), "liouvillian-eig", _RAMAN_START, channels=_RAMAN_LOSS,
        twin=replace(_RAMAN, h0=_RAMAN(2.5), v=0.0 * _RAMAN.v)),
    "Raman block past its support": _Route(
        _RAMAN, (0.0, 5.5), "liouvillian-eig", _RAMAN_START, channels=_RAMAN_LOSS, atol=1e-12),
    "block with a zero drive": _Route(_UNDRIVEN, _GAUSSIAN.support(), "eigh", twin=_UNDRIVEN.h0),
    "constant with a breakpoint": _Route(_CONSTANT, (0.2, 2.7), "eigh", _CONSTANT_START, (1.234,)),
    "constant Liouvillian": _Route(
        _LOSSY, (0.0, 12.0), "liouvillian-eig",
        QuantumState.basis_state(_LOSSY_BASIS, "0").density(), channels=_LOSSY_LOSS),
    "carrier over 7.4 periods": _Route(_FLOQUET, _FLOQUET_SPAN, "floquet", _TILTED),
    "carrier over half a period": _Route(
        _FLOQUET, (0.3, 0.3 + 0.5 * _PERIOD), "magnus4", _TILTED, lift_atol=1e-9),
    # the breakpoint leaves a tail piece shorter than one period (0.065 ps),
    # which names the whole run
    "carrier with a kinked tail": _Route(
        _FLOQUET, _FLOQUET_SPAN, "magnus4", _TILTED, (1.0,), lift_atol=1e-9),
    "spectator square": _Route(_SPECTATOR_SQUARE, (0.0, 4.0), "eigh", _TILTED),
    "spectator gaussian": _Route(
        spectator_generator(DotPairParams(), _GAUSSIAN), _GAUSSIAN.support(), "magnus4", _TILTED),
}


@pytest.mark.parametrize("case", list(ROUTES))
def test_each_input_takes_the_method_its_structure_allows(case):
    row = ROUTES[case]
    h = row.h
    traj = _evolve(h, row)
    assert traj.metadata["propagator"] == row.route
    if row.twin is not None:
        ref, atol = _evolve(row.twin, row), 0.0
    else:
        own = h.breakpoints() if isinstance(h, DrivenBlock) else ()
        unsplit = (lambda t: h(t)) if callable(h) else (lambda t: getattr(h, "matrix", h))
        ref, atol = _evolve(unsplit, replace(row, breakpoints=(*row.breakpoints, *own)),
                            IntegratorConfig(rtol=1e-13, atol=1e-15)), row.atol
        assert ref.metadata["propagator"] == "DOP853"
        if row.route == "floquet":  # one period solved, then its powers
            assert 0 < traj.metadata["nfev"] < ref.metadata["nfev"]
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=atol)
    if isinstance(h, DrivenBlock) and isinstance(row.start, QuantumState):
        lift = _evolve(h, replace(row, start=row.start.density()))
        assert lift.metadata["propagator"] == {"eigh": "liouvillian-eig"}.get(row.route, row.route)
        if row.lift_atol != 1e-12:
            assert row.lift_atol <= 1e-9 and lift.metadata["substeps"] != traj.metadata["substeps"]
        psi = traj.states
        np.testing.assert_allclose(lift.states, psi[:, :, None] * psi[:, None, :].conj(),
                                   rtol=0, atol=row.lift_atol)


def test_a_run_builds_its_sample_grid_once(monkeypatch):
    # the pieces and the components of a run all take their samples from
    # the one grid: two pieces of the Raman block, each of its components
    grids = []
    real = dynamics._sample_grid
    monkeypatch.setattr(dynamics, "_sample_grid", lambda *a: grids.append(a) or real(*a))
    traj = _raman(span=(0.0, 5.5))
    assert len(grids) == 1
    assert 5.0 in traj.times.tolist()


@pytest.mark.parametrize("block, span, route", [
    (_RAMAN, (0.0, 5.0), "liouvillian-eig"),
    (_RAMAN, (0.0, 5.5), "liouvillian-eig"),
    (raman_generator(4.0, _GAUSSIAN), _GAUSSIAN.support(), "magnus4"),
    (raman_generator(4.0, LaserDrive(SquarePulse(1.33, 5.0), _CARRIER)), (0.0, 5.0), "floquet"),
], ids=["constant", "past its support", "gaussian", "under a carrier"])
def test_raman_sink_coherences_stay_exactly_zero(block, span, route):
    # rho0 = |0><0| never reaches the (i, s) and (s, i) entries of vec(rho),
    # which form components of their own: they stay +0.0, not rounding noise
    traj = _raman(block, span)
    assert traj.metadata["propagator"] == route
    s = RAMAN_LEVELS.index("s")
    coherences = np.concatenate([np.delete(traj.states[:, s, :], s, axis=1),
                                 np.delete(traj.states[:, :, s], s, axis=1)])
    assert not coherences.any() and not np.signbit(coherences.view(float)).any()
    assert traj.population("1").max() > 0.0


def test_magnus_exponents_match_the_commutator_of_the_node_hamiltonians():
    # the block form (f1 - f2) [h0, v] against [H2, H1] built from scalar calls
    rng = np.random.default_rng(31)
    block = DrivenBlock(B3, LAB_FRAME, _random_hermitian(rng, 3), _random_hermitian(rng, 3),
                        lambda t: np.sin(3.0 * t) + 0.5 * t)
    edges = np.sort(rng.uniform(0.0, 0.5, 40))
    got = dynamics._magnus_exponents(block, dynamics._exponent_terms(block), edges,
                                     dynamics._MagnusWork(3, 1, edges.size - 1))
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        h1, h2 = (block(a + c * (b - a)) for c in dynamics._GAUSS_LEGENDRE_NODES)
        w = (b - a) / HBAR_MEV_PS
        want = -0.5j * w * (h1 + h2) - (math.sqrt(3.0) / 12.0) * w * w * (h2 @ h1 - h1 @ h2)
        assert np.linalg.norm(got[:, :, j] - want) <= 1e-15 * np.linalg.norm(want)


def test_several_states_are_checked_and_must_share_basis_and_frame():
    leaky = np.array([[0.0, 0.0], [0.0, -0.5j]], dtype=complex)
    pair = [QuantumState.basis_state(B2, "g"), QuantumState.basis_state(B2, "e")]
    with pytest.raises(IntegrationError, match="norm drifted"):
        evolve_schrodinger(leaky, pair, (0.0, 1.0))
    h = OperatorMatrix(np.eye(2), B2, hermitian=True)
    rotating = QuantumState.basis_state(B2, "e", frame="rotating@5")
    with pytest.raises(BasisMismatchError):
        evolve_schrodinger(h, [pair[0], rotating], (0.0, 1.0))
    with pytest.raises(ValueError):
        evolve_schrodinger(h, [], (0.0, 1.0))
    zero = evolve_schrodinger(h, pair, (1.0, 1.0))
    assert [t.times.size for t in zero] == [1, 1]
    np.testing.assert_array_equal(zero[1].states[0], pair[1].amplitudes)


def _density_with_min_eigenvalue(rng, dim, lam_min):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lams = rng.uniform(0.2, 1.0, dim)
    lams[0] = 0.0
    lams *= (1.0 - lam_min) / lams.sum()
    lams[0] = lam_min
    return (q * lams) @ q.conj().T


def _density_trajectory(rng, n, bad_at, lam_min):
    basis = Basis(("0", "1", "e", "s"), "lambda")
    rhos = np.array([_density_with_min_eigenvalue(rng, 4, 0.01) for _ in range(n)])
    rhos[bad_at] = _density_with_min_eigenvalue(rng, 4, lam_min)
    return Trajectory(np.arange(n) * 0.01, rhos, basis, LAB_FRAME, "density")


@pytest.mark.parametrize("lam_min", [-2e-6, -1.001e-6, -0.999e-6, -1e-9, 0.0])
def test_positivity_check_agrees_with_eigenvalues(monkeypatch, lam_min):
    traj = _density_trajectory(np.random.default_rng(5), 300, 137, lam_min)
    assert traj.min_eigenvalue() == pytest.approx(lam_min, abs=1e-15)
    if traj.min_eigenvalue() < -1e-6:
        with pytest.raises(IntegrationError, match="lost positivity"):
            dynamics._check_positivity(traj)
    else:
        # a passing stack is decided by the factorization alone or, where
        # that refuses, by one exact pass over all three chunks
        monkeypatch.setattr(dynamics, "_POSITIVITY_CHUNK_BYTES", 16 * 4 * 4 * 100)
        exact, calls = Trajectory.min_eigenvalue, []
        monkeypatch.setattr(Trajectory, "min_eigenvalue",
                            lambda self: calls.append(self) or exact(self))
        dynamics._check_positivity(traj)
        assert calls == []
        monkeypatch.setattr(dynamics, "_factorizes", lambda m: False)
        dynamics._check_positivity(traj)
        assert calls == [traj]


def test_positivity_check_reaches_the_last_chunk():
    traj = _density_trajectory(np.random.default_rng(6), 2500, 2499, -2e-6)
    assert 2499 >= 2 * (dynamics._POSITIVITY_CHUNK_BYTES // (16 * 4 * 4))
    with pytest.raises(IntegrationError, match=r"min eigenvalue -2\.000e-06$"):
        dynamics._check_positivity(traj)


def _unitary_spectrum():
    return np.linalg.eigvalsh(_random_hermitian(np.random.default_rng(3), 3))


def _decaying_spectrum():
    h, _, channels = _lossy_lambda()
    ops = [(c.operator, c.operator.conj().T @ c.operator, c.rate) for c in channels]
    return np.linalg.eigvals(dynamics._liouvillian(h, ops))


def _lab_wait_spectrum():
    # the free wait of a zrot at omega_a = 2000 meV
    return np.array([0.0, 0.0, 2000.0])


def _direct_growth(times, lam):
    e = np.outer(times - times[0], lam).astype(complex)
    e *= -1j / HBAR_MEV_PS
    return np.exp(e)


# (t0, t1, sample_interval, breakpoints)
_GROWTH_GRIDS = {
    "1e5 uniform samples": (0.0, 10.0, 1e-4, ()),
    # the grid of the ROUTES row "constant with a breakpoint"
    "inserted breakpoint": (0.2, 2.7, 0.01, (1.234,)),
    "inserted breakpoint, backwards": (2.7, 0.2, 0.01, (1.234,)),
    "lab wait after a pi pulse": (2.0672, 2.5672, 0.01, ()),
}


@pytest.mark.parametrize("spectrum", [_unitary_spectrum, _decaying_spectrum, _lab_wait_spectrum])
@pytest.mark.parametrize("grid", list(_GROWTH_GRIDS))
def test_growth_matches_the_direct_exponentials(spectrum, grid):
    lam = spectrum()
    t0, t1, dt, breakpoints = _GROWTH_GRIDS[grid]
    times, _, step = dynamics._sample_grid(t0, t1, dt, breakpoints)
    growth = dynamics._growth(times, step, lam)
    np.testing.assert_allclose(growth, _direct_growth(times, lam), rtol=0, atol=1e-13)


def test_growth_anchors_only_where_the_sample_rounding_allows():
    # a Raman-like Liouvillian over its window takes the anchored powers ...
    lam = _decaying_spectrum()
    times, _, step = dynamics._sample_grid(0.0, 19.46, 0.01, ())
    growth = dynamics._growth(times, step, lam)
    assert not np.array_equal(growth, _direct_growth(times, lam))
    np.testing.assert_allclose(growth, _direct_growth(times, lam), rtol=0, atol=1e-13)
    # ... a 2000 meV level 8 ps from the origin, and any grid with an
    # inserted breakpoint, the direct exponential bit for bit
    for lam, span, breakpoints in ((_lab_wait_spectrum(), (7.9, 8.9), ()),
                                   (_decaying_spectrum(), (0.0, 19.46), (3.2137,))):
        times, _, step = dynamics._sample_grid(*span, 0.01, breakpoints)
        growth = dynamics._growth(times, step, lam)
        np.testing.assert_array_equal(growth, _direct_growth(times, lam))


def test_liouvillian_is_the_kronecker_expression_bit_for_bit():
    rng = np.random.default_rng(17)
    h = _random_hermitian(rng, 4)
    ops = []
    for rate in (0.3, 1.7):
        L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ops.append((L, L.conj().T @ L, rate))
    eye = np.eye(4)
    want = np.kron(h, eye) - np.kron(eye, h.T)
    for L, LdL, g in ops:
        want += (1j * HBAR_MEV_PS * g) * (
            np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye) - 0.5 * np.kron(eye, LdL.T))
    assert dynamics._liouvillian(h, ops).tobytes() == want.tobytes()


def _lapack_decisions(rhos):
    passed = []
    for rho in rhos:
        try:
            np.linalg.cholesky(0.5 * (rho + rho.conj().T) + 1e-6 * np.eye(rho.shape[0]))
        except np.linalg.LinAlgError:
            passed.append(False)
        else:
            passed.append(True)
    return passed


@pytest.mark.parametrize("margin", [-1e-8, -1e-9, 1e-9, 1e-8])
def test_positivity_decides_as_lapack_cholesky(monkeypatch, margin):
    # minimum eigenvalue of the Hermitian part at -1e-6 + margin, plus an
    # anti-Hermitian part that the check must symmetrize away
    rng = np.random.default_rng(23)
    rhos = []
    for _ in range(200):
        k = _random_hermitian(rng, 4, 1e-3)
        rhos.append(_density_with_min_eigenvalue(rng, 4, -1e-6 + margin) + 1j * k)
    want = _lapack_decisions(rhos)
    assert want == [margin > 0] * len(rhos)

    def no_eigenvalues(self):
        return -math.inf  # the factorization alone decides

    monkeypatch.setattr(Trajectory, "min_eigenvalue", no_eigenvalues)
    basis = Basis(("0", "1", "e", "s"), "lambda")
    got = []
    for rho in rhos:
        traj = Trajectory(np.zeros(1), rho[None], basis, LAB_FRAME, "density")
        try:
            dynamics._check_positivity(traj)
        except IntegrationError:
            got.append(False)
        else:
            got.append(True)
    assert got == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((2, 2), 1.0 + 1j * np.inf),
                                          ((3, 1), np.inf)])
def test_positivity_fails_a_non_finite_sample_with_nan(entry, value):
    traj = _density_trajectory(np.random.default_rng(8), 40, 0, 0.01)
    rhos = traj.states.copy()
    rhos[(17, *entry)] = value
    traj = Trajectory(traj.times, rhos, traj.basis, LAB_FRAME, "density")
    with pytest.raises(IntegrationError, match="min eigenvalue nan$"):
        dynamics._check_positivity(traj)


def test_positivity_check_memory_is_one_chunk():
    traj = _density_trajectory(np.random.default_rng(9), 20000, 0, 0.01)
    dynamics._check_positivity(traj)
    tracemalloc.start()
    try:
        dynamics._check_positivity(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffer, the gathered triangle and the pivot step's products,
    # against 5.1 MB of states
    assert peak < 3 * dynamics._POSITIVITY_CHUNK_BYTES
