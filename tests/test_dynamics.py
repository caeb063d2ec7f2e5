import math
import time
import tracemalloc

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
    concatenate_trajectories,
    evolve_expm,
    evolve_lindblad,
    evolve_schrodinger,
    to_lab_frame,
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
    raman_hamiltonian,
    rwa_subspace_generator,
    spectator_generator,
)
from dotgates.operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    BasisMismatchError,
    OperatorMatrix,
    QuantumState,
    matrix_exponential,
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
    for bad in (dict(rtol=0.0), dict(atol=-1e-12), dict(max_step=0.0),
                dict(sample_interval=0.0)):
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
    traj = evolve_schrodinger(h, psi0, (0.0, 2.0), breakpoints=env.breakpoints())
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
    fwd = evolve_schrodinger(h, psi0, (0.0, 2.0), breakpoints=env.breakpoints())
    back = evolve_schrodinger(h, fwd.final_state(), (2.0, 0.0),
                              breakpoints=env.breakpoints())
    assert back.times[0] == 2.0 and back.times[-1] == 0.0
    np.testing.assert_allclose(back.states[-1], psi0.amplitudes, atol=1e-7)


def test_norm_drift_raises_integration_error():
    # a non-Hermitian generator leaks norm; the conservation check must trip
    h = np.array([[0.0, 0.0], [0.0, -0.5j]], dtype=complex)
    psi0 = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    with pytest.raises(IntegrationError):
        evolve_schrodinger(h, psi0, (0.0, 1.0))


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
    assert traj.n_samples == 1
    assert traj.times[0] == 1.0
    np.testing.assert_allclose(traj.states[0], psi0.amplitudes)


def test_trajectory_validation_and_accessors():
    times = np.linspace(0.0, 1.0, 11)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (11, 1))
    traj = Trajectory(times, states, B2, LAB_FRAME, "pure", {"tag": 1})
    assert traj.n_samples == 11
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
    # a time-dependent H: the Liouvillian is rebuilt at every evaluation
    block, _ = _carrier_two_level()
    pure = evolve_schrodinger(lambda t: block(t), psi0, (0.0, 4.0))
    mixed = evolve_lindblad(block, psi0.density(), (0.0, 4.0))
    assert mixed.metadata["propagator"] == "DOP853"
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
    ps = accumulated_phase(traj, "g")
    assert ps.final == pytest.approx(-e * 3.0 / HBAR_MEV_PS, abs=1e-6)
    assert abs(ps.final) > math.pi  # the wrapped angle could never show this
    assert not ps.interpolated.any()
    assert not ps.any_jump_flag


def test_accumulated_phase_flags_sign_crossing():
    # amplitude passes through zero: the phase hops by pi and must be flagged
    g = 0.5
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    period = 2.0 * math.pi * HBAR_MEV_PS / (2.0 * g)
    traj = evolve_schrodinger(h, QuantumState.basis_state(B2, "g"), (0.0, period))
    ps = accumulated_phase(traj, "g")
    assert ps.any_jump_flag
    assert ps.max_jump == pytest.approx(math.pi, abs=0.1)


def test_accumulated_phase_flags_hop_across_exact_node():
    # the node sample is exactly zero, so it is interpolated; the pi hop
    # between its defined neighbours must still be flagged on both intervals
    times = np.linspace(0.0, 1.0, 101)
    amp = np.cos(math.pi * times).astype(complex)
    amp[50] = 0.0
    states = np.stack([amp, np.sqrt(1.0 - np.abs(amp) ** 2)], axis=1)
    ps = accumulated_phase(Trajectory(times, states, B2, LAB_FRAME, "pure"), "g")
    assert ps.interpolated[50] and ps.interpolated.sum() == 1
    assert ps.any_jump_flag
    assert np.flatnonzero(ps.jump_mask).tolist() == [49, 50]
    assert ps.max_jump == pytest.approx(math.pi, abs=1e-12)
    assert ps.values[50] == pytest.approx(0.5 * (ps.values[49] + ps.values[51]))


def test_accumulated_phase_interpolates_below_floor():
    times = np.linspace(0.0, 1.0, 101)
    amp = np.exp(-1j * 0.3 * times)
    amp[40:46] = 1e-12  # a short dead window
    states = np.stack(
        [amp, np.sqrt(np.clip(1.0 - np.abs(amp) ** 2, 0.0, None))], axis=1)
    traj = Trajectory(times, states, B2, LAB_FRAME, "pure")
    ps = accumulated_phase(traj, "g")
    assert ps.interpolated[40:46].all()
    assert not ps.interpolated[:40].any()
    # interpolation bridges the gap smoothly
    assert ps.final == pytest.approx(-0.3, abs=1e-9)


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


def test_frame_round_trip():
    om = 3.0
    h = OperatorMatrix(np.diag([0.0, 0.0, om]), B3, hermitian=True)
    psi0 = QuantumState(np.array([0.6, 0.0, 0.8]), B3)
    lab = evolve_schrodinger(h, psi0, (0.0, 2.0))
    rot = to_rotating_frame(lab, om, (0, 0, 1))
    # in its own rotating frame the amplitude is frozen
    np.testing.assert_allclose(rot.amplitude("X"), 0.8, atol=1e-8)
    back = to_lab_frame(rot, om, (0, 0, 1))
    np.testing.assert_allclose(back.states, lab.states, atol=1e-12)
    with pytest.raises(BasisMismatchError):
        to_rotating_frame(rot, om, (0, 0, 1))  # already rotating
    with pytest.raises(BasisMismatchError):
        to_lab_frame(lab, om, (0, 0, 1))
    with pytest.raises(ValueError):
        to_rotating_frame(lab, om, (0, 0))


def test_concatenate_trajectories():
    h = OperatorMatrix(np.diag([0.0, 1.0]), B2, hermitian=True)
    psi0 = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0), B2)
    first = evolve_schrodinger(h, psi0, (0.0, 1.0))
    second = evolve_schrodinger(h, first.final_state(), (1.0, 2.0))
    joined = concatenate_trajectories([first, second])
    assert joined.n_samples == first.n_samples + second.n_samples - 1
    assert joined.times[0] == 0.0 and joined.times[-1] == 2.0
    np.testing.assert_allclose(joined.states[-1], second.states[-1])
    with pytest.raises(ValueError):
        concatenate_trajectories([second, first])  # wrong order
    rot = to_rotating_frame(first, 1.0, (0, 1))
    with pytest.raises(BasisMismatchError):
        concatenate_trajectories([first, rot])
    with pytest.raises(ValueError):
        concatenate_trajectories([])


def test_constant_hamiltonian_eigh_matches_adaptive():
    rng = np.random.default_rng(3)
    m = _random_hermitian(rng, 3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi0 = QuantumState(v / np.linalg.norm(v), B3)
    exact = evolve_schrodinger(OperatorMatrix(m, B3, hermitian=True), psi0, (0.2, 2.7),
                               breakpoints=(1.234,))
    adaptive = evolve_schrodinger(lambda t: m, psi0, (0.2, 2.7), breakpoints=(1.234,))
    assert exact.metadata["propagator"] == "eigh"
    assert adaptive.metadata["propagator"] == "DOP853"
    assert adaptive.metadata["nfev"] > 0
    np.testing.assert_array_equal(exact.times, adaptive.times)
    np.testing.assert_allclose(exact.states, adaptive.states, atol=1e-8)


def _lossy_lambda():
    # Raman-like block: two ground levels, a detuned excited level, a sink
    h = np.zeros((4, 4), dtype=complex)
    h[2, 2] = 3.0
    h[0, 2] = h[2, 0] = h[1, 2] = h[2, 1] = 0.7
    sink = np.zeros((4, 4), dtype=complex)
    sink[3, 2] = 1.0
    basis = Basis(("0", "1", "e", "s"), "lambda")
    return h, basis, (CollapseChannel(sink, 0.2),)


def test_constant_liouvillian_matches_adaptive(monkeypatch):
    h, basis, channels = _lossy_lambda()
    rho0 = QuantumState.basis_state(basis, "0").density()
    exact = evolve_lindblad(h, rho0, (0.0, 12.0), channels)
    adaptive = evolve_lindblad(lambda t: h, rho0, (0.0, 12.0), channels)
    assert exact.metadata["propagator"] == "liouvillian-eig"
    assert adaptive.metadata["propagator"] == "DOP853"
    np.testing.assert_array_equal(exact.times, adaptive.times)
    np.testing.assert_allclose(exact.states, adaptive.states, atol=1e-8)
    # eigenvectors too ill-conditioned to trust hand over to the adaptive path
    monkeypatch.setattr(dynamics, "_MAX_EIGVEC_COND", 0.0)
    fallback = evolve_lindblad(h, rho0, (0.0, 12.0), channels)
    assert fallback.metadata["propagator"] == "DOP853"
    np.testing.assert_allclose(fallback.states, adaptive.states, atol=1e-12)


def test_stiff_ill_conditioned_liouvillian_raises_at_once(monkeypatch):
    # at 1e10/ps the eigenvectors fail the conditioning check, and DOP853
    # would need ~1e11 steps: the core refuses before it starts
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


def test_periodic_hamiltonian_floquet_matches_adaptive():
    h, period = _carrier_two_level()
    psi0 = QuantumState(np.array([0.6, 0.8j]), B2)
    span = (0.3, 0.3 + 7.4 * period)
    flo = evolve_schrodinger(h, psi0, span)
    ref = evolve_schrodinger(lambda t: h(t), psi0, span,
                             IntegratorConfig(rtol=1e-12, atol=1e-14))
    assert flo.metadata["propagator"] == "floquet"
    assert 0 < flo.metadata["nfev"] < ref.metadata["nfev"]
    np.testing.assert_array_equal(flo.times, ref.times)
    np.testing.assert_allclose(flo.states, ref.states, atol=1e-8)
    # less than one period takes Magnus; the block, not a caller's interior
    # breakpoint, says where its envelope is flat
    short = evolve_schrodinger(h, psi0, (0.3, 0.3 + 0.5 * period))
    assert short.metadata["propagator"] == "magnus4"
    kinked = evolve_schrodinger(h, psi0, span, breakpoints=(1.0,))
    assert kinked.metadata["propagator"] == "floquet"


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


def _pure(h, span, like=None, cfg=None, breakpoints=()):
    """A call that evolves the second basis state of ``like`` (``h`` by default)."""
    block = like or h
    psi0 = QuantumState.basis_state(block.basis, block.basis.labels[1], block.frame)
    return lambda: evolve_schrodinger(h, psi0, span, cfg, breakpoints)


def _raman():
    sink = np.zeros((4, 4), dtype=complex)
    sink[RAMAN_LEVELS.index("s"), RAMAN_LEVELS.index("e")] = 1.0
    rho0 = QuantumState.basis_state(RAMAN_LEVELS, "0", "rotating@laser").density()
    return evolve_lindblad(raman_hamiltonian(1.33, 4.0), rho0, (0.0, 5.0),
                           (CollapseChannel(sink, 0.1),))


def _undriven():
    h0 = _random_hermitian(np.random.default_rng(3), 3)
    return DrivenBlock(B3, LAB_FRAME, h0, np.zeros((3, 3), dtype=complex), _GAUSSIAN)


_TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-14)
_PAST = (0.503, 4.497)  # past both edges of _SQUARE's support, inside sample cells

# input, its method, and a reference it must match to atol (0: bit for bit)
ROUTES = {
    "rotating square inside its support": (
        _pure(_rotating(_SQUARE), (1.0, 4.0)), "eigh",
        _pure(_rotating(_SQUARE)(2.5), (1.0, 4.0), _rotating(_SQUARE)), 0.0),
    "rotating square past its support": (
        _pure(_rotating(_SQUARE), _PAST), "magnus4",
        _pure(lambda t: _rotating(_SQUARE)(t), _PAST, _rotating(_SQUARE), _TIGHT,
              _SQUARE.breakpoints()), 1e-8),
    "lab square over many carrier periods": (
        _pure(_lab(_SQUARE), (1.0, 4.0)), "floquet", None, None),
    "lab square shorter than one carrier period": (
        _pure(_lab(SquarePulse(0.2, 0.05, 1.0)), (1.0, 1.05)), "magnus4", None, None),
    "rotating gaussian": (_pure(_rotating(_GAUSSIAN), _GAUSSIAN.support()), "magnus4",
                          None, None),
    "lab gaussian": (_pure(_lab(_GAUSSIAN), _GAUSSIAN.support()), "magnus4", None, None),
    "plain callable": (
        _pure(lambda t: np.diag([0.0, 1.0, t]).astype(complex), (0.0, 1.0), _lab(_SQUARE)),
        "DOP853", None, None),
    "block behind a plain callable": (
        _pure(lambda t: _rotating(_SQUARE)(t), (1.0, 4.0), _rotating(_SQUARE)), "DOP853",
        None, None),
    "constant Raman Liouvillian": (_raman, "liouvillian-eig", None, None),
    "block with a zero drive": (
        _pure(_undriven(), _GAUSSIAN.support()), "eigh",
        _pure(_undriven().h0, _GAUSSIAN.support(), _undriven()), 0.0),
}


@pytest.mark.parametrize("case", list(ROUTES))
def test_each_input_takes_the_method_its_structure_allows(case):
    run, propagator, reference, atol = ROUTES[case]
    traj = run()
    assert traj.metadata["propagator"] == propagator
    if reference is not None:
        ref = reference()
        np.testing.assert_array_equal(traj.times, ref.times)
        np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=atol)


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
    assert [t.n_samples for t in zero] == [1, 1]
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
        # a passing stack is decided by the factorization alone
        def no_eigenvalues(self):
            raise AssertionError("eigenvalues computed for a positive stack")

        monkeypatch.setattr(Trajectory, "min_eigenvalue", no_eigenvalues)
        dynamics._check_positivity(traj)


def test_positivity_check_reaches_the_last_chunk():
    traj = _density_trajectory(np.random.default_rng(6), 2500, 2499, -2e-6)
    assert 2499 >= 2 * (dynamics._POSITIVITY_CHUNK_BYTES // (16 * 4 * 4))
    with pytest.raises(IntegrationError, match=r"min eigenvalue -2\.000e-06$"):
        dynamics._check_positivity(traj)


def _unitary_spectrum():
    return np.linalg.eigvalsh(_random_hermitian(np.random.default_rng(3), 3)), -1j / HBAR_MEV_PS


def _decaying_spectrum():
    h, _, channels = _lossy_lambda()
    ops = [(c.operator, c.operator.conj().T @ c.operator, c.rate) for c in channels]
    return np.linalg.eigvals(dynamics._liouvillian(h, ops)), 1.0


def _lab_wait_spectrum():
    # the free wait of a zrot at omega_a = 2000 meV
    return np.array([0.0, 0.0, 2000.0]), -1j / HBAR_MEV_PS


# (t0, t1, sample_interval, breakpoints)
_GROWTH_GRIDS = {
    "1e5 uniform samples": (0.0, 10.0, 1e-4, ()),
    # the grid of test_constant_hamiltonian_eigh_matches_adaptive
    "inserted breakpoint": (0.2, 2.7, 0.01, (1.234,)),
    "inserted breakpoint, backwards": (2.7, 0.2, 0.01, (1.234,)),
    "lab wait after a pi pulse": (2.0672, 2.5672, 0.01, ()),
}


@pytest.mark.parametrize("spectrum", [_unitary_spectrum, _decaying_spectrum, _lab_wait_spectrum])
@pytest.mark.parametrize("grid", list(_GROWTH_GRIDS))
def test_growth_matches_the_direct_exponentials(spectrum, grid):
    lam, scale = spectrum()
    t0, t1, dt, breakpoints = _GROWTH_GRIDS[grid]
    times, _, step = dynamics._sample_grid(t0, t1, dt, breakpoints)
    direct = np.exp(scale * np.outer(times - t0, lam))
    growth = dynamics._growth(times, step, lam, scale)
    np.testing.assert_allclose(growth, direct, rtol=0, atol=1e-13)


def test_growth_anchors_only_where_the_sample_rounding_allows():
    def direct(times, lam, scale):
        e = np.outer(times - times[0], lam).astype(complex)
        e *= scale
        return np.exp(e)

    # a Raman-like Liouvillian over its window takes the anchored powers ...
    lam, scale = _decaying_spectrum()
    times, _, step = dynamics._sample_grid(0.0, 19.46, 0.01, ())
    growth = dynamics._growth(times, step, lam, scale)
    assert not np.array_equal(growth, direct(times, lam, scale))
    np.testing.assert_allclose(growth, direct(times, lam, scale), rtol=0, atol=1e-13)
    # ... a 2000 meV level 8 ps from the origin, and any grid with an
    # inserted breakpoint, the direct exponential bit for bit
    for lam, scale, span, breakpoints in ((*_lab_wait_spectrum(), (7.9, 8.9), ()),
                                          (*_decaying_spectrum(), (0.0, 19.46), (3.2137,))):
        times, _, step = dynamics._sample_grid(*span, 0.01, breakpoints)
        growth = dynamics._growth(times, step, lam, scale)
        np.testing.assert_array_equal(growth, direct(times, lam, scale))


def test_liouvillian_is_the_kronecker_expression_bit_for_bit():
    rng = np.random.default_rng(17)
    h = _random_hermitian(rng, 4)
    ops = []
    for rate in (0.3, 1.7):
        L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ops.append((L, L.conj().T @ L, rate))
    eye = np.eye(4)
    want = (-1j / HBAR_MEV_PS) * (np.kron(h, eye) - np.kron(eye, h.T))
    for L, LdL, g in ops:
        want += g * (np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye) - 0.5 * np.kron(eye, LdL.T))
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
