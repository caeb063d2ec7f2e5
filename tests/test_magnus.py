"""The batched fourth-order Magnus propagator behind smooth-envelope cphase runs."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from dotgates import dynamics, gates
from dotgates.dynamics import IntegrationError, IntegratorConfig, evolve_schrodinger
from dotgates.gates import (
    ZGateParams,
    gaussian_cphase_pulse,
    run_cphase,
    run_z_rotation,
    square_cphase_pulse,
)
from dotgates.model import (
    PSI_SUBSPACE,
    SINGLE_DOT,
    SPECTATOR_B_IDLE,
    DotPairParams,
    DrivenBlock,
    GaussianPulse,
    LaserDrive,
    lab_single_dot_generator,
    rwa_subspace_generator,
    spectator_generator,
)
from dotgates.operators import HBAR_MEV_PS, Basis, QuantumState

def tight_dop853_cphase(p, env, sample_interval=0.01):
    """``run_cphase`` with every block on DOP853 at rtol 1e-13."""
    def adaptive(h, *args, **kwargs):
        return evolve_schrodinger(lambda t: h(t), *args, **kwargs)

    cfg = IntegratorConfig(rtol=1e-13, atol=1e-15, sample_interval=sample_interval)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "evolve_schrodinger", adaptive)
        _, trajs = run_cphase(p, env, cfg)
    assert trajs["11"].metadata["propagator"] == "DOP853"
    return trajs


def assert_states_close(trajs, ref, atol):
    for key in ("01", "10", "11"):
        np.testing.assert_array_equal(trajs[key].times, ref[key].times)
        np.testing.assert_allclose(trajs[key].states, ref[key].states, rtol=0, atol=atol)


# corners of the benchmark box (omega = r v_f) and the CLI defaults
@pytest.mark.parametrize("r, v_f, v_xx", [
    (0.1, 0.7, 4.0), (0.1, 0.7, 6.0), (0.2, 1.0, 4.0), (0.2, 1.0, 6.0), (0.1 / 0.85, 0.85, 5.0),
])
def test_gaussian_cphase_matches_tight_dop853(r, v_f, v_xx):
    p = DotPairParams(v_f=v_f, v_xx=v_xx)
    env = gaussian_cphase_pulse(r * v_f)
    _, trajs = run_cphase(p, env)
    assert trajs["11"].metadata["propagator"] == "magnus4"
    assert trajs["11"].metadata["substeps"] == 1
    assert trajs["11"].metadata["nfev"] == 2 * (trajs["11"].times.size - 1)
    assert_states_close(trajs, tight_dop853_cphase(p, env), 1e-10)


def test_gaussian_cphase_keeps_psi_minus_exactly_zero():
    _, trajs = run_cphase(DotPairParams(), gaussian_cphase_pulse(0.1))
    dark = trajs["11"].amplitude("psi-")
    assert np.all(dark == 0.0)
    # no negative zeros either, so the CSV cells read 0.00000000000e+00
    assert not np.any(np.signbit(dark.real) | np.signbit(dark.imag))


def test_magnus_substeps_keep_coarse_grids_accurate():
    # ||Omega|| of one 0.2 ps cell is ~9 here; without substeps the states
    # are off by ~6e-8
    p = DotPairParams(v_f=0.85, v_xx=30.0)
    env = gaussian_cphase_pulse(0.2)
    _, trajs = run_cphase(p, env, IntegratorConfig(sample_interval=0.2))
    assert_states_close(trajs, tight_dop853_cphase(p, env, 0.2), 1e-9)
    assert trajs["11"].metadata["substeps"] > 1


def test_magnus_refuses_a_step_beyond_the_substep_limit():
    env = GaussianPulse(peak=0.1, sigma=5.0)
    block = rwa_subspace_generator(DotPairParams(v_xx=1e7), env)
    psi0 = QuantumState.basis_state(PSI_SUBSPACE, "11", block.frame)
    with pytest.raises(IntegrationError, match="substeps"):
        evolve_schrodinger(block, psi0, env.support())


def test_lab_frame_magnus_refuses_past_the_work_limit(monkeypatch):
    # at omega_a = 1e9 meV the norm guard asks 1.5e8 Magnus cells in each
    # sample cell, so the work bound refuses the solve before any chunk
    def no_chunk(*args):
        raise AssertionError("a Magnus chunk ran")

    monkeypatch.setattr(dynamics, "_magnus_exponents", no_chunk)
    env = GaussianPulse(peak=1.0, sigma=0.825)
    lo, hi = env.support()
    block = lab_single_dot_generator(1e9, LaserDrive(env, 1e9, carrier_origin=lo))
    psi0 = QuantumState.basis_state(SINGLE_DOT, "1")
    with pytest.raises(IntegrationError, match=r"the Magnus solve would take 1e\+11 steps"):
        evolve_schrodinger(block, psi0, (lo, hi))


def test_batched_calls_match_stacked_scalar_calls():
    env = GaussianPulse(peak=0.13, sigma=7.0, center=30.0)
    lo, hi = env.support()
    t = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 1001), [lo, hi]])
    np.testing.assert_allclose(env(t), [env(float(x)) for x in t], rtol=1e-15, atol=0)
    assert env(np.array([lo - 1.0, hi + 1.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("scale", [1e-7, 3e-3, 0.06, 0.1])
def test_taylor_exponential_matches_expm(scale):
    # Taylor degrees 2, 5, 9 and 10: every way the top block of the
    # polynomial can fall
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    omega = a - np.conj(np.swapaxes(a, 1, 2))
    omega *= scale / np.linalg.norm(omega, axis=(1, 2))[:, None, None]
    got = dynamics._taylor_expm(np.moveaxis(omega, 0, -1), scale, dynamics._MagnusWork(4, 1, 6))
    np.testing.assert_allclose(np.moveaxis(got, -1, 0), [expm(w) for w in omega],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cellwise_product_matches_einsum(d):
    rng = np.random.default_rng(d)
    n = 301
    a, b = (rng.standard_normal((d, d, n)) + 1j * rng.standard_normal((d, d, n))
            for _ in range(2))
    got = dynamics._mm(a, b, np.empty_like(a), np.empty(n, dtype=complex))
    # a d-term complex dot product lands within a few ulps of the sum of
    # its terms' magnitudes, whichever order or fused multiply rounds it
    bound = 4 * np.finfo(float).eps * np.einsum("ijn,jkn->ikn", np.abs(a), np.abs(b))
    assert np.all(np.abs(got - np.einsum("ijn,jkn->ikn", a, b)) <= bound)


def test_gaussian_cphase_states_match_einsum_products_bit_for_bit(monkeypatch):
    # The unrolled products can round differently from einsum's in the
    # last bit of entries far below a cell's identity part; the Taylor
    # sums absorb those bits, so every state comes out the same.
    p, env = DotPairParams(), gaussian_cphase_pulse(0.1)
    calls = []
    mm = dynamics._mm
    monkeypatch.setattr(dynamics, "_mm", lambda *args: calls.append(1) or mm(*args))
    _, unrolled = run_cphase(p, env)
    assert len(calls) >= 10
    monkeypatch.setattr(dynamics, "_mm", lambda a, b, out, tmp:
                        np.einsum("ijn,jkn->ikn", a, b, out=out))
    _, reference = run_cphase(p, env)
    for key, traj in unrolled.items():
        assert traj.states.tobytes() == reference[key].states.tobytes()


def _chunk_case(case):
    """The trajectories of one Magnus run, keyed by name."""
    if case == "zrot-gaussian":
        gate = ZGateParams(gates.calibrated_pulse("gaussian", 1.0, gates.PI_AREA), wait=0.5)
        return {"lab": run_z_rotation(DotPairParams(omega_a=300.0), gate)[1]}
    if case == "cphase-split":
        _, trajs = run_cphase(DotPairParams(v_f=0.85, v_xx=30.0), gaussian_cphase_pulse(0.2),
                              IntegratorConfig(sample_interval=0.2))
        assert trajs["11"].metadata["substeps"] == 86
        return trajs
    return run_cphase(DotPairParams(), gaussian_cphase_pulse(0.1))[1]


def test_chunked_and_unchunked_magnus_agree(monkeypatch):
    # chunks change only how the cell products associate; measured against
    # the default chunk: 1.0-3.5e-14 for the cphase runs (the split ones
    # end chunks inside a sample cell) and 1.6-3.0e-13 for the Gaussian zrot
    # (368 Magnus cells per sample, ~5e5 in all).  A chunk longer than the
    # run takes it in one piece, as 16384-cell chunks took the unsplit one.
    for case, d, chunks, atol in (("cphase", 3, (7, 100), 5e-14),
                                  ("cphase-split", 3, (7, 100), 5e-14),
                                  ("zrot-gaussian", 2, (100,), 1e-11)):
        monkeypatch.undo()
        whole = _chunk_case(case)
        cells = max((t.times.size - 1) * t.metadata.get("substeps", 0) for t in whole.values())
        assert cells > 50 * max(chunks)
        # chunk lengths in cells of the d x d driven component, 11, psi+, XX
        # or 1, X (a smaller block takes more)
        for chunk in (*chunks, 2 * cells):
            monkeypatch.setattr(dynamics, "_MAGNUS_CHUNK_BYTES", chunk * 16 * d * d)
            chunked = _chunk_case(case)
            for key, traj in whole.items():
                np.testing.assert_array_equal(chunked[key].times, traj.times)
                np.testing.assert_allclose(chunked[key].states, traj.states,
                                           rtol=0, atol=atol)
                assert chunked[key].metadata.get("substeps") == traj.metadata.get("substeps")


def test_gaussian_cphase_memory_is_its_states_plus_one_chunk():
    # A run holds its states, which the trajectories adopt, and one chunk's
    # workspace: six (d, d) stacks and the chained rows, of 3640 cells of
    # the 3x3 driven component of the 11 block, well inside nine stacks of
    # 2048 cells of a 4x4 block.  Its 9334 cells take three chunks; taking
    # the 4x4 block in one, as 16384-cell chunks did, peaked at 15.5 MB.
    p, env = DotPairParams(), gaussian_cphase_pulse(0.1)
    run_cphase(p, env)
    tracemalloc.start()
    try:
        _, trajs = run_cphase(p, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = sum(t.states.nbytes for t in trajs.values())
    assert peak < 2 * states + 9 * 2048 * 16 * 4 * 4
    assert trajs["11"].times.size - 1 > 2 * (dynamics._MAGNUS_CHUNK_BYTES // (16 * 3 * 3))


def test_magnus_guard_restarts_off_the_grid_keep_the_time(monkeypatch):
    # H = rate t sz commutes with itself and is linear in t, so every Magnus
    # split is exact up to rounding.  Its norm grows along the span: with
    # chunks of 7 cells the guard keeps raising substeps partway through a
    # sample cell, and the restart must pick up at the same time.
    basis = Basis(("up", "down"))
    sz = np.diag([1.0, -1.0]).astype(complex)
    rate = 7.0

    ramp = DrivenBlock(basis, "rotating@0", np.zeros((2, 2), dtype=complex), sz,
                       lambda t: rate * np.asarray(t, dtype=float))
    psi0 = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2.0), basis, "rotating@0")
    cfg = IntegratorConfig(sample_interval=0.2)
    calls = []
    split = dynamics._split_cells

    def spy(grid, substeps, lo, hi):
        calls.append((substeps, lo))
        return split(grid, substeps, lo, hi)

    whole = evolve_schrodinger(ramp, psi0, (0.0, 10.0), cfg)
    # sz couples nothing, so each level is a 1x1 component of its own
    monkeypatch.setattr(dynamics, "_MAGNUS_CHUNK_BYTES", 7 * 16)
    monkeypatch.setattr(dynamics, "_split_cells", spy)
    chunked = evolve_schrodinger(ramp, psi0, (0.0, 10.0), cfg)
    phase = rate * chunked.times ** 2 / (2.0 * HBAR_MEV_PS)
    exact = psi0.amplitudes * np.exp(-1j * np.outer(phase, [1.0, -1.0]))
    np.testing.assert_allclose(chunked.states, exact, rtol=0, atol=1e-11)
    np.testing.assert_allclose(whole.states, exact, rtol=0, atol=1e-11)
    # some restart began between two samples
    assert any(new > old and pos % old for (old, pos), (new, _) in zip(calls, calls[1:]))


def test_magnus_runs_backwards_in_time():
    env = gaussian_cphase_pulse(0.15)
    block = rwa_subspace_generator(DotPairParams(), env)
    t0, t1 = env.support()
    psi0 = QuantumState.basis_state(PSI_SUBSPACE, "11", block.frame)
    fwd = evolve_schrodinger(block, psi0, (t0, t1))
    end = QuantumState(fwd.states[-1], fwd.basis, fwd.frame)
    back = evolve_schrodinger(block, end, (t1, t0))
    np.testing.assert_allclose(back.states[-1], psi0.amplitudes, atol=1e-12)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_spectator_b_trajectory_is_the_direct_propagation(shape):
    p = DotPairParams()
    env = square_cphase_pulse(0.1) if shape == "square" else gaussian_cphase_pulse(0.1)
    _, trajs = run_cphase(p, env)
    h = spectator_generator(p, env, "b")
    psi0 = QuantumState.basis_state(SPECTATOR_B_IDLE, "10", trajs["10"].frame)
    direct = evolve_schrodinger(h, psi0, env.support())
    assert trajs["10"].basis == SPECTATOR_B_IDLE
    np.testing.assert_array_equal(trajs["10"].times, direct.times)
    np.testing.assert_array_equal(trajs["10"].states, direct.states)
    assert dict(trajs["10"].metadata) == dict(direct.metadata)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_a_block_of_one_component_runs_whole(shape, monkeypatch):
    # The spectator's one component holds both its levels: a start state
    # runs on the block itself, and the restricted-and-scattered run that a
    # second, zero row forces gives the same bits.
    env = square_cphase_pulse(0.1) if shape == "square" else gaussian_cphase_pulse(0.1)
    block = spectator_generator(DotPairParams(), env)
    t0, t1 = env.support()
    cfg = IntegratorConfig()
    restricted = []
    cut = DrivenBlock.restricted
    monkeypatch.setattr(DrivenBlock, "restricted",
                        lambda self, levels: restricted.append(levels) or cut(self, levels))
    psi0 = np.array([[1.0, 0.0]], dtype=complex)
    _, whole, meta = dynamics._propagate_components(block, psi0, t0, t1, cfg,
                                                    block.breakpoints())
    assert restricted == []
    _, split, split_meta = dynamics._propagate_components(
        block, np.vstack([psi0, 0 * psi0]), t0, t1, cfg, block.breakpoints())
    assert restricted == [[0, 1]]
    assert whole.shape == (1, split.shape[1], 2)
    assert whole[0].tobytes() == split[0].tobytes()
    assert not split[1].any()
    assert meta == split_meta


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_idle_partner_trajectories_share_one_state_array(shape):
    env = square_cphase_pulse(0.1) if shape == "square" else gaussian_cphase_pulse(0.1)
    _, trajs = run_cphase(DotPairParams(), env)
    assert trajs["10"].states is trajs["01"].states
    assert trajs["10"].times is trajs["01"].times
    assert not trajs["01"].states.flags.writeable
