import math

import numpy as np
import pytest

from dotgates.model import (
    EFFECTIVE_TWO_LEVEL,
    PSI_SUBSPACE,
    RAMAN_LEVELS,
    SINGLE_DOT,
    SPECTATOR_A_IDLE,
    SPECTATOR_B_IDLE,
    TWO_DOT,
    DotPairParams,
    GaussianPulse,
    LaserDrive,
    SquarePulse,
    check_conditions,
    effective_hamiltonian,
    lab_pair_generator,
    lab_psi_subspace_generator,
    lab_single_dot_generator,
    raman_hamiltonian,
    rwa_subspace_generator,
    spectator_generator,
    two_dot_excitations,
)
from dotgates.operators import HBAR_MEV_PS, LAB_FRAME, rotating_frame_tag

SQ2 = math.sqrt(2.0)

# integral of a unit-peak, unit-sigma Gaussian truncated at 4 sigma
GAUSS_AREA_1_1_K4 = 2.506469498570457


def test_dot_pair_params_defaults_and_validation():
    p = DotPairParams()
    assert p.omega_a == 2.0e6
    assert p.v_f == 0.85
    assert p.v_xx == 5.0
    assert p.biexciton_detuning == pytest.approx(3.3)
    with pytest.raises(ValueError):
        DotPairParams(omega_a=0.0)
    with pytest.raises(ValueError):
        DotPairParams(v_f=0.0)
    with pytest.raises(ValueError):
        DotPairParams(v_f=1.0, v_xx=2.0)


def test_square_pulse_geometry():
    env = SquarePulse(amplitude=0.2, duration=5.0, t_start=1.0)
    assert env.area() == pytest.approx(1.0)
    assert env.support() == (1.0, 6.0)
    assert env.breakpoints() == (1.0, 6.0)
    assert env(1.0) == 0.2  # closed at the left edge
    assert env(3.0) == 0.2
    assert env(6.0) == 0.0  # open at the right edge
    assert env(0.5) == 0.0
    shifted = env.shifted(2.0)
    assert shifted.support() == (3.0, 8.0)
    with pytest.raises(ValueError):
        SquarePulse(amplitude=-0.1, duration=1.0)
    with pytest.raises(ValueError):
        SquarePulse(amplitude=0.1, duration=-1.0)


def test_gaussian_pulse_truncated_area():
    env = GaussianPulse(peak=1.0, sigma=1.0, center=0.0, truncation=4.0)
    assert env.area() == pytest.approx(GAUSS_AREA_1_1_K4, rel=1e-12)
    assert env.peak_value() == 1.0
    assert env.support() == (-4.0, 4.0)
    assert env(0.0) == pytest.approx(1.0)
    assert env(1.0) == pytest.approx(math.exp(-0.5))
    assert env(4.5) == 0.0  # beyond the truncation edge
    # area scales linearly in peak and sigma
    env2 = GaussianPulse(peak=0.3, sigma=2.5, truncation=4.0)
    assert env2.area() == pytest.approx(0.3 * 2.5 * GAUSS_AREA_1_1_K4, rel=1e-12)
    shifted = env.shifted(1.5)
    assert shifted.center == 1.5
    with pytest.raises(ValueError):
        GaussianPulse(peak=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        GaussianPulse(peak=1.0, sigma=1.0, truncation=-1.0)


def test_laser_drive_carrier_phase_origin():
    env = SquarePulse(amplitude=0.5, duration=10.0)
    drive = LaserDrive(env, omega_l=2.0, carrier_origin=0.0)
    t = 1.3
    assert drive.field(t) == pytest.approx(0.5 * math.cos(2.0 * t / HBAR_MEV_PS))
    moved = LaserDrive(env, omega_l=2.0, carrier_origin=t)
    assert moved.field(t) == pytest.approx(0.5)  # cosine peaks at its origin
    with pytest.raises(ValueError):
        LaserDrive(env, omega_l=0.0)


def test_two_dot_excitation_counts():
    assert two_dot_excitations() == (0, 0, 1, 0, 0, 1, 1, 1, 2)


def test_lab_pair_block_structure():
    p = DotPairParams(omega_a=100.0, v_f=0.85, v_xx=5.0)
    env = SquarePulse(amplitude=0.2, duration=50.0)
    drive = LaserDrive(env, omega_l=100.85)
    t = 3.0
    h = lab_pair_generator(p, drive).at(t)
    assert h.hermitian
    assert h.frame == LAB_FRAME
    f = drive.field(t)
    # diagonal: exciton count times omega_a, plus the biexciton shift
    for lbl, n in zip(TWO_DOT.labels, two_dot_excitations()):
        expect = n * p.omega_a + (p.v_xx if lbl == "XX" else 0.0)
        assert h.element(lbl, lbl) == pytest.approx(expect)
    # excitation transfer between the two singly excited spin-1 states
    assert h.element("1X", "X1") == pytest.approx(p.v_f)
    assert h.element("X1", "1X") == pytest.approx(p.v_f)
    # the drive only opens spin-allowed transitions (spin 0 is dark)
    assert h.element("01", "0X") == pytest.approx(f)
    assert h.element("11", "1X") == pytest.approx(f)
    assert h.element("11", "X1") == pytest.approx(f)
    assert h.element("1X", "XX") == pytest.approx(f)
    assert h.element("00", "0X") == 0.0
    assert h.element("00", "X0") == 0.0
    assert h.element("01", "X1") == 0.0
    # no direct two-photon matrix element
    assert h.element("11", "XX") == 0.0


def test_psi_subspace_block_derived_from_lab_pair_block():
    # rotate the {11, 1X, X1, XX} block of the 9x9 into the psi+/- basis and
    # compare with the dedicated builder
    p = DotPairParams(omega_a=50.0, v_f=0.85, v_xx=5.0)
    env = SquarePulse(amplitude=0.3, duration=50.0)
    drive = LaserDrive(env, omega_l=50.85)
    t = 0.7
    full = lab_pair_generator(p, drive)(t)
    idx = [TWO_DOT.index(lbl) for lbl in ("11", "1X", "X1", "XX")]
    block = full[np.ix_(idx, idx)]
    r = np.eye(4, dtype=complex)
    r[1:3, 1:3] = np.array([[1, 1], [1, -1]]) / SQ2  # columns psi+, psi-
    rotated = r.conj().T @ block @ r
    built = lab_psi_subspace_generator(p, drive).at(t)
    assert built.basis.labels == PSI_SUBSPACE.labels
    np.testing.assert_allclose(rotated, built.matrix, atol=1e-13)


def test_lab_single_dot_block():
    drive = LaserDrive(SquarePulse(0.4, 10.0), omega_l=30.0)
    h = lab_single_dot_generator(30.0, drive).at(0.2)
    assert h.element("X", "X") == pytest.approx(30.0)
    assert h.element("0", "0") == 0.0
    assert h.element("1", "X") == pytest.approx(drive.field(0.2))
    assert h.element("0", "X") == 0.0


def test_rwa_subspace_structure():
    p = DotPairParams()
    env = SquarePulse(amplitude=0.2, duration=10.0)
    h = rwa_subspace_generator(p, env).at(1.0)
    assert h.frame == rotating_frame_tag(p.omega_a + p.v_f)
    np.testing.assert_allclose(
        np.diag(h.matrix).real, [0.0, 0.0, -2 * p.v_f, p.v_xx - 2 * p.v_f])
    assert h.element("11", "psi+") == pytest.approx(SQ2 * 0.2 / 2.0)
    assert h.element("psi+", "XX") == pytest.approx(SQ2 * 0.2 / 2.0)
    assert h.element("11", "XX") == 0.0
    assert h.element("11", "psi-") == 0.0
    # outside the pulse the couplings vanish
    h_off = rwa_subspace_generator(p, env).at(11.0)
    assert h_off.element("11", "psi+") == 0.0


def test_spectator_block_for_either_idle_dot():
    p = DotPairParams()
    env = SquarePulse(amplitude=0.1, duration=10.0)
    ha = spectator_generator(p, env, idle_dot="a").at(1.0)
    hb = spectator_generator(p, env, idle_dot="b").at(1.0)
    assert ha.basis.labels == SPECTATOR_A_IDLE.labels == ("01", "0X")
    assert hb.basis.labels == SPECTATOR_B_IDLE.labels == ("10", "X0")
    np.testing.assert_allclose(ha.matrix, hb.matrix)
    np.testing.assert_allclose(ha.matrix, [[0.0, 0.05], [0.05, -p.v_f]])
    with pytest.raises(ValueError):
        spectator_generator(p, env, idle_dot="c")


def test_effective_hamiltonian_stark_shift():
    p = DotPairParams()
    h = effective_hamiltonian(p, omega_prime=0.28)
    assert h.basis.labels == EFFECTIVE_TWO_LEVEL.labels
    # -omega'^2 / (4 (v_xx - 2 v_f)) with the default detuning of 3.3 meV
    assert h.element("psi+", "psi+") == pytest.approx(-0.0059393939393939405, rel=1e-12)
    assert h.element("11", "psi+") == pytest.approx(0.14)
    with pytest.warns(UserWarning):
        effective_hamiltonian(p, omega_prime=10.0)


def test_raman_hamiltonian_structure():
    h = raman_hamiltonian(rabi=1.33, detuning=4.0)
    assert h.basis.labels == RAMAN_LEVELS.labels == ("0", "1", "e", "s")
    assert h.element("e", "e") == pytest.approx(4.0)
    assert h.element("0", "e") == pytest.approx(0.665)
    assert h.element("1", "e") == pytest.approx(0.665)
    assert h.element("0", "1") == 0.0
    # the sink is fully decoupled from the coherent dynamics
    assert np.all(h.matrix[RAMAN_LEVELS.index("s"), :] == 0.0)
    with pytest.raises(ValueError):
        raman_hamiltonian(1.33, 0.0)


def test_check_conditions_ratios():
    p = DotPairParams()
    rep = check_conditions(p, SquarePulse(amplitude=0.1, duration=29.0))
    assert rep.r_biexciton == pytest.approx(0.1 * SQ2 / 2.0 / 3.3, rel=1e-12)
    assert rep.r_spectator == pytest.approx(0.05 / 0.85, rel=1e-12)
    assert rep.biexciton_ok and rep.spectator_ok and rep.all_ok
    # a hard drive trips the spectator condition first
    hot = check_conditions(p, SquarePulse(amplitude=0.2, duration=14.0))
    assert hot.r_spectator == pytest.approx(0.1 / 0.85, rel=1e-12)
    assert not hot.spectator_ok
    assert hot.biexciton_ok
    assert not hot.all_ok
    # gaussian pulses report their peak
    gauss = check_conditions(p, GaussianPulse(peak=0.1, sigma=10.0))
    assert gauss.peak_rabi == pytest.approx(0.1)
    d = rep.as_dict()
    assert d["all_ok"] is True
    assert set(d) >= {"r_biexciton", "r_spectator", "peak_rabi"}


def test_lab_pair_block_diagonal_in_spin():
    # the drive never couples different spin sectors: states grouped by the
    # underlying spin labels (X relaxes to 1) stay disconnected
    p = DotPairParams(omega_a=10.0)
    drive = LaserDrive(SquarePulse(0.5, 100.0), omega_l=10.85)
    h = lab_pair_generator(p, drive)(1.0)
    spin = {"0": "0", "1": "1", "X": "1"}
    sector = ["".join(spin[c] for c in lbl) for lbl in TWO_DOT.labels]
    for i in range(9):
        for j in range(9):
            if sector[i] != sector[j]:
                assert h[i, j] == 0.0, (TWO_DOT.labels[i], TWO_DOT.labels[j])


def test_package_exports_one_name_per_driven_block():
    import dotgates

    names = set(dotgates.__all__)
    assert {"DrivenBlock", "lab_pair_generator", "lab_single_dot_generator",
            "lab_psi_subspace_generator", "rwa_subspace_generator",
            "spectator_generator"} <= names
    builders = {n for n in names if n.endswith("_hamiltonian")}
    assert builders == {"effective_hamiltonian", "raman_hamiltonian"}
    assert not names & {"operators", "model", "dynamics", "gates"}
    assert all(hasattr(dotgates, n) for n in names)


def test_spectator_generator_picks_idle_dot_basis():
    p = DotPairParams()
    env = GaussianPulse(0.1, 3.0, center=12.0)
    assert spectator_generator(p, env, "b").at(12.0).basis == SPECTATOR_B_IDLE
    assert spectator_generator(p, env).at(12.0).basis == SPECTATOR_A_IDLE
    assert spectator_generator(p, env).frame == rotating_frame_tag(p.omega_a + p.v_f)
    with pytest.raises(ValueError):
        spectator_generator(p, env, "c")


def test_driven_blocks_keep_coupling_bits():
    # couplings stay bit-identical to sqrt(2) * f / 2 and f / 2
    p = DotPairParams(omega_a=40.0, v_f=-0.9, v_xx=4.4)
    env = GaussianPulse(0.17, 3.0, center=12.0)
    rwa, spec = rwa_subspace_generator(p, env), spectator_generator(p, env)
    i11, ip, ixx = (PSI_SUBSPACE.index(lbl) for lbl in ("11", "psi+", "XX"))
    for t in np.linspace(0.0, 24.0, 241):
        f = env(float(t))
        m = rwa(float(t))
        assert m[i11, ip] == m[ip, ixx] == complex(SQ2 * f / 2.0)
        assert spec(float(t))[0, 1] == complex(f / 2.0)
        np.testing.assert_array_equal(m, rwa.h0 + f * rwa.v)
        np.testing.assert_array_equal(rwa.at(float(t)).matrix, m)
