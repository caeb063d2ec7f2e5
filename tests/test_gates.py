import math

import numpy as np
import pytest

from dotgates import dynamics, gates
from dotgates.dynamics import IntegrationError, IntegratorConfig, evolve_schrodinger
from dotgates.gates import (
    PulseAreaError,
    RamanParams,
    ZGateParams,
    analytic_11_evolution,
    commensurate_gate_time,
    cphase_fidelity,
    entangling_phase,
    gaussian_cphase_pulse,
    pi_pulse_time,
    pulse_summary,
    raman_pi_time,
    raman_rate,
    run_cphase,
    run_raman_x,
    run_z_rotation,
    selectivity_fidelity,
    square_cphase_pulse,
    wrap_phase,
)
from dotgates.model import (
    SINGLE_DOT,
    SPECTATOR_A_IDLE,
    DotPairParams,
    GaussianPulse,
    LaserDrive,
    SquarePulse,
    lab_single_dot_generator,
    spectator_generator,
)
from dotgates.operators import HBAR_MEV_PS, QuantumState, rotating_frame_tag

PAIR = DotPairParams(omega_a=2000.0, v_f=0.85, v_xx=5.0)

TWO_PI_HBAR = 4.135667696604003
PI_HBAR = 2.067833848302001


def test_wrap_phase_range_and_branch():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]
    assert wrap_phase(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert wrap_phase(-1.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert wrap_phase(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_phase(7.0) == pytest.approx(7.0 - 2.0 * math.pi)


def test_square_cphase_pulse_calibration():
    env = square_cphase_pulse(0.1)
    assert env.duration == pytest.approx(29.24358673002839, rel=1e-12)
    assert math.sqrt(2.0) * env.area() == pytest.approx(TWO_PI_HBAR, rel=1e-12)
    shifted = square_cphase_pulse(0.1, t_start=3.0)
    assert shifted.support()[0] == 3.0
    assert shifted.area() == env.area()
    with pytest.raises(ValueError):
        square_cphase_pulse(0.0)


def test_gaussian_cphase_pulse_calibration():
    env = gaussian_cphase_pulse(0.1)
    assert env.sigma == pytest.approx(11.667242209293676, rel=1e-12)
    assert math.sqrt(2.0) * env.area() == pytest.approx(TWO_PI_HBAR, rel=1e-12)
    lo, hi = env.support()
    assert hi - lo == pytest.approx(8.0 * env.sigma)
    assert env.center == pytest.approx(lo + 4.0 * env.sigma)
    loose = gaussian_cphase_pulse(0.1, truncation=3.0)
    assert math.sqrt(2.0) * loose.area() == pytest.approx(TWO_PI_HBAR, rel=1e-12)


def test_run_cphase_weak_drive_frozen_values():
    report, trajs = run_cphase(PAIR, square_cphase_pulse(0.1))
    assert report.gate_time == pytest.approx(29.24358673002839, rel=1e-12)
    assert report.phases["00"] == 0.0
    assert report.phases["01"] == pytest.approx(-0.129127511580888, abs=5e-9)
    assert report.phases["10"] == pytest.approx(report.phases["01"], abs=1e-9)
    assert report.phases["11"] == pytest.approx(-3.107928498975977, abs=5e-9)
    assert report.theta == pytest.approx(-2.849673475814201, abs=5e-9)
    assert report.fidelity == pytest.approx(0.994363760415689, abs=5e-9)
    # the driven block returns almost perfectly: only the idle partners leak
    assert report.residuals["11"]["psi+"] < 5e-7
    assert report.residuals["11"]["XX"] < 5e-7
    assert report.residuals["01"]["0X"] == pytest.approx(3.59e-4, rel=0.05)
    assert report.warnings == ()
    assert report.conditions.biexciton_ok and report.conditions.spectator_ok
    frame = rotating_frame_tag(PAIR.omega_a + PAIR.v_f)
    for key, traj in trajs.items():
        assert traj.frame == frame
        assert traj.kind == "pure"
    np.testing.assert_allclose(trajs["00"].population("00"), 1.0)
    d = report.to_dict()
    assert d["kind"] == "cphase"
    assert d["amplitudes"]["11"]["re"] == pytest.approx(
        report.amplitudes["11"].real)


def test_run_cphase_strong_drive_flags_spectator():
    report, _ = run_cphase(PAIR, square_cphase_pulse(0.2))
    assert report.theta == pytest.approx(-2.572466200285777, abs=5e-9)
    assert report.fidelity == pytest.approx(0.9774498103105678, abs=5e-9)
    assert report.conditions.r_spectator == pytest.approx(0.11764705882352942)
    assert not report.conditions.spectator_ok
    assert any("spectator" in w for w in report.warnings)
    assert report.residuals["01"]["0X"] == pytest.approx(
        0.003845588018690201, rel=1e-6)


def test_run_cphase_rejects_off_target_area():
    with pytest.raises(PulseAreaError):
        run_cphase(PAIR, SquarePulse(amplitude=0.1, duration=20.0))


def test_run_cphase_zero_area_is_identity():
    report, trajs = run_cphase(PAIR, SquarePulse(amplitude=0.0, duration=5.0))
    assert any("zero-area" in w for w in report.warnings)
    for key in ("00", "01", "10", "11"):
        assert report.amplitudes[key] == pytest.approx(1.0 + 0.0j, abs=1e-9)
    assert report.theta == pytest.approx(0.0, abs=1e-9)
    assert report.fidelity == pytest.approx(0.25, abs=1e-9)  # identity overlap
    assert trajs["11"].duration == pytest.approx(5.0)


def test_entangling_phase_is_local_z_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        base = {k: float(rng.uniform(-math.pi, math.pi))
                for k in ("00", "01", "10", "11")}
        alpha, beta = rng.uniform(-10.0, 10.0, size=2)
        shifted = {
            "00": base["00"],
            "01": base["01"] + beta,
            "10": base["10"] + alpha,
            "11": base["11"] + alpha + beta,
        }
        assert wrap_phase(entangling_phase(shifted) - entangling_phase(base)) \
            == pytest.approx(0.0, abs=1e-12)
    assert entangling_phase({"00": 0.0, "01": 0.0, "10": 0.0, "11": math.pi}) \
        == pytest.approx(math.pi)


def test_cphase_fidelity_reference_points():
    ideal = {"00": 1.0, "01": 1.0, "10": 1.0, "11": -1.0}
    assert cphase_fidelity(ideal) == pytest.approx(1.0)
    identity = {"00": 1.0, "01": 1.0, "10": 1.0, "11": 1.0}
    assert cphase_fidelity(identity) == pytest.approx(0.25)
    damped = {k: 0.9 * v for k, v in ideal.items()}
    assert cphase_fidelity(damped) == pytest.approx(0.81)


def test_analytic_11_evolution_endpoints_and_frames():
    a11, apsi = analytic_11_evolution(PAIR, 0.0)
    assert a11 == 1.0 and apsi == 0.0
    a11, apsi = analytic_11_evolution(PAIR, 2.0 * math.pi)
    assert a11 == pytest.approx(-1.0)
    assert abs(apsi) == pytest.approx(0.0, abs=1e-12)
    a11, apsi = analytic_11_evolution(PAIR, math.pi / 2.0)
    assert apsi == pytest.approx(-1j * math.sin(math.pi / 4.0))
    t = 1.7
    _, apsi_lab = analytic_11_evolution(PAIR, math.pi / 2.0, t, frame="lab")
    carrier = np.exp(-1j * (PAIR.omega_a + PAIR.v_f) * t / HBAR_MEV_PS)
    assert apsi_lab == pytest.approx(apsi * carrier)
    with pytest.raises(ValueError):
        analytic_11_evolution(PAIR, 1.0, frame="interaction")


def test_analytic_11_evolution_tracks_numeric_pulse():
    # two-level closed form vs the full driven subspace; the gap is the
    # biexciton Stark push, bounded well below the drive strength
    _, trajs = run_cphase(PAIR, square_cphase_pulse(0.1))
    traj = trajs["11"]
    area = math.sqrt(2.0) * 0.1 * traj.times / HBAR_MEV_PS
    dev11 = np.abs([analytic_11_evolution(PAIR, a)[0] for a in area]
                   - traj.amplitude("11"))
    devpsi = np.abs([analytic_11_evolution(PAIR, a)[1] for a in area]
                    - traj.amplitude("psi+"))
    assert float(dev11.max()) == pytest.approx(0.03366256111307385, rel=1e-6)
    assert float(devpsi.max()) == pytest.approx(0.01950806036495276, rel=1e-6)
    assert dev11.max() < 0.05 and devpsi.max() < 0.05


def test_commensurate_gate_time_zeroes_spectator_leakage():
    t_spec = 2.0 * math.pi * HBAR_MEV_PS / math.hypot(0.1, PAIR.v_f)
    assert t_spec == pytest.approx(4.832165731953957, rel=1e-12)
    t_comm = commensurate_gate_time(PAIR, 0.1)
    assert t_comm == pytest.approx(28.99299439172374, rel=1e-12)
    assert t_comm / t_spec == pytest.approx(6.0)
    frame = rotating_frame_tag(PAIR.omega_a + PAIR.v_f)
    leak = {}
    for tag, duration in (("nominal", square_cphase_pulse(0.1).duration),
                          ("comm", t_comm)):
        env = SquarePulse(0.1, duration)
        traj = evolve_schrodinger(
            spectator_generator(PAIR, env),
            QuantumState.basis_state(SPECTATOR_A_IDLE, "01", frame),
            (0.0, duration), breakpoints=env.breakpoints())
        leak[tag] = float(traj.population("0X")[-1])
    assert leak["nominal"] == pytest.approx(3.5916840336e-4, rel=1e-4)
    assert leak["comm"] < 1e-12
    with pytest.raises(ValueError):
        commensurate_gate_time(PAIR, 0.0)


def test_calibrated_pulse_rejects_unknown_shape_and_non_positive_peak():
    for shape, peak in (("Square", 0.1), ("square", 0.0), ("gaussian", -0.1),
                        ("gaussian", math.nan)):
        with pytest.raises(ValueError):
            gates.calibrated_pulse(shape, peak, gates.CPHASE_AREA)
    for wrapper in (square_cphase_pulse, gaussian_cphase_pulse, pi_pulse_time):
        with pytest.raises(ValueError):
            wrapper(0.0)


def test_selectivity_fidelity():
    assert selectivity_fidelity(0.5, 1.0) == pytest.approx(0.75)
    assert selectivity_fidelity(0.5, -1.0) == pytest.approx(0.75)
    assert selectivity_fidelity(2.0, 1.0) == 0.0  # clamped
    with pytest.raises(ValueError):
        selectivity_fidelity(0.5, 0.0)


def test_pi_pulse_time():
    assert pi_pulse_time(1.0) == pytest.approx(PI_HBAR, rel=1e-12)
    assert pi_pulse_time(0.5) == pytest.approx(2.0 * PI_HBAR, rel=1e-12)
    with pytest.raises(ValueError):
        pi_pulse_time(0.0)


def test_pulse_summary_shapes():
    sq = pulse_summary(square_cphase_pulse(0.1))
    assert sq["shape"] == "square"
    assert sq["peak"] == 0.1
    assert "sigma" not in sq
    ga = pulse_summary(gaussian_cphase_pulse(0.1))
    assert ga["shape"] == "gaussian"
    assert ga["sigma"] == pytest.approx(11.667242209293676, rel=1e-12)
    assert ga["truncation"] == 4.0


def test_zgate_params_validation():
    good = SquarePulse(1.0, PI_HBAR)
    ZGateParams(good, wait=0.0)
    with pytest.raises(PulseAreaError):
        ZGateParams(SquarePulse(1.0, 2.5), wait=0.1)
    with pytest.raises(ValueError):
        ZGateParams(good, wait=-0.1)
    with pytest.raises(ValueError):
        ZGateParams(good, wait=0.1, amplitudes=(1.0, 0.0))
    with pytest.raises(ValueError):
        ZGateParams(good, wait=0.1, amplitudes=(1.0, 1.0))  # not normalized


@pytest.mark.parametrize("wait", [0.05, 0.5])
def test_run_z_rotation_imprints_optical_phase(wait):
    pulse = SquarePulse(1.0, pi_pulse_time(1.0))
    report, traj = run_z_rotation(PAIR, ZGateParams(pulse, wait))
    assert report.target_phase == pytest.approx(
        wrap_phase(PAIR.omega_a * wait / HBAR_MEV_PS), abs=1e-12)
    assert abs(report.phase_error) < 1e-6
    # two ideal pi pulses flip the spin phase by pi on their own
    assert abs(report.composite_phase) == pytest.approx(math.pi, abs=1e-5)
    assert report.trion_leakage < 1e-6
    assert traj.duration == pytest.approx(2.0 * pulse.duration + wait, rel=1e-12)
    assert traj.times[0] == 0.0
    d = report.to_dict()
    assert d["kind"] == "zrot" and d["wait"] == wait


@pytest.mark.parametrize("omega_a, rabi", [(150.0, 1.0), (2000.0, 4.0)])
def test_run_z_rotation_floquet_matches_tight_adaptive(monkeypatch, omega_a, rabi):
    # 75 and 250 carrier periods per pulse; the reference integrates every
    # one of them with DOP853 at rtol 1e-13
    pair = DotPairParams(omega_a=omega_a, v_f=0.85, v_xx=5.0)
    gate = ZGateParams(SquarePulse(rabi, pi_pulse_time(rabi)), wait=0.37)
    fast, traj = run_z_rotation(pair, gate)
    assert traj.metadata["propagator"] == "floquet"

    def adaptive(*args, period=None, batched=False, **kwargs):
        return evolve_schrodinger(*args, **kwargs)

    monkeypatch.setattr(gates, "evolve_schrodinger", adaptive)
    tight, ref = run_z_rotation(pair, gate, IntegratorConfig(rtol=1e-13, atol=1e-15))
    assert ref.metadata["propagator"] == "DOP853"
    assert abs(wrap_phase(fast.achieved_phase - tight.achieved_phase)) < 1e-6
    assert abs(wrap_phase(fast.composite_phase - tight.composite_phase)) < 1e-6
    assert fast.trion_leakage == pytest.approx(tight.trion_leakage, abs=1e-9)
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_allclose(traj.states, ref.states, atol=1e-6)


@pytest.mark.parametrize("shape, omega_a, dt", [
    ("square", 150.0, 0.01), ("square", 150.0, 0.25),
    ("square", 2000.0, 0.01), ("square", 2000.0, 0.25),
    ("gaussian", 150.0, 0.01), ("gaussian", 150.0, 0.25),
])
def test_run_z_rotation_matches_tight_reference(monkeypatch, shape, omega_a, dt):
    # The default 1 meV pi pulse spans 75 and 1000 carrier periods, and the
    # Floquet powers multiply the period-end error of the one-period solve
    # that many times; at 0.25 ps a sample lands only every 9 or 121 periods.
    # The Magnus cells are refined on the assembled samples, so every sample
    # holds rtol.  The reference takes the one-period propagator from DOP853
    # at rtol 1e-13 (a DOP853 run over the whole span agrees with it to
    # 3e-11 rad at 2000 meV but takes ~10 s); for a Gaussian pulse, which
    # has no period, it is that whole-span run.
    pair = DotPairParams(omega_a=omega_a, v_f=0.85, v_xx=5.0)
    gate = ZGateParams(gates.calibrated_pulse(shape, 1.0, gates.PI_AREA), wait=0.5)
    cfg = IntegratorConfig(sample_interval=dt)
    fast, traj = run_z_rotation(pair, gate, cfg)
    assert traj.metadata["propagator"] == ("floquet" if shape == "square" else "magnus4")

    def adaptive(*args, batched=False, **kwargs):
        return evolve_schrodinger(*args, **kwargs)

    monkeypatch.setattr(gates, "evolve_schrodinger", adaptive)
    tight = IntegratorConfig(rtol=1e-13, atol=1e-15, sample_interval=dt)
    slow, ref = run_z_rotation(pair, gate, tight)
    assert ref.metadata["propagator"] == ("floquet" if shape == "square" else "DOP853")
    assert abs(wrap_phase(fast.composite_phase - slow.composite_phase)) < 1e-8
    assert abs(wrap_phase(fast.achieved_phase - slow.achieved_phase)) < 1e-8
    np.testing.assert_array_equal(traj.times, ref.times)
    np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=cfg.rtol)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_run_z_rotation_makes_one_solve(monkeypatch, shape):
    # every pulse restarts the carrier, so one propagator serves all three,
    # and both envelopes take the batched Magnus path: no adaptive solve
    def no_solve(*args, **kwargs):
        raise AssertionError("zrot started an adaptive solve")

    real = dynamics._propagate
    driven = []

    def counting(gen, *args, **kwargs):
        if callable(gen):
            driven.append(gen)
        return real(gen, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", no_solve)
    monkeypatch.setattr(dynamics, "_propagate", counting)
    pair = DotPairParams(omega_a=300.0, v_f=0.85, v_xx=5.0)
    pulse = gates.calibrated_pulse(shape, 4.0, gates.PI_AREA)
    report, traj = run_z_rotation(pair, ZGateParams(pulse, wait=0.3))
    assert len(driven) == 1
    assert abs(report.phase_error) < (4.0 / 300.0) ** 2
    assert traj.metadata["propagator"] == ("floquet" if shape == "square" else "magnus4")


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_run_z_rotation_second_pulse_matches_its_own_solve(shape):
    # the shared propagator relies on each pulse's H depending only on the
    # time since it began; integrate the second pulse on its own instead
    pair = DotPairParams(omega_a=150.0, v_f=0.85, v_xx=5.0)
    pulse = gates.calibrated_pulse(shape, 4.0, gates.PI_AREA, t_start=0.3)
    wait = 0.37
    tight = IntegratorConfig(rtol=1e-12, atol=1e-14)
    _, traj = run_z_rotation(pair, ZGateParams(pulse, wait), tight)
    t0, t1 = pulse.support()
    second = pulse.shifted(t1 + wait - t0)
    lo, hi = second.support()
    start = traj.states[np.flatnonzero(traj.times == t1 + wait)[0]]
    drive = LaserDrive(second, pair.omega_a, carrier_origin=lo)
    own = evolve_schrodinger(lab_single_dot_generator(pair.omega_a, drive),
                             QuantumState(start, SINGLE_DOT), (lo, hi), tight,
                             breakpoints=second.breakpoints())
    np.testing.assert_allclose(traj.states[-1], own.states[-1], rtol=0, atol=1e-10)
    assert traj.times[-1] == pytest.approx(hi, abs=1e-12)


def test_runners_record_their_propagator():
    _, trajs = run_cphase(PAIR, square_cphase_pulse(0.2))
    for key in ("01", "10", "11"):
        assert trajs[key].metadata["propagator"] == "eigh"
    report, trajs = run_cphase(PAIR, gaussian_cphase_pulse(0.2))
    assert trajs["11"].metadata["propagator"] == "magnus4"
    assert trajs["11"].metadata["nfev"] > 0
    assert "propagator" not in str(report.to_dict())
    pulse = SquarePulse(1.0, pi_pulse_time(1.0))
    _, traj = run_z_rotation(PAIR, ZGateParams(pulse, wait=0.5))
    assert traj.metadata["propagator"] == "floquet"
    assert traj.metadata["nfev"] > 0
    slow_carrier = DotPairParams(omega_a=20.0, v_f=0.85, v_xx=5.0)
    smooth = GaussianPulse(peak=1.0, sigma=PI_HBAR / GaussianPulse(1.0, 1.0).area())
    _, traj = run_z_rotation(slow_carrier, ZGateParams(smooth, wait=0.1))
    assert traj.metadata["propagator"] == "magnus4"
    _, traj = run_raman_x(RamanParams())
    assert traj.metadata["propagator"] == "liouvillian-eig"


def test_run_z_rotation_carrier_guard():
    hot = DotPairParams(omega_a=2.0e6, v_f=0.85, v_xx=5.0)
    pulse = SquarePulse(1.0, pi_pulse_time(1.0))
    with pytest.raises(IntegrationError, match="carrier"):
        run_z_rotation(hot, ZGateParams(pulse, wait=0.5))


def test_raman_rate_and_pi_time():
    assert raman_rate(1.33, 4.0) == pytest.approx(0.2211125, rel=1e-12)
    assert raman_pi_time(1.33, 4.0) == pytest.approx(9.351953635827922, rel=1e-12)
    assert raman_rate(1.33, -4.0) == raman_rate(1.33, 4.0)
    assert raman_pi_time(1.33, 4.0, math.pi / 2.0) == pytest.approx(
        0.5 * 9.351953635827922, rel=1e-12)
    with pytest.raises(ValueError):
        raman_rate(0.0, 4.0)
    with pytest.raises(ValueError):
        raman_rate(1.0, 0.0)
    with pytest.raises(ValueError):
        raman_pi_time(1.0, 4.0, target_angle=0.0)


def test_run_raman_x_with_decay_frozen_values():
    report, traj = run_raman_x(RamanParams())
    assert report.fidelity == pytest.approx(0.9565232098141527, abs=5e-9)
    assert report.pi_time == pytest.approx(9.365697321865879, abs=1e-6)
    assert report.lost == pytest.approx(0.03472947425019385, abs=5e-9)
    assert report.warnings == ()
    assert traj.kind == "density"
    assert sum(report.populations.values()) == pytest.approx(1.0, abs=1e-7)
    d = report.to_dict()
    assert d["kind"] == "raman" and d["gamma"] == 0.1


def test_run_raman_x_lossless():
    report, _ = run_raman_x(RamanParams(gamma=0.0))
    assert report.fidelity > 0.99
    assert report.lost == 0.0
    assert report.pi_time == pytest.approx(10.295270268433143, abs=1e-6)


def test_run_raman_x_window_warning():
    report, traj = run_raman_x(RamanParams(), time_window=1.0)
    assert any("window" in w for w in report.warnings)
    assert report.pi_time == pytest.approx(traj.times[-1])
    with pytest.raises(ValueError):
        run_raman_x(RamanParams(), time_window=0.0)


def test_raman_params_validation():
    for bad in (dict(rabi=0.0), dict(detuning=0.0), dict(gamma=-0.1),
                dict(target_angle=0.0), dict(target_angle=4.0)):
        with pytest.raises(ValueError):
            RamanParams(**bad)


def test_config_and_library_pulses_share_one_calibration():
    # bit-identical durations and widths: a second calibration copy would
    # round differently for a good share of these omegas
    from dotgates.config import build_config

    rng = np.random.default_rng(8)
    for om in 10.0 ** rng.uniform(-2.0, 0.5, 200):
        om = float(om)
        cph = build_config({"kind": "cphase", "omega": om})
        assert cph.envelope().duration == square_cphase_pulse(om).duration
        assert build_config({"kind": "conditions", "omega": om}).envelope() == \
            square_cphase_pulse(om)
        gauss = build_config({"kind": "cphase", "omega": om, "pulse_shape": "gaussian",
                              "truncation": 3.0, "t_start": 0.7}).envelope()
        ref = gaussian_cphase_pulse(om, truncation=3.0, t_start=0.7)
        assert (gauss.sigma, gauss.center) == (ref.sigma, ref.center)
        assert build_config({"kind": "zrot", "omega": om}).envelope().duration == \
            pi_pulse_time(om)
        comm = build_config({"kind": "cphase", "omega": om, "commensurate": True})
        assert comm.envelope().duration == commensurate_gate_time(cph.dot_params(), om)
