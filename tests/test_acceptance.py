"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL (...)`` line
with the measured numbers before asserting, so a red run still documents
how far off the result is.  Run ``pytest tests/test_acceptance.py -v -s``
to see all lines.
"""

import math
import time

import numpy as np

from dotgates.dynamics import evolve_expm, evolve_schrodinger
from dotgates.gates import (
    RamanParams,
    run_cphase,
    run_raman_x,
    run_z_rotation,
    selectivity_fidelity,
    square_cphase_pulse,
    wrap_phase,
    ZGateParams,
    pi_pulse_time,
)
from dotgates.model import (
    SINGLE_DOT,
    TWO_DOT,
    DotPairParams,
    LaserDrive,
    SquarePulse,
    effective_hamiltonian,
    lab_pair_generator,
    lab_single_dot_generator,
    rwa_subspace_generator,
)
from dotgates.operators import HBAR_MEV_PS, Basis, OperatorMatrix, QuantumState

PAIR = DotPairParams(omega_a=2000.0, v_f=0.85, v_xx=5.0)


def _report(n, name, ok, detail):
    line = f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_acceptance_1_gate_time_window():
    parts = []
    ok = True
    for omega in (0.1, 0.2):
        t0 = time.perf_counter()
        report, _ = run_cphase(PAIR, square_cphase_pulse(omega))
        wall = time.perf_counter() - t0
        in_window = 14.5 <= report.gate_time <= 30.0
        ok = ok and in_window and wall < 1.0
        parts.append(f"omega={omega}: T={report.gate_time:.4f} ps"
                     f" in [14.5, 30]={in_window}, wall={wall:.2f} s")
    _report(1, "gate time window", ok, "; ".join(parts))


def test_acceptance_2_conditional_phase():
    t0 = time.perf_counter()
    report, _ = run_cphase(PAIR, square_cphase_pulse(0.1))
    wall = time.perf_counter() - t0
    dphi = abs(wrap_phase(report.phases["11"] - math.pi))
    dtheta = abs(wrap_phase(report.theta - math.pi))
    fid = report.fidelity
    ok = (dphi <= 0.02 and dtheta <= 0.02
          and 0.95 <= fid <= 0.995 and wall < 10.0)
    _report(2, "conditional phase", ok,
            f"|phi11 - pi|={dphi:.6f} (tol 0.02), |theta - pi|={dtheta:.6f}"
            f" (tol 0.02), fidelity={fid:.6f} in [0.95, 0.995],"
            f" wall={wall:.2f} s")


def test_acceptance_3_spectator_suppression_trend():
    ratios = (0.3, 0.15, 0.05)
    mags = []
    for r in ratios:
        report, _ = run_cphase(PAIR, square_cphase_pulse(r * abs(PAIR.v_f)))
        mags.append(abs(report.phases["10"]))
    decreasing = all(a > b for a, b in zip(mags, mags[1:]))
    endpoint = mags[-1] < 0.05
    ok = decreasing and endpoint
    detail = ", ".join(f"|phi10|(r={r})={m:.6f}" for r, m in zip(ratios, mags))
    _report(3, "spectator suppression trend", ok,
            f"{detail}; strictly decreasing={decreasing},"
            f" endpoint < 0.05 rad={endpoint}")


def test_acceptance_4_effective_model_agreement():
    delta = PAIR.biexciton_detuning
    parts = []
    ok = True
    for r in (0.01, 0.03, 0.05):
        g = r * delta
        env = SquarePulse(math.sqrt(2.0) * g, 10.0)
        h3 = rwa_subspace_generator(PAIR, env)(5.0).real[
            np.ix_([0, 1, 3], [0, 1, 3])]
        ev = np.linalg.eigvalsh(h3)
        near_zero = np.sort(ev[np.argsort(np.abs(ev))[:2]])
        ev_eff = np.sort(np.linalg.eigvalsh(effective_hamiltonian(PAIR, 2.0 * g)
                                            .matrix.real))
        rel = float(np.max(np.abs(near_zero - ev_eff)) / (ev_eff[1] - ev_eff[0]))
        bound = 10.0 * r * r
        ok = ok and rel < bound
        parts.append(f"r={r}: rel={rel:.3e} < {bound:.1e}")
    _report(4, "effective model agreement", ok, "; ".join(parts))


def test_acceptance_5_selectivity_numbers():
    f_slow = selectivity_fidelity(math.pi * HBAR_MEV_PS / 20.0, 1.0)
    f_fast = selectivity_fidelity(math.pi * HBAR_MEV_PS / 7.0, 1.0)
    ok = 0.985 <= f_slow <= 0.992 and 0.90 <= f_fast <= 0.92
    _report(5, "selectivity numbers", ok,
            f"F(20 ps pulse)={f_slow:.6f} in [0.985, 0.992],"
            f" F(7 ps pulse)={f_fast:.6f} in [0.90, 0.92]")


def test_acceptance_6_raman_gate_regime():
    t0 = time.perf_counter()
    scan = {}
    for nu in np.arange(2.0, 12.01, 0.5):
        report, _ = run_raman_x(RamanParams(detuning=float(nu)))
        scan[float(nu)] = (report.fidelity, report.pi_time)
    wall = time.perf_counter() - t0

    ladder = [2.0, 4.0, 8.0]
    fids = [scan[nu][0] for nu in ladder]
    times = [scan[nu][1] for nu in ladder]
    monotone = (all(a < b for a, b in zip(fids, fids[1:]))
                and all(a < b for a, b in zip(times, times[1:])))
    feasible = [(nu, f, t) for nu, (f, t) in scan.items()
                if f >= 0.985 and t <= 20.0]
    best = max(((f, t, nu) for nu, (f, t) in scan.items() if t <= 20.0))
    ok = monotone and bool(feasible) and wall < 30.0
    _report(6, "raman gate regime", ok,
            f"monotone over nu={ladder}: {monotone};"
            f" best fidelity at <= 20 ps: {best[0]:.6f} at nu={best[2]},"
            f" t={best[1]:.2f} ps (need >= 0.985): found={bool(feasible)};"
            f" wall={wall:.1f} s < 30 s")


def test_acceptance_7_property_suite():
    rng = np.random.default_rng(2026)
    checks = []

    # cross-spin-sector matrix elements vanish for arbitrary drive and time
    sectors = [[0], [1, 2], [3, 6], [4, 5, 7, 8]]
    clean = True
    for _ in range(100):
        omega = float(rng.uniform(0.01, 0.5))
        t = float(rng.uniform(0.0, 30.0))
        drive = LaserDrive(SquarePulse(omega, 30.0), PAIR.omega_a + PAIR.v_f)
        h = lab_pair_generator(PAIR, drive)(t)
        for i, a in enumerate(sectors):
            for b in sectors[i + 1:]:
                if np.any(h[np.ix_(a, b)] != 0.0):
                    clean = False
    checks.append(("block decoupling x100", clean))

    # the empty-spin levels never couple to the light
    drive = LaserDrive(SquarePulse(0.3, 30.0), PAIR.omega_a + PAIR.v_f)
    h9 = lab_pair_generator(PAIR, drive)(3.0)
    i00 = TWO_DOT.index("00")
    h3 = lab_single_dot_generator(PAIR.omega_a, drive)(3.0)
    i0 = SINGLE_DOT.index("0")
    blocked = (not np.any(h9[i00, :]) and not np.any(h9[:, i00])
               and not np.any(h3[i0, :]) and not np.any(h3[:, i0]))
    checks.append(("Pauli blocking of empty levels", blocked))

    # every emitted trajectory conserves its invariants
    drift = 0.0
    for omega in (0.1, 0.2):
        _, trajs = run_cphase(PAIR, square_cphase_pulse(omega))
        for traj in trajs.values():
            drift = max(drift, float(np.max(np.abs(traj.norms() - 1.0))))
    _, ztraj = run_z_rotation(PAIR, ZGateParams(SquarePulse(1.0, pi_pulse_time(1.0)), 0.5))
    drift = max(drift, float(np.max(np.abs(ztraj.norms() - 1.0))))
    _, rtraj = run_raman_x(RamanParams())
    trace_drift = float(np.max(np.abs(rtraj.traces() - 1.0)))
    min_eig = rtraj.min_eigenvalue()
    checks.append((f"unitarity drift {drift:.1e} <= 1e-7", drift <= 1e-7))
    checks.append((f"trace drift {trace_drift:.1e} <= 1e-7", trace_drift <= 1e-7))
    checks.append((f"min eigenvalue {min_eig:.1e} >= -1e-6", min_eig >= -1e-6))

    # adaptive integrator vs exact stepwise exponentials
    basis = Basis(("a", "b", "c"), "probe")
    segs = []
    for _ in range(2):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        segs.append(0.5 * (m + m.conj().T))

    def h_pw(t):
        return segs[0] if t < 1.0 else segs[1]

    psi0 = QuantumState.basis_state(basis, "a")
    num = evolve_schrodinger(h_pw, psi0, (0.0, 2.0), breakpoints=(1.0,))
    ex = evolve_expm(h_pw, psi0, [0.0, 1.0, 2.0])
    dev_pw = float(np.max(np.abs(num.states[-1] - ex.states[-1])))
    checks.append((f"integrator vs exponential {dev_pw:.1e} <= 1e-8", dev_pw <= 1e-8))

    # closed-form Rabi flopping
    g = 0.3
    two = Basis(("g", "e"), "two-level")
    hr = OperatorMatrix([[0.0, g], [g, 0.0]], two, hermitian=True)
    traj = evolve_schrodinger(hr, QuantumState.basis_state(two, "g"), (0.0, 10.0))
    dev_rabi = float(np.max(np.abs(
        traj.population("e") - np.sin(g * traj.times / HBAR_MEV_PS) ** 2)))
    checks.append((f"Rabi closed form {dev_rabi:.1e} <= 1e-7", dev_rabi <= 1e-7))

    ok = all(flag for _, flag in checks)
    _report(7, "property suite", ok,
            "; ".join(f"{name}: {'ok' if flag else 'VIOLATED'}"
                      for name, flag in checks))


def test_acceptance_8_theta_locality_invariance():
    report, _ = run_cphase(PAIR, square_cphase_pulse(0.1))
    base = dict(report.phases)
    theta0 = report.theta
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        alpha, beta = rng.uniform(-20.0, 20.0, size=2)
        shifted = {
            "00": base["00"],
            "01": base["01"] + beta,
            "10": base["10"] + alpha,
            "11": base["11"] + alpha + beta,
        }
        theta = wrap_phase(shifted["00"] - shifted["01"] - shifted["10"]
                           + shifted["11"])
        worst = max(worst, abs(wrap_phase(theta - theta0)))
    ok = worst < 1e-12
    _report(8, "theta locality invariance", ok,
            f"max |delta theta| over 200 random local-Z draws = {worst:.2e}"
            f" < 1e-12")
