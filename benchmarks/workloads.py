"""Workloads of the gate-job benchmark: seeded inputs and output checks.

A workload is one protocol.  Its inputs are a round of ``round_jobs``
parameter sets drawn from the seed; the benchmark repeats the round
whole.  Each parameter is stratified across the round (one draw in each
of ``round_jobs`` equal slices of its range, slices paired at random), so
every round covers its ranges evenly and job costs form the same spread
for every seed.

Checks compare a job's ``report.json`` with :mod:`reference`, which is
computed once per parameter set before the timed loop.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref

# Integrator tolerances are rtol 1e-9 / atol 1e-12; the references agree
# with the integrator to ~1e-10, so 1e-8 leaves a wide margin.
AMPLITUDE_TOL = 1e-8
FIDELITY_TOL = 1e-8
SAMPLE_INTERVAL = 0.01  # ps, the config default the runs use
RAMAN_RABI = 1.33  # meV, the config default the runs use
ZROT_RABI = 1.0  # meV


def _strata(rng: np.random.Generator, lo: float, hi: float, k: int,
            digits: int = 6) -> list[float]:
    """``k`` draws from [lo, hi), one in each of ``k`` equal slices, shuffled."""
    u = rng.permutation((np.arange(k) + rng.random(k)) / k)
    return [round(float(lo + (hi - lo) * x), digits) for x in u]


def _report(out: Path) -> dict[str, Any]:
    return json.loads((out / "report.json").read_text())


class CPhase:
    """Controlled-phase gate, one pulse shape; four spin blocks per job.

    ``omega = r * v_f`` with r in [0.1, 0.2], v_f in [0.7, 1.0] meV and
    v_xx in [4, 6] meV keeps both validity ratios below 0.1.
    """

    def __init__(self, shape: str, round_jobs: int) -> None:
        self.shape = shape
        self.round_jobs = round_jobs
        self.traced = ("run_cphase", "evolve_schrodinger", "accumulated_phase",
                       "solve_ivp", "rwa_subspace_generator", "spectator_generator")

    def draw(self, seed: int) -> list[dict[str, float]]:
        rng = np.random.default_rng(seed)
        k = self.round_jobs
        r = _strata(rng, 0.1, 0.2, k)
        v_f = _strata(rng, 0.7, 1.0, k)
        v_xx = _strata(rng, 4.0, 6.0, k)
        return [{"omega": round(a * b, 9), "v_f": b, "v_xx": c}
                for a, b, c in zip(r, v_f, v_xx)]

    def configs(self, p: dict[str, float]) -> list[tuple[str, dict[str, Any]]]:
        return [("", {"kind": "cphase", "pulse_shape": self.shape, **p})]

    def reference(self, p: dict[str, float]) -> dict[str, complex]:
        if self.shape == "square":
            return ref.square_amplitudes(p["omega"], p["v_f"], p["v_xx"],
                                         ref.square_duration(p["omega"]))
        return ref.gaussian_amplitudes(p["omega"], p["v_f"], p["v_xx"],
                                       ref.gaussian_sigma(p["omega"]))

    def check(self, p: dict[str, float], expected: dict[str, complex],
              out: Path) -> list[str]:
        amps = _report(out)["amplitudes"]
        errors = []
        for key, want in expected.items():
            got = complex(amps[key]["re"], amps[key]["im"])
            if abs(got - want) > AMPLITUDE_TOL:
                errors.append(f"a{key} = {got:.10f}, reference {want:.10f}")
        return errors


class SingleQubit:
    """One arbitrary single-qubit rotation: a lab-frame shelved Z rotation
    followed by a three-detuning Raman scan.

    omega_a in [150, 250] meV keeps the carrier over 100 times the 1 meV
    Rabi energy; the wait is in [0, 1] ps.  Each detuning comes from its
    own slice of [3, 6] meV, so the three stay distinct; gamma is in
    [0.05, 0.15] /ps.
    """

    def __init__(self, round_jobs: int) -> None:
        self.round_jobs = round_jobs
        self.traced = ("run_z_rotation", "run_raman_x", "evolve_schrodinger",
                       "evolve_lindblad", "accumulated_phase", "to_rotating_frame",
                       "solve_ivp", "lab_single_dot_generator")

    def draw(self, seed: int) -> list[dict[str, Any]]:
        rng = np.random.default_rng(seed)
        k = self.round_jobs
        omega_a = _strata(rng, 150.0, 250.0, k, 3)
        wait = _strata(rng, 0.0, 1.0, k)
        nus = [_strata(rng, lo, lo + 1.0, k, 4) for lo in (3.0, 4.0, 5.0)]
        gamma = _strata(rng, 0.05, 0.15, k, 4)
        return [{"omega_a": omega_a[i], "wait": wait[i],
                 "detunings": [nu[i] for nu in nus], "gamma": gamma[i]}
                for i in range(k)]

    def configs(self, p: dict[str, Any]) -> list[tuple[str, dict[str, Any]]]:
        return [
            ("z", {"kind": "zrot", "omega_a": p["omega_a"], "omega": ZROT_RABI,
                   "wait": p["wait"]}),
            ("raman", {"kind": "raman", "rabi": RAMAN_RABI,
                       "detunings": p["detunings"], "gamma": p["gamma"]}),
        ]

    def reference(self, p: dict[str, Any]) -> dict[str, Any]:
        scans = []
        for nu in p["detunings"]:
            times, pops = ref.raman_scan(RAMAN_RABI, nu, p["gamma"],
                                         ref.raman_window(RAMAN_RABI, nu),
                                         SAMPLE_INTERVAL)
            scans.append((times, pops[:, 1]))
        return {"phase": ref.zrot_target_phase(p["omega_a"], p["wait"]),
                "composite": ref.zrot_composite_phase(p["omega_a"], ZROT_RABI),
                "scans": scans}

    def check(self, p: dict[str, Any], expected: dict[str, Any],
              out: Path) -> list[str]:
        errors = []
        z = _report(out / "z")
        # Bloch-Siegert terms of the lab-frame carrier enter at
        # (rabi / omega_a)^2; the runs land ten or more times inside it.
        tol = (ZROT_RABI / p["omega_a"]) ** 2
        miss = abs(ref.wrap(z["achieved_phase"] - expected["phase"]))
        if miss > tol:
            errors.append(f"achieved phase {z['achieved_phase']:.9f} misses "
                          f"{expected['phase']:.9f} by {miss:.2e}")
        off = abs(ref.wrap(z["composite_phase"] - expected["composite"]))
        if off > tol:
            errors.append(f"composite phase {z['composite_phase']:.9f} misses "
                          f"{expected['composite']:.9f} by {off:.2e}")
        runs = _report(out / "raman")["runs"]
        if [r["detuning"] for r in runs] != p["detunings"]:
            return errors + [f"raman runs {[r['detuning'] for r in runs]} "
                             f"for detunings {p['detunings']}"]
        for run, (times, p1) in zip(runs, expected["scans"]):
            best = int(np.argmax(p1))
            if abs(run["fidelity"] - p1[best]) > FIDELITY_TOL:
                errors.append(f"nu={run['detuning']}: fidelity {run['fidelity']:.10f}, "
                              f"reference {p1[best]:.10f}")
            # the reported time must be a sample where p1 reaches its
            # maximum; neighbouring samples may tie within the tolerance
            i = int(np.argmin(np.abs(times - run["pi_time"])))
            if abs(times[i] - run["pi_time"]) > 1e-9 or p1[best] - p1[i] > FIDELITY_TOL:
                errors.append(f"nu={run['detuning']}: pi time {run['pi_time']:.9f}, "
                              f"reference {times[best]:.9f}")
        return errors


WORKLOADS = {
    "cphase-square": CPhase("square", round_jobs=16),
    "cphase-gaussian": CPhase("gaussian", round_jobs=8),
    "single-qubit": SingleQubit(round_jobs=4),
}
