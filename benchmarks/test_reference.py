"""Closed-form checks of the benchmark's reference propagators.

    python3 -m pytest benchmarks
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads


def _xx_tol(peak, v_xx, v_f=0.85):
    # the detuned XX level shifts psi+ by about g^2 / delta while it is
    # populated, which moves a11 by up to ~g / delta for areas up to 2 pi
    return 10.0 * (ref.SQRT2 * peak / 2.0) / (v_xx - 2.0 * v_f)


@pytest.mark.parametrize("area", [0.3, 1.0, 2.0, math.pi])
def test_square_pair_block_weak_drive_follows_cos_half_area(area):
    # far-detuned XX: the 11 <-> psi+ pair is a resonant two-level system,
    # so a11 = cos(A / 2) with the sqrt(2)-enhanced area A in units of hbar
    omega, v_xx = 1e-3, 100.0
    duration = area * ref.HBAR / (ref.SQRT2 * omega)
    amps = ref.square_amplitudes(omega, v_f=0.85, v_xx=v_xx, duration=duration)
    assert amps["11"] == pytest.approx(math.cos(area / 2.0), abs=_xx_tol(omega, v_xx))


def test_square_pulse_calibration_gives_the_controlled_phase_sign():
    omega, v_xx = 1e-3, 100.0
    amps = ref.square_amplitudes(omega, 0.85, v_xx, ref.square_duration(omega))
    assert amps["11"] == pytest.approx(-1.0, abs=_xx_tol(omega, v_xx))


@pytest.mark.parametrize("peak", [0.07, 0.2])
def test_gaussian_reference_obeys_the_area_theorem(peak):
    # a resonant two-level block returns cos(A / 2) for any envelope shape;
    # v_f -> 0 makes the spectator block resonant with bare area A
    sigma = ref.gaussian_sigma(peak)
    area = peak * sigma * math.sqrt(2 * math.pi) * math.erf(4 / ref.SQRT2) / ref.HBAR
    assert area * ref.SQRT2 == pytest.approx(2 * math.pi, rel=1e-12)
    amps = ref.gaussian_amplitudes(peak, v_f=1e-12, v_xx=1e4, sigma=sigma)
    assert amps["01"] == pytest.approx(math.cos(area / 2.0), abs=1e-9)
    assert amps["11"] == pytest.approx(-1.0, abs=_xx_tol(peak, 1e4, v_f=0.0))


def test_gaussian_reference_converges_in_the_step_count():
    args = (0.15, 0.85, 5.0, ref.gaussian_sigma(0.15))
    coarse = ref.gaussian_amplitudes(*args, steps=500)
    fine = ref.gaussian_amplitudes(*args, steps=4000)
    for key in fine:
        assert abs(coarse[key] - fine[key]) < 1e-9


def _lambda_p1(rabi, detuning, t):
    # gamma = 0: from spin 0, the bright state (0+1)/sqrt2 Rabi-cycles with
    # e at coupling rabi/sqrt2 and detuning nu; the dark state stands still
    w = math.sqrt(detuning**2 + 2.0 * rabi**2)
    x = w * t / (2.0 * ref.HBAR)
    f = np.exp(-1j * detuning * t / (2.0 * ref.HBAR)) * (
        np.cos(x) + 1j * detuning / w * np.sin(x))
    return np.abs(f - 1.0) ** 2 / 4.0


@pytest.mark.parametrize("detuning", [3.0, 4.5, -6.0])
def test_liouvillian_without_loss_matches_the_lambda_closed_form(detuning):
    window = ref.raman_window(1.33, detuning)
    times, pops = ref.raman_scan(1.33, detuning, 0.0, window, 0.01)
    assert times[-1] == pytest.approx(window)
    np.testing.assert_allclose(pops[:, 1], _lambda_p1(1.33, detuning, times), atol=1e-10)
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(pops[:, 3])) < 1e-14


def test_liouvillian_with_loss_keeps_the_trace_in_the_sink():
    times, pops = ref.raman_scan(1.33, 4.0, 0.1, 30.0, 0.01)
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diff(pops[:, 3]) >= -1e-15)
    assert pops[-1, 3] > 0.01


def test_zrot_phases_wrap_into_the_half_open_interval():
    assert ref.wrap(-math.pi) == math.pi
    assert ref.zrot_target_phase(200.0, 0.0) == 0.0
    assert ref.zrot_target_phase(1.0, math.pi * ref.HBAR) == pytest.approx(math.pi)
    # whole carrier cycles in each pulse leave the bare pi of two pi pulses
    assert abs(ref.zrot_composite_phase(200.0, 1.0)) == pytest.approx(math.pi)
    assert ref.zrot_composite_phase(200.5, 1.0) == pytest.approx(math.pi / 2)


def test_strata_put_one_draw_in_each_slice():
    rng = np.random.default_rng(3)
    draws = workloads._strata(rng, 4.0, 6.0, 16)
    slices = sorted(int((x - 4.0) / 2.0 * 16) for x in draws)
    assert slices == list(range(16))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_draws_repeat_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = wl.draw(7), wl.draw(7), wl.draw(8)
    assert first == again and first != other
    assert len(first) == wl.round_jobs
