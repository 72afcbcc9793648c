"""Tests of the machine-speed scaling of calibrate.py.

    python3 -m pytest benchmarks/tests -q
"""

import signal
import time

import pytest

from calibrate import REFERENCE_S, SAMPLE_INTERVAL_S, Calibration, Sampler, scaled


def test_scaled_is_time_at_reference_speed():
    assert scaled(10.0, [REFERENCE_S]) == pytest.approx(10.0)
    assert scaled(10.0, [2 * REFERENCE_S]) == pytest.approx(5.0)
    # Samples taken evenly in time: half the interval ran at twice the speed.
    assert scaled(1.0, [REFERENCE_S, REFERENCE_S / 2]) == pytest.approx(1.5)


def test_kernel_time_is_positive_and_finite():
    c = Calibration()
    assert 0.0 < c.kernel() < 10.0
    assert 0.0 < c.measure() < 10.0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_samples_during_block_and_restores_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(Calibration())
    with sampler.sampling():
        busy(3.2 * SAMPLE_INTERVAL_S)
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with sampler.sampling():
        pass
    assert sampler.samples == [] and sampler.spent == 0.0


def test_sampler_restores_signal_state_after_exception():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with Sampler(Calibration()).sampling():
            raise RuntimeError("boom")
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_calibration_inputs_are_fixed():
    a, b = Calibration(), Calibration()
    assert (a.keys == b.keys).all() and (a.large_vector == b.large_vector).all()
