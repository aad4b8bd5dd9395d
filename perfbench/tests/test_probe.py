"""The host speed probe: sampling, the time taken out, the scale."""

import gc
import signal
import time

import pytest

import probe


def test_probe_time_is_taken_out_and_the_rest_scaled():
    nominal = probe.NOMINAL_S
    sampler = probe.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.seconds = [nominal, 2 * nominal, 4 * nominal, nominal, nominal]
    assert sampler.busy(0.5, 2.0) == pytest.approx(2 * nominal)
    # [0.5, 2.0) holds the probe at 1.0; its neighbours are those at 0.0 and 2.0.
    assert sampler.scaled(0.5, 2.0) == pytest.approx((1.5 - 2 * nominal) * 3 / 7)
    # No probe starts in [1.2, 1.8): the speed comes from those at 1.0 and 2.0.
    assert sampler.scaled(1.2, 1.8) == pytest.approx(0.6 / 3)
    # A host at the nominal speed leaves the time as it is.
    assert sampler.scaled(3.5, 3.9) == pytest.approx(0.4)


def test_sampler_probes_during_the_block_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * probe.PERIOD_S:
            pass
        end = time.perf_counter()
    assert sampler.starts[0] < start and sampler.starts[-1] >= end
    assert len([s for s in sampler.starts if start <= s < end]) >= 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_does_the_same_work_every_call_and_leaves_the_collector_be():
    gc.collect()
    sampler = probe.Sampler()
    sample = sampler._sample
    live = [[] for _ in range(100)]  # the count cannot fall below 0
    before = gc.get_count()
    for _ in range(5):
        sample()
    # A probe makes a few hundred tracked objects; at most one may outlive it.
    assert gc.get_count()[0] - before[0] <= 5 and gc.isenabled() and live
    assert probe._work() == probe._work()
