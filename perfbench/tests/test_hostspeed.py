"""The host speed adjustment: an item is scaled by the probes around it."""

import pytest

from perfbench import hostspeed


def test_item_is_scaled_by_the_mean_of_the_probes_around_it():
    probes = hostspeed.Probes()
    probes.times = [0.10, 0.05, 0.025]
    # Timed between probes 0 and 1 (mean 0.075 s) and 1 and 2 (0.0375 s).
    assert probes.adjust(3.0, 0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.075)
    assert probes.adjust(3.0, 1) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.0375)


def test_item_no_probe_brackets_is_scaled_by_the_median_probe():
    probes = hostspeed.Probes()
    probes.times = [0.10, 0.05, 0.025]
    assert probes.adjust(3.0) == pytest.approx(3.0 * hostspeed.NOMINAL_S / 0.05)


def test_probe_indices_follow_the_order_taken():
    probes = hostspeed.Probes()
    assert [probes.take(), probes.take()] == [0, 1]
    assert all(t > 0.0 for t in probes.times)
    assert probes.info()["probe_s"] == [round(t, 5) for t in probes.times]
