"""Unit tests of the host speed factor.

    python3 -m pytest perfbench/test_hostspeed.py
"""

from __future__ import annotations

import signal
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402

REF = hostspeed.REF_S


def sampler(t_start, ticks):
    s = hostspeed.Sampler()
    s.t_start, s.ticks = t_start, ticks
    return s


class FactorTest(unittest.TestCase):
    def test_reference_speed_is_one(self):
        s = sampler(0.0, [(0.2, REF), (0.4, REF), (0.5, REF)])
        self.assertAlmostEqual(s.factor(), 1.0)

    def test_stretches_weighted_by_time(self):
        # 1 s at half speed (probe 2 REF), then 3 s at full speed
        s = sampler(10.0, [(11.0, 2 * REF), (14.0, REF)])
        self.assertAlmostEqual(s.factor(), (1 * 0.5 + 3 * 1.0) / 4)

    def test_single_tick_at_start(self):
        s = sampler(5.0, [(5.0, REF / 2)])
        self.assertAlmostEqual(s.factor(), 2.0)

    def test_factor_of_median(self):
        self.assertAlmostEqual(hostspeed.factor_of([REF, 2 * REF, 4 * REF]), 0.5)


class SamplerTest(unittest.TestCase):
    def test_restores_handler_and_samples(self):
        before = signal.getsignal(signal.SIGALRM)
        s = hostspeed.Sampler()
        s.start()
        s.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(s.ticks), 1)
        self.assertGreater(s.factor(), 0.0)


if __name__ == "__main__":
    unittest.main()
