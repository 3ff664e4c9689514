"""A reference for the host's speed, taken while the benchmark runs.

On a shared virtual machine the same work can take anywhere from one to
two times as long from one minute to the next.  The benchmark therefore
times a fixed pure-Python loop (integer arithmetic on a few hundred
digits, tuple hashing; no iet3 code, so no library change can move it)
between its operations, for about CALIBRATION_SHARE of the time the
operations took, and scales its times by REFERENCE_LOOP_S over the loop's
mean time.  Normalized times read as on a host where the loop takes
REFERENCE_LOOP_S; the raw times are printed next to them.
"""

import statistics
import time

# about the loop's mean time on a 2-vCPU x86-64 virtual machine under Python 3.11
REFERENCE_LOOP_S = 0.0049
CALIBRATION_SHARE = 0.1


def _loop():
    x, acc = 0x9E3779B97F4A7C15, 0
    big = 3 ** 200
    for i in range(5000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        p, q = big + x, big - i
        acc += (p * p > q * q * 5) - (p < q)
        acc ^= hash((x, i)) & 1
    return acc


class HostSpeed:
    def __init__(self):
        self.loop_s = []

    def sample(self, seconds):
        """Time the loop repeatedly for about `seconds` (at least once)."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            _loop()
            dt = time.perf_counter() - t0
            self.loop_s.append(dt)
            spent += dt
            if spent >= seconds:
                return

    def after(self, op_seconds):
        """Sample in proportion to an operation that just took op_seconds."""
        self.sample(CALIBRATION_SHARE * op_seconds)

    def factor(self):
        """Multiply a measured time by this to normalize it."""
        return REFERENCE_LOOP_S / statistics.mean(self.loop_s)
