"""Host-speed probe: how fast the benchmark's core runs Python right now.

On a VM whose cores are shared with other tenants of the host, their load
comes and goes within seconds and can slow the same code by up to a half
while it lasts, so raw times of one run differ from the next by more than
any change worth measuring.  The load is invisible from inside the VM: the
process's CPU time grows with it, and steal time stays near 1%.

The probe measures that slowdown directly.  While an item runs, SIGALRM
fires every ``PERIOD_S`` of wall time and its handler times one fixed slice
of pure-Python arithmetic (``kernel``), the same kind of work as the
program's: Fractions in dicts keyed by exponent tuples.  Each sample's
speed is ``REFERENCE_S`` over its time, so 1.0 means the speed of an idle
core of the reference machine.  ``split`` takes the time the probe itself
used out of an item's latency and multiplies the rest by the mean speed of
the item's samples: that is the item's time at the reference speed.

The kernel and ``REFERENCE_S`` belong together.  Changing either changes
every normalised figure, so neither may change without re-taking the
baseline.
"""

import signal
import time
from fractions import Fraction

# One kernel call on an idle core of the reference machine: the fastest of
# 2000 calls on a 2-core Intel Xeon VM running CPython 3.11.7 read
# 0.00067-0.00126 s over a few minutes, as the host's load came and went.
REFERENCE_S = 0.00070
PERIOD_S = 0.025

_POLY = {(i, j): Fraction(i - j, i + j + 1) for i in range(4) for j in range(4)}


def kernel():
    """The probe's fixed work: the square of a dense 16-term polynomial."""
    out = {}
    for (a, b), c in _POLY.items():
        for (d, e), f in _POLY.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


class SpeedProbe:
    """Samples the host speed on SIGALRM; read and ``reset`` per item."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.count = 0          # samples taken
        self.probe_s = 0.0      # wall time the samples used
        self.speed_sum = 0.0    # sum of the samples' speeds

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.count += 1
        self.probe_s += took
        self.speed_sum += REFERENCE_S / took

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self):
        """Protocol fields ``COUNT PROBE_S SPEED_SUM``; then resets."""
        fields = "%d %.9f %.9f" % (self.count, self.probe_s, self.speed_sum)
        self.reset()
        return fields


def split(seconds, fields):
    """(own seconds, seconds at the reference speed) of a timed stretch.

    ``fields`` are the probe's ``COUNT PROBE_S SPEED_SUM`` for the stretch,
    or empty when it ran without the probe.
    """
    if not fields:
        return seconds, seconds
    count, probe_s, speed_sum = int(fields[0]), float(fields[1]), float(fields[2])
    own = seconds - probe_s
    return own, own * speed_sum / count


if __name__ == "__main__":
    # Prints the fastest kernel call here, to re-take REFERENCE_S.
    times = []
    for _ in range(2000):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    print("fastest of %d kernel calls: %.6f s" % (len(times), min(times)))
