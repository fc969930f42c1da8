"""Reference-speed clock: scales measured times by the machine's current speed.

The machine this benchmark was built on is a small virtual machine on a
shared host.  There the same work runs at speeds that drift by a factor of
up to 1.7 within minutes, and the drift hits every kind of work alike, CPU
time included, so neither longer runs nor medians remove it from run-to-run
comparisons.  A fixed slice of reference work (small complex SVDs, building
a ``Generator``, a Python loop; no ``cstar_rank`` code) is therefore timed
after every ``EVERY_S`` seconds of measured calls, on the same CPU (run.py
pins the process and its children to one).  Each call's time is multiplied
by the slice's reference time over the mean slice time of its segment and
the ``SMOOTH`` segments on either side.  A reported time is the time the call
would take on the same machine running the reference slice in exactly its
reference time.  The reference times are the median slice times of the
runs recorded on that machine, so a reported time is a projection to its
typical speed, not a time any one run measured.  The raw wall-clock
figures are printed and kept in the run's record next to the scaled ones.
"""

import statistics
from time import perf_counter

import numpy as np

_SMALL = ((3, 3), (4, 4), (6, 6), (8, 8), (12, 12), (16, 16))

#: Reference slices by workload profile: the shapes of the complex matrices
#: whose singular values a slice computes (each with a ``Generator`` and a
#: short Python loop), and the slice's time at the reference speed: the
#: median, over the runs recorded when the benchmark was built (2-core Xeon
#: VM; 60 runs of the python profile, 20 of the lapack one), of each run's
#: median slice time.  "python" suits workloads dominated by interpreter work
#: on small arrays; "lapack" suits oracle-crosscheck, dominated by SVDs of
#: matrices with hundreds of rows, which slow down less than Python code
#: when the host is busy.
PROFILES = {
    "python": (_SMALL * 24, 0.0092),
    "lapack": (_SMALL * 4 + ((96, 192),) * 2, 0.0083),
}

#: Seconds of measured calls between two reference slices.
EVERY_S = 0.2

#: Segments on either side whose slice times are pooled with a segment's own.
SMOOTH = 2


class ReferenceClock:
    def __init__(self, profile="python"):
        shapes, self.reference_s = PROFILES[profile]
        rng = np.random.default_rng(20130614)
        self._matrices = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes
        ]
        self.slices = []
        self._pending = []  # (tally, sample index) measured since the last slice
        self._pending_s = 0.0
        self._segments = []  # (calls, time of the slice that closed them)
        self._reference()  # first-call effects stay out of the slices

    def _reference(self):
        acc = 0.0
        for m in self._matrices:
            acc += float(np.linalg.svd(m, compute_uv=False)[-1])
            acc += float(np.random.Generator(np.random.PCG64(m.shape[0])).standard_normal())
            for i in range(150):
                acc += i * 0.5
        return acc

    def slice(self) -> float:
        """Time one reference slice.

        The slice runs twice and only the second run is timed, so that the
        caches it finds do not depend on the call measured before it."""
        self._reference()
        start = perf_counter()
        self._reference()
        elapsed = perf_counter() - start
        self.slices.append(elapsed)
        return elapsed

    def scaled(self, measure):
        """Run ``measure()`` between two slices; return (scaled, raw) seconds."""
        before = self.slice()
        raw = measure()
        return raw * 2.0 * self.reference_s / (before + self.slice()), raw

    def add(self, tally, index, seconds):
        """Record a measured call; close its segment once EVERY_S is reached."""
        self._pending.append((tally, index))
        self._pending_s += seconds
        if self._pending_s >= EVERY_S:
            self.flush()

    def flush(self):
        """Close the open segment with a reference slice."""
        if self._pending:
            self._segments.append((self._pending, self.slice()))
            self._pending = []
            self._pending_s = 0.0

    def finish(self):
        """Scale every recorded call by the reference time over the mean slice
        time of its segment and the SMOOTH segments on either side.

        The host takes the CPU away in stalls of a few milliseconds, so a
        single 5 ms slice is either hit or not; the mean over the window
        estimates the share of time the CPU was ours."""
        self.flush()
        times = [t for _, t in self._segments]
        for i, (calls, _) in enumerate(self._segments):
            factor = self.reference_s / statistics.fmean(times[max(0, i - SMOOTH):i + SMOOTH + 1])
            for tally, index in calls:
                tally.scaled[index] = tally.samples[index] * factor
        self._segments = []
