"""Host-speed reference: a fixed pure-Python kernel timed next to every op.

The benchmark shares a few vCPUs of a host with other tenants, and the
speed of those vCPUs drifts by up to about 1.7x within seconds while the
process is never descheduled (CPU time tracks wall time).  The drift hits
this kernel and the package's own pure-Python arithmetic alike when both
run in the same process: over 20 s, a fixed ``report 3/2`` ranged
133-253 ms while the quartiles of its ratio to an adjacent run of a
kernel like this one lay within 6 % of each other.  The two vCPUs drift apart, though: the
same kernel looping in a second process on the other vCPU tracked the op
worse than no scaling at all, so the kernel always runs in the process
that runs the ops.

So the op times behind the end-to-end throughput and latencies are wall
times scaled to the nominal host speed: ``wall * NOMINAL_MS / local``,
where ``local`` is the kernel's wall time measured right around that op.  ``NOMINAL_MS`` is the kernel's
median wall time on a 2-vCPU Intel Xeon at 2.0 GHz (Python 3.11), so on
that machine the scaled times read as its typical milliseconds.  The
kernel is part of the benchmark, never of the package, so a change to the
package moves the scaled times and leaves the kernel alone.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_MS = 3.8  # median wall time of one kernel() at nominal host speed


def kernel() -> int:
    """Exact rational arithmetic, small tuples and a dict, as the package
    does; about 3.8 ms at nominal speed."""
    s = Fraction(0)
    seen = {}
    for i in range(1, 640):
        s += Fraction(i % 7 + 1, i)
        key = (i % 13, s.numerator & 0xFF)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference() -> float:
    """Wall seconds of one kernel()."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def local(refs, i: int) -> float:
    """The host-speed reference for op i of a loop where refs[i] was taken
    right before op i and refs[i + 1] right after it: their mean."""
    return (refs[i] + refs[i + 1]) / 2


def scale(seconds: float, ref: float) -> float:
    """A wall time scaled to the nominal host speed."""
    return seconds * (NOMINAL_MS * 1e-3) / ref
