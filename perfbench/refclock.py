"""A clock that runs at a fixed reference speed of the processor.

On a few cores of a shared host the same single-threaded code runs up to
half again as slow, in phases of seconds to minutes, as the host's other
tenants come and go; process CPU time slows with it, so neither wall time
nor CPU time repeats from run to run.  This clock corrects wall time for it.

While the clock runs, a SIGALRM handler fires every ``INTERVAL`` seconds of
wall time and times a fixed calibration mix: an integer and dict loop, a
string format-split-parse loop, small numpy calls, and one sweep over a
4 MB array, about 2.5 ms in all.  The mix covers the kinds of work the
workloads do, because a busy host slows them by different amounts.  The
clock advances by the wall time elapsed since the last sample, scaled by
``REF_S`` over the mix's time, averaged over the two samples that bound
the interval: a second in which the mix ran at its reference speed counts
as one second, a second in which it ran half as fast counts as half.  The
handler's own time is left out.  A slower program still reads slower,
since the mix runs none of its code.

``REF_S`` is the mix's time in the fast phases of the 2-vCPU Intel Xeon VM
the benchmark was defined on, so there reference seconds and wall seconds
agree when the host is quiet.  The handler runs between Python bytecodes,
so a C call longer than ``INTERVAL`` (a large numpy operation) only
lengthens the interval it falls in.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.1  # wall seconds between calibration samples
REF_S = 0.0025  # calibration mix time at reference speed

_SMALL = np.arange(64, dtype=np.int64)
_SWEEP = np.arange(1 << 19, dtype=np.int64)  # 4 MB
_state = None  # (reference time at mark, wall time at mark, rate), or None when stopped
_previous = None


def _ints():
    acc, table = 0, {}
    for i in range(5000):
        acc += i * i % 7
        table[i & 63] = acc


def _strings():
    out = []
    for i in range(600):
        out.append(sum(int(x) for x in f"{i} {i + 1} {i * 3}".split()))


def _numpy_calls():
    for i in range(150):
        np.sort(_SMALL + i)


def _sweep():
    int(_SWEEP.sum())


def calibrate() -> float:
    """The calibration mix's time now."""
    t0 = perf_counter()
    _ints()
    _strings()
    _numpy_calls()
    _sweep()
    return perf_counter() - t0


def rate_now() -> float:
    """Reference seconds per wall second now, from the median of five
    calibrations after a warm-up one; the clock need not run."""
    calibrate()
    return REF_S / statistics.median(calibrate() for _ in range(5))


def _tick(signum, frame):
    global _state
    t = perf_counter()
    ref, mark, rate = _state
    new_rate = REF_S / calibrate()
    _state = (ref + (t - mark) * (rate + new_rate) / 2, perf_counter(), new_rate)


def start():
    """Start the clock at reference time 0."""
    global _state, _previous
    if _state is not None:
        raise RuntimeError("reference clock already running")
    _state = (0.0, perf_counter(), rate_now())
    _previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop():
    """Stop the clock and restore the previous SIGALRM handler."""
    global _state, _previous
    if _state is None:
        return
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, _previous)
    _state = _previous = None


def now() -> float:
    """Reference seconds while the clock runs, else ``perf_counter()``."""
    while True:
        s = _state
        t = perf_counter()
        if s is None:
            return t
        if s is _state:  # no sample was taken between the two reads
            ref, mark, rate = s
            return ref + (t - mark) * rate
