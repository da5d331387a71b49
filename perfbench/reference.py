"""A fixed reference loop, timed next to every operation.

On a shared host the speed of a core drifts by tens of percent over tens of
seconds, as other tenants come and go; an operation's wall time drifts with
it. The reference loop does a fixed amount of the same kinds of work the
workloads do (interpreter arithmetic, number formatting, small and mid-size
numpy calls) on fixed inputs, so its time drifts the same way and does not
depend on the package at all. ``wall_rel`` divides an operation's wall time
by the mean of the loop times just before and just after it: how many
reference loops the operation costs. A change to the package moves
``wall_rel`` exactly as it moves ``wall_s``; a change in host speed mostly
cancels.
"""

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20210611)
_SMALL = _RNG.standard_normal(16)
_MID = _RNG.standard_normal(4000)
_ROWS = _RNG.standard_normal((200, 5)).tolist()


def _loop():
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    text = []
    for row in _ROWS:
        text.append(",".join("%.10g" % v for v in row))
    v = _SMALL
    for _ in range(300):
        v = np.tanh(v * 1.0001 + 0.5)
        acc += int(v.argmax())
    for _ in range(6):
        acc += int(np.argsort(_MID + acc % 3)[0])
    return acc, len("\n".join(text))


REPEATS = 15


def loop_seconds():
    """Median wall time of one reference loop, in seconds.

    One untimed loop first refills the caches the operation before it
    evicted; the median of the timed loops then drops interrupts and other
    one-off stalls.
    """
    _loop()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
