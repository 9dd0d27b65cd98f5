"""A fixed piece of pure-Python work whose duration tracks the host's
current speed.

The speed of a shared host swings by up to 1.6x and changes within a
second, for fshin and for any other Python code alike.  Timings are
rescaled to a host on which one round takes REF_S, by the median of the
rounds run next to them on the same CPU.  The round uses builtins only, so running it in a
fresh interpreter imports nothing that fshin needs.
"""

import gc
import time

REF_S = 1e-3  # duration of one round on the reference host


def calibration_round() -> float:
    """Seconds for one round of tuple keys, dict updates, string
    formatting, integer and float arithmetic and a sort, the kinds of work
    the reasoner does.  The collector is off, so the size of the heap left
    by the code under test does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    d = {}
    acc = 0.0
    for i in range(500):
        k = (i % 37, "x%d" % (i % 11))
        d[k] = d.get(k, 0) + 1
        if i % 8 == 0:
            acc += (i % 7) / 20
    sorted(d.items())
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt
