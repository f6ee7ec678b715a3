"""The reference loop: a fixed piece of pure-Python work whose time shows how
fast the machine runs at the moment.  It imports nothing beyond ``time``, so
a fresh interpreter can run it before it imports the program."""

import time


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    return time.perf_counter() - start
