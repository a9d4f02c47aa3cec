"""Passes over large type-class tables: by pieces of CHUNK classes and, past SPLIT
classes, on two cores where this process may use two. No thread or pool outlives
a call, so a forked child starts with none."""

import os
import threading

import numpy as np

# Classes per piece of a larger pass, and past which a pass splits over two cores
# (below about 110,000 classes two threads cost more than they save).
CHUNK, SPLIT = 1 << 15, 1 << 17


def serial(size: int) -> bool:
    """Whether a pass over ``size`` classes runs on this thread alone: at most SPLIT
    classes, or one core for this process (read per call). The one two-core gate."""
    return size <= SPLIT or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                             else os.cpu_count() or 1) < 2


def both(f, g) -> None:
    """f() here and g() on a second thread, for a pass that is not ``serial``;
    returns once both are done, and raises f's error, else g's."""
    g, failed = np.errstate(**np.geterr())(g), []  # a new thread has numpy's default errstate

    def run():
        try:
            g()
        except BaseException as exc:
            failed.append(exc)
    thread = threading.Thread(target=run)
    thread.start()
    try:
        f()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def split(fn, size: int) -> None:
    """fn(lo, hi) over range(size): in one call where serial, else over 16 pieces that
    this thread and a second one take in turn, so that a core slowed by other work
    takes fewer of them."""
    if serial(size):
        fn(0, size)
        return
    step = -(-size // 16)
    starts = iter(range(0, size, step))  # each next() runs whole under the GIL

    def take_pieces():
        for lo in starts:
            fn(lo, min(lo + step, size))
    both(take_pieces, take_pieces)
