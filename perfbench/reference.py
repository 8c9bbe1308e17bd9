"""A fixed amount of pure-Python work: the benchmark's yardstick.

The harness runs this file as a fresh process before every job and after the
last one, and reports job times also as multiples of the run's mean
reference time.  On a shared machine the speed of a Python process drifts by
tens of percent within minutes; the ratio cancels the part of that drift that
slows this loop and the CLI alike.  The work mirrors the CLI's: a working set
of several MiB of dicts, tuples and wide int bitmasks, visited in scattered
order, so cache contention slows it as it slows the jobs.  It imports nothing
from the repository, so no change to ekrlattice moves it.
"""


def work(steps: int, size: int) -> int:
    table = {(i * 7919) % (size * 4): (i, i * i) for i in range(size)}
    keys = list(table)
    masks = [((i * 0x9E3779B97F4A7C15) << (i % 192)) | 1 for i in range(size)]
    acc = 0
    idx = 12345
    for _ in range(steps):
        idx = (idx * 1103515245 + 12345) % size
        a, b = table[keys[idx]]
        acc += a + (b & 255) + (masks[idx] & masks[(idx * 31) % size]).bit_count()
    return acc


if __name__ == "__main__":
    work(150_000, 100_000)
