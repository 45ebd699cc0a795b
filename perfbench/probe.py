"""A fixed piece of work that does not touch sgdelta, run by `run.py` as a
child process between queries to gauge how fast the shared host is running.

It does the kinds of work a query does: interpreter start, `import numpy`,
a pure-Python loop over ints and a dict, and many small numpy calls. Its
wall time changes only with the host, never with the code under test.
It prints one checksum, which `run.py` compares with `CHECKSUM`.
"""

CHECKSUM = 184893677


def work() -> int:
    import numpy as np

    acc = 0
    table = {}
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    a = np.arange(256, dtype=np.int64)
    for i in range(4_000):
        b = np.maximum(a, np.roll(a, i)) - i
        acc = (acc + int(b.sum()) + table[i & 1023]) % 1_000_000_007
    return acc


if __name__ == "__main__":
    print(work())
