"""The reference job: a fixed amount of pure-Python integer work.

    python3 perfbench/reference.py

It shares no code with cycloderiv, so no change to the package moves its
time. The benchmark runs it as a child process between passes, the way it
runs the CLI, and divides pass times by its median time in the same run;
that ratio follows the program's own cost and not the host's speed of the
moment. It prints one number, the same on every run.
"""

import random


def bareiss_det(rows: list[list[int]]) -> int:
    m = [row[:] for row in rows]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


if __name__ == "__main__":
    rng = random.Random(0)
    rows = [[rng.randint(-9, 9) for _ in range(36)] for _ in range(36)]
    print(sum(bareiss_det(rows) for _ in range(4)) % 1_000_003)
