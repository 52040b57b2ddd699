"""The benchmark's workloads: fixed lists of CLI invocations made from a seed.

Each workload stresses a different layer (see README.md for why each was
chosen). The seed only feeds the generated arguments; the program sees
nothing but its argv. Coordinates of D(zeta) are passed as ``--dzeta=c0,...``
because argparse would read ``--dzeta -9,...`` as an unknown option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from checks import totient, units

LARGE_DEGREE = 18  # invocations at or above this ring degree count toward large_ring_ref


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    degree: int  # ring degree phi(n); 0 for commands over several small rings

    @property
    def large(self) -> bool:
        return self.degree >= LARGE_DEGREE


def _sweep(form: str, a: str, b: str, rng: random.Random) -> Invocation:
    if form == "2rp":
        args, n = ("--r", a, "--p", b), 2 ** int(a) * int(b)
    else:
        args, n = ("--p", a, "--k", b), int(a) ** int(b)
    seed = str(rng.randrange(2**31))
    return Invocation(("sweep", "--form", form, *args, "--seed", seed), totient(n))


def _classify(n: int, big: bool, rng: random.Random) -> Invocation:
    u, v = rng.sample(units(n), 2)
    d = totient(n)
    if big:
        coords = [rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(d)]
    else:
        coords = [rng.randint(-9, 9) for _ in range(d)]
    dzeta = "--dzeta=" + ",".join(str(c) for c in coords)
    return Invocation(("classify", str(n), str(u), str(v), dzeta), d)


def solve(seed: int) -> list[Invocation]:
    """Sweeps at degrees 6, 18 and 20, 20 classifications at degrees 42 and 4,
    and solution templates at degrees 4 and 12 (the cofactor adjugate path)."""
    rng = random.Random(f"solve:{seed}")
    invs = [
        _sweep("2rp", "1", "7", rng),
        _sweep("pk", "3", "3", rng),
        _sweep("pk", "5", "2", rng),
    ]
    for n, count in ((43, 8), (49, 8), (10, 4)):
        invs.extend(_classify(n, i % 2 == 1, rng) for i in range(count))
    invs.extend(Invocation(("tables", str(n)), totient(n)) for n in (10, 21))
    return invs


def verify(seed: int) -> list[Invocation]:
    """Product-rule checks at degrees 4, 18 and 42, plus the non-domain regressions."""
    rng = random.Random(f"verify:{seed}")
    invs = [
        Invocation(
            ("verify-theorem", str(n), str(u), str(v), "--trials", str(trials),
             "--seed", str(rng.randrange(2**31))),
            totient(n),
        )
        for n, u, v, trials in ((10, 1, 3, 100), (27, 1, 2, 50), (49, 1, 2, 5))
    ]
    invs.append(Invocation(("counterexamples",), 0))
    return invs


WORKLOADS = {"solve": solve, "verify": verify}


def items(invocations: list[Invocation]) -> dict[str, int]:
    """Work items in one pass: pairs swept, classifications, table blocks, derivations checked."""
    counts = {"sweep_pairs": 0, "classifications": 0, "table_blocks": 0, "derivations_checked": 0}
    for inv in invocations:
        cmd = inv.argv[0]
        if cmd == "sweep":
            counts["sweep_pairs"] += comb(inv.degree, 2)
        elif cmd == "classify":
            counts["classifications"] += 1
        elif cmd == "tables":
            counts["table_blocks"] += comb(inv.degree, 2)
        elif cmd == "verify-theorem":
            counts["derivations_checked"] += int(inv.argv[inv.argv.index("--trials") + 1])
    return counts
