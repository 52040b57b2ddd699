"""Output checks for the benchmark, written without the code under test.

Every check parses what the CLI printed and tests it against plain-integer
arithmetic done here: the cyclotomic polynomial, the multiplier matrix, and
the closed-form norm ``|det A| = |N(1 - zeta^(v-u))|`` are all rebuilt from
scratch. A check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb, gcd


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def units(n: int) -> list[int]:
    return [k for k in range(1, n) if gcd(k, n) == 1]


def cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending: (x^n - 1) over Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_divide(poly, cyclotomic(d))
    return poly


def _exact_divide(num: list[int], den: list[int]) -> list[int]:
    """Quotient of num by the monic den; raises if the division is not exact."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = num[k + len(den) - 1]
        quot[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


def multiplier_matrix(n: int, u: int, v: int) -> list[list[int]]:
    """Rows of A, whose column j holds the coordinates of x^j (x^v - x^u) mod Phi_n."""
    phi = cyclotomic(n)
    d = len(phi) - 1
    powers = [[1 if i == k else 0 for i in range(d)] for k in range(d)]
    while len(powers) < d + max(u, v):
        prev = powers[-1]
        lead = prev[-1]
        shifted = [0] + prev[:-1]
        powers.append([s - lead * a for s, a in zip(shifted, phi)])
    columns = [
        [b - a for a, b in zip(powers[j + u], powers[j + v])] for j in range(d)
    ]
    return [[columns[j][i] for j in range(d)] for i in range(d)]


def _prime_power_base(m: int) -> int | None:
    for q in range(2, m + 1):
        if m % q == 0:
            while m % q == 0:
                m //= q
            return q if m == 1 else None
    return None


def norm_det_abs(n: int, u: int, v: int) -> int:
    """|det A| as the norm of 1 - zeta^(v-u): q^(phi(n)/phi(m)) when m is a power of q, else 1."""
    m = n // gcd(n, abs(v - u))
    q = _prime_power_base(m)
    return 1 if q is None else q ** (totient(n) // totient(m))


def _mat_vec(rows: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def _ints(values) -> list[int]:
    return [int(x) for x in values]


def check_sweep(argv: tuple[str, ...], payload: dict) -> list[str]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    if opts["--form"] == "2rp":
        n = 2 ** int(opts["--r"]) * int(opts["--p"])
    else:
        n = int(opts["--p"]) ** int(opts["--k"])
    problems = []
    expected_pairs = list(combinations(units(n), 2))
    pairs = payload["pairs"]
    if int(payload["ring"]["n"]) != n:
        problems.append(f"ring n {payload['ring']['n']} != {n}")
    if int(payload["summary"]["pairs"]) != comb(totient(n), 2) or len(pairs) != len(expected_pairs):
        problems.append(f"summary.pairs {payload['summary']['pairs']} != C(phi({n}), 2)")
    if payload["summary"]["seed"] != opts["--seed"]:
        problems.append("summary.seed does not echo --seed")
    for rec, (u, v) in zip(pairs, expected_pairs):
        if (int(rec["u"]), int(rec["v"])) != (u, v):
            problems.append(f"pair ({rec['u']}, {rec['v']}) out of order, expected ({u}, {v})")
        elif not (rec["match"] is True and rec["roundtrip"] is True):
            problems.append(f"pair ({u}, {v}): match {rec['match']}, roundtrip {rec['roundtrip']}")
        elif int(rec["det_abs"]) != norm_det_abs(n, u, v):
            problems.append(f"pair ({u}, {v}): det_abs {rec['det_abs']} != norm")
    return problems


def check_classify(argv: tuple[str, ...], payload: dict) -> list[str]:
    n, u, v = int(argv[1]), int(argv[2]), int(argv[3])
    c = _ints(argv[4].split("=", 1)[1].split(","))
    nums = _ints(payload["witness_numerators"])
    den = int(payload["witness_denominator"])
    problems = []
    if _ints(payload["d_zeta"]) != c:
        problems.append("d_zeta does not echo --dzeta")
    if den < 1 or gcd(den, *nums) != 1:
        problems.append(f"witness over {den} is not reduced with a positive denominator")
    if _mat_vec(multiplier_matrix(n, u, v), nums) != [den * x for x in c]:
        problems.append("A * numerators != denominator * C")
    if payload["kind"] != ("inner" if den == 1 else "outer"):
        problems.append(f"kind {payload['kind']} disagrees with denominator {den}")
    if int(payload["det_abs"]) != norm_det_abs(n, u, v):
        problems.append(f"det_abs {payload['det_abs']} != norm {norm_det_abs(n, u, v)}")
    return problems


def check_tables(argv: tuple[str, ...], payload: dict) -> list[str]:
    n = int(argv[1])
    expected_pairs = list(combinations(units(n), 2))
    blocks = payload["blocks"]
    problems = []
    if len(blocks) != len(expected_pairs):
        problems.append(f"{len(blocks)} blocks, expected {len(expected_pairs)}")
    for block, (u, v) in zip(blocks, expected_pairs):
        where = f"block ({block['u']}, {block['v']})"
        if (int(block["u"]), int(block["v"])) != (u, v):
            problems.append(f"{where} out of order, expected ({u}, {v})")
            continue
        a = multiplier_matrix(n, u, v)
        det = int(block["det"])
        if [_ints(r) for r in block["matrix"]] != a:
            problems.append(f"{where}: matrix differs from x^j (x^v - x^u) mod Phi_n")
        if abs(det) != int(block["det_abs"]) or abs(det) != norm_det_abs(n, u, v):
            problems.append(f"{where}: det {det} disagrees with det_abs or the norm")
        # Un-reduce each solution row (adj row / det) back to the adjugate row.
        adj_rows = []
        for row in block["solution"]:
            den = int(row["denominator"])
            if den < 1 or det % den:
                problems.append(f"{where}: denominator {den} does not divide det {det}")
                break
            adj_rows.append([x * (det // den) for x in _ints(row["coeffs"])])
        else:
            adj_cols = list(zip(*adj_rows))
            d = len(a)
            for i in range(d):
                got = [sum(x * y for x, y in zip(a[i], col)) for col in adj_cols]
                if got != [det if j == i else 0 for j in range(d)]:
                    problems.append(f"{where}: row {i} of A * adj != det * I")
                    break
    return problems


def check_verify_theorem(argv: tuple[str, ...], payload: dict) -> list[str]:
    opts = dict(zip(argv[4::2], argv[5::2]))
    echo = {"n": argv[1], "u": argv[2], "v": argv[3],
            "trials": opts["--trials"], "seed": opts["--seed"]}
    problems = [f"{k} {payload[k]} != {want}" for k, want in echo.items() if payload[k] != want]
    if payload["passes"] != payload["trials"] or payload["all_pass"] is not True:
        problems.append(f"{payload['passes']} of {payload['trials']} trials passed")
    return problems


def check_counterexamples(argv: tuple[str, ...], payload: dict) -> list[str]:
    cases = payload["cases"]
    problems = [] if cases else ["no cases reported"]
    for case in cases:
        if not case["ok"] or case["ok"] != (case["leibniz_ok"] == case["expects_derivation"]):
            problems.append(f"case {case['name']} not ok")
    if payload["all_ok"] is not True:
        problems.append("all_ok is not true")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "classify": check_classify,
    "tables": check_tables,
    "verify-theorem": check_verify_theorem,
    "counterexamples": check_counterexamples,
}


def check_output(argv: tuple[str, ...], returncode: int, stdout: bytes) -> list[str]:
    """Problems with one invocation's result; exit code 0 and valid JSON are required."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(stdout.decode("utf-8"))
        return CHECKS[argv[0]](argv, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
