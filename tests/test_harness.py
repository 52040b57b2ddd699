import random
import sys
from itertools import combinations
from math import isqrt

import pytest

from cycloderiv import (
    CyclotomicRing,
    Endomorphism,
    IntMatrix,
    MultiplierMatrix,
    RatVector,
    RingForm,
    SweepReport,
    TwistedPair,
    adjugate,
    counterexample_suite,
    det,
    render,
    reproduce_tables,
    sweep,
    totient,
    units,
    verify_theorem,
)
from cycloderiv import arith, cli, endomorphisms, harness

from contract import run_python
from test_golden import run_cli
from reference_tables import (
    KNOWN_BAD_SOLUTION_ROWS,
    REF_N9_DETS,
    REF_N10_BLOCKS,
    REF_N10_DETS,
)


def test_sweep_n10_all_pairs_det_5():
    report = sweep(RingForm.form_2rp(1, 5), seed=0)
    assert len(report.records) == 6
    assert {(r.u, r.v): r.det_abs for r in report.records} == REF_N10_DETS
    assert all(r.match and r.roundtrip for r in report.records)


def test_sweep_n9_dets_follow_the_valuation():
    report = sweep(RingForm.form_pk(3, 2), seed=0)
    assert len(report.records) == 15
    assert {(r.u, r.v): r.det_abs for r in report.records} == REF_N9_DETS
    for r in report.records:
        assert r.det_abs == (27 if r.e1 == 1 else 3)
        assert r.match and r.roundtrip


def test_sweep_n12_matches_and_det_multiset():
    report = sweep(RingForm.form_2rp(2, 3), seed=0)
    assert len(report.records) == 6
    assert all(r.match and r.roundtrip for r in report.records)
    assert sorted(r.det_abs for r in report.records) == [1, 1, 9, 9, 16, 16]


def test_sweep_record_count_formula():
    for form in (
        RingForm.form_2rp(1, 7),
        RingForm.form_pk(2, 4),
        RingForm.form_pk(3, 2),
    ):
        report = sweep(form, seed=0)
        d = totient(form.n)
        assert len(report.records) == d * (d - 1) // 2


def test_sweep_records_sorted_by_pair():
    report = sweep(RingForm.form_pk(3, 2), seed=0)
    pairs = [(r.u, r.v) for r in report.records]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


@pytest.mark.parametrize("run", [
    lambda: sweep(RingForm.form_pk(3, 2)).records,
    lambda: reproduce_tables(9).blocks,
], ids=["sweep", "tables"])
def test_pair_walk_builds_each_endomorphism_once_in_combination_order(monkeypatch, run):
    built = []
    zeta_power = Endomorphism.zeta_power.__func__

    def counting(cls, ring, u):
        built.append(u)
        return zeta_power(cls, ring, u)

    monkeypatch.setattr(Endomorphism, "zeta_power", classmethod(counting))
    visited = [(r.u, r.v) for r in run()]
    assert len(built) == totient(9)
    assert visited == list(combinations(units(9), 2))


def test_sweep_cap_is_enforced():
    with pytest.raises(ValueError, match="cap"):
        sweep(RingForm.form_pk(5, 2), seed=0, cap=10)


def test_sweep_is_deterministic_per_seed():
    a = sweep(RingForm.form_2rp(1, 5), seed=123)
    b = sweep(RingForm.form_2rp(1, 5), seed=123)
    assert a.records == b.records
    for fmt in ("json", "csv"):
        assert render(harness._sweep_report(a), fmt) == render(harness._sweep_report(b), fmt)


def test_phi_is_at_least_the_root_of_half_n():
    # the bound check_degree states when it refuses n without factoring it
    assert all(totient(n) >= isqrt(n // 2) for n in range(1, 5000))


def _no_totient(n):
    raise AssertionError(f"phi({n}) computed above the limit")


@pytest.mark.parametrize("cap", [-3, 0, 1, 2, 8, 64])
def test_check_degree_refuses_above_the_limit_without_factoring(monkeypatch, cap):
    limit = arith._factor_limit(cap)
    assert isqrt((limit + 1) // 2) > cap

    monkeypatch.setattr(arith, "totient", _no_totient)
    for n in (limit + 1, 10**18 + 3, 3**2000):
        with pytest.raises(ValueError, match=f">= [0-9]+ exceeds the cap {cap};"):
            arith.check_degree(n, cap)


def test_check_degree_at_the_limit_names_the_exact_degree():
    limit = arith._factor_limit(64)
    with pytest.raises(ValueError, match=f"^ring degree {totient(limit)} exceeds the cap 64;"):
        arith.check_degree(limit, 64)
    assert arith.check_degree(49, 64) == 42
    assert harness.check_degree is arith.check_degree


def test_check_degree_states_an_n_beyond_the_decimal_limit_by_bit_length(monkeypatch):
    monkeypatch.setattr(arith, "totient", _no_totient)
    n = 3**10000  # 4772 digits, above Python's default 4300-digit conversion limit
    assert (n.bit_length(), isqrt(n // 2).bit_length()) == (15850, 7925)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as refused:
            arith.check_degree(n)
        # 3**2000 (955 digits) still reads in decimal
        stated = f"^ring degree phi\\({3**2000}\\) >= {isqrt(3**2000 // 2)} exceeds"
        with pytest.raises(ValueError, match=stated):
            arith.check_degree(3**2000)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(refused.value) == (
        "ring degree phi(n) of a 15850-bit n >= 2^7924 exceeds the cap 64; raise the cap to proceed"
    )


def test_phi_is_at_least_n_over_its_bit_length():
    # the j-th smallest prime factor of n is at least j + 1, and n has fewer
    # than n.bit_length() of them
    assert all(totient(n) >= n // n.bit_length() for n in range(1, 20000))


@pytest.mark.parametrize("cap", [-3, 0, 1, 2, 8, 64])
def test_up_to_the_default_cap_only_n_above_the_limit_goes_unfactored(cap):
    # so every refusal at these caps names what it named before the second bound
    limit = arith._factor_limit(cap)
    for n in (1, 2, 100003, limit - 1, limit, limit + 1, 10**18 + 3, 3**2000):
        assert arith._degree_bound(n, cap) == (isqrt(n // 2) if n > limit else None)


def _no_trial_division(n):
    raise AssertionError(f"trial division of {n}")


def test_check_degree_at_a_large_cap_refuses_without_trial_division(monkeypatch):
    monkeypatch.setattr(arith, "_prime_factors", _no_trial_division)
    # isqrt(n // 2) = 707106781 is below this cap; n // n.bit_length() is not
    with pytest.raises(ValueError) as refused:
        arith.check_degree(10**18 + 3, 10**9)
    assert str(refused.value) == (
        "ring degree phi(1000000000000000003) >= 16666666666666666 exceeds the cap "
        "1000000000; raise the cap to proceed"
    )


def test_every_stated_bound_is_below_phi_and_above_the_cap():
    rng = random.Random(7)
    limit = arith._factor_limit(64)
    for cap in (100, 10**4, 10**6, 10**8):
        for n in (rng.randrange(limit, 10**10) for _ in range(60)):
            bound = arith._degree_bound(n, cap)
            if bound is None:
                assert n // n.bit_length() <= cap
            else:
                assert totient(n) >= bound > cap


@pytest.mark.parametrize("form", [["pk", "--k", "2"], ["2rp", "--r", "1"]])
def test_sweep_at_a_large_cap_refuses_a_huge_p_before_testing_it(monkeypatch, form):
    monkeypatch.setattr(arith, "_prime_factors", _no_trial_division)
    kind, *exponent = form
    code, _, err = run_cli(["sweep", "--form", kind, "--p", str(10**18 + 3), *exponent, "--cap", str(10**9)])
    assert code == 2
    assert err.endswith(" exceeds the cap 1000000000; raise the cap to proceed\n")


def test_an_n_no_list_can_index_is_refused_before_it_is_factored(monkeypatch):
    # n // n.bit_length() <= phi(n), and past sys.maxsize no list holds Phi_n;
    # every n from the Miller-Rabin limit up is past it, so neither
    # check_degree nor a sweep form trial-divides such an n or its p
    monkeypatch.setattr(arith, "_prime_factors", _no_trial_division)
    limit = arith._MILLER_RABIN_LIMIT
    assert limit // limit.bit_length() > sys.maxsize
    for n in (limit, 3317044064679887385962123, 2**100):
        bits = (n // n.bit_length()).bit_length() - 1
        with pytest.raises(ValueError, match=rf"^ring degree phi\(n\) of a {n.bit_length()}-bit n >= 2\^{bits} has more"):
            arith.check_degree(n, 10**30)
    # a form is bounded by its p, which divides n, or by its exponent
    for form, stated in (
        (["2rp", "--r", "1", "--p", "3317044064679887385962123"], "2^1*3317044064679887385962123 >= 2^75"),
        (["pk", "--p", "2", "--k", "100"], "2^100 >= 2^99"),
    ):
        assert run_cli(["sweep", "--form", *form, "--cap", str(10**30)]) == (
            2, "", f"error: ring degree phi(n) of n = {stated} has more coefficients than a list can hold\n"
        )
    # below the list limit, and at n <= 0, the check leaves n to the others
    for n in (sys.maxsize * 64, 0, -5):
        assert arith.check_indexable(n) is None


# RingForm arguments and the refusal: the exponent refuses the fourth and
# fifth by its bit length, before n is built (3^(10^7) alone takes seconds);
# p refuses the first three, which are above the Miller-Rabin limit, where
# is_prime would refuse to test p; the closed-form degree
# p (p - 1), about 2^69, refuses the last
OVERSIZED_FORMS = [
    (("pk", 2**89 - 1, None, 2), "618970019642690137449562111^2 >= 2^82"),
    (("2rp", 2**89 - 1, 1), "2^1*618970019642690137449562111 >= 2^82"),
    (("2rp", 3317044064679887385962123, 1), "2^1*3317044064679887385962123 >= 2^75"),
    (("pk", 3, None, 10**7), "3^10000000 >= 2^9999999"),
    (("2rp", 3, 10**7), "2^10000000*3 >= 2^9999999"),
    (("pk", 2**35 - 31, None, 2), "34359738337^2 >= 2^69"),
]


def test_an_oversized_ring_form_is_refused_in_bounded_time():
    # in a child with a time budget, so a form that hangs fails the test
    # instead of stopping the run
    script = (
        "from cycloderiv import RingForm, sweep\n"
        f"for args in {[args for args, _ in OVERSIZED_FORMS]!r}:\n"
        "    try:\n"
        "        sweep(RingForm(*args))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_python("-c", script, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"ring degree phi(n) of n = {stated} has more coefficients than a list can hold"
        for _, stated in OVERSIZED_FORMS
    ]



@pytest.mark.parametrize("cap", [None, 64])
@pytest.mark.parametrize("kind, label", [("pk", "n = 3^(a 16610-bit k)"), ("2rp", "n = 2^(a 16610-bit r)*3")])
def test_an_exponent_too_long_to_write_is_refused_by_its_bit_length(kind, label, cap):
    # 10^5000 has more digits than Python writes in decimal, so the refusal
    # states the exponent, and the bound 2^(e - 1), by bit length
    with pytest.raises(ValueError) as refused:
        RingForm(kind, 3, **{"k" if kind == "pk" else "r": 10**5000}, cap=cap)
    assert str(refused.value) == (
        f"ring degree of {label} exceeds the cap 64; raise the cap to proceed" if cap else
        f"ring degree phi(n) of {label} >= 2^(a 16610-bit exponent) has more coefficients "
        "than a list can hold"
    )

def _forms_up_to(degree):
    """Every form whose closed-form degree is at most ``degree``, from a sieve, not from arith."""
    primes = [q for q in range(2, degree + 2) if all(q % f for f in range(2, isqrt(q) + 1))]
    forms = []
    for p in primes:
        forms += [("2rp", p, r, None) for r in range(1, degree.bit_length() + 1)
                  if p > 2 and 2 ** (r - 1) * (p - 1) <= degree]
        forms += [("pk", p, None, k) for k in range(2, degree.bit_length() + 1)
                  if p ** (k - 1) * (p - 1) <= degree]
    return forms


def test_a_forms_closed_form_degree_is_phi_n_and_is_refused_exactly_above_the_cap():
    forms = _forms_up_to(256)
    assert len(forms) == 140
    for args in forms:
        degree = totient(RingForm(*args).n)
        assert RingForm(*args).degree() == degree, args
        for cap in range(257):
            if degree > cap:
                with pytest.raises(ValueError, match=f" exceeds the cap {cap}; raise the cap"):
                    RingForm(*args, cap=cap)
            else:
                assert RingForm(*args, cap=cap).degree(cap) == degree, (args, cap)


@pytest.mark.parametrize("kind, exponent", [("pk", {"k": 2}), ("2rp", {"r": 1})])
def test_a_composite_p_is_refused_without_factoring_it(monkeypatch, kind, exponent):
    # two 34-bit primes: rho would split p in about 0.1 s; one Miller-Rabin
    # test refuses it, and the closed form would over-count its degree
    monkeypatch.setattr(arith, "_prime_factors", _no_trial_division)
    p = 8589934609 * 8590983187
    with pytest.raises(ValueError, match=f"^form {kind} requires (an odd|a) prime p, got {p}$"):
        RingForm(kind, p, **exponent, cap=10**30)


def test_verify_theorem_reference_runs():
    assert verify_theorem(10, 1, 3, trials=100, seed=42).passes == 100
    assert verify_theorem(9, 2, 5, trials=100, seed=7).passes == 100
    verdict = verify_theorem(12, 5, 7, trials=10, seed=1)
    assert verdict.passes == 10
    assert verdict.all_pass


def test_verify_theorem_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_theorem(10, 2, 3)  # gcd(2, 10) != 1
    with pytest.raises(ValueError):
        verify_theorem(10, 3, 3)
    with pytest.raises(ValueError):
        verify_theorem(10, 1, 3, trials=0)
    for trials in (100_001, 10**4300):  # refused at once, without the count
        with pytest.raises(ValueError, match="^trials must be at most 100000$"):
            verify_theorem(10, 1, 3, trials=trials)


def test_verify_theorem_refuses_an_over_cap_degree_before_building_a_ring(monkeypatch):
    def no_ring(n):
        raise AssertionError(f"built the ring of n = {n}")

    monkeypatch.setattr(endomorphisms, "CyclotomicRing", no_ring)
    with pytest.raises(ValueError, match="^ring degree 100002 exceeds the cap 64;"):
        verify_theorem(100003, 1, 2, trials=1)
    with pytest.raises(ValueError, match="^ring degree 100002 exceeds the cap 1000;"):
        verify_theorem(100003, 1, 2, trials=0, cap=1000)  # the degree is checked first


def test_cli_verify_theorem_passes_its_cap_to_the_library(monkeypatch):
    monkeypatch.setattr(cli, "check_degree", lambda n, cap: None)
    code, _, err = run_cli(["verify-theorem", "23", "1", "2", "--cap", "10"])
    assert code == 2
    assert err.startswith("error: ring degree 22 exceeds the cap 10;")


def test_counterexample_suite_verdicts():
    cases = counterexample_suite()
    by_name = {c.name: c for c in cases}
    assert all(c.ok for c in cases)
    assert not by_name["sixth-roots-square-twist"].leibniz_ok
    assert not by_name["truncated-x^3-scale-2"].leibniz_ok
    assert by_name["truncated-x^3-scale-2-zero-map"].leibniz_ok
    # one failing case per (r, m) combination plus the two extras
    assert len(cases) == 8


def test_tables_n10_blocks_and_identity():
    artifact = reproduce_tables(10)
    assert len(artifact.blocks) == 6
    for block in artifact.blocks:
        assert abs(block.det) == 5
        d = block.matrix.rows
        for i, row in enumerate(block.solution_rows):
            # row . A = denominator * e_i: the template is the exact inverse
            prod = tuple(
                sum(row.numerators[k] * block.matrix.at(k, j) for k in range(d))
                for j in range(d)
            )
            assert prod == tuple(row.denominator if j == i else 0 for j in range(d))


def _assert_table_rows_are_the_adjugate_over_det(n):
    artifact = reproduce_tables(n)
    for block in artifact.blocks:
        assert block.det == det(block.matrix) != 0
        assert block.matrix == MultiplierMatrix(
            TwistedPair.zeta_powers(CyclotomicRing(n), block.u, block.v)
        ).matrix
        adj = adjugate(block.matrix)
        assert block.solution_rows == tuple(
            RatVector.reduced(adj.row(i), block.det) for i in range(block.matrix.rows)
        )
    return len(artifact.blocks)


@pytest.mark.parametrize("n", [9, 10, 12, 21])
def test_tables_rows_are_the_adjugate_over_det(n):
    assert _assert_table_rows_are_the_adjugate_over_det(n) == totient(n) * (totient(n) - 1) // 2


@pytest.mark.slow
@pytest.mark.parametrize("n", [25, 27])
def test_tables_rows_are_the_adjugate_over_det_slow(n):
    assert _assert_table_rows_are_the_adjugate_over_det(n) == totient(n) * (totient(n) - 1) // 2


def test_tables_reject_a_tampered_inverse(monkeypatch):
    inverse = harness.multiplier_inverse

    def tampered(pair):
        num, m = inverse(pair)
        return 2 * num, m

    monkeypatch.setattr(harness, "multiplier_inverse", tampered)
    with pytest.raises(ArithmeticError, match="does not satisfy delta \\* num = 5"):
        reproduce_tables(10)


def test_tables_n9_dets_match_reference():
    artifact = reproduce_tables(9)
    assert {(b.u, b.v): abs(b.det) for b in artifact.blocks} == REF_N9_DETS


def test_tables_unsupported_n():
    with pytest.raises(ValueError):
        reproduce_tables(2)
    with pytest.raises(ValueError):
        reproduce_tables(25, cap=10)


def _global_sign(block_matrix, ref_rows):
    for i, ref_row in enumerate(ref_rows):
        for j, r in enumerate(ref_row):
            if r:
                ours = block_matrix.at(i, j)
                assert ours in (r, -r), "entry differs by more than a sign"
                return 1 if ours == r else -1
    raise AssertionError("reference matrix is zero")


def test_reference_blocks_match_up_to_one_global_sign():
    artifact = reproduce_tables(10)
    blocks = {(b.u, b.v): b for b in artifact.blocks}
    for (u, v), ref in REF_N10_BLOCKS.items():
        block = blocks[(u, v)]
        sign = _global_sign(block.matrix, ref["matrix"])
        assert block.matrix == IntMatrix.from_rows(
            [[sign * x for x in row] for row in ref["matrix"]]
        )
        assert abs(block.det) == ref["det"]
        bad_rows = KNOWN_BAD_SOLUTION_ROWS.get((u, v), set())
        for i, ref_row in enumerate(ref["solution_rows"]):
            expected = RatVector.reduced(
                (sign * x for x in ref_row), ref["denominator"]
            )
            if i in bad_rows:
                # informational only: the reference cell is internally
                # inconsistent, so our independently solved row must differ
                assert block.solution_rows[i] != expected
            else:
                assert block.solution_rows[i] == expected


def test_flagged_reference_rows_really_are_inconsistent():
    # the allowlisted rows fail row . A = det * e_i against their own matrix
    for (u, v), rows in KNOWN_BAD_SOLUTION_ROWS.items():
        ref = REF_N10_BLOCKS[(u, v)]
        d = len(ref["matrix"])
        for i in rows:
            row = ref["solution_rows"][i]
            prod = tuple(
                sum(row[k] * ref["matrix"][k][j] for k in range(d)) for j in range(d)
            )
            assert prod != tuple(ref["det"] if j == i else 0 for j in range(d))


def test_empty_report_is_well_formed():
    report = SweepReport(
        form=RingForm.form_2rp(1, 5), records=(), seed=0, version="0.1.0"
    )
    assert report.matches == 0
    assert report.all_ok
