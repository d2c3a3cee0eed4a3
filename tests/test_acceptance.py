"""Acceptance gate: one test per criterion, every equality exact.

Each test prints a single PASS line when its criterion holds; pytest turns
any violation into a failure for that criterion alone.
"""

from fractions import Fraction
from math import comb

from fanocount.conics import (
    chern_Ed_series,
    conic_factor_report,
    deg_conics,
    deg_conics_bott,
    deg_conics_closed,
    deg_conics_untwisted_sum,
    eta_form,
    fixed_point_census,
    generic_conic_weights,
)
from fanocount.classification import IrregularityCase, irregularity_classify, picard_number
from fanocount.errors import ProblemSpec, RegimeError
from fanocount.invariants import (
    combinatorial_identity,
    surface_invariants,
    sym_power_coeffs,
    sym_power_coeffs_small,
)
from fanocount.planes import TorusWeights, deg_planes_bott, deg_planes_dm
from fanocount.polycore import weighted_linear_product


def _report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def _surface(degrees, r, k):
    return surface_invariants(ProblemSpec(degrees, r, k))


def test_criterion_01_cubic_threefold():
    s = _surface((3,), 4, 1)
    c = sym_power_coeffs(3, 1)
    assert s.deg_f == 45
    assert s.c2_integral == 27
    assert (c.alpha, c.beta, c.gamma) == (11, 10, 6)
    assert (s.a_coeff, s.b_coeff) == (6, -9)
    assert s.euler == 27
    assert s.k_delta == 45
    assert s.chi_o == 6
    _report(1, "lines on cubic threefolds: 45/27/(11,10,6)/(6,-9)/27/45/6")


def test_criterion_02_quintic_fourfold():
    s = _surface((5,), 5, 1)
    assert s.deg_f == 6125
    assert s.c2_integral == 2875
    assert sym_power_coeffs_small(5, 1) == (85, 35)
    assert (s.a_coeff, s.b_coeff) == (66, -33)
    assert s.euler == 309375
    assert s.k_delta == 496125
    assert s.chi_o == 67125
    # closed form for A along the d = 2r-5 family
    poly_a = lambda r: (6 * r**4 - 56 * r**3 + 177 * r**2 - 211 * r + 78) // 3  # noqa: E731
    assert poly_a(5) == 66
    for r in range(4, 9):
        spec = ProblemSpec((2 * r - 5,), r, 1)
        from fanocount.invariants import AB_coeffs
        assert AB_coeffs(spec)[0] == poly_a(r)
    _report(2, "lines on quintic fourfolds: 6125/2875/(85,35)/(66,-33)/309375/496125/67125"
               " and A(5) = 66")


def test_criterion_03_two_quadrics():
    s = _surface((2, 2), 5, 1)
    assert s.deg_f == 32
    assert s.c2_integral == 16
    for c in s.per_degree:
        assert (c.alpha, c.beta, c.gamma) == (2, 4, 3)
    assert (s.a_coeff, s.b_coeff) == (3, -6)
    assert s.euler == 0
    assert s.k_delta == 0
    assert s.chi_o == 0
    _report(3, "lines on two quadrics in P^5: 32/16/(2,4,3)/(3,-6)/0/0/0")


def test_criterion_04_cubic_fivefold():
    s = _surface((3,), 6, 2)
    c = sym_power_coeffs(3, 2)
    assert s.deg_f == 2835
    assert s.c2_integral == 1701
    assert (c.alpha, c.beta, c.gamma) == (40, 15, 10)
    assert (s.a_coeff, s.b_coeff) == (13, -14)
    assert s.euler == 13041
    assert s.k_delta == 25515
    assert s.chi_o == 3213
    _report(4, "planes on cubic fivefolds: 2835/1701/(40,15,10)/(13,-14)/13041/25515/3213")


def test_criterion_05_conic_anchor():
    assert deg_conics(4, 3) == 2508
    assert fixed_point_census(3) == 24
    _report(5, "quartic-surface conic locus has degree 2508; 24 fixed conics in P^3")


def test_criterion_06_method_agreement_grid():
    checked = 0
    for k in (1, 2):
        for r in range(3, 7):
            if 2 * k >= r:
                continue
            for d in range(3, 7):
                gamma = comb(d + k, k) - (k + 1) * (r - k)
                if gamma <= 0:
                    continue
                reference = deg_planes_dm(d, r, k)
                for seed in (101, 202):
                    weights = TorusWeights.random(r, seed)
                    assert deg_planes_bott(d, r, k, weights) == reference
                checked += 1
    assert checked == 11
    _report(6, f"coefficient extraction agrees with the fixed-point sum on all "
               f"{checked} grid cells, two weight draws each")


def test_criterion_07_series_identity():
    for r in (3, 4):
        bound = 3 * r - 1
        for d in range(2, 6):
            series = chern_Ed_series(d, bound)
            if d == 2:
                divisor = weighted_linear_product(2, 1, affine=True, bound=bound) ** 0
            else:
                divisor = weighted_linear_product(2, d - 2, affine=True, bound=bound)
            lhs = series.mul(divisor, bound=bound)
            rhs = weighted_linear_product(2, d, affine=True, bound=bound)
            assert lhs == rhs
    _report(7, "restriction-bundle Chern series times its divisor reproduces the "
               "full symmetric-power series, d = 2..5, r = 3..4")


def test_criterion_08_combinatorics():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for k in range(7):
                lhs, rhs = combinatorial_identity(n, m, k)
                assert lhs == rhs
    for n in range(1, 13):
        for k in (1, 2):
            c = sym_power_coeffs(n, k)
            assert sym_power_coeffs_small(n, k) == (c.alpha, c.beta)
    for n in range(1, 13):
        for k in range(5):
            sym_power_coeffs(n, k)     # integrality asserted inside
    _report(8, "hockey-stick style identity, simplified alpha/beta forms, and "
               "alpha integrality hold on the full grids")


def test_criterion_09_classification_grids():
    irregular = set()
    for k in range(1, 6):
        for r in range(3, 13):
            pool = [(d,) for d in range(2, 6)]
            pool += [(d1, d2) for d1 in range(2, 6) for d2 in range(d1, 6)]
            for degrees in pool:
                spec = ProblemSpec(degrees, r, k)
                if spec.delta < 2:
                    continue
                try:
                    result = irregularity_classify(spec)
                except RegimeError:
                    continue
                if result.case is not IrregularityCase.REGULAR:
                    irregular.add((degrees, r, k))
    expected = {((3,), 4, 1), ((3,), 6, 2)}
    expected |= {((2, 2), 2 * k + 3, k) for k in range(1, 5)}
    assert irregular == expected

    # the three exceptional Picard clauses plus the default
    assert picard_number(ProblemSpec((2,), 7, 3)).components == 2
    assert picard_number(ProblemSpec((2,), 7, 3)).rho == 1
    assert picard_number(ProblemSpec((2,), 5, 1)).rho == 2
    assert picard_number(ProblemSpec((2, 2), 6, 1)).rho == 8
    assert picard_number(ProblemSpec((2, 2), 8, 2)).rho == 10
    assert picard_number(ProblemSpec((3,), 7, 1)).rho == 1
    _report(9, "exactly the three known families are irregular on the grid; "
               "Picard exceptions reproduced")


def test_criterion_10_noether_divisibility():
    checked = 0
    for k in (1, 2):
        for r in range(3, 9):
            for m in (1, 2):
                if r < 2 * k + m:
                    continue
                pool = [(d,) for d in range(2, 7)] if m == 1 else \
                       [(d1, d2) for d1 in range(2, 7) for d2 in range(d1, 7)]
                for degrees in pool:
                    spec = ProblemSpec(degrees, r, k)
                    if spec.delta != 2:
                        continue
                    report = surface_invariants(spec)
                    assert (report.k_delta + report.euler) % 12 == 0
                    checked += 1
    assert checked >= 8
    _report(10, f"12 divides K^2 + e on all {checked} surface-case specs in the grid")


def test_criterion_11_open_question_artifact():
    report = conic_factor_report()
    # the generated report documents the measured factor against -5/32,
    # with the 2508 anchor deciding
    assert "anchor reproduced                           : True" in report
    assert "-(5/32)" in report
    assert str(Fraction(5016, 4 * 14528256)) in report
    assert "2508" in report
    # both published code paths remain runnable
    untwisted = deg_conics_untwisted_sum(4, 3, (1, 2, 5, 7))
    assert isinstance(untwisted, Fraction)
    closed = deg_conics_closed(5, 3)
    assert closed.value == -Fraction(5, 32) * comb(4, 3) * eta_form(5, 3).evaluate((1, 1, 1))
    # and the validated route stands apart from both
    bott = deg_conics_bott(4, 3, generic_conic_weights(3, seed=5))
    assert bott.value == 5016 and bott.is_integral
    assert not closed.consistent
    _report(11, "conic-route reconciliation report generated; the 2508 anchor "
                "selects the twisted fixed-point sum over both published factors")
