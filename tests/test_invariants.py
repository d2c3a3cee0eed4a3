from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanocount.classification import IrregularityCase, irregularity_classify, picard_number
from fanocount.errors import InconsistencyError, ProblemSpec, RegimeError
from fanocount.invariants import (
    AB_coeffs,
    canonical_coefficient,
    canonical_degree,
    combinatorial_identity,
    is_smooth_fano,
    surface_invariants,
    sym_power_coeffs,
    sym_power_coeffs_small,
)
from fanocount.planes import c2_fano_integral, deg_fano

from oracles import fano_scheme_empty
from test_source import documented_regime_codes


# ---------------------------------------------------------------------------
# symmetric-power Chern coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,expected", [
    (3, 1, (11, 10, 6)),
    (2, 1, (2, 4, 3)),
    (3, 2, (40, 15, 10)),
    (5, 1, (85, 35, 15)),
])
def test_sym_power_coeffs(n, k, expected):
    c = sym_power_coeffs(n, k)
    assert (c.alpha, c.beta, c.gamma) == expected


@pytest.mark.parametrize("n,k,expected", [(3, 1, (11, 10)), (5, 1, (85, 35)), (3, 2, (40, 15))])
def test_sym_power_coeffs_small(n, k, expected):
    assert sym_power_coeffs_small(n, k) == expected


def test_sym_power_coeffs_small_only_low_rank():
    for k in (0, 3):
        with pytest.raises(RegimeError) as err:
            sym_power_coeffs_small(3, k)
        assert err.value.code == "no-closed-form"


def test_closed_form_remainder_guard_keeps_its_message(monkeypatch):
    # (3n + 2) C(n+1, 3) is always a multiple of 4; the guard is shown with each binomial
    # one too large: 11 (4 + 1) = 55 leaves 3 at n = 3
    import fanocount.invariants as invariants
    monkeypatch.setattr(invariants, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(InconsistencyError, match=r"closed-form alpha\(3,1\) leaves remainder 3"):
        sym_power_coeffs_small(3, 1)


@pytest.mark.parametrize("function", [sym_power_coeffs, sym_power_coeffs_small])
@pytest.mark.parametrize("n,k,code", [(0, 1, "degree-too-small"), (-2, 1, "degree-too-small"),
                                      (3, -1, "plane-dimension"),
                                      (2.0, 1, "not-an-integer"),
                                      (3, Fraction(1), "not-an-integer")])
def test_sym_power_coeffs_range_codes(function, n, k, code):
    with pytest.raises(RegimeError) as err:
        function(n, k)
    assert err.value.code == code


def test_simplified_forms_agree_with_general():
    for n in range(1, 13):
        for k in (1, 2):
            c = sym_power_coeffs(n, k)
            assert sym_power_coeffs_small(n, k) == (c.alpha, c.beta)


def test_alpha_always_integral():
    for n in range(1, 13):
        for k in range(5):
            sym_power_coeffs(n, k)   # raises if the halves fail to cancel


# ---------------------------------------------------------------------------
# combinatorial identity
# ---------------------------------------------------------------------------

def test_combinatorial_identity_examples():
    assert combinatorial_identity(1, 1, 0) == (1, 1)
    assert combinatorial_identity(3, 2, 1) == (4, 4)
    lhs, rhs = combinatorial_identity(6, 3, 2)
    assert lhs == rhs == 56


@pytest.mark.parametrize("n,m,k", [(1, 2, 0), (3, 0, 1), (3, 2, -1)])
def test_combinatorial_identity_range_code(n, m, k):
    with pytest.raises(RegimeError) as err:
        combinatorial_identity(n, m, k)
    assert err.value.code == "identity-range"


@pytest.mark.parametrize("n,m,k", [(3.0, 1, 0), (3, "1", 0), (3, 1, Fraction(0))])
def test_combinatorial_identity_refuses_non_integers(n, m, k):
    with pytest.raises(RegimeError) as err:
        combinatorial_identity(n, m, k)
    assert err.value.code == "not-an-integer"


def test_combinatorial_identity_grid():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for k in range(7):
                lhs, rhs = combinatorial_identity(n, m, k)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# A, B and canonical data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_args,expected", [
    (((3,), 4, 1), (6, -9)),
    (((2, 2), 5, 1), (3, -6)),
    (((3,), 6, 2), (13, -14)),
    (((5,), 5, 1), (66, -33)),
])
def test_AB_coeffs(spec_args, expected):
    degrees, r, k = spec_args
    assert AB_coeffs(ProblemSpec(degrees, r, k)) == expected


def test_canonical_coefficient_and_fano_flag():
    assert canonical_coefficient(ProblemSpec((3,), 4, 1)) == 1
    assert canonical_coefficient(ProblemSpec((2, 2), 5, 1)) == 0
    assert canonical_coefficient(ProblemSpec((3,), 6, 2)) == 3
    assert is_smooth_fano(ProblemSpec((2,), 5, 1))
    assert not is_smooth_fano(ProblemSpec((3,), 4, 1))


def test_canonical_degree():
    assert canonical_degree(ProblemSpec((3,), 4, 1), 45) == 45
    assert canonical_degree(ProblemSpec((2, 2), 5, 1), 32) == 0
    assert canonical_degree(ProblemSpec((5,), 5, 1), 6125) == 496125
    with pytest.raises(RegimeError) as err:
        canonical_degree(ProblemSpec((8,), 4, 1), 1)    # delta = -3
    assert err.value.code == "delta-negative"


# ---------------------------------------------------------------------------
# surface invariants
# ---------------------------------------------------------------------------

SURFACE_EXPECTATIONS = {
    ((3,), 4, 1): dict(deg=45, c2=27, A=6, B=-9, e=27, K2=45, chi=6,
                       p_a=5, signature=-3),
    ((5,), 5, 1): dict(deg=6125, c2=2875, A=66, B=-33, e=309375, K2=496125,
                       chi=67125, p_a=67124, signature=-40875),
    ((2, 2), 5, 1): dict(deg=32, c2=16, A=3, B=-6, e=0, K2=0, chi=0,
                         p_a=-1, signature=0),
    ((3,), 6, 2): dict(deg=2835, c2=1701, A=13, B=-14, e=13041, K2=25515,
                       chi=3213, p_a=3212, signature=-189),
}


@pytest.mark.parametrize("spec_args,expected", sorted(SURFACE_EXPECTATIONS.items()))
def test_surface_invariants(spec_args, expected):
    degrees, r, k = spec_args
    report = surface_invariants(ProblemSpec(degrees, r, k))
    assert report.deg_f == expected["deg"]
    assert report.c2_integral == expected["c2"]
    assert report.a_coeff == expected["A"]
    assert report.b_coeff == expected["B"]
    assert report.euler == expected["e"]
    assert report.k_delta == expected["K2"]
    assert report.chi_o == expected["chi"]
    assert report.p_a == expected["p_a"]
    assert report.signature == expected["signature"]
    assert report.euler == report.a_coeff * report.deg_f + report.b_coeff * report.c2_integral
    assert 12 * report.chi_o == report.k_delta + report.euler
    assert report.signature == 4 * report.chi_o - report.euler


def test_surface_invariants_regime():
    with pytest.raises(RegimeError) as err:
        surface_invariants(ProblemSpec((3,), 5, 1))
    assert err.value.code == "delta-not-two"


def test_noether_guard_keeps_its_message(monkeypatch):
    # K^2 + e is 12 chi(O) on every surface spec; the guard is shown with K^2 one too large:
    # 45 + 1 + 27 for the lines on a cubic threefold
    import fanocount.invariants as invariants
    canonical = invariants.canonical_degree
    monkeypatch.setattr(invariants, "canonical_degree",
                        lambda spec, deg_f: canonical(spec, deg_f) + 1)
    with pytest.raises(InconsistencyError, match=r"K\^2 \+ e = 73 is not divisible by 12"):
        surface_invariants(ProblemSpec((3,), 4, 1))


def delta2_specs(max_r=8, max_d=6):
    """All surface-case specs with k <= 2, m <= 2 in the box."""
    found = []
    for k in (1, 2):
        for r in range(3, max_r + 1):
            if r < 2 * k + 1:
                continue
            for m in (1, 2):
                if r < 2 * k + m:
                    continue
                if m == 1:
                    pool = [(d,) for d in range(2, max_d + 1)]
                else:
                    pool = [(d1, d2) for d1 in range(2, max_d + 1)
                            for d2 in range(d1, max_d + 1)]
                for degrees in pool:
                    spec = ProblemSpec(degrees, r, k)
                    if spec.delta == 2:
                        found.append(spec)
    return found


def test_noether_divisibility_on_delta2_grid():
    specs = delta2_specs()
    assert len(specs) >= 8    # the box is genuinely populated
    for spec in specs:
        report = surface_invariants(spec)   # raises on any 12-divisibility failure
        assert report.k_delta + report.euler == 12 * report.chi_o


def surface_spec_for(degrees: tuple[int, ...], k: int) -> ProblemSpec | None:
    """The spec with delta = 2 for these degrees and k, if r is an integer."""
    dim_grassmannian = 2 + sum(comb(d + k, k) for d in degrees)    # (k+1)(r-k)
    if dim_grassmannian % (k + 1):
        return None
    return ProblemSpec(degrees, k + dim_grassmannian // (k + 1), k)


@st.composite
def surface_specs(draw):
    """Non-empty delta = 2 specs with degrees 2..6, m <= 3, k <= 3 and r <= 12;
    r is solved from delta = 2.  Size budget: the slowest spec in the box,
    ((2, 3), 11, 3), takes about 20 ms."""
    degrees = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    specs = [spec for spec in (surface_spec_for(degrees, k) for k in (1, 2, 3))
             if spec is not None and spec.r <= 12 and not fano_scheme_empty(spec)]
    assume(specs)
    return draw(st.sampled_from(specs))


@settings(max_examples=60, deadline=None)
@given(surface_specs())
def test_noether_holds_on_random_surface_specs(spec):
    report = surface_invariants(spec)
    assert spec.delta == 2
    assert report.k_delta + report.euler == 12 * report.chi_o
    assert report.p_a == report.chi_o - 1


# ---------------------------------------------------------------------------
# classifications
# ---------------------------------------------------------------------------

def test_irregular_cases():
    assert irregularity_classify(ProblemSpec((3,), 4, 1)).case \
        is IrregularityCase.CUBIC_THREEFOLD_LINES
    assert irregularity_classify(ProblemSpec((3,), 6, 2)).case \
        is IrregularityCase.CUBIC_FIVEFOLD_PLANES
    result = irregularity_classify(ProblemSpec((2, 2), 7, 2))
    assert result.case is IrregularityCase.TWO_QUADRICS and result.k == 2


def test_regular_cases():
    assert irregularity_classify(ProblemSpec((4,), 9, 1)).case is IrregularityCase.REGULAR
    assert irregularity_classify(ProblemSpec((2,), 6, 2)).case is IrregularityCase.REGULAR
    assert irregularity_classify(ProblemSpec((2, 2), 6, 1)).case is IrregularityCase.REGULAR


def test_classification_normalizes_degree_order():
    a = irregularity_classify(ProblemSpec((2, 2), 5, 1))
    assert a.case is IrregularityCase.TWO_QUADRICS and a.k == 1


def test_classification_rejects_out_of_hypothesis():
    with pytest.raises(RegimeError) as err:
        irregularity_classify(ProblemSpec((2,), 5, 2))   # quadric in P^{2k+1}
    assert err.value.code == "reducible-fano"
    # delta = 1: out of the dimension hypothesis
    with pytest.raises(RegimeError) as err:
        irregularity_classify(ProblemSpec((2,), 3, 1))
    assert err.value.code == "delta-too-small"
    # delta = 2 formally, but the Fano scheme is empty (r < 2k + m)
    with pytest.raises(RegimeError) as err:
        irregularity_classify(ProblemSpec((2,), 6, 3))
    assert err.value.code == "nonempty-regime"


@pytest.mark.parametrize("spec_args,rho,components", [
    (((2,), 5, 1), 2, 1),       # quadric in P^{2k+3}, k=1
    (((2,), 7, 2), 2, 1),       # quadric in P^{2k+3}, k=2
    (((2, 2), 6, 1), 8, 1),     # two quadrics in P^{2k+4}, k=1
    (((2, 2), 8, 2), 10, 1),    # two quadrics in P^{2k+4}, k=2
    (((2,), 5, 2), 1, 2),       # quadric in P^{2k+1}, k=2: two components
    (((3,), 7, 1), 1, 1),       # default clause
])
def test_picard_numbers(spec_args, rho, components):
    degrees, r, k = spec_args
    info = picard_number(ProblemSpec(degrees, r, k))
    assert (info.rho, info.components) == (rho, components)
    assert "very general" in info.note


def test_picard_needs_delta_at_least_two():
    with pytest.raises(RegimeError):
        picard_number(ProblemSpec((2,), 3, 1))


@pytest.mark.parametrize("spec_args", [((2,), 6, 3), ((2,), 8, 4)])
def test_picard_rejects_an_empty_fano_scheme(spec_args):
    # delta >= 2, yet r < 2k + m: there are no k-planes to classify
    with pytest.raises(RegimeError) as err:
        picard_number(ProblemSpec(*spec_args))
    assert err.value.code == "nonempty-regime"


# ---------------------------------------------------------------------------
# empty Fano schemes
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=3), st.integers(3, 9),
       st.integers(1, 4))
@example(degrees=[2], r=6, k=3)
@example(degrees=[2], r=8, k=4)
def test_no_fano_entry_point_answers_for_an_empty_fano_scheme(degrees, r, k):
    spec = ProblemSpec(tuple(degrees), r, k)
    assume(fano_scheme_empty(spec))
    for entry in (deg_fano, c2_fano_integral, surface_invariants, irregularity_classify,
                  picard_number):
        with pytest.raises(RegimeError) as err:
            entry(spec)
        assert err.value.code in documented_regime_codes()
