from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanocount.errors import DimensionError, weight_vectors
from fanocount.polycore import MultiPoly, weighted_linear_product


def x(nvars, i):
    return MultiPoly.linear_form([int(j == i) for j in range(nvars)])


def linear(coeffs, c=0):
    return MultiPoly.linear_form(coeffs, c)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

def test_psi_identity_case():
    assert x(1, 0).terms.get((1,), 0) == 1


def test_psi_absent_monomial_is_zero():
    square = linear((1, 1)) ** 2
    assert square.terms.get((2, 1), 0) == 0


def test_psi_line_count_pipeline():
    # 9*x0*x1*(2x0+x1)*(x0+2x1) * (x0+x1)^2 * (x0-x1), coefficient of x0^4 x1^3
    q = 9 * x(2, 0) * x(2, 1) * linear((2, 1)) * linear((1, 2))
    product = q * linear((1, 1)) ** 2 * linear((1, -1))
    assert product.terms.get((4, 3), 0) == 45


# ---------------------------------------------------------------------------
# weighted_linear_product
# ---------------------------------------------------------------------------

def test_weighted_product_cubic_binary():
    expected = 9 * x(2, 0) * x(2, 1) * linear((2, 1)) * linear((1, 2))
    assert weighted_linear_product(1, 3, affine=False) == expected
    assert expected.terms == {(3, 1): 18, (2, 2): 45, (1, 3): 18}


def test_weighted_product_linear_case():
    assert weighted_linear_product(1, 1, affine=False) == x(2, 0) * x(2, 1)


def test_weighted_product_affine_quadratic():
    expected = linear((2, 0), 1) * linear((1, 1), 1) * linear((0, 2), 1)
    assert weighted_linear_product(1, 2, affine=True) == expected


def test_weighted_product_truncation_matches_full():
    for k, d, affine in [(1, 3, True), (1, 4, False), (2, 2, True), (2, 3, False)]:
        full = weighted_linear_product(k, d, affine)
        for bound in (0, 1, 2, 3, 5):
            truncated = MultiPoly(k + 1, {e: c for e, c in full.terms.items() if sum(e) <= bound})
            assert weighted_linear_product(k, d, affine, bound=bound) == truncated


def test_weighted_product_parameter_validation():
    with pytest.raises(ValueError):
        weighted_linear_product(-1, 2, affine=True)
    with pytest.raises(ValueError):
        weighted_linear_product(1, 0, affine=True)


def test_weight_vectors_enumeration():
    assert list(weight_vectors(2, 3)) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(weight_vectors(3, 3))) == 10
    assert weight_vectors(1, -3) == weight_vectors(3, -2) == []


# ---------------------------------------------------------------------------
# homogeneous_component
# ---------------------------------------------------------------------------

def test_homogeneous_component_simple():
    p = linear((1, 0), 1) * linear((0, 1), 1)   # (1+x0)(1+x1)
    assert p.homogeneous_component(1) == x(2, 0) + x(2, 1)
    assert p.homogeneous_component(2) == x(2, 0) * x(2, 1)
    assert p.homogeneous_component(3).terms == {}


def test_homogeneous_component_feeds_line_count():
    # top part of the affine product is the plain linear product, and the
    # extraction pipeline built on it reproduces the classical 45
    affine = weighted_linear_product(1, 3, affine=True)
    top = affine.homogeneous_component(4)
    assert top == weighted_linear_product(1, 3, affine=False)
    product = top * linear((1, 1)) ** 2 * (x(2, 0) - x(2, 1))
    assert product.terms.get((4, 3), 0) == 45


# ---------------------------------------------------------------------------
# ring laws (property-based)
# ---------------------------------------------------------------------------

@st.composite
def small_polys(draw, nvars):
    n_terms = draw(st.integers(min_value=0, max_value=8))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
        terms[exps] = draw(st.integers(min_value=-9, max_value=9))
    return MultiPoly(nvars, terms)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(small_polys(n), small_polys(n), small_polys(n))))
def test_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == MultiPoly.zero(a.nvars)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(small_polys(n), small_polys(n))),
    st.integers(min_value=0, max_value=6))
def test_psi_of_product_is_convolution(pair, target_degree):
    a, b = pair
    nvars = a.nvars
    target = tuple(target_degree if i == 0 else 1 for i in range(nvars))
    brute = 0
    for ea, ca in a.terms.items():
        eb = tuple(t - e for t, e in zip(target, ea))
        if all(e >= 0 for e in eb):
            brute += ca * b.terms.get(eb, 0)
    assert (a * b).terms.get(target, 0) == brute


def test_equality_is_canonical():
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 2})
    q = MultiPoly(2, {(0, 1): 2, (1, 0): 1, (2, 2): 0})
    assert p == q
    assert MultiPoly(2, {(1, 1): Fraction(4, 2)}) == MultiPoly(2, {(1, 1): 2})


def test_zero_polynomial_keeps_nvars():
    z = MultiPoly.zero(3)
    assert z.terms == {} and z.nvars == 3
    with pytest.raises(DimensionError):
        z + MultiPoly.zero(2)


@pytest.mark.parametrize("make,error", [
    (lambda: MultiPoly(-1), ValueError),
    (lambda: MultiPoly(2, {(1,): 1}), DimensionError),
    (lambda: MultiPoly(2, {(1, -1): 1}), ValueError),
    (lambda: MultiPoly(2, {(1, 1.0): 1}), ValueError),
    (lambda: x(2, 0).evaluate((1,)), DimensionError),
    (lambda: x(2, 0) ** -1, ValueError),
    (lambda: x(2, 0).homogeneous_component(-1), ValueError),
], ids=["negative-nvars", "key-length", "negative-exponent", "float-exponent",
        "evaluate-length", "negative-power", "negative-degree"])
def test_input_checks_raise(make, error):
    # DimensionError is a ValueError: pin the class itself
    with pytest.raises(ValueError) as err:
        make()
    assert type(err.value) is error
