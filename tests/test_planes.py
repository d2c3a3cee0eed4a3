import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from fanocount import conics
from fanocount.errors import (InconsistencyError, ProblemSpec, RegimeError, SingularWeightsError,
                              weight_vectors)
from fanocount.planes import (
    TorusWeights,
    c2_fano_integral,
    deg_ci_planes,
    deg_fano,
    deg_planes_bott,
    deg_planes_dm,
    tau_poly,
)
from fanocount.polycore import MultiPoly, weighted_linear_product

from oracles import (
    divided_plane_bott,
    fixed_point_fano,
    flat_plane_sum,
    linear_system_h0,
    plain_top_chern,
    plane_top_chern,
    sympy_c2_fano,
    sympy_deg_ci_planes,
    sympy_deg_fano,
    sympy_deg_planes,
    sympy_tau,
)
from test_source import documented_regime_codes, route_modules


# ---------------------------------------------------------------------------
# specs and regimes
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec((), 4, 1)
    with pytest.raises(ValueError):
        ProblemSpec((1,), 4, 1)
    with pytest.raises(ValueError):
        ProblemSpec((3,), 2, 1)
    with pytest.raises(ValueError):
        ProblemSpec((3,), 4, 0)


@pytest.mark.parametrize("args,code", [(((), 4, 1), "degrees-empty"),
                                       (((1,), 4, 1), "degree-too-small"),
                                       (((3,), 2, 1), "ambient-too-small"),
                                       (((3,), 4, 0), "plane-dimension")])
def test_spec_validation_codes(args, code):
    with pytest.raises(RegimeError) as err:
        ProblemSpec(*args)
    assert err.value.code == code


@pytest.mark.parametrize("call", [
    lambda: ProblemSpec((3.7,), 4, 1),          # int() would make it degree 3
    lambda: ProblemSpec(("3",), 4, 1),
    lambda: ProblemSpec((Fraction(3),), 4, 1),
    lambda: ProblemSpec((3,), 4, 1.0),
    lambda: conics.ConicProblem(4.5, 3),
    lambda: deg_fano(ProblemSpec((3,), 4.0, 1)),
    lambda: deg_planes_dm(3.0, 4, 1),
    lambda: deg_planes_bott(4, 3, 1.0, (1, 2, 5, 7)),
    lambda: conics.deg_conics(4, 3.0),
    lambda: TorusWeights.random(3.0, 1),
    lambda: conics.generic_conic_weights(3.0, 1),
    lambda: conics.fixed_point_census(3.0),
], ids=["spec-degree", "spec-degree-str", "spec-degree-fraction", "spec-k", "conic-d",
        "deg-fano-r", "dm-d", "bott-k", "conics-r", "torus-weights-r", "conic-weights-r",
        "census-r"])
def test_non_integer_parameters_are_refused_with_a_code(call):
    with pytest.raises(RegimeError) as err:
        call()
    assert err.value.code == "not-an-integer"


@pytest.mark.parametrize("seed", [None, [1], 1.5, "7", Fraction(7)],
                         ids=["none", "list", "float", "str", "fraction"])
@pytest.mark.parametrize("draw", [
    lambda seed: conics.deg_conics(4, 3, seed=seed),
    lambda seed: conics.deg_conics_closed(5, 3, seed=seed),
    lambda seed: conics.generic_conic_weights(3, seed),
    lambda seed: TorusWeights.random(3, seed),
], ids=["deg-conics", "deg-conics-closed", "conic-weights", "torus-weights"])
def test_non_integer_seeds_are_refused_with_a_code(draw, seed):
    # None would draw from OS entropy, and a float or a string would be hashed: either way
    # two calls would not be deterministic in the seed
    with pytest.raises(RegimeError) as err:
        draw(seed)
    assert err.value.code == "not-an-integer"


def test_gamma_delta_sum_to_zero():
    # (spec, delta): planes on cubic fourfolds have gamma = 1, lines on cubic threefolds
    # form a surface, k-planes on two quadrics in P^(2k+3) a (k+1)-fold
    cases = [(ProblemSpec((3,), 5, 2), -1), (ProblemSpec((3,), 4, 1), 2),
             (ProblemSpec((2, 2, 3), 5, 1), -2), (ProblemSpec((4,), 9, 2), 6)]
    cases += [(ProblemSpec((2, 2), 2 * k + 3, k), k + 1) for k in (1, 2, 3, 4)]
    for spec, delta in cases:
        assert spec.delta == delta and spec.gamma + spec.delta == 0


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_direct_expansion_3_3_1():
    factors = [MultiPoly.linear_form(v, 1) for v in [(3, 0), (2, 1), (1, 2), (0, 3)]]
    product = MultiPoly.one(2)
    for f in factors:
        product = product * f
    assert tau_poly(3, 3, 1) == product.homogeneous_component(4)


def test_tau_4_3_1_against_dense_oracle():
    dense = sympy_tau(4, 3, 1)
    ours = tau_poly(4, 3, 1)
    import sympy as sp
    x0, x1 = sp.symbols("x0 x1")
    rebuilt = sum(c * x0**e[0] * x1**e[1] for e, c in ours.terms.items())
    assert sp.expand(rebuilt - dense) == 0


def test_tau_symmetric_under_swap():
    tau = tau_poly(4, 3, 1)
    assert tau.permute_variables([1, 0]) == tau


@pytest.mark.parametrize("d,r,k", [(4, 3, 1), (3, 5, 2), (3, 7, 3)])
def test_kernel_matches_tau_poly(d, r, k):
    # the packed kernel against the symbolic form it replaces
    from fanocount.planes import _layout, _pack, _roots, _unpack
    tau = tau_poly(d, r, k)
    rng = random.Random(100 * d + 10 * r + k)
    for _ in range(5):
        point = [rng.randint(-20, 20) for _ in range(k + 1)]
        roots = _roots(d, point)
        width, mask, low, y = _layout((k + 1) * (r - k), len(roots), max(map(abs, roots)))
        assert _unpack(_pack(1, roots, width, mask, y), width, low) == tau.evaluate(point)


# small exact scalars for the roots: ints and Fractions, zeros and negatives
kernel_scalars = st.one_of(st.integers(-30, 30),
                           st.fractions(min_value=-30, max_value=30, max_denominator=7))


@st.composite
def packed_kernel_inputs(draw):
    """Integer roots and n at the edges of the packed path: up to 40 roots of size up
    to 10^12, all zero, or one huge root among small ones; n = 0, n = L, n > L and
    every gamma = L - n in between."""
    size = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("wide", "zeros", "one huge")))
    if kind == "wide":
        roots = draw(st.lists(st.integers(-10**12, 10**12), min_size=size, max_size=size))
    else:
        small = st.just(0) if kind == "zeros" else st.integers(-3, 3)
        roots = draw(st.lists(small, min_size=size, max_size=size))
        if roots and kind == "one huge":
            huge = st.one_of(st.integers(-10**12, 10**12),
                             st.integers(0, 60).map(lambda m: 2**m))
            roots[draw(st.integers(0, size - 1))] = draw(huge)
    n = draw(st.one_of(st.just(0), st.just(size), st.integers(0, size + 3)))
    return n, roots


@settings(max_examples=300, deadline=None)
@given(packed_kernel_inputs())
@example((1, [2**40]))                          # e_1 = R = 2^40 in the Y window,
@example((1, [2**40, 0, 0]))                    # and in the Z window
@example((2, [2**41 - 2, 2**41 - 2]))           # a product close to the field bound
@example((3, [-10**12, 10**12, -10**12, 5]))
@example((0, [0] * 40))
@example((41, [7] * 40))                        # n > L
# L roots all R or all -R reach |e_m| = C(L,m) R^m, the Y window's readout bound: two
# bits fewer than the rule fails each of these, at gamma = 0, 1, 2 and n
@example((8, [10**12] * 8))
@example((8, [-10**12] * 8))
@example((7, [10**12] * 8))
@example((7, [-10**12] * 8))
@example((6, [10**12] * 8))
@example((6, [-10**12] * 8))
@example((4, [-10**12] * 8))
@example((20, [10**12] * 40))
def test_packed_top_chern_at_the_field_edges(inputs):
    # the layout a Bott sum fixes from its roots' count and largest size
    from fanocount.planes import _layout, _pack, _unpack
    n, roots = inputs
    width, mask, low, y = _layout(n, len(roots), max(map(abs, roots), default=0))
    assert _unpack(_pack(1, roots, width, mask, y), width, low) == plain_top_chern(n, roots, ())


def test_y_window_width_is_the_readout_bound():
    # the layouts of (4, 8, 3) and (7, 9, 2) at weights in [-50, 50]; bounding every
    # coefficient of the product by (R+1)^L instead would take 281 and 325 bits
    from fanocount.planes import _layout
    assert _layout(20, 35, 200)[0] == 194
    assert _layout(21, 36, 350)[0] == 220


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.lists(kernel_scalars, min_size=1, max_size=4))
def test_roots_are_the_weight_vector_pairings(d, point):
    from fanocount.planes import _roots
    pairings = [sum(vi * p for vi, p in zip(v, point)) for v in weight_vectors(len(point), d)]
    assert Counter(_roots(d, point)) == Counter(pairings)


def test_tau_regime_errors():
    with pytest.raises(RegimeError):
        tau_poly(3, 2, 1)          # 2k >= r
    with pytest.raises(RegimeError):
        tau_poly(0, 4, 1)


CODED_HELPER_CALLS = [
    (weight_vectors, (0, 3), "plane-dimension"),        # nvars = k + 1 <= 0
    (weight_vectors, (-2, 3), "plane-dimension"),
    (weight_vectors, (2.0, 3), "not-an-integer"),
    (weight_vectors, (2, Fraction(3)), "not-an-integer"),
    (tau_poly, (4.0, 3, 1), "not-an-integer"),
    (tau_poly, (4, "3", 1), "not-an-integer"),
    (tau_poly, (4, 3, Fraction(1)), "not-an-integer"),
]


@pytest.mark.parametrize("helper,args,code", CODED_HELPER_CALLS,
                         ids=[f"{helper.__name__}{args}" for helper, args, _ in CODED_HELPER_CALLS])
def test_reference_helpers_raise_coded_errors(helper, args, code):
    # the cache is typed: 4.0 does not reach the entry of 4 once it is filled
    assert tau_poly(4, 3, 1) is tau_poly(4, 3, 1)
    with pytest.raises(RegimeError) as err:
        helper(*args)
    assert err.value.code == code
    assert tau_poly.cache_info().currsize >= 1


# ---------------------------------------------------------------------------
# hypersurface degrees, both routes
# ---------------------------------------------------------------------------

# frozen values, cross-computed with the dense sympy oracle and the fixed
# point sum at independent random weights
PLANE_DEGREES = {
    (4, 3, 1): 320,
    (5, 3, 1): 1990,
    (6, 3, 1): 8680,
    (6, 4, 1): 50400,
    (3, 5, 2): 3402,
    (4, 5, 2): 8754732,
    (5, 5, 2): 2547516517,
    (6, 5, 2): 246775402104,
    (4, 6, 2): 31886848,
    (5, 6, 2): 169739006052,
    (6, 6, 2): 114735878706372,
}


@pytest.mark.parametrize("drk,expected", sorted(PLANE_DEGREES.items()))
def test_deg_planes_dm_frozen(drk, expected):
    assert deg_planes_dm(*drk) == expected


@pytest.mark.parametrize("drk", [(4, 3, 1), (3, 5, 2)])
def test_deg_planes_dm_matches_dense_oracle(drk):
    assert deg_planes_dm(*drk) == sympy_deg_planes(*drk)


def test_deg_planes_bott_fixed_weight_examples():
    assert deg_planes_bott(4, 3, 1, (1, 2, 5, 7)) == 320
    assert deg_planes_bott(4, 3, 1, (0, 3, 11, -4)) == 320


def test_deg_planes_bott_draws_its_weights_after_the_regime_checks(monkeypatch):
    # without weights the sum runs at TorusWeights.random(r, seed); an input out of regime is
    # refused with the fold's code before any draw (a draw refuses r = -1 as ambient-too-small)
    assert deg_planes_bott(4, 3, 1, seed=7) == deg_planes_bott(4, 3, 1, TorusWeights.random(3, 7))
    monkeypatch.setattr(TorusWeights, "random", lambda *args: pytest.fail("weights drawn"))
    for d, r, k in ((4, -1, 1), (2, 3, 1), (3, 3, 1)):
        with pytest.raises(RegimeError) as dm:
            deg_planes_dm(d, r, k)
        with pytest.raises(RegimeError) as bott:
            deg_planes_bott(d, r, k)
        assert bott.value.code == dm.value.code


def test_deg_planes_bott_integrality_and_positivity_guards(monkeypatch):
    # a wrong value at one fixed point leaves a remainder; negated values a quotient < 0
    # (the value at each fixed plane is read from its packed product by one ``_unpack``)
    import fanocount.planes as planes_module
    unpack = planes_module._unpack
    calls = count()

    def one_off(*field):
        return unpack(*field) + (next(calls) == 3)

    monkeypatch.setattr(planes_module, "_unpack", one_off)
    with pytest.raises(InconsistencyError, match=r"is -?\d+/\d+; expected a positive integer"):
        deg_planes_bott(4, 3, 1, (1, 2, 5, 7))
    monkeypatch.setattr(planes_module, "_unpack", lambda *field: -unpack(*field))
    with pytest.raises(InconsistencyError, match=r"is -320; expected a positive integer"):
        deg_planes_bott(4, 3, 1, (1, 2, 5, 7))


@st.composite
def in_regime_cells(draw):
    """(d, r, k) with k <= 4, d >= 3 and gamma > 0; r <= 9, and r <= 10 for
    k = 4.  Size budget: d at most 3 above its least in-regime value for
    lines, 1 for k = 2 and 0 for k = 3 and 4, which keeps the slowest cells,
    (4, 9, 3), (3, 9, 4) and (3, 10, 4), under 0.1 s by DM."""
    k = draw(st.integers(1, 4))
    r = draw(st.integers(2 * k + 1, 10 if k == 4 else 9))
    d_min = next(d for d in count(3) if comb(d + k, k) > (k + 1) * (r - k))
    d = draw(st.integers(d_min, d_min + (3, 1, 0, 0)[k - 1]))
    return d, r, k


@settings(max_examples=25, deadline=None)
@given(in_regime_cells(), st.integers(0, 2**16))
def test_dm_equals_bott_on_random_cells(drk, seed):
    d, r, k = drk
    assert deg_planes_dm(d, r, k) == deg_planes_bott(d, r, k, TorusWeights.random(r, seed))


@st.composite
def extraction_inputs(draw):
    """A target and linear factors (v, c) with c, v_i >= 0, in 1-5 variables.

    Target entries 0..8 take in 0, 1, 3, 4, 7 and 8, at and next to powers of
    two, where the packed head field width changes; one variable and a last
    entry 0 (a row of one field and its guard) are drawn often.  Factors are small, or wide (c up to 10^6, v_i up to 10^3), or
    constant (v = 0), whose products meet the bound the packed field width is
    taken from."""
    n = draw(st.one_of(st.just(1), st.integers(1, 5)))
    target = draw(st.tuples(*[st.integers(0, 8)] * (n - 1),
                            st.one_of(st.just(0), st.integers(0, 8))))
    small = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.sampled_from((0, 1, 3)))
    wide = st.tuples(st.tuples(*[st.integers(0, 10**3)] * n), st.integers(0, 10**6))
    constant = st.tuples(st.just((0,) * n), st.integers(0, 10**6))
    factors = draw(st.lists(st.one_of(small, wide, constant), max_size=6))
    return target, factors


def vandermonde(n):
    """prod_{i<j} (x_i - x_j) in n variables, multiplied out factor by factor."""
    product = MultiPoly.one(n)
    for i, j in combinations(range(n), 2):
        product = product.mul(MultiPoly.linear_form([(m == i) - (m == j) for m in range(n)]))
    return product


@settings(max_examples=300, deadline=None)
@given(extraction_inputs())
@example(((0,), [((0,), 10**6)] * 3))            # the value is the width bound
@example(((3,), [((10**3,), 0)] * 3))            # the same in the top field
@example(((4, 0), [((10**3, 0), 0)] * 3))        # the same one row stride up
@example(((0, 4), [((0, 10**3), 0)] * 3))        # the same, signed by the alternant
@example(((2,), [((10**3,), 10**3)] * 2))        # large fields under the top one
@example(((1, 1), [((0, 1), 1)] * 3))            # a guard field not cleared moves up a row
@example(((2, 0), [((1, 0), 0)] * 2))            # a row of one field and its guard
@example(((2, 1, 0), [((1, 0, 0), 0)] * 2))      # the packed triple, no head
@example(((1, 2, 1), [((0, 1, 0), 1)] * 4))      # a guard row not cleared moves up a plane
@example(((2, 4, 0), [((0, 10**3, 0), 0)] * 3))  # the width bound in a middle-variable field
@example(((4, 3, 2, 1), [((2, 1, 1, 0), 1)] * 4))  # a head over the packed triple
@example(((2,), [((1,), 1)] * 6))                # one variable, packed alone
@example(((5, 4, 3, 1, 0), [((1, 1, 1, 0, 1), 1)] * 4))  # a stay and a raise meet on one head
def test_extract_equals_unpruned_fold(inputs):
    from fanocount.extraction import _extract
    target, factors = inputs
    product = vandermonde(len(target))
    for v, c in factors:
        product = product.mul(MultiPoly.linear_form(v, c))
    value = _extract(target, factors)
    assert value == product.coefficient(target)
    assert isinstance(value, int)


@pytest.mark.parametrize("k", range(5))
def test_alternant_expands_to_the_vandermonde_product(k):
    # the readout's signs: a wrong sign or exponent gives wrong counts and no error
    from fanocount.extraction import _alternant
    terms = _alternant(k)
    assert len(terms) == len({e for e, _ in terms})
    assert MultiPoly(k + 1, dict(terms)) == vandermonde(k + 1)


@pytest.mark.parametrize("factor", [((1, 0), -1), ((-1, 2), 0), ((2, 0, -3), 1)])
def test_extract_refuses_negative_factors(factor):
    # the fold's fields carry no sign bit, so a negative c or v_i is outside its domain
    from fanocount.extraction import _extract
    v, c = factor
    with pytest.raises(InconsistencyError):
        _extract((3,) * len(v), [((1,) * len(v), 1), factor])


# the kernels of each fixed-point route's module, which no other route may reach
FIXED_POINT_HELPERS = {
    "planes": ("_roots", "_plane_sum", "_layout", "_z_width", "_pack", "_unpack"),
    "conics": ("_fiber_cofactors",)}


def test_extraction_and_fixed_point_routes_are_independent(monkeypatch):
    # DM never calls a fixed-point helper, and the Bott sums never call the fold; the modules
    # are the route table's
    from importlib import import_module

    from fanocount.conics import _eta, deg_conics_bott, deg_conics_closed, \
        deg_conics_untwisted_sum, generic_conic_weights

    def forbidden(*args, **kwargs):
        pytest.fail("one route reached the other route's kernel")

    assert set(FIXED_POINT_HELPERS) == route_modules(True)
    with monkeypatch.context() as patch:
        for module, helpers in FIXED_POINT_HELPERS.items():
            for helper in helpers:
                patch.setattr(import_module(f"fanocount.{module}"), helper, forbidden)
        assert deg_planes_dm(4, 3, 1) == 320
        assert deg_ci_planes(ProblemSpec((2, 3), 4, 1)) == 168
        assert deg_fano(ProblemSpec((3,), 4, 1)) == 45
        assert c2_fano_integral(ProblemSpec((3,), 4, 1)) == 27
    for module in route_modules(False) | route_modules(True):   # wherever it is bound
        monkeypatch.setattr(import_module(f"fanocount.{module}"), "_extract", forbidden,
                            raising=False)
    assert deg_planes_bott(4, 3, 1, (1, 2, 5, 7)) == 320
    assert deg_conics_bott(4, 3, generic_conic_weights(3, seed=11)).value == 5016
    assert deg_conics_untwisted_sum(4, 3, (1, 2, 5, 7)) != 0
    assert deg_conics_closed(5, 3).consistent is False
    assert _eta(4, 3, (1, 1, 1)) == 14528256


@pytest.mark.parametrize("d,r,k,steps", [(4, 8, 3, 3170), (7, 9, 2, 3620), (4, 3, 1, 27)])
def test_plane_sum_extends_each_parent_product(monkeypatch, d, r, k, steps):
    # a node at depth j packs only the C(d-1+j, j) roots with a positive multiple of its
    # newest weight, and each fixed plane's value is read once; the walk's steps are in-line,
    # so a patched _layout's mask counts them: each step reduces by it once
    import fanocount.planes as planes_module
    layout, unpack = planes_module._layout, planes_module._unpack
    packed, reads = [], count()

    class Mask(int):   # the window's mask: reducing a step by it counts one step
        def __rand__(self, product):
            packed.append(1)
            return product & int(self)

    def counted_layout(*size):
        width, mask, low, y = layout(*size)
        return width, Mask(mask), low, y

    def counted_unpack(*field):
        next(reads)
        return unpack(*field)

    monkeypatch.setattr(planes_module, "_layout", counted_layout)
    monkeypatch.setattr(planes_module, "_unpack", counted_unpack)
    weights = TorusWeights.random(r, 1)
    assert deg_planes_bott(d, r, k, weights) == deg_planes_dm(d, r, k)
    assert sum(packed) == steps \
        == sum(comb(r - k + j + 1, j + 1) * comb(d - 1 + j, j) for j in range(k + 1))
    assert next(reads) == comb(r + 1, k + 1)
    # a d = 0 walk, as the conic sum's, takes no step: every plane sees the product 1
    packed.clear()
    products = []
    planes_module._plane_sum(r, k, weights, lambda point, product: products.append(product) or 1,
                             0, counted_layout((k + 1) * (r - k), comb(d + k, k), d * 50))
    assert packed == [] and products == [1] * comb(r + 1, k + 1)


def test_plane_walk_products_are_pack_products():
    # the walk's in-line steps give each plane the product _pack makes of its roots, in
    # either window: packing is a ring map modulo 2^(B(w+1)), so the order of roots is free
    from fanocount.planes import _layout, _pack, _plane_sum, _roots
    windows = set()
    for d, r, k, t in ((4, 3, 1, (3, -7, 11, 0)), (12, 3, 1, (3, -7, 11, 0)),
                       (6, 5, 2, (10**6, -2, 5, 0, -10**6, 999_999)), (3, 7, 3, range(-4, 4)),
                       (5, 6, 2, (9, -8, 7, -6, 5, -4, 3))):
        layout = width, mask, _, y = _layout((k + 1) * (r - k), comb(d + k, k),
                                             d * max(map(abs, t)))
        seen = []

        def local(point, packed):
            assert packed == _pack(1, _roots(d, point), width, mask, y)
            seen.append(point)
            return 0

        _plane_sum(r, k, tuple(t), local, d, layout)
        assert len(seen) == comb(r + 1, k + 1)
        windows.add(y)
    assert windows == {True, False}   # (12, 3, 1) packs in the Z window, the others in Y


# (r, k) -> the degree of the Grassmannian G(k+1, r+1) in its Plucker embedding
PLUCKER_DEGREES = {(3, 1): 2, (4, 1): 5, (5, 2): 42, (6, 2): 462, (7, 3): 24024, (9, 2): 1385670}


def hook_length_degree(r: int, k: int) -> int:
    """n! over the hook lengths of the (k+1) x (r-k) rectangle, n = (k+1)(r-k): its box (i, j)
    has the hook (r-k-1-j) + (k-i) + 1 = r - i - j."""
    return factorial((k + 1) * (r - k)) // prod(r - i - j for i in range(k + 1)
                                                for j in range(r - k))


def test_hook_length_formula_gives_the_plucker_degrees():
    assert {cell: hook_length_degree(*cell) for cell in PLUCKER_DEGREES} == PLUCKER_DEGREES


@st.composite
def grassmannian_weights(draw):
    """A cell (r, k) of ``PLUCKER_DEGREES`` and r + 1 distinct integer weights."""
    r, k = draw(st.sampled_from(sorted(PLUCKER_DEGREES)))
    return r, k, draw(st.lists(st.integers(-60, 60), min_size=r + 1, max_size=r + 1, unique=True))


@settings(max_examples=60, deadline=None)
@given(grassmannian_weights())
def test_plane_walk_integrates_over_the_grassmannian(inputs):
    # the walk is an integrator of its own, part of neither route: with d = 0 it integrates a
    # local over G(k+1, r+1) by its fixed points.  1 integrates to 0, as the Grassmannian has
    # positive dimension n, and sum(t_I)^n, the weight of the Plucker class to the top power,
    # to the Plucker degree
    from fanocount.planes import _plane_sum
    r, k, t = inputs
    n = (k + 1) * (r - k)
    assert divmod(*_plane_sum(r, k, t, lambda point, packed: 1)) == (0, 0)
    assert divmod(*_plane_sum(r, k, t, lambda point, packed: sum(point) ** n)) \
        == (hook_length_degree(r, k), 0)


@st.composite
def plane_sums_at_extreme_weights(draw):
    """A Y-window cell, (4, 3, 1), (5, 3, 1), (4, 5, 2), (5, 6, 2) with gamma = 9 or
    (3, 7, 3), or a Z-window cell, (6, 5, 2) with gamma = 19 > n = 9 or (12, 3, 1) with
    gamma = 9 > n = 4, and distinct int weights up to 10^6 in absolute value, or up to
    10^18 (the size of a rational vector's integer multiple): negative ones, and one huge
    weight among small ones.  The field width is tight only where a kept coefficient can
    reach its bound: e_(n+1), the field under the read one, when the roots near R, as at
    (4, 3, 1) and (5, 6, 2), and e_n when L is large against n, as at (12, 3, 1)."""
    d, r, k = draw(st.sampled_from([(4, 3, 1), (5, 3, 1), (4, 5, 2), (5, 6, 2), (3, 7, 3),
                                    (6, 5, 2), (12, 3, 1)]))
    scalars = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**18, 10**18),
                        st.integers(-3, 3))
    return d, r, k, draw(st.lists(scalars, min_size=r + 1, max_size=r + 1, unique=True))


@settings(max_examples=40, deadline=None)
@given(plane_sums_at_extreme_weights())
@example((4, 3, 1, [10**6, 999_999, 1, 2]))             # two bits less overflow e_5
@example((12, 3, 1, [944_911, 944_910, 1, 2]))         # one bit less overflows e_4
# two bits less overflow e_13 at five planes; weights of one sign would overflow it at
# every plane, and the same carry at every plane adds the sum of a constant, 0
@example((5, 6, 2, [-10**6, 999_999, -999_998, 999_997, -999_996, 999_995, -999_994]))
@example((5, 3, 1, [10**6, 999_999, 999_998, 999_997]))
# 10^6 (-10^6, 1, (10^6 - 1)/10^6, 999_999): one weight 10^12, and two 1 apart
@example((5, 3, 1, [-10**12, 10**6, 999_999, 999_999 * 10**6]))
@example((4, 5, 2, [10**6, 0, 1, -1, 2, -2]))
@example((3, 7, 3, [-10**6, -999_999, -999_998, -999_997, -999_996, -999_995, -999_994, 10**6]))
# 999_999 10^6 (1/10^6, -2/999_999, 10^6, -3, 5, -10^6): two small weights among ones near 10^18
@example((6, 5, 2, [999_999, -2 * 10**6, 999_999 * 10**12, -3 * 999_999 * 10**6,
                    5 * 999_999 * 10**6, -999_999 * 10**12]))
@example((6, 5, 2, [10**6, 999_999, 999_998, 999_997, 999_996, 999_995]))
def test_plane_sum_at_extreme_weights_is_the_divided_sum(inputs):
    # one layout for the whole walk covers the largest root of every plane, in either window
    d, r, k, t = inputs
    assert deg_planes_bott(d, r, k, t) == divided_plane_bott(d, r, k, t) == deg_planes_dm(d, r, k)


@st.composite
def plane_walks(draw):
    """k = 1..3, r = k + 1..9 and r + 1 distinct int weights: small ones, 0 and +-10^6
    among them, and any others up to 10^6 in absolute value."""
    k = draw(st.integers(1, 3))
    r = draw(st.integers(k + 1, 9))
    scalars = st.one_of(st.sampled_from([0, 10**6, -10**6]), st.integers(-3, 3),
                        st.integers(-10**6, 10**6))
    return r, k, draw(st.lists(scalars, min_size=r + 1, max_size=r + 1, unique=True))


@settings(max_examples=60, deadline=2000)
@given(plane_walks(), st.integers(-10**9, 10**9))
@example((9, 3, [0, 10**6, -10**6, 1, -1, 2, -2, 3, -3, 999_999]), 7)
@example((2, 1, [10**6, 0, -10**6]), 0)
def test_plane_walk_pair_with_no_roots_is_the_flat_sum(walk, salt):
    # d = 0: the walk hands every plane the packed product 1, and the pair (numerator, D),
    # before any division, is the plane-by-plane sum for any integer local value
    from fanocount.planes import _plane_sum
    r, k, t = walk

    def local(point):
        return random.Random(hash((salt, *point))).getrandbits(48) - 2**47

    def walked_local(point, packed):
        assert packed == 1
        return local(point)

    assert _plane_sum(r, k, t, walked_local) == flat_plane_sum(r, k, t, local)


@settings(max_examples=40, deadline=2000)
@given(plane_walks(), st.integers(3, 5))
@example((9, 3, [0, 10**6, -10**6, 1, -1, 2, -2, 3, -3, 999_999]), 3)
@example((4, 1, [10**6, -10**6, 0, 999_999, -999_999]), 5)
def test_plane_walk_pair_with_packed_roots_is_the_flat_sum(walk, d):
    # d >= 3: each plane's packed readout is e_n of its C(d+k, k) roots, and the pair
    # (numerator, D) is the plane-by-plane sum of those values
    from fanocount.planes import _layout, _plane_sum, _unpack
    r, k, t = walk
    layout = width, _, low, _ = _layout((k + 1) * (r - k), comb(d + k, k), d * max(map(abs, t)))
    walked = _plane_sum(r, k, t, lambda point, packed: _unpack(packed, width, low), d, layout)
    assert walked == flat_plane_sum(r, k, t, lambda point: plane_top_chern(d, r, k, point))


def test_dm_equals_bott_at_the_k4_frontier():
    # the largest k = 4 DM cell in tier 1: about a quarter of a second by the fold
    assert deg_planes_dm(5, 10, 4) == deg_planes_bott(5, 10, 4, TorusWeights.random(10, 4))


def test_dm_equals_bott_at_k5():
    # three head variables over the packed triple: each head key packs three fields
    value = deg_planes_dm(3, 11, 5)
    assert value == 2887420948969853380084
    assert value == deg_planes_bott(3, 11, 5, TorusWeights.random(11, 5))


def test_deg_planes_bott_agrees_with_dm():
    # (6, 5, 2) has gamma > n, so its kernel packs the Z^n window, not the Y^gamma one
    for drk in [(4, 3, 1), (5, 3, 1), (3, 5, 2), (6, 5, 2)]:
        d, r, k = drk
        for seed in (5, 6):
            weights = TorusWeights.random(r, seed)
            assert deg_planes_bott(d, r, k, weights) == PLANE_DEGREES[drk]


def test_random_weights_are_distinct_beyond_the_default_range():
    weights = TorusWeights.random(150, 1)
    assert len(set(weights)) == len(weights) == 151
    assert all(isinstance(w, int) for w in weights)


def test_random_weights_refuse_a_negative_ambient_with_a_code():
    assert len(TorusWeights.random(0, 3)) == 1
    for r in (-1, -2):
        with pytest.raises(RegimeError) as err:
            TorusWeights.random(r, 3)
        assert err.value.code == "ambient-too-small"


def test_deg_planes_bott_weight_validation():
    with pytest.raises(SingularWeightsError):
        deg_planes_bott(4, 3, 1, (1, 1, 2, 3))
    with pytest.raises(SingularWeightsError):
        deg_planes_bott(4, 3, 1, (1, 2, 3))


def test_deg_planes_regime_errors():
    with pytest.raises(RegimeError) as err:
        deg_planes_dm(2, 4, 1)
    assert err.value.code == "degree-too-small"
    with pytest.raises(RegimeError) as err:
        deg_planes_dm(3, 4, 2)
    assert err.value.code == "plane-dimension"
    with pytest.raises(RegimeError) as err:
        deg_planes_dm(3, 3, 1)      # gamma = 0
    assert err.value.code == "gamma-not-positive"
    with pytest.raises(RegimeError) as err:
        deg_planes_dm(3, 4, 1)      # gamma < 0: cubic threefolds all contain lines
    assert err.value.code == "gamma-not-positive"


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------

def test_linear_system_oracle_known_values():
    # h^0(O_X(d)) - 1, the dimension of the degree-d linear system on X
    assert linear_system_h0(4, (), 3) - 1 == 34       # all cubics in P^4
    assert linear_system_h0(3, (2,), 2) - 1 == 8      # quadrics on a quadric surface
    assert linear_system_h0(5, (2, 2), 3) - 1 == 43


def test_deg_ci_planes_m1_reduces_to_hypersurface():
    # the whole valid grid d in 3..6, r in 3..6, k in 1..2
    for (d, r, k), expected in sorted(PLANE_DEGREES.items()):
        assert deg_ci_planes(ProblemSpec((d,), r, k)) == expected == deg_planes_dm(d, r, k)


CI_DEGREES = {
    ((2, 3), 4, 1): 168,
    ((3, 2), 4, 1): 198,     # last degree is the moving one, so order matters
    ((2, 2, 3), 5, 1): 512,
    ((2, 2, 4), 6, 1): 9600,
}


@pytest.mark.parametrize("spec_args,expected", sorted(CI_DEGREES.items()))
def test_deg_ci_planes_frozen(spec_args, expected):
    degrees, r, k = spec_args
    assert deg_ci_planes(ProblemSpec(degrees, r, k)) == expected


@pytest.mark.parametrize("spec_args", [((2, 3), 4, 1), ((3, 2), 4, 1), ((2, 2, 3), 5, 1)])
def test_deg_ci_planes_matches_dense_oracle(spec_args):
    degrees, r, k = spec_args
    assert deg_ci_planes(ProblemSpec(degrees, r, k)) == sympy_deg_ci_planes(degrees, r, k)


def test_deg_ci_planes_regime_codes():
    with pytest.raises(RegimeError) as err:
        deg_ci_planes(ProblemSpec((2,), 4, 1))
    assert err.value.code == "product-degree-too-small"
    with pytest.raises(RegimeError) as err:
        deg_ci_planes(ProblemSpec((2, 2, 3), 6, 1))    # gamma = 0
    assert err.value.code == "gamma-not-positive"
    with pytest.raises(RegimeError) as err:
        deg_ci_planes(ProblemSpec((2, 2, 2, 2, 3), 5, 2))
    assert err.value.code == "ambient-fano-empty"
    with pytest.raises(RegimeError) as err:
        deg_ci_planes(ProblemSpec((4, 2), 3, 1))        # gamma = 4, rho = 3 - 4
    assert err.value.code == "fano-dimension-negative"


def test_accepted_ci_specs_have_a_linear_system_larger_than_gamma(monkeypatch):
    # every member the degree counts moves in a system of dimension above gamma, so no
    # check of it is needed: once rho >= 0 and dim X = r - m + 1 >= 2k, the system has
    # dimension h^0(O_X(d_m)) - 1 >= C(d_m + 2k, 2k) - 1 > C(d_m + k, k) >= gamma.  Shown
    # on m <= 4, the cut degrees a multiset from 2..8, d_m in 2..8, r 3..15, k 1..5, with
    # the extraction taken from a stub
    import fanocount.extraction as extraction_module
    monkeypatch.setattr(extraction_module, "_ci_extraction", lambda degrees, r, k: 1)
    accepted = 0
    for m in range(1, 5):
        for cut in combinations_with_replacement(range(2, 9), m - 1):
            for last in range(2, 9):
                for r in range(3, 16):
                    for k in range(1, 6):
                        spec = ProblemSpec((*cut, last), r, k)
                        try:
                            deg_ci_planes(spec)
                        except RegimeError:
                            continue
                        accepted += 1
                        assert linear_system_h0(r, cut, last) - 1 > spec.gamma, spec
    assert accepted == 3849


def test_extraction_positivity_guards_keep_their_messages(monkeypatch):
    # every in-regime extraction is positive; both guards are shown with the coefficient
    # taken from a stub
    import fanocount.extraction as extraction_module
    monkeypatch.setattr(extraction_module, "_extract", lambda target, factors: 0)
    with pytest.raises(InconsistencyError, match=r"degrees \(4,\), r=3, k=1 computed as 0; "
                                                 "expected a positive integer"):
        deg_planes_dm(4, 3, 1)
    with pytest.raises(InconsistencyError, match=r"deg F = 0 for .*; expected positive"):
        deg_fano(ProblemSpec((3,), 4, 1))


# ---------------------------------------------------------------------------
# Fano degrees and c2 integrals
# ---------------------------------------------------------------------------

FANO_DEGREES = {
    ((3,), 4, 1): 45,        # lines on cubic threefolds
    ((5,), 5, 1): 6125,      # lines on quintic fourfolds
    ((2, 2), 5, 1): 32,      # lines on intersections of two quadrics in P^5
    ((3,), 6, 2): 2835,      # planes on cubic fivefolds
    ((3,), 3, 1): 27,        # the 27 lines on a cubic surface
    ((5,), 4, 1): 2875,      # the 2875 lines on a quintic threefold
    ((2, 2), 4, 1): 16,      # lines on two quadrics in P^4
    ((2,), 3, 1): 4,         # lines on a quadric surface, twice a conic
    ((2, 4), 6, 1): 2944,
    ((3, 3), 6, 1): 2349,
    ((2, 3), 8, 2): 71280,
    ((2, 2), 7, 2): 384,
}


@pytest.mark.parametrize("spec_args,expected", sorted(FANO_DEGREES.items()))
def test_deg_fano_frozen(spec_args, expected):
    degrees, r, k = spec_args
    assert deg_fano(ProblemSpec(degrees, r, k)) == expected


C2_INTEGRALS = {
    ((3,), 4, 1): 27,
    ((2, 2), 5, 1): 16,
    ((3,), 6, 2): 1701,
    ((5,), 5, 1): 2875,
    ((2, 4), 6, 1): 1280,
    ((3, 3), 6, 1): 1053,
    ((2, 3), 8, 2): 33480,
}


@pytest.mark.parametrize("spec_args,expected", sorted(C2_INTEGRALS.items()))
def test_c2_fano_integral_frozen(spec_args, expected):
    degrees, r, k = spec_args
    assert c2_fano_integral(ProblemSpec(degrees, r, k)) == expected


# delta from 3 to 17; k = 3 cells take seconds each by dense expansion
@pytest.mark.parametrize("spec_args", [((2,), 9, 1), ((2,), 11, 1), ((3,), 9, 1),
                                       ((2, 2), 7, 2), ((3,), 8, 2), ((3,), 10, 2)])
def test_deg_fano_matches_dense_oracle(spec_args):
    assert deg_fano(ProblemSpec(*spec_args)) == sympy_deg_fano(*spec_args)


@pytest.mark.parametrize("spec_args", [((3,), 6, 2), ((2, 3), 8, 2)])
def test_c2_fano_integral_matches_dense_oracle(spec_args):
    assert c2_fano_integral(ProblemSpec(*spec_args)) == sympy_c2_fano(*spec_args)


# the Fano surfaces (delta = 2, r >= 2k + m) with m <= 3 degrees in 2..6 and r <= 11
SURFACE_SPECS = [spec for m in (1, 2, 3)
                 for degrees in combinations_with_replacement(range(2, 7), m)
                 for r in range(3, 12) for k in range(1, (r - m) // 2 + 1)
                 for spec in [ProblemSpec(degrees, r, k)] if spec.delta == 2]


def test_surface_numbers_equal_the_fixed_point_sums():
    # both extractions, the c2 one at its Pieri-shifted target, against the plane
    # fixed-point sum with e_2 or (sum t)^2 at each plane; k = 3 included
    assert len(SURFACE_SPECS) == 32 and {spec.k for spec in SURFACE_SPECS} == {1, 2, 3}
    for spec in SURFACE_SPECS:
        t = TorusWeights.random(spec.r, 7)
        fixed = [fixed_point_fano(*spec, extra, t) for extra in (
            lambda x: sum(a * b for a, b in combinations(x, 2)), lambda x: sum(x) ** 2)]
        assert [c2_fano_integral(spec), deg_fano(spec)] == fixed, spec


def test_deg_fano_regime_errors():
    with pytest.raises(RegimeError) as err:
        deg_fano(ProblemSpec((6,), 4, 1))       # delta = -1
    assert err.value.code == "delta-negative"
    with pytest.raises(RegimeError) as err:
        deg_fano(ProblemSpec((2,), 4, 2))       # delta = 0 but r < 2k+m
    assert err.value.code == "nonempty-regime"
    with pytest.raises(RegimeError) as err:
        c2_fano_integral(ProblemSpec((3,), 5, 1))
    assert err.value.code == "delta-not-two"
    with pytest.raises(RegimeError) as err:
        c2_fano_integral(ProblemSpec((2,), 6, 3))   # delta = 2 but r < 2k+m
    assert err.value.code == "nonempty-regime"


def test_fano_extraction_rejects_wrong_degree_extra():
    # delta = 2 needs two more degrees of extra factors at the target psi, or none
    # at the c2 target psi - (1, 1); a wrong count of ones would silently extract
    # from a product that misses the target degree
    from fanocount.extraction import _fano_extraction
    spec = ProblemSpec((3,), 4, 1)
    assert _fano_extraction(spec, (4, 3), 2) == 45
    assert _fano_extraction(spec, (3, 2), 0) == 27
    for target, ones in [((4, 3), 1), ((4, 3), 3), ((3, 2), 1)]:
        with pytest.raises(InconsistencyError):
            _fano_extraction(spec, target, ones)


def test_runtime_routes_do_no_polynomial_arithmetic(monkeypatch, capsys):
    # every extraction folds linear forms into a plain term map: no route
    # multiplies, powers, adds or subtracts MultiPoly values
    from fanocount.batch import paper_check
    from fanocount.invariants import surface_invariants

    def forbidden(*args, **kwargs):
        pytest.fail("a runtime route did MultiPoly arithmetic")

    for name in ("mul", "__mul__", "__pow__", "__add__", "__sub__"):
        monkeypatch.setattr(MultiPoly, name, forbidden)
    assert deg_planes_dm(3, 5, 2) == PLANE_DEGREES[(3, 5, 2)]
    assert deg_ci_planes(ProblemSpec((2, 3), 4, 1)) == CI_DEGREES[((2, 3), 4, 1)]
    assert deg_fano(ProblemSpec((2, 2), 7, 2)) == FANO_DEGREES[((2, 2), 7, 2)]
    assert c2_fano_integral(ProblemSpec((2, 3), 8, 2)) == C2_INTEGRALS[((2, 3), 8, 2)]
    assert surface_invariants(ProblemSpec((3,), 6, 2)).chi_o == 3213
    assert paper_check() is True
    assert "0 failed" in capsys.readouterr().out


def test_fano_class_is_symmetric():
    q = weighted_linear_product(2, 3, affine=False)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert q.permute_variables(perm) == q


# ---------------------------------------------------------------------------
# regime totality
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1, 5), max_size=3), st.integers(-1, 8), st.integers(-1, 3),
       st.sampled_from(("dm", "ci", "fano")))
def test_extraction_routes_are_total(degrees, r, k, route):
    # small inputs, out-of-range ones included: a positive int or a coded
    # RegimeError, and no other exception
    try:
        if route == "dm":
            value = deg_planes_dm(degrees[0] if degrees else 3, r, k)
        else:
            spec = ProblemSpec(tuple(degrees), r, k)
            value = (deg_ci_planes if route == "ci" else deg_fano)(spec)
    except RegimeError as err:
        assert err.code in documented_regime_codes()
    else:
        assert isinstance(value, int) and value > 0
