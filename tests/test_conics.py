import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanocount.errors import InconsistencyError, RegimeError, SingularWeightsError
from fanocount.conics import (
    ConicProblem,
    chern_Ed_series,
    conic_factor_report,
    conic_fixed_points,
    deg_conics,
    deg_conics_bott,
    deg_conics_closed,
    deg_conics_untwisted_sum,
    eta_form,
    fixed_point_census,
    generic_conic_weights,
)
from fanocount.planes import TorusWeights, deg_planes_bott, deg_planes_dm
from fanocount.polycore import MultiPoly, TruncatedSeries, weighted_linear_product

from oracles import (_CONICS, dense_conic_bott, dense_eta, dense_eta_twisted, dict_eval,
                     divided_conic_bott, divided_conic_top_chern, plain_top_chern,
                     six_term_untwisted_sum, table_conic_bott)


# frozen values: validated by constancy over independent weight draws,
# integrality, the dense-oracle recomputation, and (for quartic surfaces)
# the published anchor 2508 after halving
CONIC_DEGREES = {
    (4, 3): 2508,
    (5, 3): 282880,
    (6, 3): 6677208,
    (7, 3): 92994300,
    (6, 4): 188068995,
    (7, 4): 12618251100,
    (7, 5): 85393742658,
    (9, 6): 19510952831592390,
    (10, 6): 3255501240554013080,
    (14, 8): 498762592941976049111173827078,
}
RAW_BOTT = {(4, 3): 5016, (5, 3): 282880, (6, 3): 6677208, (6, 4): 188068995}
ETA_ONES = {(4, 3): 14528256, (5, 3): 1374702885}


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_two_conics_only_on_quartic_surfaces():
    # the one halving case: where the residual curve in the conic's plane is a conic
    cells = [(d, r) for d in range(2, 12) for r in range(3, 8)]
    assert [cell for cell in cells if ConicProblem(*cell).two_conics] == [(4, 3)]


def test_conic_problem_validation():
    with pytest.raises(ValueError):
        ConicProblem(1, 3)
    with pytest.raises(ValueError):
        ConicProblem(4, 2)


@pytest.mark.parametrize("d,r,code", [(1, 3, "degree-too-small"), (4, 2, "ambient-too-small")])
def test_conic_problem_validation_codes(d, r, code):
    with pytest.raises(RegimeError) as err:
        ConicProblem(d, r)
    assert err.value.code == code


def test_positive_epsilon_matches_rank_inequality():
    # epsilon > 0 is exactly rank 2d+1 > 3r-1 = dim of the conic parameter space
    for d in range(2, 12):
        for r in range(3, 8):
            assert (ConicProblem(d, r).epsilon > 0) == (2 * d + 1 > 3 * r - 1)
    # quartic and quintic surfaces: a locus; quadric surfaces: families of conics
    assert [ConicProblem(*cell).epsilon for cell in [(4, 3), (5, 3), (2, 3)]] == [1, 3, -3]


# ---------------------------------------------------------------------------
# Chern series
# ---------------------------------------------------------------------------

def test_chern_series_degree_two_has_trivial_divisor():
    series = chern_Ed_series(2, 3)
    direct = TruncatedSeries(weighted_linear_product(2, 2, affine=True, bound=3), 3)
    assert series == direct


def test_chern_series_degree_one_special_case():
    series = chern_Ed_series(1, 4)
    expected = MultiPoly.one(3)
    for i in range(3):
        expected = expected * (MultiPoly.one(3) + MultiPoly.variable(3, i))
    assert series.poly == expected


def test_chern_series_rejects_degree_zero():
    with pytest.raises(ValueError):
        chern_Ed_series(0, 3)


@pytest.mark.parametrize("d,bound,code", [(0, 3, "degree-too-small"), (-2, 3, "degree-too-small"),
                                          (3, 0, "series-bound-too-small"),
                                          (1, -1, "series-bound-too-small")])
def test_chern_series_regime_codes(d, bound, code):
    with pytest.raises(RegimeError) as caught:
        chern_Ed_series(d, bound)
    assert caught.value.code == code


def test_chern_series_matches_dense_oracle_layers():
    series = chern_Ed_series(3, 5)
    dense = dense_eta(3, 2)   # degree-5 layer of the same quotient series
    assert series.poly.homogeneous_component(5).terms == {
        e: c for e, c in dense.items()}


def test_chern_series_low_truncation_matches_dense_division():
    # degree <= 2 truncation of the d = 3 quotient series, layer by layer
    from oracles import dict_mul, dict_series_inverse, dict_weight_product, dict_layer
    bound = 2
    dense = dict_mul(dict_weight_product(0, 3, bound),
                     dict_series_inverse(dict_weight_product(0, 1, bound), bound), bound)
    series = chern_Ed_series(3, bound)
    for n in range(bound + 1):
        assert series.poly.homogeneous_component(n).terms == dict_layer(dense, n)


def test_chern_series_defining_identity_d4():
    bound = 8
    series = chern_Ed_series(4, bound)
    divisor = weighted_linear_product(2, 2, affine=True, bound=bound)
    product = series * divisor
    full = weighted_linear_product(2, 4, affine=True, bound=bound)
    assert product.poly == full


# ---------------------------------------------------------------------------
# eta forms
# ---------------------------------------------------------------------------

def test_eta_is_symmetric():
    eta = eta_form(4, 3)
    for perm in itertools.permutations(range(3)):
        assert eta.permute_variables(list(perm)) == eta


def test_eta_is_homogeneous():
    eta = eta_form(4, 3)
    for point in [(1, 2, 3), (2, -1, 5)]:
        scaled = tuple(2 * t for t in point)
        assert eta.evaluate(scaled) == 2**8 * eta.evaluate(point)


def test_eta_parity():
    eta = eta_form(4, 3)   # degree 3r-1 = 8, even
    for point in [(1, 2, 3), (3, 5, -7)]:
        negated = tuple(-t for t in point)
        assert eta.evaluate(negated) == (-1) ** 8 * eta.evaluate(point)


def test_eta_at_ones_frozen():
    for (d, r), expected in sorted(ETA_ONES.items()):
        assert eta_form(d, r).evaluate((1, 1, 1)) == expected
        assert expected > 0


def test_eta_regime():
    with pytest.raises(RegimeError):
        eta_form(3, 3)     # epsilon = -1


@pytest.mark.parametrize("form", [eta_form, deg_conics])
def test_epsilon_negative_has_one_code(form):
    with pytest.raises(RegimeError) as err:
        form(3, 3)         # epsilon = -1
    assert err.value.code == "conic-family"


def test_twisted_eta_restricts_to_eta():
    spine = {e[:3]: c for e, c in dense_eta_twisted(4, 3).items() if e[3] == 0}
    assert spine == eta_form(4, 3).terms


def test_twisted_eta_agrees_with_local_series_route():
    # the per-fixed-point univariate evaluation must equal the dense twisted form
    from fanocount.planes import _roots
    twisted = dense_eta_twisted(4, 3)
    rng = random.Random(4)
    for _ in range(5):
        roots = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        shift = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        divisors = [b - shift for b in _roots(2, roots)]
        assert plain_top_chern(8, _roots(4, roots), divisors) == dict_eval(twisted,
                                                                           (*roots, shift))


@st.composite
def conic_kernel_inputs(draw):
    """d, a degree n from 0 to past the rank 2d + 1, and a plane's Chern-root
    values: ints and Fractions, with zeros, negatives and repeats."""
    d = draw(st.integers(1, 10))
    scalars = st.one_of(st.integers(-30, 30),
                        st.fractions(min_value=-30, max_value=30, max_denominator=7))
    return d, draw(st.integers(0, 2 * d + 3)), draw(st.lists(scalars, min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(conic_kernel_inputs())
@example((4, 11, [0, 0, 0]))
@example((2, 5, [3, 3, -3]))
def test_conic_roots_are_edge_products(inputs):
    # the 2d + 1 roots left once the conic's multiples cancel give the divided value; the
    # sum multiplies them as E_kl, all degree-d roots of the edge of the two coordinates
    # other than a, times F_a->c, those of the edge (a, c) with v_a >= 1, or, for the
    # double line (c = a), extends E_kl by x_a times the degree-(d-1) roots of (k, l)
    def edge(m, i, j):   # degree-m roots on coordinates i, j, by v_i
        return {v: v * point[i] + (m - v) * point[j] for v in range(m + 1)}

    d, n, point = inputs
    assert [(a, c) for a, _, c in _CONICS] == [(0, 0), (0, 2), (0, 1), (1, 1), (1, 0), (2, 2)]
    for (a, b), (_, (k, l), c) in zip(itertools.combinations_with_replacement(range(3), 2),
                                      _CONICS):
        assert {a, k, l} == {0, 1, 2}
        whole = list(edge(d, k, l).values())
        if c == a:
            rest = [point[a] + root for root in edge(d - 1, k, l).values()]
        else:
            assert {a, b, c} == {0, 1, 2}
            rest = [root for v, root in edge(d, a, c).items() if v >= 1]
        assert len(whole) == d + 1 and len(rest) == d
        assert plain_top_chern(n, whole + rest, ()) == divided_conic_top_chern(n, d, point, a, b)


def test_kernel_at_shift_zero_is_eta():
    # shift 0 drops the twist: the kernel reproduces eta(1,1,1) and the expanded eta_form,
    # a route that shares no code with the series quotient, at seeded points with a zero
    # entry and entries up to +-10^6
    from fanocount.conics import _eta
    for (d, r), expected in sorted(ETA_ONES.items()):
        assert _eta(d, r, (1, 1, 1)) == expected
    rng = random.Random(8)
    for d, r in [(4, 3), (5, 3), (6, 3), (7, 4), (8, 4)]:
        eta = eta_form(d, r)
        points = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(3)]
        points += [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(2)]
        points += [[0, rng.randint(-10**6, 10**6), rng.randint(-30, 30)]]
        for point in points:
            assert _eta(d, r, point) == eta.evaluate(point)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(2, 8),
       st.lists(st.one_of(st.integers(-30, 30), st.integers(-10**6, 10**6)),
                min_size=3, max_size=3))
@example(9, 8, [10**6, 10**6, 10**6])       # the widest quotient field
@example(9, 8, [-10**6, -10**6, -10**6])
@example(9, 8, [10**6, -10**6, 10**6])
@example(7, 2, [10**6, -10**6, 999_999])
@example(5, 3, [0, 0, 0])                   # the zero point: every root and divisor 0
@example(2, 3, [3, -1, 7])                  # d = 2: the one divisor is 0
@example(2, 8, [-10**6, 10**6, 1])
@example(7, 5, [5, 11, 13])
def test_eta_equals_plain_top_chern(d, r, point):
    # the series quotient gives the divided form's e_n; the oracle runs the same passes
    from fanocount.conics import _eta
    from fanocount.planes import _roots
    value = _eta(d, r, point)
    assert type(value) is int
    assert value == plain_top_chern(3 * r - 1, _roots(d, point), _roots(d - 2, point))


def test_fixed_point_sums_never_expand_symbolic_forms(monkeypatch):
    # the Bott routes evaluate every top Chern value through the integer kernel
    import fanocount.conics as conics_module
    import fanocount.planes as planes_module

    def forbidden(*args, **kwargs):
        pytest.fail("a fixed-point sum reached a symbolic form or the polynomial fold")

    for module, name in [(planes_module, "tau_poly"), (conics_module, "eta_form"),
                         (conics_module, "chern_Ed_series")]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(TruncatedSeries, "inverse", forbidden)
    monkeypatch.setattr(MultiPoly, "mul", forbidden)
    assert planes_module.deg_planes_bott(4, 3, 1, (1, 2, 5, 7)) == 320
    assert deg_conics_bott(4, 3, generic_conic_weights(3, seed=11)).value == 5016
    assert deg_conics_untwisted_sum(4, 3, (1, 2, 5, 7)) != 0
    assert deg_conics_closed(5, 3).value == -Fraction(5, 32) * comb(4, 3) * ETA_ONES[(5, 3)]
    assert "anchor reproduced                           : True" in conic_factor_report()


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_census_values():
    assert fixed_point_census(3) == 24
    assert fixed_point_census(4) == 60


def test_fixed_point_census_closed_form():
    for r in range(2, 9):
        assert fixed_point_census(r) == r * (r * r - 1) == 6 * comb(r + 1, 3)


@pytest.mark.parametrize("r", [1, 0, -3])
def test_fixed_point_census_rejects_small_ambients_with_a_code(r):
    with pytest.raises(RegimeError) as err:
        fixed_point_census(r)
    assert err.value.code == "ambient-too-small"


def test_fixed_point_census_guard_keeps_its_message(monkeypatch):
    # the enumeration always meets r(r^2 - 1); the guard is shown with one conic dropped
    import fanocount.conics as conics
    fixed_points = conics.conic_fixed_points
    monkeypatch.setattr(conics, "conic_fixed_points",
                        lambda r: itertools.islice(fixed_points(r), 1, None))
    with pytest.raises(InconsistencyError,
                       match="fixed-point enumeration gave 23, closed form gives 24"):
        fixed_point_census(3)


def test_generic_weights_are_a_sidon_set():
    # every pair sum t_a + t_b (a <= b) distinct, so the six of every plane are
    for r in range(0, 41):
        for seed in range(5):
            t = generic_conic_weights(r, seed)
            assert len(set(t)) == len(t) == r + 1 and min(t) > 0
            sums = [t[a] + t[b] for a, b in itertools.combinations_with_replacement(range(r + 1), 2)]
            assert len(set(sums)) == len(sums)
            if r <= 5:
                assert max(t) < 40 * (r + 2)


def test_generic_weights_refuse_a_negative_ambient_with_a_code():
    with pytest.raises(RegimeError) as err:
        generic_conic_weights(-1, 3)
    assert err.value.code == "ambient-too-small"


def record_deg_conics_draws(monkeypatch):
    """deg_conics with its draws recorded in ``draws`` and each summed weight set in
    ``summed`` by a stub sum of 2: the function, draws, summed."""
    import fanocount.conics as conics
    draws, summed, sidon_draw = [], [], conics._sidon_draw

    def record_draw(r, p, words):
        draws.append(sidon_draw(r, p, words))
        return draws[-1]

    def record_sum(d, r, t):
        summed.append(t)
        return conics.BottSum(value=Fraction(2), is_integral=True)

    monkeypatch.setattr(conics, "_sidon_draw", record_draw)
    monkeypatch.setattr(conics, "deg_conics_bott", record_sum)
    return conics.deg_conics, draws, summed


def test_deg_conics_sums_at_two_different_weight_sets(monkeypatch):
    # permuted weights give the same sum from any kernel, so deg_conics must sum at
    # two weight sets; at r + 1 = p (r = 4, 6, 10) a draw holds all p Sidon elements
    # and two draws share a set every few hundred seeds, which forces a redraw
    deg_conics, draws, summed = record_deg_conics_draws(monkeypatch)
    redrawn = 0
    for d, r in ((4, 3), (6, 4), (9, 6), (15, 10)):
        for seed in range(1000):
            draws.clear()
            summed.clear()
            deg_conics(d, r, seed)
            assert summed == [draws[0], draws[-1]]
            assert sorted(summed[0]) != sorted(summed[1])
            redrawn += len(draws) > 2
    assert redrawn > 0   # the seeds above include draws that share a set


def test_deg_conics_stops_redrawing_a_repeated_weight_set(monkeypatch):
    # a weight source that repeats one set forever ends in a coded error, not a hang
    import fanocount.conics as conics
    one_set, draws = generic_conic_weights(3, seed=11), []

    def same_set(r, p, words):
        draws.append(words)
        return TorusWeights(reversed(one_set))

    def forbidden(*args):
        pytest.fail("a sum ran without a second weight set")

    monkeypatch.setattr(conics, "_sidon_draw", same_set)
    monkeypatch.setattr(conics, "deg_conics_bott", forbidden)
    with pytest.raises(InconsistencyError, match=r"^64 redraws for \(4,3\) all repeat the first "
                                                 r"weight set$"):
        conics.deg_conics(4, 3)
    assert len(draws) == 65
    assert len({id(words) for words in draws}) == 1   # every draw from the one stream


def test_deg_conics_seeds_one_generator(monkeypatch):
    # both weight sets come from the dispatcher's one integer stream, and no draw seeds a
    # random.Random; the public draws are pinned, so a seed gives these weights on every
    # Python version
    import fanocount.conics as conics
    seeded = []

    class Counted(random.Random):
        def __init__(self, *seed):
            seeded.append(seed)
            super().__init__(*seed)

    monkeypatch.setattr(random, "Random", Counted)
    assert conics.deg_conics(5, 3, seed=3) == CONIC_DEGREES[(5, 3)]
    assert generic_conic_weights(5, 3) == TorusWeights((160, 144, 129, 102, 72, 115))
    assert generic_conic_weights(3, 11) == TorusWeights((46, 37, 16, 27))
    assert seeded == []


def test_deg_conics_draws_are_sidon_sets(monkeypatch):
    # the contract test_generic_weights_are_a_sidon_set keeps for the public draw, for the
    # draws deg_conics makes from its own generator
    deg_conics, draws, summed = record_deg_conics_draws(monkeypatch)
    for r in range(3, 41):
        d = (3 * r - 2) // 2 + 1   # the least d with epsilon > 0
        for seed in (0, 1, 2, 1729, 2**30 + 7, 10**12, -1, 2**64 + 1, 10**30):
            draws.clear()
            summed.clear()
            deg_conics(d, r, seed)
            assert len(summed) == 2 and sorted(summed[0]) != sorted(summed[1])
            assert len(draws) >= 2 and draws[0] == generic_conic_weights(r, seed)
            for t in draws:
                assert len(set(t)) == len(t) == r + 1 and min(t) > 0
                sums = [t[a] + t[b]
                        for a, b in itertools.combinations_with_replacement(range(r + 1), 2)]
                assert len(set(sums)) == len(sums)
                if r <= 5:
                    assert max(t) < 40 * (r + 2)


def test_sidon_draw_reaches_every_unit_shift_and_index():
    # r = 3, p = 5: over seeds 0..1999 the first draw takes every unit c, every shift
    # 1..2p^2 and every index i at every position; each draw is decomposed against
    # {2p i + (c i^2 mod p) + shift}, and only one (c, shift) fits it
    p, units, shifts, placed = 5, set(), set(), set()
    for seed in range(2000):
        t = generic_conic_weights(3, seed)
        fits = []
        for c, i0 in itertools.product(range(1, p), range(p)):
            shift = min(t) - (2 * p * i0 + c * i0 * i0 % p)
            index = {2 * p * i + c * i * i % p + shift: i for i in range(p)}
            if 1 <= shift <= 2 * p * p and set(t) <= set(index):
                fits.append((c, shift, [index[w] for w in t]))
        assert len(fits) == 1
        (c, shift, indices), = fits
        units.add(c)
        shifts.add(shift)
        placed.update(enumerate(indices))
    assert units == set(range(1, p)) and shifts == set(range(1, 2 * p * p + 1))
    assert placed == set(itertools.product(range(4), range(p)))
    # the stream starts from the seed mod 2^64
    assert generic_conic_weights(3, 2**64 + 1) == generic_conic_weights(3, 1)
    assert generic_conic_weights(3, -1) == generic_conic_weights(3, 2**64 - 1)


def test_fixed_points_include_double_lines():
    points = list(conic_fixed_points(3))
    assert ((0, 1, 2), (0, 0)) in points          # the double line x_0^2 = 0
    assert ((0, 1, 2), (0, 1)) in points
    assert len([p for p in points if p[0] == (0, 1, 2)]) == 6


# ---------------------------------------------------------------------------
# fixed-point sums
# ---------------------------------------------------------------------------

def test_bott_sum_quartic_anchor():
    value = deg_conics_bott(4, 3, generic_conic_weights(3, seed=11))
    assert value.is_integral and value.value == 5016


def test_bott_sum_constant_across_weights():
    for seed_pair in [(1, 2), (3, 4)]:
        values = [deg_conics_bott(4, 3, generic_conic_weights(3, seed=s)).value
                  for s in seed_pair]
        assert values[0] == values[1] == 5016


@pytest.mark.parametrize("d,expected", [(4, 5016), (5, 282880), (8, 894156560)])
def test_bott_sum_matches_dense_oracle(d, expected):
    # (8, 3) has epsilon = 9 > 3r - 1 = 8, so the kernel packs the Z window there
    weights = generic_conic_weights(3, seed=21)
    ours = deg_conics_bott(d, 3, weights).value
    assert ours == dense_conic_bott(d, 3, tuple(weights)) == expected


@pytest.mark.parametrize("dr,expected", sorted(RAW_BOTT.items()))
def test_bott_sum_frozen(dr, expected):
    d, r = dr
    value = deg_conics_bott(d, r, generic_conic_weights(r, seed=17))
    assert value.is_integral and value.value == expected


def test_extraction_routes_and_eta_build_no_fraction(monkeypatch):
    # no route binds Fraction, and conics imports one only where it builds a rational value
    import fractions as fractions_module

    import fanocount.conics as conics
    import fanocount.extraction as extraction
    import fanocount.planes as planes
    from fanocount.errors import ProblemSpec
    from fanocount.extraction import c2_fano_integral, deg_ci_planes, deg_fano
    assert not any(hasattr(module, "Fraction") for module in (planes, extraction, conics))
    fractions = []

    def counted_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    monkeypatch.setattr(fractions_module, "Fraction", counted_fraction)
    assert deg_planes_dm(4, 3, 1) == 320
    assert deg_ci_planes(ProblemSpec((2, 3), 4, 1)) == 168
    assert deg_fano(ProblemSpec((3,), 4, 1)) == 45
    assert c2_fano_integral(ProblemSpec((3,), 4, 1)) == 27
    assert conics._eta(4, 3, (1, 1, 1)) == ETA_ONES[(4, 3)]
    assert conics._eta(6, 4, (-5, 0, 10**6)) == plain_top_chern(11, *(
        [sum(c) for c in itertools.combinations_with_replacement((-5, 0, 10**6), m)]
        for m in (6, 4)))
    assert fractions == []


def test_conic_integrality_and_positivity_guards(monkeypatch):
    # one conic off by one leaves its plane's fiber sum non-integral; one plane's
    # fiber value off by one breaks the sum's integrality and the two-draw agreement;
    # negated values pass both and fail positivity.  Each fixed conic's value is read
    # from its packed product by one shift down to field w (``low``) and a mask; readouts
    # 0-5 are the first plane's six conics, a double line and a pair conic at each of its
    # three vertices, and each is caught because no cofactor D / Q_c is a multiple of D.
    import fanocount.conics as conics
    layout, plane_sum, cofactors = conics._layout, conics._plane_sum, conics._fiber_cofactors
    weights = generic_conic_weights(3, seed=11)
    for readout in range(6):
        calls = itertools.count()

        class Low(int):   # the readout shift: readout number ``readout`` reads one more
            def __rrshift__(self, packed):
                return (packed >> int(self)) + (next(calls) == readout)

        def shifted_layout(*size):
            width, mask, low, y = layout(*size)
            return width, mask, Low(low), y

        monkeypatch.setattr(conics, "_layout", shifted_layout)
        with pytest.raises(InconsistencyError, match="fiber sum at plane weights"):
            deg_conics_bott(4, 3, weights)
        assert next(calls) == 6   # the first plane's six readouts, then the error
    monkeypatch.setattr(conics, "_layout", layout)

    def one_plane_off(r, k, t, local, *packing):
        planes = itertools.count()
        return plane_sum(r, k, t, lambda point, packed: local(point, packed) + (next(planes) == 2),
                         *packing)

    monkeypatch.setattr(conics, "_plane_sum", one_plane_off)
    off = deg_conics_bott(4, 3, weights)
    assert off.is_integral is False and type(off.value) is Fraction
    with pytest.raises(InconsistencyError, match="not constant"):
        deg_conics(5, 3)
    monkeypatch.setattr(conics, "_plane_sum", plane_sum)

    def negated(plane):   # every cofactor negated: every fiber value is negated
        denominator, each = cofactors(plane)
        return denominator, tuple(-cofactor for cofactor in each)

    monkeypatch.setattr(conics, "_fiber_cofactors", negated)
    with pytest.raises(InconsistencyError, match="is -282880 <= 0"):
        deg_conics(5, 3)
    with pytest.raises(InconsistencyError, match="is -2508 <= 0"):
        deg_conics(4, 3)


def test_deg_conics_integrality_and_parity_guards_keep_their_messages(monkeypatch):
    # a correct kernel gives an integer, even at (4, 3); the guards after the two-draw
    # agreement are shown with both sums taken from a stub
    import fanocount.conics as conics
    monkeypatch.setattr(conics, "deg_conics_bott",
                        lambda d, r, t: conics.BottSum(Fraction(5017, 2), False))
    with pytest.raises(InconsistencyError, match=r"sum for \(5,3\) is not an integer: 5017/2"):
        deg_conics(5, 3)
    monkeypatch.setattr(conics, "deg_conics_bott",
                        lambda d, r, t: conics.BottSum(Fraction(5017), True))
    with pytest.raises(InconsistencyError, match="quartic-surface count 5017 is odd; cannot halve"):
        deg_conics(4, 3)


@pytest.mark.parametrize("d,r,steps,products", [(4, 3, 84, 12), (8, 5, 630, 60)])
def test_conic_sum_packs_each_edge_once(monkeypatch, d, r, steps, products):
    # each of the C(r+1, 2) edges packs its d + 2 roots once per sum; at each plane the
    # three double lines pack d roots each and the three other conics are one product each
    # (a step is one root's factor, reduced by the window's mask once; a product is not)
    import fanocount.conics as conics
    layout, weights = conics._layout, generic_conic_weights(r, seed=3)
    raw = deg_conics_bott(d, r, weights)
    packed, multiplied = [], itertools.count()

    class Packed(int):   # a packed product: multiplying it by another counts one product
        def __mul__(self, other):
            next(multiplied)
            return int(self) * other

    class Mask(int):   # the window's mask: reducing a step by it counts one step
        def __rand__(self, product):
            packed.append(1)
            return Packed(product & int(self))

    def counted_layout(*size):
        width, mask, low, y = layout(*size)
        return width, Mask(mask), low, y

    monkeypatch.setattr(conics, "_layout", counted_layout)
    assert deg_conics_bott(d, r, weights) == raw
    assert sum(packed) == steps == (d + 2) * comb(r + 1, 2) + 3 * d * comb(r + 1, 3)
    assert next(multiplied) == products == 3 * comb(r + 1, 3)


def valid_conic_weights(t):
    """Six distinct pair sums in every plane (so the weights are distinct too); zero
    weights and opposite pairs are valid, as no denominator holds t_a or t_a + t_b."""
    return all(len({a + b for a, b in itertools.combinations_with_replacement(plane, 2)}) == 6
               for plane in itertools.combinations(t, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-3, 3)),
                min_size=3, max_size=3))
@example([0, 1, 3])                         # a zero weight
@example([-5, 5, 12])                       # an opposite pair
@example([10**6, -10**6, 999_983])
@example([-10**6, 0, 10**6])
@example([1, 2, 3])                         # 2 + 2 = 1 + 3: two pair sums collide
def test_fiber_cofactors_are_the_common_denominator_over_each_q(plane):
    # D / Q_c for each conic, with Q_c the product of its five pair-sum differences, and
    # V6, the product of all fifteen, is 2 (e01 e02 e12)^2 D: a fiber sum over D is an
    # integer exactly when the same sum over V6 is
    from fanocount.conics import _fiber_cofactors
    pair_sums = [a + b for a, b in itertools.combinations_with_replacement(plane, 2)]
    if len(set(pair_sums)) < 6:
        with pytest.raises(SingularWeightsError, match="pair sums collide"):
            _fiber_cofactors(plane)
        return
    denominator, cofactors = _fiber_cofactors(plane)
    for c, cofactor in zip(pair_sums, cofactors, strict=True):
        assert cofactor * prod(c - s for s in pair_sums if s != c) == denominator
    x0, x1, x2 = plane
    vandermonde = prod(a - b for a, b in itertools.combinations(pair_sums, 2))
    assert vandermonde == 2 * ((x0 - x1) * (x0 - x2) * (x1 - x2)) ** 2 * denominator


@st.composite
def conic_sums_at_valid_weights(draw):
    """A cell of RAW_BOTT and r + 1 integer weights passing the twisted sum's rules
    (``valid_conic_weights``).  The draws include negative and zero weights, opposite
    pairs and vectors that are no Sidon set."""
    d, r = draw(st.sampled_from([(4, 3), (5, 3), (6, 4)]))
    t = draw(st.lists(st.integers(-40, 40), min_size=r + 1, max_size=r + 1))
    assume(valid_conic_weights(t))
    return d, r, t


@settings(max_examples=60, deadline=None)
@given(conic_sums_at_valid_weights())
@example((5, 3, [-7, 2, 5, 14]))    # -7 + 14 = 2 + 5
@example((4, 3, [0, 1, 3, 9]))          # a zero weight: no denominator holds 2 t_0
@example((4, 3, [-5, 5, 1, 12]))        # an opposite pair: none holds t_0 + t_1
@example((6, 4, [0, -7, 2, 19, 40]))
def test_bott_sum_is_the_frozen_integer_at_any_valid_weights(inputs):
    # every plane's fiber sum divides exactly, and the total is the same integer
    d, r, t = inputs
    assert deg_conics_bott(d, r, t) == (RAW_BOTT[(d, r)], True)


@st.composite
def conic_sums_at_extreme_weights(draw):
    """A Y-window cell, (7, 5) with epsilon = 1, or a Z-window cell, (8, 3) with
    epsilon = 9 > 3r - 1 = 8, and valid int weights up to 10^6 in absolute value, or up to
    10^18 (the size of a rational vector's integer multiple): negative and zero ones,
    opposite pairs, and one huge weight among small ones."""
    d, r = draw(st.sampled_from([(7, 5), (8, 3)]))
    scalars = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**18, 10**18),
                        st.integers(-3, 3))
    t = draw(st.lists(scalars, min_size=r + 1, max_size=r + 1))
    assume(valid_conic_weights(t))
    return d, r, t


@settings(max_examples=40, deadline=None)
@given(conic_sums_at_extreme_weights())
@example((7, 5, [10**6, -10**6 + 1, 3, -999_998, 7, 999_983]))
# 10^6 (-10^6, 1, (10^6 - 1)/10^6, 999_999): one weight 10^12, and two 1 apart
@example((8, 3, [-10**12, 10**6, 999_999, 999_999 * 10**6]))
# 999_999 10^6 (1/10^6, -2/999_999, 10^6, -3): two small weights among ones near 10^18
@example((8, 3, [999_999, -2 * 10**6, 999_999 * 10**12, -3 * 999_999 * 10**6]))
@example((7, 5, [10**6, -10**6, 3, -17, 999_983, 29]))    # an opposite pair
@example((8, 3, [0, -10**6, 3, 999_999]))
def test_bott_sum_at_extreme_weights_is_the_divided_sum(inputs):
    # one packing width for the whole sum covers the largest root of every conic,
    # in either window
    d, r, t = inputs
    raw = 85393742658 if (d, r) == (7, 5) else 894156560
    assert deg_conics_bott(d, r, t) == (divided_conic_bott(d, r, t), True) == (raw, True)


@settings(max_examples=40, deadline=None)
@given(conic_sums_at_extreme_weights())
@example((7, 5, [10**6, -10**6, 3, -17, 999_983, 29]))
@example((8, 3, [0, -10**6, 3, 999_999]))
def test_cyclic_fiber_equals_the_table_fiber(inputs):
    # the loop over a plane's three vertices in cyclic order reads the pair conic
    # x_a x_b = 0 as E_bc F_a->c, so x_0 x_2 = 0 as E_01 F_2->1 where the _CONICS table reads
    # E_12 F_0->1: both factorisations give the same value and integrality flag
    d, r, t = inputs
    ours, table = deg_conics_bott(d, r, t), table_conic_bott(d, r, t)
    assert (ours.value, ours.is_integral) == (table.value, table.is_integral)


@pytest.mark.parametrize("plane_cell,conic_cell,raw", [((4, 3, 1), (4, 3), 5016),
                                                      ((3, 5, 2), (7, 5), 85393742658)])
def test_both_bott_sums_go_through_one_plane_sum(monkeypatch, plane_cell, conic_cell, raw):
    # an integral conic sum is an int by one divmod, so neither sum builds a Fraction
    import fractions as fractions_module

    import fanocount.conics as conics
    import fanocount.planes as planes
    plane_degree = deg_planes_dm(*plane_cell)
    real_plane_sum = planes._plane_sum
    fractions, plane_sums = [], []

    def counted_fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    def counted_plane_sum(*args):
        plane_sums.append(args[:2])
        return real_plane_sum(*args)

    monkeypatch.setattr(fractions_module, "Fraction", counted_fraction)
    for module in (conics, planes):
        monkeypatch.setattr(module, "_plane_sum", counted_plane_sum)
    d, r, k = plane_cell
    assert deg_planes_bott(d, r, k, TorusWeights.random(r, 3)) == plane_degree
    assert (len(fractions), plane_sums) == (0, [(r, k)])
    d, r = conic_cell
    assert deg_conics_bott(d, r, generic_conic_weights(r, seed=3)) == (raw, True)
    assert (len(fractions), plane_sums) == (0, [(r, k), (r, 2)])


@pytest.mark.parametrize("d,r,y", [(4, 3, True), (9, 3, False)])
def test_integral_conic_sums_are_ints_in_both_windows(d, r, y):
    # (4, 3) packs in the Y window and (9, 3) in the Z window; an integral sum is an int
    from fanocount.planes import _layout
    assert _layout(3 * r - 1, 2 * d + 1, 1)[3] is y
    for seed in (3, 11, 17):
        total = deg_conics_bott(d, r, generic_conic_weights(r, seed=seed))
        assert type(total.value) is int and total.is_integral is True


def test_float_weights_raise_a_coded_error():
    # so do Fraction, str and None weights, in any position: every weight is an int, as every
    # other integer input, and the message names the first weight that is not one
    for weights in ((0.5, 2, 5, 7), (Fraction(1, 2), 2, 5, 7), (1, "2", 5, 7), (1, 2, 5, 0.5),
                    (None, 2, 5, 7), (1, 2, 5, None), (1, 0.5, "2", None)):
        bad = next(w for w in weights if type(w) is not int)
        for call in (lambda: deg_planes_bott(4, 3, 1, weights),
                     lambda: deg_conics_bott(4, 3, weights),
                     lambda: deg_conics_untwisted_sum(4, 3, weights)):
            with pytest.raises(RegimeError) as err:
                call()
            assert err.value.code == "not-an-integer"
            assert str(err.value) == f"not-an-integer: a weight must be an integer, got {bad!r}"


def test_wrong_weight_counts_and_repeated_weights_are_singular_weights():
    # the untwisted sum divides by no weight difference, so it takes a repeated weight;
    # it divides by every weight and every pair sum, so a zero or an opposite pair is singular
    cases = [(call, weights) for call in (lambda t: deg_planes_bott(4, 3, 1, t),
                                          lambda t: deg_conics_bott(4, 3, t),
                                          lambda t: deg_conics_untwisted_sum(4, 3, t))
             for weights in ((1, 2, 5), (1, 2, 5, 7, 11))]
    cases += [(lambda t: deg_planes_bott(4, 3, 1, t), (1, 2, 2, 7)),
              (lambda t: deg_conics_bott(4, 3, t), (1, 3, 9, 3)),
              (lambda t: deg_conics_untwisted_sum(4, 3, t), (0, 2, 5, 7)),
              (lambda t: deg_conics_untwisted_sum(4, 3, t), (1, -1, 5, 7))]
    for call, weights in cases:
        with pytest.raises(SingularWeightsError) as err:
            call(weights)
        assert err.value.code == "singular-weights"


def test_bott_weight_validation():
    with pytest.raises(SingularWeightsError):
        deg_conics_bott(4, 3, (0, 1, 2, 3))
    with pytest.raises(SingularWeightsError):
        deg_conics_bott(4, 3, (1, -1, 2, 3))
    with pytest.raises(SingularWeightsError):
        deg_conics_bott(4, 3, (1, 2, 3, 4))    # 2+2 = 1+3: sums collide in the plane {0, 1, 2}
    # 1+6 = 3+4 is the only collision, and its four indices span no plane
    assert deg_conics_bott(4, 3, (1, 3, 4, 6)) == (5016, True)
    with pytest.raises(SingularWeightsError):
        deg_conics_bott(4, 3, (1, 1, 3, 9))    # a repeated weight


@pytest.mark.parametrize("dr,expected", sorted(CONIC_DEGREES.items()))
def test_deg_conics_frozen(dr, expected):
    assert deg_conics(*dr) == expected


def test_deg_conics_seed_independent():
    assert deg_conics(4, 3, seed=1) == deg_conics(4, 3, seed=987654) == 2508


def test_deg_conics_regime_errors():
    with pytest.raises(RegimeError) as err:
        deg_conics(5, 4)       # epsilon = 0
    assert err.value.code == "boundary-regime"
    with pytest.raises(RegimeError) as err:
        deg_conics(2, 3)       # epsilon < 0
    assert err.value.code == "conic-family"


# ---------------------------------------------------------------------------
# the untwisted shortcut and the closed form
# ---------------------------------------------------------------------------

def test_untwisted_sum_at_unit_weights():
    for (d, r) in [(4, 3), (5, 3)]:
        value = deg_conics_untwisted_sum(d, r, [1] * (r + 1))
        assert value == -Fraction(6, 32) * comb(r + 1, 3) * ETA_ONES[(d, r)]


@st.composite
def untwisted_sums(draw):
    """A cell and r + 1 int weights the untwisted sum takes, up to 10^6: repeats allowed,
    none zero and no two summing to zero."""
    d, r = draw(st.sampled_from([(4, 3), (5, 3), (6, 4), (7, 5)]))
    scalars = st.one_of(st.integers(-10**6, 10**6), st.integers(-5, 5))
    t = draw(st.lists(scalars, min_size=r + 1, max_size=r + 1))
    assume(0 not in t and all(a + b for a, b in itertools.combinations(t, 2)))
    return d, r, t


@settings(max_examples=60, deadline=None)
@given(untwisted_sums())
@example((4, 3, [1, 1, 1, 1]))
@example((5, 3, [3, 12, 10, 42]))                          # 6 (1/2, 2, 5/3, 7)
@example((7, 5, [7 * 10**6, -6_999_993, 21, -1, 35, 77]))  # 7 (10^6, -999_999, 3, -1/7, 5, 11)
def test_untwisted_sum_adds_one_term_per_plane(inputs):
    # (sum of the six pair sums) / (their product) is the six-term sum of the cofactors
    d, r, t = inputs
    assert deg_conics_untwisted_sum(d, r, t) == six_term_untwisted_sum(d, r, t)


def test_untwisted_sum_is_not_constant():
    a = deg_conics_untwisted_sum(4, 3, (1, 2, 5, 7))
    b = deg_conics_untwisted_sum(4, 3, (1, 3, 7, 12))
    assert a != b


def test_closed_form_value_and_disagreement():
    comparison = deg_conics_closed(5, 3)
    assert comparison.value == -Fraction(5, 32) * comb(4, 3) * ETA_ONES[(5, 3)]
    assert comparison.value == -Fraction(6873514425, 8)
    assert comparison.fixed_point_value == 282880
    assert not comparison.consistent
    assert comparison.ratio == comparison.value / 282880


def test_closed_form_comparison_at_6_4():
    comparison = deg_conics_closed(6, 4)
    assert comparison.value == -4393178803200           # -(5/32)*C(5,3)*eta(1,1,1)
    assert eta_form(6, 4).evaluate((1, 1, 1)) == 2811634434048
    assert comparison.fixed_point_value == 188068995
    assert not comparison.consistent


def test_closed_form_excludes_the_halving_case():
    with pytest.raises(RegimeError) as err:
        deg_conics_closed(4, 3)
    assert err.value.code == "halving-case"


def test_factor_report_contents():
    report = conic_factor_report()
    assert "2508" in report and "5016" in report
    assert "anchor reproduced                           : True" in report
    assert "-(5/32)" in report and "(1,...,1)" in report
    assert str(ETA_ONES[(4, 3)]) in report
    # measured per-plane factor, exact: 5016 / (4 * 14528256)
    assert str(Fraction(5016, 4 * 14528256)) in report
