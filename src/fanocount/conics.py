"""Degree of the locus of degree-d hypersurfaces in P^r containing a conic.

The parameter space of plane conics in P^r is a P^5-bundle over the
Grassmannian of planes, of dimension 3r - 1.  Restricting degree-d forms to
the universal conic gives a rank-(2d+1) bundle; the degree of the
containing-a-conic locus (codimension epsilon = 2d + 2 - 3r, assumed
positive) is the integral of its Chern class of degree 3r - 1 over the
parameter space.

Writing x_1, x_2, x_3 for the Chern roots of the rank-3 bundle of linear
forms on the moving plane, the restriction bundle sits in an exact sequence
whose sub term is the degree-(d-2) symmetric power multiplied by the
universal conic equation.  Its Chern series is therefore the product over
weight vectors of total weight d, divided by the series for total weight
d - 2 -- with one caveat that matters for fixed-point sums: the conic
equation is only well defined up to scale, so the sub-bundle is twisted by
the tautological line of the P^5 fiber.  The 3-variable form ``eta_form``
ignores that twist (the twist contributes nothing when the fiber class is
suppressed); the 4-variable form ``eta_form_twisted`` keeps it.  The torus
fixed-point sums never expand these forms.  The six fixed conics of a coordinate
plane add up to an integer, the integral over its P^5 fiber, divided once over the
least common denominator of their Euler terms, and the conic sum is
``planes._plane_sum`` over those integrals.  At the fixed conic x_a x_b = 0 the
twisted divisor's roots are those of the monomials x_a x_b x^w, which cancel part of
the numerator: the twisted term is the top elementary symmetric function of the
2d + 1 weights of H^0(O_C(d)) (as in Ellingsrud-Stromme), read without division from
packed products of coordinate edges (``deg_conics_bott``).  The forms remain as the
references the tests check it against.  The dispatcher validates the sum by
recomputing at a second weight set and, for quartic surfaces, halves the result (the
general quartic surface in the locus carries two conics).

``conic_factor_report`` documents, with exact numbers, why the untwisted
per-plane shortcut and the once-published closed form -(5/32) C(r+1,3)
eta(1,1,1) both fail the anchor value deg = 2508 for (d, r) = (4, 3), while
the twisted fixed-point sum reproduces it.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb, prod
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import (DEFAULT_SEED, InconsistencyError, RegimeError, SingularWeightsError, _integer,
                     weight_vectors)
from .planes import TorusWeights, _check_weight_count, _layout, _plane_sum, _roots, _weight_tuple

if TYPE_CHECKING:
    # fractions (with decimal) is imported where a rational value is built, and the
    # symbolic layer by the reference forms when they run
    from fractions import Fraction

    from .polycore import MultiPoly, TruncatedSeries

__all__ = [
    "BottSum",
    "ClosedFormComparison",
    "ConicFixedPoint",
    "ConicProblem",
    "chern_Ed_series",
    "conic_factor_report",
    "conic_fixed_points",
    "deg_conics",
    "deg_conics_bott",
    "deg_conics_closed",
    "deg_conics_untwisted_sum",
    "eta_form",
    "eta_form_twisted",
    "fixed_point_census",
    "generic_conic_weights",
]


class ConicProblem(NamedTuple("ConicProblem", [("d", int), ("r", int)])):
    """Hypersurfaces of degree d in P^r, probed for plane conics."""

    __slots__ = ()

    def __new__(cls, d: int, r: int):
        d, r = _integer("d", d), _integer("r", r)
        if d < 2:
            raise RegimeError("degree-too-small", f"need d >= 2, got d={d}")
        if r < 3:
            raise RegimeError("ambient-too-small", f"need r >= 3, got r={r}")
        return super().__new__(cls, d, r)

    @classmethod
    def _make(cls, iterable):   # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def epsilon(self) -> int:
        """Codimension of the containing-a-conic locus."""
        return 2 * self.d + 2 - 3 * self.r

    @property
    def two_conics(self) -> bool:
        """Whether the general member of the locus carries two conics, so the
        fixed-point sum counts it twice and :func:`deg_conics` halves it.  The plane
        of a conic cuts a degree-d member in that conic plus a residual curve of
        degree d - 2, a second conic when d = 4; with epsilon > 0 that is
        (d, r) = (4, 3), quartic surfaces."""
        return self.d == 4 and self.epsilon > 0


# ---------------------------------------------------------------------------
# Chern series of the restriction bundle
# ---------------------------------------------------------------------------

def chern_Ed_series(d: int, bound: int) -> TruncatedSeries:
    """Chern series of the rank-(2d+1) bundle of degree-d forms on the
    universal conic, in the 3 Chern roots of the rank-3 bundle of linear
    forms: [prod over |v| = d of (1 + <v, x>)] / [same with d - 2].

    d = 1 is the rank-3 bundle itself; d = 2 divides by the empty product.
    """
    from .polycore import TruncatedSeries, weighted_linear_product
    if d < 1:
        raise RegimeError("degree-too-small", f"need d >= 1, got d={d}")
    if bound < 1:
        raise RegimeError("series-bound-too-small", f"need bound >= 1, got bound={bound}")
    numerator = TruncatedSeries(weighted_linear_product(2, d, affine=True, bound=bound),
                                bound)
    if d <= 2:
        return numerator
    denominator = TruncatedSeries(
        weighted_linear_product(2, d - 2, affine=True, bound=bound), bound)
    return numerator * denominator.inverse()


def eta_form(d: int, r: int) -> MultiPoly:
    """Homogeneous component of degree 3r - 1 of :func:`chern_Ed_series`:
    a symmetric form in 3 variables."""
    _conic_problem(d, r)
    n = 3 * r - 1
    return chern_Ed_series(d, n).homogeneous_component(n)


def eta_form_twisted(d: int, r: int) -> MultiPoly:
    """Degree-(3r-1) top Chern form of the restriction bundle keeping the
    fiber twist: a form in 4 variables (x_1, x_2, x_3, z), where z is the
    hyperplane class of the P^5 fiber.

    The sub-bundle of multiples of the universal conic equation has Chern
    roots <w, x> - z (the equation is a point of the fiber, so its line
    twists the embedding), hence the series divides by
    prod_{|w| = d - 2} (1 + <w, x> - z).  Setting z = 0 recovers
    :func:`eta_form`.
    """
    from .polycore import MultiPoly, TruncatedSeries
    _conic_problem(d, r)
    n = 3 * r - 1
    numerator = MultiPoly.one(4)
    for v in weight_vectors(3, d):
        numerator = numerator.mul(MultiPoly.linear_form((*v, 0), 1), bound=n)
    series = TruncatedSeries(numerator, n)
    if d > 2:
        denominator = MultiPoly.one(4)
        for w in weight_vectors(3, d - 2):
            denominator = denominator.mul(MultiPoly.linear_form((*w, -1), 1), bound=n)
        series = series * TruncatedSeries(denominator, n).inverse()
    return series.homogeneous_component(n)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

ConicFixedPoint = tuple[tuple[int, int, int], tuple[int, int]]


def conic_fixed_points(r: int) -> Iterator[ConicFixedPoint]:
    """Torus-fixed conics: a coordinate plane (3-subset I of {0..r}) together
    with an unordered pair {a, b} from I, a = b allowed (the double line
    x_a^2 = 0).  Six conics per plane."""
    for plane in combinations(range(r + 1), 3):
        for pair in combinations_with_replacement(plane, 2):
            yield plane, pair


def fixed_point_census(r: int) -> int:
    """Count the torus-fixed conics by enumeration and check the closed form
    r(r^2 - 1) = 6 C(r+1, 3)."""
    if _integer("r", r) < 2:
        raise RegimeError("ambient-too-small", f"need r >= 2, got r={r}")
    count = sum(1 for _ in conic_fixed_points(r))
    if count != r * (r * r - 1):
        raise InconsistencyError(
            f"fixed-point enumeration gave {count}, closed form gives {r * (r * r - 1)}")
    return count


def generic_conic_weights(r: int, seed: int) -> TorusWeights:
    """Distinct positive integer weights with all pairwise sums t_a + t_b (a <= b) distinct, so
    the six inside every 3-subset are, which is all the twisted sum needs; deterministic in
    ``seed``, an integer.  Only the untwisted sum needs more, nonzero weights and no opposite
    pairs, which positivity gives.  The weights are r + 1 elements, in drawn order, of the
    Erdos-Turan Sidon set {2p i + (c i^2 mod p) : 0 <= i < p}, p the least prime > r (<= 2r + 2,
    Bertrand) and c a drawn unit mod p (a pair sum fixes i + j and i^2 + j^2 mod p, hence
    {i, j}), plus a drawn positive shift, so no draw is rejected: the first :func:`_sidon_draw`
    from ``_splitmix64(seed)``, as in ``deg_conics``."""
    _check_weight_count(r)
    return _sidon_draw(r, _sidon_prime(r), _splitmix64(_integer("seed", seed)))


def _sidon_prime(r: int) -> int:
    """The least prime p > r, at least 2."""
    p = max(r + 1, 2)
    while not all(map(p.__mod__, range(2, p))):
        p += 1
    return p


def _splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream of 64-bit ints from ``seed`` mod 2^64, in plain int arithmetic."""
    state, full = seed, (1 << 64) - 1
    while True:
        state = state + 0x9E3779B97F4A7C15 & full
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & full
        z = (z ^ z >> 27) * 0x94D049BB133111EB & full
        yield z ^ z >> 31


def _sidon_draw(r: int, p: int, words: Iterator[int]) -> TorusWeights:
    """A draw of :func:`generic_conic_weights`, p = ``_sidon_prime(r)``: c, the shift and the
    indices (a partial Fisher-Yates shuffle) are the digits of a divmod chain on 64-bit ``words``,
    with 32 bits to spare over their radix (p - 1) 2p^2 p!/(p-r-1)! < 2p^(r+4).  At r + 1 = p two
    draws can give the same set; ``deg_conics`` redraws then."""
    x, pool = next(words), list(range(p))
    for _ in range(((r + 4) * p.bit_length() + 32) // 64):
        x = x << 64 | next(words)
    x, unit = divmod(x, p - 1)
    x, shift = divmod(x, 2 * p * p)
    for m in range(r + 1):   # position m takes one of the p - m indices left, then its weight
        x, j = divmod(x, p - m)
        i, pool[m + j] = pool[m + j], pool[m]
        pool[m] = 2 * p * i + (unit + 1) * i * i % p + shift + 1
    return TorusWeights(pool[:r + 1])


class BottSum(NamedTuple):
    """Raw fixed-point sum, an int if integral and else a ``Fraction``, plus an integrality flag."""

    value: int | Fraction
    is_integral: bool


def _eta(d: int, r: int, point: Sequence[int]) -> int:
    """``eta_form(d, r).evaluate(point)`` at an int point, by its definition: the Z^n
    coefficient, n = 3r - 1, of prod (1 + aZ) over the roots a = <v, point>, |v| = d, divided
    by prod (1 + bZ) over the degree-(d-2) roots b.  The n + 1 int coefficients of the series
    truncated at Z^n take each factor (1 + aZ) from the top coefficient down, then divide by
    each (1 + bZ) in place from the bottom coefficient up."""
    n = 3 * r - 1
    coeffs = [1] + [0] * n
    for a in _roots(d, point):
        for j in range(n, 0, -1):
            coeffs[j] += a * coeffs[j - 1]
    for b in _roots(d - 2, point):
        for j in range(1, n + 1):
            coeffs[j] -= b * coeffs[j - 1]
    return coeffs[n]


def _fiber_cofactors(plane: list[int]) -> tuple[int, tuple[int, ...]]:
    """D and the cofactors D / Q_c of a plane's conics x_a x_b = 0, ab = 00, 01, 02, 11, 12, 22."""
    x0, x1, x2 = plane
    e01, e02, e12 = x0 - x1, x0 - x2, x1 - x2
    g0, g1, g2 = e01 + e02, e12 - e01, -e02 - e12
    denominator = 4 * (e01 * e02 * e12) ** 2 * g0 * g1 * g2
    if not denominator:
        raise SingularWeightsError(f"pair sums collide inside the plane of weights {plane}")
    return denominator, (e12 * e12 * g1 * g2, 4 * e02 * e12 * g0 * g1, -4 * e01 * e12 * g0 * g2,
                         e02 * e02 * g0 * g2, 4 * e01 * e02 * g1 * g2, e01 * e01 * g0 * g1)


def _conic_problem(d: int, r: int) -> ConicProblem:
    """``ConicProblem(d, r)``, refused when epsilon < 0."""
    problem = ConicProblem(d, r)
    if problem.epsilon < 0:
        raise RegimeError(
            "conic-family",
            f"epsilon({d},{r}) = {problem.epsilon} < 0: conics move in positive-"
            "dimensional families and the locus degree is undefined")
    return problem


def _check_conic_degree_regime(d: int, r: int) -> ConicProblem:
    problem = _conic_problem(d, r)
    if problem.epsilon == 0:
        raise RegimeError(
            "boundary-regime",
            f"epsilon({d},{r}) = 0: members carry finitely many conics but the "
            "uniqueness statement needs epsilon > 0; no validated degree is returned")
    # epsilon > 0 is exactly rank(E_d) = 2d+1 > 3r-1 = dim of the parameter space
    return problem


def deg_conics_bott(d: int, r: int, t: Sequence[int]) -> BottSum:
    """Torus fixed-point sum for the conic-locus degree, with the fiber twist.

    For each fixed conic c (plane I = {i, j, k}, equation x_a x_b = 0):

    * local Chern contribution N_c: e_{3r-1} of the 2d + 1 roots <v, x> of the degree-d
      monomials x^v not divisible by x_a x_b at x = (-t_i, -t_j, -t_k),
      ``eta_form_twisted`` there with fiber class t_a + t_b; the top field of a ``_pack``ed
      product in one ``_layout`` (its window and field width) for the whole sum, each root
      at most R = d max |t|;
    * Euler term: (-1)^r prod over alpha in I, beta outside I of (t_beta - t_alpha),
      times Q_c, the product over the five pairs {p, q} != {a, b} of t_a + t_b - t_p - t_q.

    A plane's six N_c / Q_c add up to the integral over its P^5 fiber, an integer (the
    push-forward of an integral class).  With weights (x0, x1, x2), e_ab = x_a - x_b and
    g_a = 2 x_a - x_b - x_c, the pair-sum differences are e_ab, 2 e_ab and g_a up to sign,
    so every Q_c divides D = 4 (e01 e02 e12)^2 g0 g1 g2; the cofactors D / Q_c are
    e12^2 g1 g2, 4 e02 e12 g0 g1, -4 e01 e12 g0 g2, e02^2 g0 g2, 4 e01 e02 g1 g2, e01^2 g0 g1
    (``_fiber_cofactors``).  A remainder of sum_c N_c cof_c over D raises
    :class:`InconsistencyError`: it is one of sum_c N_c V6 / Q_c over V6, the pair sums'
    Vandermonde product 2 (e01 e02 e12)^2 D; no Q_c is +-1, so no cofactor is a multiple of D.

    Most roots depend on one edge {i, j} of the plane only, so each edge is packed once per
    call, in dicts keyed by weight: the d - 1 roots with v_i, v_j >= 1, then one root each for
    F_i->j (v_i >= 1) and F_j->i (v_j >= 1), and one more for the whole edge E_ij, d + 2 steps.
    Packing is a ring map modulo 2^(B(w+1)), so the conic x_a x_b = 0, a != b, is
    E_bc F_a->c, one product, and the double line x_a^2 = 0 extends E_bc by its d other
    roots: (d + 2) C(r+1, 2) + 3d C(r+1, 3) steps and 3 C(r+1, 3) products per sum.  The
    fiber loops over the plane's three vertices a, (a, b, c) in cyclic order, and reads the
    double line x_a^2 = 0 and the pair conic x_a x_b = 0 at each.  Each step is ``_pack``'s
    and each readout ``_unpack``'s, written in-line: no helper call per root or per conic
    and no tuple keys to hash.  A product is left unreduced, as the readout takes field w
    only.

    No denominator holds t_a or t_a + t_b, so zero weights and opposite pairs are valid.
    A repeated weight (``_plane_sum``) and two equal pair sums in one plane (D = 0, refused
    before any cofactor is formed) raise :class:`SingularWeightsError`.  The sum is a
    constant positive integer, returned as an int with an integrality flag by one ``divmod``
    by the plane walk's denominator; only a sum that is not an integer, which takes a faulty
    kernel, is returned as a ``Fraction``.  Halving for (d, r) = (4, 3) is the dispatcher's job.
    """
    _check_conic_degree_regime(d, r)
    weights = _weight_tuple(t, r)
    width, mask, low, y = _layout(3 * r - 1, 2 * d + 1, d * max(map(abs, weights)))
    # _unpack in-line: the rounding half plus 2^(B-1) in field w, so the sign fix subtracts it
    field, top = (1 << width) - 1, 1 << width - 1
    offset = (1 << low >> 1) + (top << low)
    # wholes[t_i][t_j] = E_ij and toward[t_i][t_j] = F_i->j, both orders of each edge; on root
    # values (x, y) = (-t_i, -t_j) the degree-d roots are d y + m (x - y), m = 0..d.  Each step
    # is _pack's: times (a + Y) with y, else times (1 + a Z)
    wholes, toward = {ti: {} for ti in weights}, {ti: {} for ti in weights}
    for ti, tj in combinations(weights, 2):
        a, step, inner = -ti - (d - 1) * tj, tj - ti, 1
        for _ in range(d - 1):   # not a range, whose step may not be 0: _plane_sum refuses it
            inner = (a * inner + (inner << width) if y else inner + (a * inner << width)) & mask
            a += step
        a, b = -d * ti, -d * tj
        toward[ti][tj] = from_i = (a * inner + (inner << width) if y
                                   else inner + (a * inner << width)) & mask
        toward[tj][ti] = (b * inner + (inner << width) if y
                          else inner + (b * inner << width)) & mask
        wholes[ti][tj] = wholes[tj][ti] = (b * from_i + (from_i << width) if y
                                           else from_i + (b * from_i << width)) & mask

    def fiber(plane: list[int], _: int) -> int:
        x0, x1, x2 = plane
        denominator, (c00, c01, c02, c11, c12, c22) = _fiber_cofactors(plane)
        numerator = 0
        # at vertex a, (a, b, c) a cyclic order, x_a^2 = 0 extends E_bc by x_a times its
        # degree-(d-1) roots and x_a x_b = 0 is E_bc F_a->c, left unreduced: field w of a
        # product does not depend on the bits above the window
        for xa, xb, xc, double, pair in ((x0, x1, x2, c00, c01), (x1, x2, x0, c11, c12),
                                         (x2, x0, x1, c22, c02)):
            conic = edge = wholes[xb][xc]
            start, step = -xa - (d - 1) * xc, xc - xb
            for a in range(start, start + d * step, step):
                conic = (a * conic + (conic << width) if y else conic + (a * conic << width)) & mask
            for conic, cofactor in ((conic, double), (edge * toward[xa][xc], pair)):
                numerator += ((conic + offset >> low & field) - top) * cofactor
        value, remainder = divmod(numerator, denominator)
        if remainder:
            raise InconsistencyError(f"fiber sum at plane weights {plane} is not an integer")
        return value

    # with d = 0 the plane walk packs no roots, and fiber ignores its product
    numerator, denominator = _plane_sum(r, 2, weights, fiber)
    value, remainder = divmod((-1) ** r * numerator, denominator)
    if remainder:   # only a faulty kernel leaves one
        from fractions import Fraction
        return BottSum(Fraction((-1) ** r * numerator, denominator), False)
    return BottSum(value, True)


def deg_conics_untwisted_sum(d: int, r: int, t: Sequence[int]) -> Fraction:
    """The fixed-point shortcut that drops the fiber twist:

        - sum over planes and pairs of
          eta(t_i, t_j, t_k) / [(t_i t_j t_k)^{r-2} prod_{5 pairs}(t_p + t_q)].

    Kept runnable for comparison.  This expression is NOT constant in the
    weights (the per-plane numerator cannot see which of the six conics is
    being localized), so it carries no enumerative meaning at generic
    weights; at the all-ones assignment it collapses to
    -(6/32) C(r+1, 3) eta(1,1,1), the per-plane factor documented by
    :func:`conic_factor_report`.

    Each plane adds one exact term: sum_c 1/prod_{c' != c} s_c' = (sum_c s_c)/prod_c s_c
    over its six pair sums s_c, and those add up to 4(t_i + t_j + t_k).
    """
    _check_conic_degree_regime(d, r)
    weights = _weight_tuple(t, r)
    if 0 in weights:
        raise SingularWeightsError("the untwisted sum divides by every weight; one is zero")
    if any(a + b == 0 for a, b in combinations(weights, 2)):
        raise SingularWeightsError("the untwisted sum divides by every pair sum; one is zero")
    from fractions import Fraction
    total = Fraction(0)
    for plane in combinations(weights, 3):
        pair_sums = [a + b for a, b in combinations_with_replacement(plane, 2)]
        total += Fraction(_eta(d, r, plane) * 4 * sum(plane),
                          prod(plane) ** (r - 2) * prod(pair_sums))
    return -total


def deg_conics(d: int, r: int, seed: int = DEFAULT_SEED) -> int:
    """Validated degree of the locus of degree-d hypersurfaces in P^r
    containing a conic.

    Runs the twisted fixed-point sum at two weight assignments that differ as
    sets, the first two distinct :func:`_sidon_draw` draws from one ``_splitmix64(seed)``
    (the first is :func:`generic_conic_weights`), checks the two values agree and are
    integral, halves where the general member carries two conics
    (:attr:`ConicProblem.two_conics`), and returns a positive integer.  The seed, an
    integer, fixes the weights, not the value.
    """
    problem = _check_conic_degree_regime(d, r)
    p, words = _sidon_prime(r), _splitmix64(_integer("seed", seed))
    weights = _sidon_draw(r, p, words)
    # permuted weights give the same sum even from a wrong kernel: redraw a repeated set
    for _ in range(64):
        other = _sidon_draw(r, p, words)
        if sorted(other) != sorted(weights):
            break
    else:
        raise InconsistencyError(f"64 redraws for ({d},{r}) all repeat the first weight set")
    first, second = deg_conics_bott(d, r, weights), deg_conics_bott(d, r, other)
    if first.value != second.value:
        raise InconsistencyError(
            f"fixed-point sum for ({d},{r}) is not constant: {first.value} vs {second.value}")
    if not first.is_integral:
        raise InconsistencyError(f"fixed-point sum for ({d},{r}) is not an integer: {first.value}")
    value = int(first.value)
    if problem.two_conics:
        if value % 2 != 0:
            raise InconsistencyError(f"quartic-surface count {value} is odd; cannot halve")
        value //= 2
    if value <= 0:
        raise InconsistencyError(f"conic-locus degree for ({d},{r}) is {value} <= 0")
    return value


class ClosedFormComparison(NamedTuple):
    """The published closed form next to the validated fixed-point value, a positive
    integer (:func:`deg_conics`), and their exact ratio."""

    value: Fraction
    fixed_point_value: Fraction
    consistent: bool
    ratio: Fraction


def deg_conics_closed(d: int, r: int, seed: int = DEFAULT_SEED,
                      reference: int | None = None) -> ClosedFormComparison:
    """Evaluate the closed form -(5/32) C(r+1, 3) eta(1,1,1) exactly, as published, next to
    the validated fixed-point sum: ``reference`` if the caller has it, else ``deg_conics``'s.

    The two disagree (see :func:`conic_factor_report`); the comparison records
    the exact ratio.  Advisory only: the dispatcher never uses this value.
    """
    if _check_conic_degree_regime(d, r).two_conics:
        raise RegimeError("halving-case",
                          "the closed form excludes (4, 3), where the count halves")
    from fractions import Fraction
    value = -Fraction(5, 32) * comb(r + 1, 3) * _eta(d, r, (1, 1, 1))
    reference = Fraction(deg_conics(d, r, seed=seed) if reference is None else reference)
    return ClosedFormComparison(value, reference, value == reference, value / reference)


def conic_factor_report(anchor: int | None = None) -> str:
    """Generated report reconciling the three conic-degree routes against the
    anchor deg = 2508 for quartic surfaces in P^3.

    Documents the measured per-plane factor of the fixed-point route next to
    the -(5/32) of the closed form and the -(6/32) that termwise evaluation
    of the untwisted sum at unit weights produces.

    ``anchor`` is ``deg_conics(4, 3)`` when the caller has already computed
    it; otherwise the report computes it.  The twisted sum is twice that
    value: :func:`deg_conics` checked it at two weight draws before halving.
    """
    from fractions import Fraction
    d, r = 4, 3
    eta_ones = _eta(d, r, (1, 1, 1))
    planes_count = comb(r + 1, 3)
    halved = deg_conics(d, r) if anchor is None else anchor
    twisted = Fraction(2 * halved)
    untwisted_ones = deg_conics_untwisted_sum(d, r, [1] * (r + 1))
    closed_candidate = -Fraction(5, 32) * planes_count * eta_ones
    measured_factor = twisted / (planes_count * eta_ones)

    lines = [
        "conic-degree reconciliation report (anchor: quartic surfaces in P^3)",
        "---------------------------------------------------------------------",
        f"eta(1,1,1) for (d,r)=({d},{r})              : {eta_ones}",
        f"number of coordinate planes C(r+1,3)        : {planes_count}",
        f"twisted fixed-point sum (constant in t)     : {twisted}",
        f"after halving (two conics per quartic)      : {halved}",
        f"anchor value                                : 2508",
        f"anchor reproduced                           : {halved == 2508}",
        "",
        f"closed form -(5/32)*C(r+1,3)*eta(1,1,1)     : {closed_candidate}",
        f"untwisted sum at t = (1,...,1)              : {untwisted_ones}",
        f"  equals -(6/32)*C(r+1,3)*eta(1,1,1)        : "
        f"{untwisted_ones == -Fraction(6, 32) * planes_count * eta_ones}",
        f"measured factor  sum / (C(r+1,3)*eta(1,1,1)): {measured_factor}",
        "",
        "verdict: the anchor 2508 singles out the twisted fixed-point sum; the",
        "published per-plane factors -5/32 and -6/32 both fail it, and the",
        "untwisted sum is not even constant in the weights.  The measured",
        "factor above is specific to (4,3): the fixed-point value is not a",
        "multiple of eta(1,1,1) in any uniform sense.",
    ]

    extra_d, extra_r = 5, 3
    eta_ones_2 = _eta(extra_d, extra_r, (1, 1, 1))
    comparison = deg_conics_closed(extra_d, extra_r)
    lines += [
        "",
        f"supplementary row (d,r)=({extra_d},{extra_r}):",
        f"  fixed-point degree                        : {comparison.fixed_point_value}",
        f"  closed form -(5/32)*C(r+1,3)*eta(1,1,1)   : {comparison.value}",
        f"  eta(1,1,1)                                : {eta_ones_2}",
        f"  agreement                                 : {comparison.consistent}"
        + (f" (exact ratio {comparison.ratio})" if not comparison.consistent else ""),
    ]
    return "\n".join(lines)
