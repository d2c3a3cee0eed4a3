"""The coefficient-extraction route: degrees of loci of hypersurfaces and complete
intersections containing k-planes, and Plucker-degree integrals over Fano schemes.

Setting: degree-d hypersurfaces in projective r-space, or complete intersections of
multidegree (d_1, ..., d_m).  The k-planes contained in such a variety are cut out, on the
Grassmannian of k-planes, by a section of the d-th symmetric power of the dual tautological
bundle.  Writing x_0, ..., x_k for the Chern roots of that rank-(k+1) bundle, every number
computed here is one coefficient of an explicit symmetric polynomial: multiplying a symmetric
form by the Vandermonde polynomial V turns "coefficient of the top Schur basis element" into
"coefficient of the single monomial x_0^r x_1^{r-1} ... x_k^{r-k}", which one sparse fold,
:func:`_extract`, reads off, applying V as an alternant at readout.  The torus fixed-point
sums of ``planes`` give the plane counts independently; this module imports nothing from
``planes`` or ``conics``, so no extraction can reach a fixed-point kernel.

The problem record ``ProblemSpec``, its regime checks and ``weight_vectors`` are the shared
vocabulary of ``errors``, which this module re-exports.  Only the subcommands that fold load
this module: the ``planes`` methods, ``ci-planes``, ``fano-degree``, ``surface``, ``sweep``
and ``paper-check``, and the conic route through the re-export of ``planes``.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from math import comb, prod
from typing import Sequence

from .errors import (DEFAULT_SEED, ExponentVector, InconsistencyError, ProblemSpec, RegimeError,
                     _check_hypersurface_regime, _check_nonempty_regime, _integer,
                     weight_vectors)

__all__ = ["DEFAULT_SEED", "ExponentVector", "ProblemSpec", "c2_fano_integral", "deg_ci_planes",
           "deg_fano", "deg_planes_dm", "linear_system_dim", "weight_vectors"]


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

def _psi_target(r: int, k: int) -> tuple[int, ...]:
    return tuple(r - i for i in range(k + 1))


def deg_planes_dm(d: int, r: int, k: int) -> int:
    """Degree of the locus of degree-d hypersurfaces in P^r containing a
    k-plane, by single-coefficient extraction.

    Equals the coefficient of x_0^r x_1^{r-1} ... x_k^{r-k} in V * tau, where
    V is the Vandermonde polynomial: only the top-degree component of
    V * prod_{|v| = d} (1 + <v, x>) reaches that monomial, so the extraction
    folds the affine factors directly (the m = 1 case of :func:`deg_ci_planes`).
    """
    _check_hypersurface_regime(d, r, k)
    return _ci_extraction((d,), r, k)


def _q_factors(k: int, degrees: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The forms (v, 0), |v| = d for each d in ``degrees``, in k + 1 variables: Q, not V."""
    return [(v, 0) for d in degrees for v in weight_vectors(k + 1, d)]


@cache
def _alternant(k: int) -> tuple[tuple[ExponentVector, int], ...]:
    """Alternant terms (sigma delta, sgn sigma) of V = prod_{i<j} (x_i - x_j), delta = (k..0)."""
    return tuple((e, -1 if sum(a < b for a, b in combinations(e, 2)) & 1 else 1)
                 for e in permutations(range(k, -1, -1)))


def _extract(target: tuple[int, ...], factors: Sequence[tuple[Sequence[int], int]]) -> int:
    """Coefficient of x^target, target >= 0, in V * G, G = prod_{(v, c) in factors} (c + <v, x>)
    and V the Vandermonde polynomial in n = len(target) variables.  V is the alternant
    sum_sigma sgn(sigma) x^(sigma delta), delta = (n-1, ..., 0), so this folds G alone and
    returns sum_sigma sgn(sigma) [x^(target - sigma delta)] G over the shifts with no negative
    entry.  All shifts lie in target's box, so one fold from the monomial 1 serves them all.
    Its only pruning is the box: a term is dropped once an exponent exceeds target's, which
    loses nothing, as no factor lowers an exponent.

    Every c and v_i must be >= 0 (else InconsistencyError).  Then every coefficient, pruned or
    not, is non-negative, and they sum to at most M = prod max(1, c + sum v), so B =
    M.bit_length() bits hold each with no sign bit and no carry.  The last min(3, n) variables
    share one int: x_(n-1) has a stride of one B-bit field and each outer one t + 2 times the
    next one's, t the next one's target, so every row ends in a guard field and every plane in
    a guard row.  A factor is a shift and add per packed variable, then one AND mask clears
    every guard and all above the outermost target.  A head x_0^e_0 ... x_(n-4)^e_(n-4) is an
    int with a C-bit field i holding e_i + T - 1 - target_i, T = 2^(C-1): times x_i adds
    1 << C*i, and e_i > target_i sets field i's top bit, so the box test is ``key & guard``.
    One term map, head key -> packed tail, holds each step.
    """
    n = len(target)
    for v, c in factors:
        if c < 0 or min(v) < 0:
            raise InconsistencyError(f"the fold needs c, v_i >= 0, got the factor {(v, c)}")
    width = prod(max(1, c + sum(v)) for v, c in factors).bit_length()
    head, tail = target[:-3], target[-3:]
    strides, stride, mask = [], width, (1 << width) - 1
    for t in reversed(tail):   # innermost first: t + 1 copies at this stride, then a guard
        strides.insert(0, stride)
        for i in range(t.bit_length()):   # 2^i copies, doubled: at least t + 1
            mask |= mask << (stride << i)
        mask &= (1 << stride * (t + 1)) - 1
        stride *= t + 2
    cols = max(head, default=0).bit_length() + 2
    top = 1 << (cols - 1)
    shifts = [cols * i for i in range(len(head))]
    offset = sum((top - 1 - ti) << sh for ti, sh in zip(head, shifts))
    guard = sum(top << sh for sh in shifts)
    terms = {offset: 1}   # the monomial 1: every field reads top - 1 - target_i
    for v, c in factors:
        steps = shifts and [(1 << sh, vi) for vi, sh in zip(v, shifts) if vi]
        moves = [(sh, vi) for vi, sh in zip(v[-3:], strides) if vi]
        out: dict[int, int] = {}
        if c or moves:
            for key, p in terms.items():
                q = p if c == 1 else c * p
                for sh, vi in moves:
                    q += p << sh if vi == 1 else vi * p << sh
                out[key] = q & mask
        if steps:   # after every stay: a raise may land on a key that a stay writes
            for key, p in terms.items():
                for step, vi in steps:
                    raised = key + step
                    if not raised & guard:
                        out[raised] = out.get(raised, 0) + (p if vi == 1 else vi * p)
        terms = out
    value = 0
    for e, sign in _alternant(n - 1):
        if any(map(int.__lt__, target, e)):   # the shift has a negative entry
            continue
        packed = terms.get(sum((top - 1 - ei) << sh for ei, sh in zip(e, shifts)), 0)
        low = sum((t - ei) * sh for t, ei, sh in zip(tail, e[-3:], strides))
        value += sign * (packed >> low & (1 << width) - 1)
    return value


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------

def linear_system_dim(r: int, cut_degrees: Sequence[int], d: int) -> int:
    """Dimension of the linear system of degree-d divisors on a general
    complete intersection X of multidegree ``cut_degrees`` in P^r.

    Computed as h^0(X, O_X(d)) - 1 with h^0 obtained by inclusion-exclusion
    over subsets of the cutting degrees (the restriction of degree-d forms is
    surjective and the syzygies of a regular sequence are generated by the
    obvious products).  Heuristic in the sense that it presumes the general
    complete intersection; it is exact for those.
    """
    r, d = _integer("r", r), _integer("d", d)
    cut_degrees = tuple(_integer("a cut degree", e) for e in cut_degrees)
    if r < 0:
        raise RegimeError("ambient-too-small", f"need r >= 0, got r={r}")
    if any(e < 1 for e in cut_degrees):
        raise RegimeError("degree-too-small", f"need every cut degree >= 1, got {cut_degrees}")
    return sum((-1) ** j * comb(d - sum(cut) + r, r) for j in range(len(cut_degrees) + 1)
               for cut in combinations(cut_degrees, j) if sum(cut) <= d) - 1


def deg_ci_planes(spec: ProblemSpec) -> int:
    """Degree of the locus, inside the linear system of degree-d_m divisors on
    a general complete intersection X of multidegree (d_1, ..., d_{m-1}), of
    members containing a k-plane.

    Coefficient of x_0^r ... x_k^{r-k} in Q * theta * V, where Q is the
    product of the purely linear weight forms for d_1, ..., d_{m-1} (the
    class of the Fano scheme of X) and theta is the degree-rho component of
    the affine product for d_m, with rho = C(d_m + k, k) - gamma; :func:`_extract`
    folds 1 + <v, x> for d_m whole, as only theta reaches the target.

    Distinct regime failures carry distinct codes: product-degree-too-small,
    plane-dimension, ambient-fano-empty, gamma-not-positive,
    fano-dimension-negative, linear-system-too-small.
    """
    degrees, r, k, m = spec.degrees, spec.r, spec.k, spec.m
    if prod(degrees) <= 2:
        raise RegimeError(
            "product-degree-too-small",
            f"multidegree {degrees} has product <= 2; quadric loci are excluded")
    if m == 1:
        _check_hypersurface_regime(degrees[0], r, k)
    elif 2 * k > r - (m - 1):
        raise RegimeError(
            "ambient-fano-empty",
            f"2k = {2 * k} > r - (m-1) = {r - m + 1}: the ambient complete "
            "intersection carries no k-planes")
    g = spec.gamma
    if g <= 0:
        raise RegimeError("gamma-not-positive", f"gamma = {g} <= 0")
    rho = comb(degrees[-1] + k, k) - g
    if rho < 0:
        raise RegimeError(
            "fano-dimension-negative",
            f"the ambient Fano scheme has expected dimension {rho} < 0")
    sys_dim = linear_system_dim(r, degrees[:-1], degrees[-1])
    if sys_dim <= g:
        raise RegimeError(
            "linear-system-too-small",
            f"the degree-{degrees[-1]} system on the ambient complete intersection "
            f"has dimension {sys_dim} <= gamma = {g}")
    return _ci_extraction(degrees, r, k)


def _ci_extraction(degrees: tuple[int, ...], r: int, k: int) -> int:
    """Coefficient of x_0^r ... x_k^{r-k} in V * Q * prod_{|v| = d_m} (1 + <v, x>), by
    :func:`_extract`, with Q the product for d_1, ..., d_{m-1}."""
    factors = _q_factors(k, degrees[:-1]) + [(v, 1) for v in weight_vectors(k + 1, degrees[-1])]
    value = _extract(_psi_target(r, k), factors)
    if value <= 0:
        raise InconsistencyError(
            f"deg for degrees {degrees}, r={r}, k={k} computed as {value}; expected a "
            "positive integer (implementation bug)")
    return value


# ---------------------------------------------------------------------------
# Fano schemes of positive expected dimension
# ---------------------------------------------------------------------------

def _fano_extraction(spec: ProblemSpec, target: tuple[int, ...], ones: int) -> int:
    """Coefficient of x^target in V * Q * (x_0 + ... + x_k)^ones, by :func:`_extract`."""
    factors = _q_factors(spec.k, spec.degrees) + [((1,) * (spec.k + 1), 0)] * ones
    # degree bookkeeping: V and every factor are homogeneous, V of degree C(k+1, 2) and
    # each factor of degree 1, and the product must have exactly the target degree
    degree = len(factors) + comb(spec.k + 1, 2)
    if degree != sum(target):
        raise InconsistencyError(f"a product of degree {degree} misses "
                                 f"the target degree {sum(target)} for {spec}")
    return _extract(target, factors)


def deg_fano(spec: ProblemSpec) -> int:
    """Degree, under the Plucker embedding, of the Fano scheme of k-planes in
    a general complete intersection of the given multidegree.

    Coefficient of x_0^r ... x_k^{r-k} in Q * (x_0 + ... + x_k)^delta * V.
    Valid when delta >= 0 and r >= 2k + m (the non-emptiness regime).
    """
    if spec.delta < 0:
        raise RegimeError("delta-negative",
                          f"expected dimension delta = {spec.delta} < 0: Fano scheme empty")
    _check_nonempty_regime(spec)
    value = _fano_extraction(spec, _psi_target(spec.r, spec.k), spec.delta)
    if value <= 0:
        raise InconsistencyError(f"deg F = {value} for {spec}; expected positive")
    return value


def c2_fano_integral(spec: ProblemSpec) -> int:
    """Integral over the Fano surface of the second Chern class of the dual
    tautological bundle: the coefficient in Q * e_2 of s_rect, the Schur function of
    the (k+1) x (r-k) rectangle.  Only defined in the surface case delta = 2, where
    the degree bookkeeping matches the Grassmannian dimension exactly, and in the
    non-emptiness regime r >= 2k + m.

    By Pieri's rule e_2 s_lambda reaches s_rect from one lambda only, the rectangle
    less the two bottom boxes of its last column, so the integral is the coefficient
    of s_lambda in Q: that of x^(psi - e_(k-1) - e_k) in V * Q, psi = (r, ..., r-k).
    """
    if spec.delta != 2:
        raise RegimeError("delta-not-two",
                          f"c2 integral needs a Fano surface (delta = 2), got delta = {spec.delta}")
    _check_nonempty_regime(spec)
    *top, second, last = _psi_target(spec.r, spec.k)
    return _fano_extraction(spec, (*top, second - 1, last - 1), 0)
