"""Degrees of loci of hypersurfaces containing k-planes by torus fixed-point sums.

The torus acting on the Grassmannian of k-planes by rescaling coordinates has one
fixed point per coordinate k-plane, and each plane count of ``extraction`` is also a
sum over them.  Those planes are walked as a prefix tree of index sets, so each
plane's local value extends its parent prefix's packed product by only the roots
that involve its newest coordinate.  The two routes must agree exactly, which the
test suite exercises on a grid.  This module also re-exports the extraction route's
names, so ``planes.deg_fano`` is ``extraction.deg_fano``.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import (DEFAULT_SEED, InconsistencyError, RegimeError, SingularWeightsError,
                     _check_hypersurface_regime, _check_plane_dimension, _integer)
from .extraction import c2_fano_integral, deg_ci_planes, deg_fano, deg_planes_dm

if TYPE_CHECKING:   # the reference form tau_poly imports the symbolic layer when it runs
    from .polycore import MultiPoly

__all__ = ["TorusWeights", "c2_fano_integral", "deg_ci_planes", "deg_fano", "deg_planes_bott",
           "deg_planes_dm", "tau_poly"]


class TorusWeights(tuple):
    """Weights t_0, ..., t_r of the torus rescaling the r+1 coordinates: a
    tuple of the weights themselves."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"TorusWeights(t={tuple(self)!r})"

    @classmethod
    def random(cls, r: int, seed: int) -> "TorusWeights":
        """r+1 distinct random integer weights from [-b, b], b = max(50, r);
        deterministic in ``seed``, an integer (else ``not-an-integer``)."""
        _check_weight_count(r)
        bound = max(50, r)
        rng = random.Random(_integer("seed", seed))
        return cls(rng.sample(range(-bound, bound + 1), r + 1))


def _check_weight_count(r: int) -> None:
    if _integer("r", r) < 0:
        raise RegimeError("ambient-too-small", f"need r >= 0 to draw r + 1 weights, got r={r}")


def _weight_tuple(t: Sequence[int], r: int) -> tuple[int, ...]:
    """The r + 1 weights as ints by ``operator.index`` in one ``map``, else by :func:`_integer`,
    whose coded error names the first bad weight.  Every term of a fixed-point sum has degree 0
    in the weights, so an integer multiple serves wherever rational weights would."""
    tt = tuple(t)
    if len(tt) != r + 1:
        raise SingularWeightsError(f"need r+1 = {r + 1} weights, got {len(tt)}")
    try:
        return tuple(map(index, tt))
    except TypeError:
        return tuple(map(partial(_integer, "a weight"), tt))


@lru_cache(maxsize=None, typed=True)   # typed: 4.0 must not hit the entry of 4
def tau_poly(d: int, r: int, k: int) -> MultiPoly:
    """Top Chern form for k-planes in degree-d hypersurfaces of P^r: the
    homogeneous degree-(k+1)(r-k) component of
    prod_{|v| = d} (1 + v_0 x_0 + ... + v_k x_k) in k+1 variables.

    Symmetric in the variables.  The codimension gate (gamma > 0, d >= 3)
    belongs to the degree computations, not to the form itself.  Only tests
    expand it, as the reference for the kernel :func:`deg_planes_bott` uses.
    """
    from .polycore import weighted_linear_product
    d, r, k = _integer("d", d), _integer("r", r), _integer("k", k)
    if d < 1:
        raise RegimeError("degree-too-small", f"need d >= 1, got d={d}")
    _check_plane_dimension(r, k)
    n = (k + 1) * (r - k)
    return weighted_linear_product(k, d, affine=True, bound=n).homogeneous_component(n)


def _roots(d: int, point: Sequence[int]) -> list[int]:
    """Values <v, point>, |v| = d: the Chern roots of the d-th symmetric power of a bundle whose
    Chern roots take the values ``point``.  Each v is a multiset of d indices, so <v, point> is
    the sum of a d-combination with replacement of the point's entries.  Only ``conics._eta``
    and the tests build roots this way; :func:`_plane_sum` grows them along its prefix walk."""
    return [sum(c) for c in combinations_with_replacement(point, d)]


def _z_width(n: int, size: int) -> int:
    """B for the Z window: each kept e_m, m <= n, of roots with sum |a| <= S = size has
    |e_m| <= S^m / m! <= S^q // q! < 2^(B-1), q = min(n, S)."""
    top = min(n, size)
    return (size ** top // factorial(top)).bit_length() + 1


def _layout(n: int, count: int, size: int) -> tuple[int, int, int, bool]:
    """One packing of e_n of L = ``count`` integer roots, each at most R = ``size`` in
    absolute value, as (B, mask, low, y) for :func:`_pack` and :func:`_unpack`: a window of
    w + 1 B-bit fields, with gamma = L - n.

    * 0 <= gamma <= n, L > 0: prod (a + Y) mod Y^(gamma+1), w = gamma.  Field j holds
      e_(L-j), so the readout field w is e_n, and B = max(C(L,n) R^n, C(L,n') R^n')
      .bit_length() + 2 with n' = min(n + 1, L).  The readout is exact because:

      1. |e_m| <= C(L,m) R^m, a sum of C(L,m) products of m roots; so |e_n| < 2^(B-2)
         fits with its sign, and e_(n+1), in field w - 1, is below 2^(B-2) too.
      2. Each field under e_(n+1) is less than a quarter of the field above it: for
         m >= n + 2, C(L,m) R^m 2^(B(L-m)) over C(L,m-1) R^(m-1) 2^(B(L-m+1)) is
         R (L-m+1) / (m 2^B) < R / 2^B <= 1/4, as L-m+1 < gamma <= n < m and
         R <= C(L,n') R^n' < 2^(B-2) for R >= 1 (R = 0 makes every e_m, m >= 1, zero).
      3. So the fields under e_n sum to less than 2^(B(w-1)) 2^(B-2) (1 + 1/4 + 1/16 + ...)
         < 2^(Bw-1) in absolute value, which the rounding readout absorbs.

    * otherwise: prod (1 + a Z) mod Z^(n+1), w = n, and B from :func:`_z_width`
      (for gamma < 0 the readout is e_n = 0).

    The bounds hold for every root list of that count and size, so a fixed-point sum
    fixes one layout for all its fixed points."""
    gamma = count - n
    y = count > 0 and 0 <= gamma <= n
    if y:
        above = min(n + 1, count)
        window, width = gamma, max(comb(count, n) * size ** n,
                                   comb(count, above) * size ** above).bit_length() + 2
    else:
        window, width = n, _z_width(n, count * size)
    return width, (1 << width * (window + 1)) - 1, width * window, y


def _pack(packed: int, roots: Iterable[int], width: int, mask: int, y: bool) -> int:
    """``packed`` times the linear factor of every root, in a window of w + 1 B-bit
    fields, mask = 2^(B(w+1)) - 1: (a + Y) for each root with ``y``, else (1 + a Z).
    Reducing mod 2^(B(w+1)) after every step keeps only the window and changes nothing
    modulo that power of two, so only the full product's coefficients in the window need a
    bound (:func:`_layout`).  The reference for both Bott sums' in-line steps."""
    if y:
        for a in roots:
            packed = (a * packed + (packed << width)) & mask
    else:
        for a in roots:
            packed = (packed + (a * packed << width)) & mask
    return packed


def _unpack(packed: int, width: int, low: int) -> int:
    """Field w, at bit low = B*w, as a signed value.  It is exact when that field's value is
    below 2^(B-1) and the fields below it sum to less than 2^(B*w - 1) in absolute value,
    which the rounding half absorbs; :func:`_layout` sizes B so."""
    field = ((packed + (1 << low >> 1)) >> low) & ((1 << width) - 1)
    return field - (1 << width) if field >> (width - 1) else field


def _plane_sum(r: int, k: int, t: Sequence[int], local: Callable, d: int = 0,
               layout: tuple[int, int, int, bool] = (0, 0, 0, False)) -> tuple[int, int]:
    """sum_I local(t_I, packed_I) / prod_{i in I, j not in I} (t_i - t_j) over the coordinate
    k-planes I, as (numerator, D): with P_j = prod_{l != j} (t_j - t_l), a term is
    local(t_I, packed_I) V(t_I)^2 prod_{j not in I} P_j / D, D = (-1)^C(k+1, 2) prod_j P_j.
    The weights are ints (:func:`_weight_tuple`), so ``local`` sees ints only.
    packed_I is the product of the C(d+k, k) roots <v, t_I>, |v| = d, packed from 1 in
    ``layout`` as :func:`_pack` packs it; with d = 0 it is 1, and ``layout`` is not used.

    The (k+1)-subsets are walked in lexicographic order as a prefix tree, one depth at a time.
    A node extends its parent's prefix by one index i and its parent's packed product by only
    the roots with a positive multiple of t_i, c t_i + (a degree-(d-c) root of the prefix),
    c = 1..d: C(d-1+j, j) steps at depth j instead of C(d+k, k) at every plane, so the sum packs
    sum_j C(r-k+j+1, j+1) C(d-1+j, j) roots, each by ``_pack``'s step written in-line in the loops:
    no root list and no call per node.  An inner node also keeps its roots of each degree below d
    for its children.  V(t_I)^2 and the P_l of the indices a prefix skips are multiplied in along
    the path, and prod_{j > max I} P_j comes from a suffix table.  Plain loops build them all: in
    Python 3.11 each comprehension is a function call (PEP 709 inlines it in 3.12)."""
    if len(set(t)) != len(t):
        raise SingularWeightsError(f"weights must be pairwise distinct, got {t}")
    p, suffix = [1] * (r + 1), [1] * (r + 2)   # suffix[j] = prod_{l >= j} P_l
    for j in range(r, -1, -1):
        for tl in t:
            if tl != t[j]:
                p[j] *= t[j] - tl
        suffix[j] = suffix[j + 1] * p[j]
    width, mask, _, y = layout
    numerator = 0
    # the prefixes of one depth: (least next index, t_prefix, packed product, roots of each
    # degree below d, V(t_prefix)^2 times the P_l of the indices skipped)
    level = [(0, [], 1, [[0]] + [[]] * (d - 1), 1)]
    for depth in range(k + 1):
        grown = []
        for start, point, packed, lower, factor in level:
            for i in range(start, r - k + depth + 1):
                ti = t[i]
                vandermonde = 1
                for s in point:
                    vandermonde *= ti - s
                weight = factor * vandermonde * vandermonde
                factor *= p[i]
                here, below = packed, []
                if d:   # the roots c t_i + v, v a degree-(d - c) root of the prefix: _pack's steps
                    for c in range(1, d + 1):
                        ci = c * ti
                        for v in lower[d - c]:
                            here = ((ci + v) * here + (here << width) if y
                                    else here + ((ci + v) * here << width)) & mask
                if d and depth < k:   # below[m]: the degree-m roots of the prefix with t_i, m < d
                    roots = []
                    for base in lower:
                        roots, shorter = base[:], roots
                        for v in shorter:
                            roots.append(ti + v)
                        below.append(roots)
                if depth < k:
                    grown.append((i + 1, point + [ti], here, below, weight))
                else:
                    numerator += local(point + [ti], here) * weight * suffix[i + 1]
        level = grown
    return numerator, (-1) ** comb(k + 1, 2) * suffix[0]


def deg_planes_bott(d: int, r: int, k: int, t: Sequence[int] | None = None,
                    seed: int = DEFAULT_SEED) -> int:
    """The same degree as :func:`deg_planes_dm`, by the torus fixed-point sum at the weights
    ``t``, else at ``TorusWeights.random(r, seed)`` (drawn after the regime checks):

        sum over (k+1)-subsets I of  tau(t_i : i in I) / prod_{i in I, j not in I} (t_i - t_j).

    tau (:func:`tau_poly`) is never expanded: its value at each fixed point is the
    top field of the product of the C(d+k, k) roots <v, t_I>, |v| = d, ``_pack``ed in one
    :func:`_layout` for the whole sum (every root is at most R = d max |t|).
    :func:`_plane_sum` builds those products along its prefix walk, each plane extending
    its parent prefix's product, and adds up the values.

    Each term is a rational function of the weights but the sum is a constant positive integer;
    a non-zero remainder or a quotient <= 0 raises :class:`InconsistencyError`.
    """
    _check_hypersurface_regime(d, r, k)
    weights = _weight_tuple(TorusWeights.random(r, seed) if t is None else t, r)
    layout = width, _, low, _ = _layout((k + 1) * (r - k), comb(d + k, k),
                                        d * max(map(abs, weights)))
    numerator, denominator = _plane_sum(
        r, k, weights, lambda point, packed: _unpack(packed, width, low), d, layout)
    total, remainder = divmod(numerator, denominator)
    if remainder or total <= 0:
        from fractions import Fraction   # only a bug reaches here
        raise InconsistencyError(
            f"fixed-point sum for Sigma({d},{r},{k}) is {Fraction(numerator, denominator)}; "
            "expected a positive integer (implementation bug)")
    return total
