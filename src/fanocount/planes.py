"""Degrees of loci of hypersurfaces and complete intersections containing
k-planes, and Plucker-degree integrals over Fano schemes.

Setting: degree-d hypersurfaces in projective r-space, or complete
intersections of multidegree (d_1, ..., d_m).  The k-planes contained in such
a variety are cut out, on the Grassmannian of k-planes, by a section of the
d-th symmetric power of the dual tautological bundle.  Writing x_0, ..., x_k
for the Chern roots of that rank-(k+1) bundle, every number computed here is
one coefficient of an explicit symmetric polynomial:

* multiplying a symmetric form by the Vandermonde polynomial V turns
  "coefficient of the top Schur basis element" into "coefficient of the
  single monomial x_0^r x_1^{r-1} ... x_k^{r-k}", which is how the
  coefficient-extraction routes below work;
* independently, the same numbers arise as fixed-point sums for the torus
  acting on the Grassmannian by rescaling coordinates (one term per
  coordinate k-plane).  Those planes are walked as a prefix tree of index
  sets, so each plane's local value extends its parent prefix's packed
  product by only the roots that involve its newest coordinate.  The two
  routes must agree exactly, which the test suite exercises on a grid.

Codimension bookkeeping: gamma = sum_j C(d_j + k, k) - (k+1)(r-k) is the
codimension (in the parameter space of complete intersections) of the locus
of members containing a k-plane; its negation delta is the expected dimension
of the Fano scheme of a single member.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import InconsistencyError, RegimeError, SingularWeightsError

if TYPE_CHECKING:   # the reference form tau_poly imports the symbolic layer when it runs
    from .polycore import MultiPoly

__all__ = [
    "DEFAULT_SEED",
    "ExponentVector",
    "ProblemSpec",
    "TorusWeights",
    "c2_fano_integral",
    "deg_ci_planes",
    "deg_fano",
    "deg_planes_bott",
    "deg_planes_dm",
    "linear_system_dim",
    "tau_poly",
    "weight_vectors",
]

# Fixed documented seed for reproducible torus-weight draws.
DEFAULT_SEED = 1729

ExponentVector = tuple[int, ...]


def weight_vectors(nvars: int, total: int) -> list[ExponentVector]:
    """All tuples of ``nvars`` non-negative ints summing to ``total``, in
    lexicographic order (stars and bars), as a list: none for a negative total."""
    nvars, total = _integer("nvars", nvars), _integer("total", total)
    if nvars <= 0:
        raise RegimeError("plane-dimension",
                          f"need nvars = k + 1 >= 1 variables, got nvars={nvars}")
    if total < 0:   # one variable would otherwise take the whole negative total
        return []
    vectors = []
    for bars in combinations(range(total + nvars - 1), nvars - 1):
        prev = -1
        vec = []
        for b in bars:
            vec.append(b - prev - 1)
            prev = b
        vec.append(total + nvars - 2 - prev)
        vectors.append(tuple(vec))
    return vectors


def _integer(name: str, value) -> int:
    """``value`` as an int by ``operator.index``: ints and int-like values pass, while a
    float, a string or a ``Fraction`` is refused rather than truncated or left to crash."""
    try:
        return index(value)
    except TypeError:
        raise RegimeError("not-an-integer", f"{name} must be an integer, got {value!r}") from None


class ProblemSpec(NamedTuple("ProblemSpec", [("degrees", tuple), ("r", int), ("k", int)])):
    """A counting problem: complete intersections of multidegree ``degrees``
    in projective ``r``-space, probed for ``k``-planes.

    The order of ``degrees`` matters to :func:`deg_ci_planes` (the last entry
    is the degree that varies in its linear system); all other formulas are
    symmetric in the degrees.
    """

    __slots__ = ()

    def __new__(cls, degrees: Sequence[int], r: int, k: int):
        degrees = tuple(_integer("a degree", d) for d in degrees)
        r, k = _integer("r", r), _integer("k", k)
        if not degrees:
            raise RegimeError("degrees-empty", "degrees must be non-empty")
        if any(d < 2 for d in degrees):
            raise RegimeError("degree-too-small", f"need every degree >= 2, got {degrees}")
        if r < 3:
            raise RegimeError("ambient-too-small", f"need r >= 3, got r={r}")
        if k < 1:
            raise RegimeError("plane-dimension", f"need k >= 1, got k={k}")
        return super().__new__(cls, degrees, r, k)

    @classmethod
    def _make(cls, iterable):   # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def gamma(self) -> int:
        """Codimension of the containing-a-k-plane locus; positive means the
        general member carries no k-plane."""
        return sum(comb(d + self.k, self.k) for d in self.degrees) \
            - (self.k + 1) * (self.r - self.k)

    @property
    def delta(self) -> int:
        """Expected dimension of the Fano scheme of k-planes (= -gamma)."""
        return -self.gamma

    def sorted_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))


class TorusWeights(tuple):
    """Weights t_0, ..., t_r of the torus rescaling the r+1 coordinates: a
    tuple of the weights themselves."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"TorusWeights(t={tuple(self)!r})"

    @classmethod
    def random(cls, r: int, seed: int) -> "TorusWeights":
        """r+1 distinct random integer weights from [-b, b], b = max(50, r);
        deterministic in ``seed``."""
        _check_weight_count(r)
        bound = max(50, r)
        rng = random.Random(seed)
        return cls(rng.sample(range(-bound, bound + 1), r + 1))


def _check_weight_count(r: int) -> None:
    if _integer("r", r) < 0:
        raise RegimeError("ambient-too-small", f"need r >= 0 to draw r + 1 weights, got r={r}")


def _weight_tuple(t: Sequence[int], r: int) -> tuple[int, ...]:
    """The r + 1 weights as ints, by :func:`_integer`.  Every term of a fixed-point sum has
    degree 0 in the weights, so an integer multiple serves wherever rational weights would."""
    tt = tuple(t)
    if len(tt) != r + 1:
        raise SingularWeightsError(f"need r+1 = {r + 1} weights, got {len(tt)}")
    return tuple(_integer("a weight", w) for w in tt)


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

def _psi_target(r: int, k: int) -> tuple[int, ...]:
    return tuple(r - i for i in range(k + 1))


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


def _check_plane_dimension(r: int, k: int) -> None:
    if k < 1 or 2 * k >= r:
        raise RegimeError("plane-dimension", f"need 1 <= k and 2k < r, got k={k}, r={r}")


def _check_hypersurface_regime(d: int, r: int, k: int) -> None:
    for name, value in (("d", d), ("r", r), ("k", k)):
        _integer(name, value)
    if d < 3:
        raise RegimeError(
            "degree-too-small",
            f"the plane-count degree formula needs d >= 3 (quadrics carry "
            f"positive-dimensional plane families and reducible Fano schemes); got d={d}")
    _check_plane_dimension(r, k)
    g = comb(d + k, k) - (k + 1) * (r - k)
    if g <= 0:
        raise RegimeError(
            "gamma-not-positive",
            f"gamma({d},{r},{k}) = {g} <= 0: the general hypersurface already "
            "contains k-planes, so the containing locus is not proper")


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


def _vq_factors(k: int, degrees: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Linear forms (v, 0) in k + 1 variables: first the factors x_i - x_j (i < j) of
    the Vandermonde polynomial V, then the forms <v, x>, |v| = d, of Q for each d in
    ``degrees``.  The -1 entries of V's factors lower no exponent, so both prunings of
    :func:`_extract` stay lossless."""
    factors = [(tuple(1 if n == i else -1 if n == j else 0 for n in range(k + 1)), 0)
               for i, j in combinations(range(k + 1), 2)]
    return factors + [(v, 0) for d in degrees for v in weight_vectors(k + 1, d)]


def _extract(target: tuple[int, ...], factors: Sequence[tuple[Sequence[int], int]]) -> int:
    """Coefficient of x^target, target >= 0, in prod_{(v, c) in factors} (c + <v, x>), by a
    sparse left-to-right fold from the monomial 1 keeping only terms that can still reach the
    target.  Both prunings are lossless: no factor lowers an exponent, even with negative v_i
    (exponent box: drop e_i > target_i), and each raises the degree by at most 1 (degree
    floor: drop degree + factors left < |target|).

    Each term is a head x_0^e_0 ... x_{k-1}^e_{k-1} times a polynomial in the last
    variable, whose target t_k is the smallest.  That polynomial is held as one int,
    x_k = 2^B, modulo 2^(B (t_k + 1)), coefficient j in the B-bit field at bit B*j: the
    reduction is a ring map from Z[x_k] / (x_k^(t_k + 1)), so a factor is one big-int
    step and signed coefficients stay exact.  Every coefficient of every entry, pruned or
    not, is a sum over paths through the factors, so the sum of their absolute values is
    at most M = prod max(1, |c| + sum |v_i|).  With B = M.bit_length() + 1
    the field of x_k^t_k is below 2^(B-1) and the fields under it sum to less than half
    a unit of it, which the rounding readout absorbs.

    A head e is packed into one int with a C-bit field per variable, field i holding
    e_i + G - 1 - target_i (G = 2^(C-1)).  Multiplying by x_i adds 1 << C*i, and
    e_i > target_i is exactly the top bit of field i, so the box test is ``key & guard``.
    Terms sit in buckets keyed by head degree, and the floor drops or keeps whole buckets
    on head degree plus t_k, the most the x_k polynomial can add.
    """
    *head, last = target
    size = 1
    for v, c in factors:
        size *= max(1, abs(c) + sum(map(abs, v)))
    width = size.bit_length() + 1
    mask = (1 << width * (last + 1)) - 1
    cols = max(head, default=0).bit_length() + 2
    top = 1 << (cols - 1)
    shifts = [cols * i for i in range(len(head))]
    offset = sum((top - 1 - ti) << sh for ti, sh in zip(head, shifts))
    guard = sum(top << sh for sh in shifts)
    floor = sum(head) - len(factors)
    buckets = {0: {offset: 1}}   # the monomial 1: every field reads top - 1 - target_i
    for v, c in factors:
        floor += 1
        vk = v[-1]
        steps = [(1 << sh, vi) for vi, sh in zip(v, shifts) if vi]
        out: dict[int, dict[int, int]] = {}
        # top degree first: bucket s fills out[s] before bucket s - 1 adds to it
        for s in sorted(buckets, reverse=True):
            if s + 1 < floor:
                break
            bucket = buckets[s]
            if s >= floor and (c or vk):
                if vk:
                    out[s] = {key: (c * p + (vk * p << width)) & mask for key, p in bucket.items()}
                else:
                    out[s] = dict(bucket) if c == 1 else {key: c * p for key, p in bucket.items()}
            if steps:
                up = out.setdefault(s + 1, {})
                get = up.get
                for key, p in bucket.items():
                    if p:   # a cancelled term spawns nothing
                        for step, vi in steps:
                            raised = key + step
                            if not raised & guard:
                                up[raised] = get(raised, 0) + vi * p
        buckets = out
    # every field of the target's head key reads top - 1; x_k^t_k is field t_k
    packed = buckets.get(sum(head), {}).get(sum((top - 1) << sh for sh in shifts), 0)
    low = width * last
    field = ((packed + (1 << low >> 1)) >> low) & ((1 << width) - 1)
    return field - (1 << width) if field >> (width - 1) else field


def _roots(d: int, point: Sequence[int]) -> list[int]:
    """Values <v, point>, |v| = d: the Chern roots of the d-th symmetric power
    of a bundle whose Chern roots take the values ``point``.  Each v is a
    multiset of d indices, so <v, point> is the sum of a d-combination with
    replacement of the point's entries.  Only ``conics._eta`` and the tests build
    roots this way; the plane sum grows them along its prefix walk (:func:`_plane_sum`)."""
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
    bound (:func:`_layout`)."""
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
    packed_I is the product of the C(d+k, k) roots <v, t_I>, |v| = d, ``_pack``ed from 1 in
    ``layout``; with d = 0 it is 1, and ``layout`` is not read.

    The (k+1)-subsets are walked in lexicographic order as a prefix tree, one depth at a time.
    A node extends its parent's prefix by one index i and its parent's packed product by only
    the roots with a positive multiple of t_i, c t_i + (a degree-(d-c) root of the prefix),
    c = 1..d: C(d-1+j, j) steps at depth j instead of C(d+k, k) at every plane, so the sum packs
    sum_j C(r-k+j+1, j+1) C(d-1+j, j) roots.  An inner node also keeps its roots of each degree
    below d for its children.  V(t_I)^2 and the P_l of the indices a prefix skips are multiplied
    in along the path, and prod_{j > max I} P_j comes from a suffix table."""
    if len(set(t)) != len(t):
        raise SingularWeightsError(f"weights must be pairwise distinct, got {t}")
    p = [prod(tj - tl for tl in t if tl != tj) for tj in t]
    suffix = [1] * (r + 2)   # suffix[j] = prod_{l >= j} P_l
    for j in range(r, -1, -1):
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
                weight = factor * prod([ti - s for s in point]) ** 2
                factor *= p[i]
                here, below = packed, []
                if d and depth < k:   # below[m]: the degree-m roots with t_i, from degree 0 up
                    roots = []
                    for m in range(d):
                        roots = lower[m] + [ti + v for v in roots]
                        below.append(roots)
                    here = _pack(packed, [ti + v for v in roots], width, mask, y)
                elif d:               # a plane keeps no roots
                    here = _pack(packed, [c * ti + v for c in range(1, d + 1)
                                          for v in lower[d - c]], width, mask, y)
                if depth < k:
                    grown.append((i + 1, point + [ti], here, below, weight))
                else:
                    numerator += local(point + [ti], here) * weight * suffix[i + 1]
        level = grown
    return numerator, (-1) ** comb(k + 1, 2) * suffix[0]


def deg_planes_bott(d: int, r: int, k: int, t: Sequence[int]) -> int:
    """The same degree as :func:`deg_planes_dm`, by the torus fixed-point sum

        sum over (k+1)-subsets I of  tau(t_i : i in I) / prod_{i in I, j not in I} (t_i - t_j).

    tau (:func:`tau_poly`) is never expanded: its value at each fixed point is the
    top field of the product of the C(d+k, k) roots <v, t_I>, |v| = d, ``_pack``ed in one
    :func:`_layout` for the whole sum (every root is at most R = d max |t|).
    :func:`_plane_sum` builds those products along its prefix walk, each plane extending
    its parent prefix's product, and adds up the values.

    Each term is a rational function of the weights but the sum is a constant
    positive integer; a non-zero remainder or a quotient <= 0 raises
    :class:`InconsistencyError`.
    """
    _check_hypersurface_regime(d, r, k)
    weights = _weight_tuple(t, r)
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
    h0 = 0
    for mask in range(1 << len(cut_degrees)):
        shift = d
        sign = 1
        for i, e in enumerate(cut_degrees):
            if mask >> i & 1:
                shift -= e
                sign = -sign
        if shift >= 0:
            h0 += sign * comb(shift + r, r)
    return h0 - 1


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
    factors = _vq_factors(k, degrees[:-1]) + [(v, 1) for v in weight_vectors(k + 1, degrees[-1])]
    value = _extract(_psi_target(r, k), factors)
    if value <= 0:
        raise InconsistencyError(
            f"deg for degrees {degrees}, r={r}, k={k} computed as {value}; expected a "
            "positive integer (implementation bug)")
    return value


# ---------------------------------------------------------------------------
# Fano schemes of positive expected dimension
# ---------------------------------------------------------------------------

def _check_nonempty_regime(spec: ProblemSpec) -> None:
    if spec.r < 2 * spec.k + spec.m:
        raise RegimeError("nonempty-regime",
                          f"need r >= 2k + m = {2 * spec.k + spec.m}, got r = {spec.r}")


def _fano_extraction(spec: ProblemSpec, target: tuple[int, ...], ones: int) -> int:
    """Coefficient of x^target in V * Q * (x_0 + ... + x_k)^ones, by :func:`_extract`."""
    factors = _vq_factors(spec.k, spec.degrees) + [((1,) * (spec.k + 1), 0)] * ones
    # degree bookkeeping: every factor has degree 1, and the product must be
    # homogeneous of exactly the target degree
    if len(factors) != sum(target):
        raise InconsistencyError(f"a product of degree {len(factors)} misses "
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
