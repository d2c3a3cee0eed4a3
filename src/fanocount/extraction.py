"""The coefficient-extraction route: degrees of loci of hypersurfaces and complete
intersections containing k-planes, and Plucker-degree integrals over Fano schemes.

Setting: degree-d hypersurfaces in projective r-space, or complete
intersections of multidegree (d_1, ..., d_m).  The k-planes contained in such
a variety are cut out, on the Grassmannian of k-planes, by a section of the
d-th symmetric power of the dual tautological bundle.  Writing x_0, ..., x_k
for the Chern roots of that rank-(k+1) bundle, every number computed here is
one coefficient of an explicit symmetric polynomial: multiplying a symmetric
form by the Vandermonde polynomial V turns "coefficient of the top Schur basis
element" into "coefficient of the single monomial x_0^r x_1^{r-1} ... x_k^{r-k}",
which one sparse fold, :func:`_extract`, reads off.  The torus fixed-point sums
of ``planes`` give the plane counts independently; this module imports nothing
from ``planes`` or ``conics``, so no extraction can reach a fixed-point kernel.

Codimension bookkeeping: gamma = sum_j C(d_j + k, k) - (k+1)(r-k) is the
codimension (in the parameter space of complete intersections) of the locus
of members containing a k-plane; its negation delta is the expected dimension
of the Fano scheme of a single member.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod
from operator import index
from typing import NamedTuple, Sequence

from .errors import InconsistencyError, RegimeError

__all__ = ["DEFAULT_SEED", "ExponentVector", "ProblemSpec", "c2_fano_integral", "deg_ci_planes",
           "deg_fano", "deg_planes_dm", "linear_system_dim", "weight_vectors"]

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


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

def _psi_target(r: int, k: int) -> tuple[int, ...]:
    return tuple(r - i for i in range(k + 1))


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
