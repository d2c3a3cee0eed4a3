"""The vocabulary every module shares: the exception taxonomy, the problem record
``ProblemSpec``, the integer and regime checks on its inputs, and the weight vectors
both routes enumerate.

Every CLI process loads this module, and it imports no other package module, so what
the routes share loads no route: the classifications build on it alone, and the
extraction route on it and nothing else.

Two families of exceptions matter to callers:

* ``RegimeError`` and its subclasses mark *inputs outside a formula's range
  of validity* (wrong codimension sign, excluded degenerate families, bad
  torus weights).  The CLI maps these to exit code 2 so scripted sweeps can
  tell "not applicable" apart from "broken".
* ``InconsistencyError`` marks an *internal contradiction*: an exact
  computation produced something the mathematics forbids (a fixed-point sum
  that is not an integer, an Euler characteristic not divisible as required).
  These always indicate a bug and map to exit code 1.

Codimension bookkeeping: gamma = sum_j C(d_j + k, k) - (k+1)(r-k) is the codimension (in the
parameter space of complete intersections) of the locus of members containing a k-plane; its
negation delta is the expected dimension of the Fano scheme of a single member.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import index
from typing import NamedTuple, Sequence

__all__ = ["DEFAULT_SEED", "DimensionError", "ExponentVector", "InconsistencyError",
           "NotInvertibleError", "ProblemSpec", "RegimeError", "SingularWeightsError",
           "weight_vectors"]


class DimensionError(ValueError):
    """Exponent vector or evaluation point has the wrong number of entries."""


class NotInvertibleError(ValueError):
    """Series inversion requested for a series whose constant term is not 1."""


class RegimeError(ValueError):
    """Input is outside the validity regime of the requested formula.

    ``code`` is a short stable identifier (e.g. ``"gamma-not-positive"``)
    so callers can branch without parsing the message.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class SingularWeightsError(RegimeError):
    """Torus weights make a fixed-point denominator vanish."""

    def __init__(self, message: str):
        super().__init__("singular-weights", message)


class InconsistencyError(RuntimeError):
    """An exact computation violated a mathematically guaranteed property."""


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

    The order of ``degrees`` matters to ``extraction.deg_ci_planes`` (the last entry
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


def _check_nonempty_regime(spec: ProblemSpec) -> None:
    if spec.r < 2 * spec.k + spec.m:
        raise RegimeError("nonempty-regime",
                          f"need r >= 2k + m = {2 * spec.k + spec.m}, got r = {spec.r}")
