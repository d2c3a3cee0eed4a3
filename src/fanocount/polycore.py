"""Exact sparse multivariate polynomials.

All arithmetic is exact: coefficients are Python ints or
:class:`fractions.Fraction` values (automatically kept in lowest terms with a
positive denominator), and floating point never enters.  A polynomial is a
sparse map from exponent vectors to nonzero coefficients.

This is the reference layer, and no runtime route uses it: the degree
formulas extract single coefficients (``extraction._extract``) and sum torus
fixed points over integers, without expanding a polynomial.  What expands
here is what the tests check those routes against, the reference forms
``planes.tau_poly``, ``conics.eta_form`` and ``conics.chern_Ed_series``
(each loads this module when it runs), and the ``MultiPoly.mul`` that the
benchmark's tracer wraps.  The dependency runs
one way: this module imports only the shared vocabulary of ``errors``, and no runtime
module imports it.

Conventions:

* An exponent vector is a tuple of non-negative ints, one per variable.
* The zero polynomial is the empty term map; ``nvars`` is still tracked so
  mixing polynomials from different rings raises :class:`DimensionError`.
* Equality is equality of canonical term maps (no zero coefficients stored).
* Iteration/printing order is graded lexicographic, so output is stable.
* A truncated power series is a plain polynomial: ``mul(other, bound=n)``
  drops every term of total degree above n, and ``chern_Ed_series`` inverts
  its divisor by that product alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import DimensionError, ExponentVector, _integer, weight_vectors

__all__ = [
    "ExactScalar",
    "MultiPoly",
    "weighted_linear_product",
]

ExactScalar = int | Fraction


def _grlex_key(exps: ExponentVector) -> tuple[int, tuple[int, ...]]:
    # graded lexicographic: by total degree, then x0-major within a degree
    return (sum(exps), tuple(-e for e in exps))


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Values are immutable by convention: every operation returns a fresh
    polynomial, so instances may be shared freely between threads.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], ExactScalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[ExponentVector, ExactScalar] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != nvars:
                raise DimensionError(
                    f"exponent vector {key} has length {len(key)}, expected {nvars}")
            if any((not isinstance(e, int)) or e < 0 for e in key):
                raise ValueError(f"exponents must be non-negative ints, got {key}")
            if coeff != 0:
                clean[key] = coeff
        self.nvars = nvars
        self._terms = clean

    @classmethod
    def _make(cls, nvars: int, terms: dict[ExponentVector, ExactScalar]) -> "MultiPoly":
        # internal fast path: terms are already canonical
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: ExactScalar) -> "MultiPoly":
        if value == 0:
            return cls.zero(nvars)
        return cls._make(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls._make(nvars, {tuple(exps): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[ExactScalar], constant: ExactScalar = 0) -> "MultiPoly":
        """Build ``constant + sum(coeffs[i] * x_i)`` in ``len(coeffs)`` variables."""
        nvars = len(coeffs)
        terms: dict[ExponentVector, ExactScalar] = {}
        if constant != 0:
            terms[(0,) * nvars] = constant
        for i, c in enumerate(coeffs):
            if c != 0:
                exps = [0] * nvars
                exps[i] = 1
                terms[tuple(exps)] = c
        return cls._make(nvars, terms)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[ExponentVector, ExactScalar]:
        """The canonical term map.  Treat as read-only."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Sequence[int]) -> ExactScalar:
        key = tuple(exps)
        if len(key) != self.nvars:
            raise DimensionError(
                f"exponent vector {key} has length {len(key)}, expected {self.nvars}")
        return self._terms.get(key, 0)

    def sorted_terms(self) -> Iterator[tuple[ExponentVector, ExactScalar]]:
        """Terms in graded lexicographic order (degree, then exponent tuple)."""
        for exps in sorted(self._terms, key=_grlex_key):
            yield exps, self._terms[exps]

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"polynomials live in different rings ({self.nvars} vs {other.nvars} variables)")

    def __add__(self, other: "MultiPoly | ExactScalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return MultiPoly._make(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | ExactScalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def mul(self, other: "MultiPoly", bound: int | None = None) -> "MultiPoly":
        """Product, optionally dropping all terms of total degree > ``bound``."""
        self._check_compatible(other)
        if len(self._terms) < len(other._terms):
            small, big = self._terms, other._terms
        else:
            small, big = other._terms, self._terms
        out: dict[ExponentVector, ExactScalar] = {}
        for eb, cb in big.items():
            db = sum(eb)
            for es, cs in small.items():
                if bound is not None and db + sum(es) > bound:
                    continue
                key = tuple(a + b for a, b in zip(eb, es))
                acc = out.get(key, 0) + cb * cs
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return MultiPoly._make(self.nvars, out)

    def __mul__(self, other: "MultiPoly | ExactScalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._make(self.nvars, {e: c * other for e, c in self._terms.items()})
        return self.mul(other)

    def __rmul__(self, other: ExactScalar) -> "MultiPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = MultiPoly.one(self.nvars)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    # -- structural operations ----------------------------------------------

    def homogeneous_component(self, degree: int) -> "MultiPoly":
        """Sum of all terms of total degree exactly ``degree``."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return MultiPoly._make(
            self.nvars, {e: c for e, c in self._terms.items() if sum(e) == degree})

    def evaluate(self, point: Sequence[ExactScalar]) -> ExactScalar:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise DimensionError(
                f"evaluation point has {len(point)} entries, expected {self.nvars}")
        total: ExactScalar = 0
        for exps, coeff in self._terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value = value * x**e
            total = total + value
        return total

    def permute_variables(self, perm: Sequence[int]) -> "MultiPoly":
        """Relabel variables: new exponent of x_{perm[i]} is the old one of x_i."""
        if sorted(perm) != list(range(self.nvars)):
            raise DimensionError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        out: dict[ExponentVector, ExactScalar] = {}
        for exps, coeff in self._terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[perm[i]] = e
            out[tuple(new)] = coeff
        return MultiPoly._make(self.nvars, out)

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def _monomial_str(self, exps: ExponentVector) -> str:
        parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = self._monomial_str(exps)
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff}*{mono}"
            if chunks and not body.startswith("-"):
                chunks.append(f"+ {body}")
            elif chunks:
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def weighted_linear_product(k: int, d: int, affine: bool,
                            bound: int | None = None) -> MultiPoly:
    """Product of one linear form per weight vector of total weight ``d``.

    Returns ``prod_{|v| = d} (c + v_0 x_0 + ... + v_k x_k)`` in k+1 variables,
    with c = 1 when ``affine`` else 0.  When ``bound`` is given every partial
    product is truncated at that total degree, which caps the intermediate
    blowup; single-coefficient extractions never need degrees beyond their
    target, so the truncation is lossless for them.
    """
    k = _integer("k", k)
    if k < 0:
        raise ValueError("k must be non-negative")
    if d < 1:
        raise ValueError("d must be at least 1")
    constant: ExactScalar = 1 if affine else 0
    acc = MultiPoly.one(k + 1)
    for v in weight_vectors(k + 1, d):
        acc = acc.mul(MultiPoly.linear_form(v, constant), bound=bound)
    return acc
