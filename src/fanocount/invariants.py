"""Chern-number coefficients and surface invariants of Fano schemes.

For a general complete intersection whose Fano scheme F of k-planes is a
smooth surface (expected dimension delta = 2), the Chern numbers of F are
linear combinations of two Grassmannian integrals: the Plucker degree of F
and the integral of c2 of the dual tautological bundle over F.  The
combination coefficients A and B are explicit binomial expressions in
(d_1...d_m, r, k), assembled from:

* the coefficients alpha, beta, gamma expressing c2 and c1 of a symmetric
  power Sym^n(E) of a rank-(k+1) bundle E in terms of c1(E)^2, c2(E), c1(E);
* the second Chern class of the tangent bundle of the Grassmannian;
* the normal-bundle contributions of the defining equations.

From e(F) = A*deg(F) + B*c2int and the canonical-class multiple one gets
K^2, the holomorphic Euler characteristic by Noether's formula
chi = (K^2 + e)/12, the arithmetic genus p_a = chi - 1, and the signature
4*chi - e.

The two integrals come from the extraction route, reached through its module when
``surface_invariants`` runs, so a wrapper or patch installed on ``extraction`` is the
one that runs.  The irregularity and Picard classifications, which need neither
integral, live in ``classification``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from . import extraction
from .errors import InconsistencyError, ProblemSpec, RegimeError, _integer

__all__ = [
    "InvariantReport",
    "SymPowerCoeffs",
    "AB_coeffs",
    "canonical_coefficient",
    "canonical_degree",
    "combinatorial_identity",
    "surface_invariants",
    "sym_power_coeffs",
    "sym_power_coeffs_small",
]


class SymPowerCoeffs(NamedTuple):
    """Chern-class coefficients of Sym^n for a rank-(k+1) bundle:
    c2(Sym^n E) = alpha*c1(E)^2 + beta*c2(E) and c1(Sym^n E) = gamma*c1(E)."""

    n: int
    k: int
    alpha: int
    beta: int
    gamma: int


def _check_sym_power(n: int, k: int) -> tuple[int, int]:
    n, k = _integer("n", n), _integer("k", k)
    if n < 1:
        raise RegimeError("degree-too-small", f"need a symmetric power n >= 1, got n={n}")
    if k < 0:
        raise RegimeError("plane-dimension", f"need a bundle rank k + 1 >= 1, got k={k}")
    return n, k


def sym_power_coeffs(n: int, k: int) -> SymPowerCoeffs:
    """alpha, beta, gamma for Sym^n of a rank-(k+1) bundle, with
    g = gamma = C(n + k, k + 1) and alpha = C(g, 2) - C(n + k, k + 2)."""
    n, k = _check_sym_power(n, k)
    g = comb(n + k, k + 1)
    return SymPowerCoeffs(n=n, k=k, alpha=comb(g, 2) - comb(n + k, k + 2),
                          beta=comb(n + k + 1, k + 2), gamma=g)


def sym_power_coeffs_small(n: int, k: int) -> tuple[int, int]:
    """Closed forms for (alpha, beta) in ranks 2 and 3 (k = 1, 2); cross-check
    of :func:`sym_power_coeffs` only."""
    n, k = _check_sym_power(n, k)
    if k == 1:
        alpha, remainder = divmod((3 * n + 2) * comb(n + 1, 3), 4)
        beta = comb(n + 2, 3)
    elif k == 2:
        alpha, remainder = divmod(5 * (n + 1) * comb(n + 3, 5), 3)
        beta = comb(n + 3, 4)
    else:
        raise RegimeError("no-closed-form", f"closed forms exist only for k in (1, 2), got k={k}")
    if remainder:
        raise InconsistencyError(f"closed-form alpha({n},{k}) leaves remainder {remainder}")
    return alpha, beta


def combinatorial_identity(n: int, m: int, k: int) -> tuple[int, int]:
    """Both sides of sum_{i=1}^{n} C(i-1, m-1) C(n-i+k, k) = C(n+k, m+k);
    exposed for property testing."""
    n, m, k = _integer("n", n), _integer("m", m), _integer("k", k)
    if not (n >= m >= 1 and k >= 0):
        raise RegimeError("identity-range", f"need n >= m >= 1 and k >= 0, got n={n}, m={m}, k={k}")
    lhs = sum(comb(i - 1, m - 1) * comb(n - i + k, k) for i in range(1, n + 1))
    return lhs, comb(n + k, m + k)


def AB_coeffs(spec: ProblemSpec) -> tuple[int, int]:
    """Coefficients with c2(F) = (A*h^2 + B*c2(S*)) . [F] for the Fano scheme
    of a general complete intersection (h the Plucker hyperplane class).

    A collects the tangent class of the Grassmannian, the per-degree alpha
    terms, the pairwise gamma products across the m factors (empty for m = 1),
    and the square/cross terms of the first normal Chern class;
    B = r - 2k - 1 - sum of the betas.
    """
    r, k = spec.r, spec.k
    coeffs = [sym_power_coeffs(d, k) for d in spec.degrees]
    c1_normal = sum(c.gamma for c in coeffs)
    a = (comb(r + 1, 2) + k
         - sum(c.alpha for c in coeffs)
         - sum(x.gamma * y.gamma for x, y in combinations(coeffs, 2))
         - (r + 1) * c1_normal
         + c1_normal**2)
    b = r - 2 * k - 1 - sum(c.beta for c in coeffs)
    return a, b


def canonical_coefficient(spec: ProblemSpec) -> int:
    """The integer c with K_F = c * (Plucker hyperplane class restricted to F):
    c = sum_i C(d_i + k, k + 1) - (r + 1)."""
    return sum(comb(d + spec.k, spec.k + 1) for d in spec.degrees) - (spec.r + 1)


def canonical_degree(spec: ProblemSpec, deg_f: int) -> int:
    """Self-intersection K_F^delta = (canonical coefficient)^delta * deg(F)."""
    if spec.delta < 0:
        raise RegimeError("delta-negative", f"delta = {spec.delta} < 0")
    return canonical_coefficient(spec) ** spec.delta * deg_f


class InvariantReport(NamedTuple):
    """Exact invariants of a Fano surface of k-planes (delta = 2)."""

    spec: ProblemSpec
    deg_f: int
    c2_integral: int
    per_degree: tuple[SymPowerCoeffs, ...]
    a_coeff: int
    b_coeff: int
    c1_coeff: int
    k_delta: int
    euler: int
    chi_o: int
    p_a: int
    signature: int
    smooth_fano: bool


def surface_invariants(spec: ProblemSpec) -> InvariantReport:
    """Full invariant bundle for a Fano surface: degree, c2 integral, A, B,
    K^2, topological and holomorphic Euler characteristics, arithmetic genus
    and signature.

    Requires delta = 2 and r >= 2k + m.  Raises InconsistencyError if
    K^2 + e fails the Noether divisibility by 12, which cannot happen for an
    actual smooth surface.
    """
    if spec.delta != 2:
        raise RegimeError("delta-not-two",
                          f"surface invariants need delta = 2, got delta = {spec.delta}")
    deg_f = extraction.deg_fano(spec)
    c2int = extraction.c2_fano_integral(spec)
    a, b = AB_coeffs(spec)
    k2 = canonical_degree(spec, deg_f)
    c = canonical_coefficient(spec)
    euler = a * deg_f + b * c2int
    if (k2 + euler) % 12 != 0:
        raise InconsistencyError(
            f"K^2 + e = {k2 + euler} is not divisible by 12 for {spec}; "
            "chi(O) of a smooth surface is an integer, so this is a bug")
    chi = (k2 + euler) // 12
    return InvariantReport(
        spec=spec,
        deg_f=deg_f,
        c2_integral=c2int,
        per_degree=tuple(sym_power_coeffs(d, spec.k) for d in spec.degrees),
        a_coeff=a,
        b_coeff=b,
        c1_coeff=c,
        k_delta=k2,
        euler=euler,
        chi_o=chi,
        p_a=chi - 1,
        signature=4 * chi - euler,
        smooth_fano=c < 0,
    )
