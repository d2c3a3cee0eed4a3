"""Independent reference implementations used to validate the package.

Deliberately different computational routes from the ones in the package:

* plane counts and the Fano-scheme numbers through dense sympy expansion
  (no truncation, no sparse folding);
* conic fixed-point sums through dict-based dense series arithmetic in four
  variables, with the inverse computed by a homogeneous-layer recurrence
  rather than geometric-series iteration;
* the fixed-point kernel's top Chern coefficient through the plain,
  unwindowed coefficient loop, and each fixed conic's local value through the
  divided form: every degree-d weight over the shifted degree-(d-2) weights;
* the plane fixed-point sum with one Fraction per fixed plane, each plane's
  roots built from scratch, also for the Fano-scheme numbers that the package
  computes by extraction only, and the plane walk's undivided (numerator, D)
  pair with every plane's products taken afresh;
* the conic fiber driven by a table of its six conics, the form the package
  had before it wrote the six out;
* the emptiness of a Fano scheme straight from its defining inequalities;
* the CLI's command line through argparse, the parser the CLI had before its own.

These stay oracle-side: the package never imports them.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from math import comb

import sympy as sp

from fanocount.cli import _COMMANDS, _SWEEP_TARGETS, _methods
from fanocount.errors import DEFAULT_SEED


def compositions(nvars, total):
    """All exponent tuples of length nvars summing to total."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(nvars - 1, total - head):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# dense sympy route for plane counts
# ---------------------------------------------------------------------------

def sympy_vars(k):
    return sp.symbols(f"x0:{k + 1}")


def sympy_tau(d, r, k):
    """Full dense expansion, then the degree-(k+1)(r-k) part."""
    X = sympy_vars(k)
    product = sp.expand(sp.prod(
        [1 + sum(v[i] * X[i] for i in range(k + 1)) for v in compositions(k + 1, d)]))
    n = (k + 1) * (r - k)
    poly = sp.Poly(product, *X)
    return sp.expand(sum(
        c * sp.prod([X[i] ** e for i, e in enumerate(mono)])
        for mono, c in zip(poly.monoms(), poly.coeffs()) if sum(mono) == n))


def sympy_psi(expr, X, target):
    return sp.Poly(sp.expand(expr), *X).coeff_monomial(
        sp.prod([X[i] ** t for i, t in enumerate(target)]))


def sympy_deg_planes(d, r, k):
    X = sympy_vars(k)
    vandermonde = sp.prod([X[i] - X[j]
                           for i in range(k + 1) for j in range(i + 1, k + 1)])
    return int(sympy_psi(sympy_tau(d, r, k) * vandermonde, X,
                         tuple(r - i for i in range(k + 1))))


def sympy_deg_ci_planes(degrees, r, k):
    X = sympy_vars(k)
    q = sp.expand(sp.prod([sum(v[i] * X[i] for i in range(k + 1))
                           for d in degrees[:-1] for v in compositions(k + 1, d)]))
    affine = sp.expand(sp.prod([1 + sum(v[i] * X[i] for i in range(k + 1))
                                for v in compositions(k + 1, degrees[-1])]))
    vandermonde = sp.prod([X[i] - X[j]
                           for i in range(k + 1) for j in range(i + 1, k + 1)])
    return int(sympy_psi(q * affine * vandermonde, X,
                         tuple(r - i for i in range(k + 1))))


def _sympy_fano(degrees, r, k, extra):
    """Target coefficient of Q * extra * V, Q the forms <v, x> for every degree."""
    X = sympy_vars(k)
    q = sp.prod([sum(v[i] * X[i] for i in range(k + 1))
                 for d in degrees for v in compositions(k + 1, d)])
    vandermonde = sp.prod([X[i] - X[j]
                           for i in range(k + 1) for j in range(i + 1, k + 1)])
    return int(sympy_psi(q * extra(X) * vandermonde, X,
                         tuple(r - i for i in range(k + 1))))


def sympy_deg_fano(degrees, r, k):
    """Plucker degree of the Fano scheme: Q * e_1^delta * V."""
    delta = (k + 1) * (r - k) - sum(comb(d + k, k) for d in degrees)
    return _sympy_fano(degrees, r, k, lambda X: sum(X) ** delta)


def sympy_c2_fano(degrees, r, k):
    """c2 integral over a Fano surface: Q * e_2 * V."""
    return _sympy_fano(degrees, r, k, lambda X: sum(
        X[i] * X[j] for i in range(k + 1) for j in range(i + 1, k + 1)))


def fano_scheme_empty(spec):
    """Whether the Fano scheme of k-planes on the general member is empty:
    gamma > 0, or 2k > r - m."""
    return spec.gamma > 0 or 2 * spec.k > spec.r - spec.m


# ---------------------------------------------------------------------------
# dict-based dense route for the conic side
# ---------------------------------------------------------------------------

def dict_mul(a, b, bound):
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > bound:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def dict_weight_product(nvars_extra, d, bound, extra_coeff=0):
    """prod over |v| = d of (1 + v.x [+ extra_coeff * z]) in 3+nvars_extra vars."""
    width = 3 + nvars_extra
    acc = {(0,) * width: Fraction(1)}
    for v in compositions(3, d):
        lin = {(0,) * width: Fraction(1)}
        for i, vi in enumerate(v):
            if vi:
                e = [0] * width
                e[i] = 1
                lin[tuple(e)] = Fraction(vi)
        if nvars_extra and extra_coeff:
            e = [0] * width
            e[-1] = 1
            lin[tuple(e)] = Fraction(extra_coeff)
        acc = dict_mul(acc, lin, bound)
    return acc


def dict_layer(poly, n):
    return {e: c for e, c in poly.items() if sum(e) == n}


def dict_series_inverse(poly, bound):
    """Layer recurrence: t_n = -sum_{j=1..n} s_j t_{n-j}; no geometric series."""
    width = len(next(iter(poly)))
    one = (0,) * width
    s_layers = [dict_layer(poly, n) for n in range(bound + 1)]
    assert s_layers[0] == {one: Fraction(1)}
    t_layers = [{one: Fraction(1)}]
    for n in range(1, bound + 1):
        acc = {}
        for j in range(1, n + 1):
            for e, c in dict_mul(s_layers[j], t_layers[n - j], bound).items():
                acc[e] = acc.get(e, Fraction(0)) + c
        t_layers.append({e: -c for e, c in acc.items() if c != 0})
    out = {}
    for layer in t_layers:
        out.update(layer)
    return out


def dict_eval(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.items():
        value = coeff
        for x, e in zip(point, exps):
            value *= Fraction(x) ** e
        total += value
    return total


def dense_eta(d, r):
    """Untwisted top Chern form in 3 variables (dense route)."""
    bound = 3 * r - 1
    numerator = dict_weight_product(0, d, bound)
    if d > 2:
        denominator = dict_weight_product(0, d - 2, bound)
        numerator = dict_mul(numerator, dict_series_inverse(denominator, bound), bound)
    return dict_layer(numerator, bound)


def dense_eta_twisted(d, r):
    """Twisted top Chern form in 4 variables (dense route): the divisor
    factors carry -z."""
    bound = 3 * r - 1
    numerator = dict_weight_product(1, d, bound, extra_coeff=0)
    if d > 2:
        denominator = dict_weight_product(1, d - 2, bound, extra_coeff=-1)
        numerator = dict_mul(numerator, dict_series_inverse(denominator, bound), bound)
    return dict_layer(numerator, bound)


def dense_conic_bott(d, r, t):
    """Twisted fixed-point sum evaluated through the dense 4-variable form."""
    eta4 = dense_eta_twisted(d, r)
    total = Fraction(0)
    for plane in itertools.combinations(range(r + 1), 3):
        roots = tuple(-Fraction(t[i]) for i in plane)
        grass = Fraction(1)
        for alpha in plane:
            for beta in range(r + 1):
                if beta not in plane:
                    grass *= Fraction(t[beta]) - Fraction(t[alpha])
        pairs = list(itertools.combinations_with_replacement(plane, 2))
        sums = [Fraction(t[a]) + Fraction(t[b]) for a, b in pairs]
        for idx in range(6):
            euler = grass
            for jdx in range(6):
                if jdx != idx:
                    euler *= sums[idx] - sums[jdx]
            total += dict_eval(eta4, (*roots, sums[idx])) / euler
    return total


def divided_conic_bott(d, r, t):
    """Twisted fixed-point sum with one Fraction per fixed conic, each local value
    the divided form ``divided_conic_top_chern``."""
    n = 3 * r - 1
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    total = Fraction(0)
    for plane in itertools.combinations(range(r + 1), 3):
        point = [-t[i] for i in plane]
        grass = 1
        for alpha in plane:
            for beta in range(r + 1):
                if beta not in plane:
                    grass *= t[beta] - t[alpha]
        sums = [-(point[a] + point[b]) for a, b in pairs]
        for (a, b), shift in zip(pairs, sums):
            euler = grass
            for other in sums:
                if other != shift:
                    euler *= shift - other
            total += Fraction(divided_conic_top_chern(n, d, point, a, b), euler)
    return total


def flat_plane_sum(r, k, t, local):
    """``planes._plane_sum``'s pair (numerator, D) plane by plane, with no prefix walk: with
    P_j = prod_{l != j} (t_j - t_l), the numerator adds local(t_I) V(t_I)^2 prod_{j not in I}
    P_j over the coordinate k-planes I, V the Vandermonde product, and D is
    (-1)^C(k+1, 2) prod_j P_j.  Each product is taken afresh for every plane."""
    p = [1] * (r + 1)
    for j in range(r + 1):
        for l in range(r + 1):
            if l != j:
                p[j] *= t[j] - t[l]
    numerator = 0
    for plane in itertools.combinations(range(r + 1), k + 1):
        term = local([t[i] for i in plane])
        for i, j in itertools.combinations(plane, 2):
            term *= (t[j] - t[i]) ** 2
        for j in range(r + 1):
            if j not in plane:
                term *= p[j]
        numerator += term
    denominator = (-1) ** comb(k + 1, 2)
    for pj in p:
        denominator *= pj
    return numerator, denominator


def plane_top_chern(d, r, k, point):
    """e_n, n = (k+1)(r-k), of the C(d+k, k) roots <v, point>, |v| = d, by the plain loop."""
    roots = [sum(vi * p for vi, p in zip(v, point)) for v in compositions(k + 1, d)]
    return plain_top_chern((k + 1) * (r - k), roots, ())


def divided_plane_bott(d, r, k, t):
    """Plane fixed-point sum with one Fraction per fixed plane I: the top Chern value of the
    weights of the degree-d monomials at t_I, by the plain loop, over
    prod_{i in I, j not in I} (t_i - t_j).  No packing and no shared prefixes."""
    n = (k + 1) * (r - k)
    total = Fraction(0)
    for plane in itertools.combinations(range(r + 1), k + 1):
        roots = [sum(vi * t[i] for vi, i in zip(v, plane)) for v in compositions(k + 1, d)]
        euler = 1
        for i in plane:
            for j in range(r + 1):
                if j not in plane:
                    euler *= t[i] - t[j]
        total += Fraction(plain_top_chern(n, roots, ()), euler)
    return total


def fixed_point_fano(degrees, r, k, extra, t):
    """Fixed-point sum for a Fano-scheme integral, one Fraction per coordinate k-plane I:
    prod_j prod_{|v| = d_j} <v, t_I> times extra(t_I), over prod_{i in I, j not in I}
    (t_i - t_j).  extra is e_1^delta for the Plucker degree and e_2 for the c2 integral."""
    total = Fraction(0)
    for plane in itertools.combinations(range(r + 1), k + 1):
        point = [t[i] for i in plane]
        value = extra(point)
        for d in degrees:
            for v in compositions(k + 1, d):
                value *= sum(vi * p for vi, p in zip(v, point))
        euler = 1
        for i in plane:
            for j in range(r + 1):
                if j not in plane:
                    euler *= t[i] - t[j]
        total += Fraction(value, euler)
    return total


# the six fixed conics x_a x_b = 0 of a plane, a <= b indexing its three coordinates
_PAIRS = tuple(itertools.combinations_with_replacement(range(3), 2))
# the two coordinates left when coordinate a of a plane is dropped
_OTHERS = ((1, 2), (0, 2), (0, 1))
# each conic of _PAIRS by the edges that hold its 2d + 1 roots, as (a, (k, l), c): the d + 1
# with v_a = 0 are all the degree-d roots of the edge (k, l) of the other two coordinates; for
# a != b the d others are those of the edge (a, c) with v_a >= 1, c the third coordinate, and
# for the double line x_a^2 = 0, c = a, they are x_a times the degree-(d-1) roots of (k, l)
_CONICS = tuple((a, _OTHERS[a], 3 - a - b if a != b else a) for a, b in _PAIRS)


def table_conic_bott(d, r, t):
    """``conics.deg_conics_bott`` with its fiber driven by the ``_CONICS`` table: the same
    packed edge products, keyed by weight pairs, and the six conics of a plane taken in a
    loop over the table.  It shares the package's packing, plane walk and cofactors, so it
    guards only the fiber's edge lookups and the cyclic order of its loop over a plane's
    vertices, which reads x_0 x_2 = 0 as E_01 F_2->1 and steps the roots of x_1^2 = 0 from
    the x_0 end, where the table reads E_12 F_0->1 and steps from the x_2 end."""
    from fanocount.conics import BottSum, _check_conic_degree_regime, _fiber_cofactors
    from fanocount.errors import InconsistencyError
    from fanocount.planes import _layout, _pack, _plane_sum, _unpack, _weight_tuple
    _check_conic_degree_regime(d, r)
    weights = _weight_tuple(t, r)
    width, mask, low, y = _layout(3 * r - 1, 2 * d + 1, d * max(map(abs, weights)))
    edges = {}   # (t_i, t_j) -> (E_ij, F_i->j), both orders of each edge
    for ti, tj in itertools.combinations(weights, 2):
        start, step = -ti - (d - 1) * tj, tj - ti
        inner = _pack(1, [start + m * step for m in range(d - 1)], width, mask, y)
        from_i, from_j = (_pack(inner, [-d * w], width, mask, y) for w in (ti, tj))
        whole = _pack(from_i, [-d * tj], width, mask, y)
        edges[ti, tj], edges[tj, ti] = (whole, from_i), (whole, from_j)

    def fiber(plane, _):
        denominator, cofactors = _fiber_cofactors(plane)
        numerator = 0
        for (a, (k, l), c), cofactor in zip(_CONICS, cofactors):
            whole = edges[plane[k], plane[l]][0]
            if c != a:
                conic = whole * edges[plane[a], plane[c]][1] & mask
            else:
                start, step = -plane[a] - (d - 1) * plane[l], plane[l] - plane[k]
                conic = _pack(whole, range(start, start + d * step, step), width, mask, y)
            numerator += _unpack(conic, width, low) * cofactor
        value, remainder = divmod(numerator, denominator)
        if remainder:
            raise InconsistencyError(f"fiber sum at plane weights {plane} is not an integer")
        return value

    numerator, denominator = _plane_sum(r, 2, weights, fiber)
    return BottSum(Fraction((-1) ** r * numerator, denominator), numerator % denominator == 0)


# ---------------------------------------------------------------------------
# plain top-Chern loop for the fixed-point kernel
# ---------------------------------------------------------------------------

def plain_top_chern(n, roots, divisors):
    """Z^n coefficient of prod (1 + a Z) / prod (1 + b Z): every root updates
    every coefficient, with no window and no shared passes."""
    coeffs = [1] + [0] * n
    for a in roots:
        for j in range(n, 0, -1):
            coeffs[j] += a * coeffs[j - 1]
    for b in divisors:
        for j in range(1, n + 1):
            coeffs[j] -= b * coeffs[j - 1]
    return coeffs[n]


def divided_conic_top_chern(n, d, point, a, b):
    """Z^n coefficient at the fixed conic x_a x_b = 0 of a plane with Chern-root
    values ``point``: the C(d+2, 2) weights of the degree-d monomials over the
    C(d, 2) weights of degree d - 2 shifted by point_a + point_b, the weights of
    the multiples x_a x_b x^w of the conic equation."""
    def weights(degree):
        return [sum(vi * p for vi, p in zip(v, point)) for v in compositions(3, degree)]
    shift = point[a] + point[b]
    return plain_top_chern(n, weights(d), [w + shift for w in weights(d - 2)])


def six_term_untwisted_sum(d, r, t):
    """The untwisted conic shortcut term by term: for each plane and each of its six fixed
    conics, eta(t_I) / [(t_i t_j t_k)^(r-2) prod of the other five pair sums], with eta the
    plain loop over the weights of the degree-d monomials divided by those of degree d - 2.
    The weights are taken as Fractions, so every division is exact."""
    n = 3 * r - 1
    total = Fraction(0)
    for plane in itertools.combinations(range(r + 1), 3):
        point = [Fraction(t[i]) for i in plane]

        def weights(degree):
            return [sum(vi * p for vi, p in zip(v, point)) for v in compositions(3, degree)]
        eta = plain_top_chern(n, weights(d), weights(d - 2))
        base = (point[0] * point[1] * point[2]) ** (r - 2)
        sums = [point[a] + point[b] for a, b in itertools.combinations_with_replacement(range(3), 2)]
        for idx in range(6):
            denominator = base
            for jdx, s in enumerate(sums):
                if jdx != idx:
                    denominator *= s
            total += eta / denominator
    return -total


# ---------------------------------------------------------------------------
# the CLI's command line through argparse
# ---------------------------------------------------------------------------

def build_parser():
    """The argparse parser of the CLI's command line, built from the same subcommand table;
    ``parse_args`` gives the namespace, or raises SystemExit(0) on help, SystemExit(2) on a
    usage error."""
    parser = argparse.ArgumentParser(
        prog="fanocount",
        description="Exact counts: hypersurfaces and complete intersections "
                    "containing planes or conics, and invariants of their Fano schemes.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for name, entry in _COMMANDS.items():
        command, methods = subs.add_parser(name, help=entry.help), _methods(entry)
        command.add_argument("--d", required=True,
                             help="degree, or comma-separated degrees for complete intersections")
        command.add_argument("--r", required=True, type=int, help="ambient projective dimension")
        if entry.takes_k:
            command.add_argument("--k", required=True, type=int, help="plane dimension")
        if methods:
            command.add_argument("--method", choices=methods, default=methods[0])
        command.add_argument("--format", choices=("table", "json", "csv"), default="table")
        command.add_argument("--seed", type=int, default=DEFAULT_SEED,
                             help=f"seed for fixed-point weight draws (default {DEFAULT_SEED})")

    subs.add_parser("paper-check", help="run the full table of published anchor values")

    sweep = subs.add_parser("sweep", help="grid sweep, CSV on stdout")
    sweep.add_argument("target", choices=_SWEEP_TARGETS)
    sweep.add_argument("--d", required=True,
                       help="degrees: comma list of ints, lo..hi ranges, or a+b multidegrees")
    sweep.add_argument("--r", required=True, help="r values: comma list or lo..hi")
    sweep.add_argument("--k", required=True, help="k values: comma list or lo..hi")
    return parser
