"""Cross-module verification engine.

Builds Kirillov-Reshetikhin q-characters through the T-system recursion
with the Grassmannian fundamentals as seeds, maps almost positive roots
to dominant monomials, equates cluster F-polynomials with quiver
Grassmannian generating series at level 1, and factors level-1 simple
modules into prime factors by exact cover over cluster data.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul

from . import lpoly, preproj, quiverrep
from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError
from .lpoly import LPoly
from .ymono import (YMonomial, YPolynomial, a_monomial_exps, highest_monomial,
                    is_dominant)


class KRLabel(namedtuple("KRLabel", "i k s")):
    """Kirillov-Reshetikhin label: node, string length, spectral exponent."""

    __slots__ = ()


_KR_CACHE: dict = {}


def kr_qchar(c: CartanData, lbl: KRLabel) -> YPolynomial:
    """KR q-character via the T-system, seeded by the fundamentals.

    For lengths >= 2 the T-system is solved upward for the longer
    module; the division must be exact, anything else aborts.
    """
    c.check_node(lbl.i)
    if lbl.k < 0:
        raise InvalidInputError("string length must be >= 0")
    return _kr_at(c, lbl.i, lbl.k, lbl.s)


def _kr_at(c: CartanData, i: int, k: int, s: int) -> YPolynomial:
    return _kr(c, i, k).shift(s - c.xi[i - 1])


def _kr(c: CartanData, i: int, k: int) -> YPolynomial:
    """KR q-character of (i, k) at the base shift xi_i, cached per (c, i, k)."""
    key = (c, i, k)
    if key in _KR_CACHE:
        return _KR_CACHE[key]
    s = c.xi[i - 1]
    if k == 0:
        val = YPolynomial.one()
    elif k == 1:
        val = preproj.fundamental_qchar(c, i, s)
    else:
        val, ok = _tsystem_step(c, i, k - 1)
        if not ok:
            raise ConsistencyError(f"T-system residual is not zero at "
                                   f"(i={i}, k={k}, s={s})")
    _KR_CACHE[key] = val
    return val


def _tsystem_step(c: CartanData, i: int, k: int) -> tuple:
    """Solve the T-system at s = xi_i for T_(k+1), cached under (c, i, k+1).

    lhs = T_k(s) T_k(s+2) equals T_(k+1)(s) T_(k-1)(s+2) + prod, prod the
    product of T_k^(j)(s+1) over the neighbors j of i.  The step hands
    the term pairs of lhs and of prod (the last neighbor's factor times
    the product of the others) to `lpoly.graded_quotient`, which divides
    lhs - prod by T_(k-1)(s+2) one grade at a time and checks each
    slab's residual, so neither lhs, prod nor their difference is
    formed.

    The grade of Y_(j,t) is r_j, the coefficient of alpha_j in 2 rho
    (the sum of the positive roots).  Since sum_j C_jl r_j =
    <2 rho, alpha_l> = 2, every A_(l,a) has grade 2, and every monomial
    of a KR q-character is its highest monomial times A^-1 factors
    (Frenkel-Mukhin), so the divisor's top grade holds its highest
    monomial alone; the kernel checks this rather than assuming it.
    Quotient grades are confined to [h_min - g_min, h_max - g_top], so
    a slab left over below that range, a quotient monomial outside the
    digit box or a coefficient that does not divide ends in
    ConsistencyError.  Returns (T_(k+1), residual ok); T_(k+1) is None
    and not cached when a residual is not empty.
    """
    s = c.xi[i - 1]
    factors = [_kr_at(c, j, k, s + 1).poly for j in c.neighbors(i)]
    last = factors.pop() if factors else LPoly.one()
    others = reduce(mul, factors) if factors else LPoly.one()
    two_rho = [sum(col) for col in zip(*c.positive_roots())]
    products = [(last, others, -1),
                (_kr(c, i, k).poly, _kr_at(c, i, k, s + 2).poly, 1)]
    try:
        top, ok = lpoly.graded_quotient(
            products, _kr_at(c, i, k - 1, s + 2).poly,
            lambda key: two_rho[key[0] - 1])
    except ValueError as exc:
        raise ConsistencyError(f"T-system division failed at "
                               f"(i={i}, k={k + 1}, s={s}): {exc}")
    if ok:
        top = _KR_CACHE[(c, i, k + 1)] = YPolynomial(top)
    return top, ok


def verify_tsystem(c: CartanData, i: int, k: int, s: int) -> bool:
    """Exact check of the T-system identity at (i, k, s).

    The identity lhs = T_(k+1)(s) T_(k-1)(s+2) + prod is checked grade
    by grade inside the step.  Y_(j,t) has grade r_j, the coefficient
    of alpha_j in 2 rho, so every A_(l,a) has grade 2, and the step
    checks that the divisor's top grade holds one term.  The quotient's
    grades then lie in [h_min - g_min, h_max - g_top], with [h_min,
    h_max] the grades of lhs and prod and [g_min, g_top] those of
    T_(k-1)(s+2), and every term of both sides has a grade in [h_min,
    h_max].  Each slab's residual, (lhs - prod)_h minus every term pair
    of T_(k+1) T_(k-1)(s+2) landing in grade h, is recomputed from the
    slab, not from the division's remainder, and must be empty; so the
    identity holds iff every residual is empty.  Neither product nor
    lhs - prod is formed.  An inexact division raises ConsistencyError.

    The check runs at the base shift xi_i: shifting every spectral
    exponent by s - xi_i is an injective ring map taking each term at
    xi_i to the same term at s (the shift that normalizes the KR
    cache), so the identity holds at s iff it holds at xi_i.
    """
    if k < 1:
        raise InvalidInputError("T-system check needs k >= 1")
    c.check_node(i)
    return _tsystem_step(c, i, k)[1]


# --- level-1 dictionary -----------------------------------------------------

def y_alpha(c: CartanData, alpha) -> YMonomial:
    """Dominant monomial attached to a signed root.

    Positive roots use Y[i, 3 xi_i] to the coordinate power; minus a
    simple root gives the single variable Y[i, 2 - xi_i].
    """
    alpha = tuple(alpha)
    if len(alpha) != c.n:
        raise InvalidInputError("root vector has the wrong length")
    if c.is_positive_root(alpha):
        return YMonomial([((i, 3 * c.xi[i - 1]), alpha[i - 1])
                          for i in c.nodes() if alpha[i - 1]])
    negs = [i for i in c.nodes() if alpha[i - 1]]
    if len(negs) == 1 and alpha[negs[0] - 1] == -1:
        i = negs[0]
        return YMonomial.y(i, 2 - c.xi[i - 1])
    raise InvalidInputError(f"{alpha} is neither a positive root nor a "
                            "negative simple root")


def _initial_monomial(c: CartanData, i: int) -> YMonomial:
    """Highest monomial of the initial variable at (i, xi_i + 2)."""
    return YMonomial.y(i, c.xi[i - 1] + 2)


def v_variable(c: CartanData, i: int) -> YMonomial:
    """The level-1 correction v_i = inverse of A[i, xi_i + 1]."""
    return a_monomial_exps(c, i, c.xi[i - 1] + 1) ** -1


def gr_series(c: CartanData, rep: quiverrep.QuiverRep) -> LPoly:
    """Generating series of Euler characteristics over subrep dimensions."""
    return LPoly([(tuple(sorted(nu)), chi)
                  for nu, chi in quiverrep.euler_series(rep).items()])


def _series_to_qchar(c: CartanData, top: YMonomial, series: LPoly) -> YPolynomial:
    terms = []
    for m, chi in series.items():
        mono = top
        for i, e in m:
            mono = mono * (v_variable(c, i) ** e)
        terms.append((mono, chi))
    return YPolynomial(terms)


def simple_trunc_qchar_c1(c: CartanData, beta) -> YPolynomial:
    """Level-1 truncated q-character of the simple attached to a root.

    The highest monomial is the reflected-root monomial; the correction
    polynomial is the Grassmannian series of the indecomposable at beta.
    """
    beta = tuple(beta)
    if not c.is_positive_root(beta):
        raise InvalidInputError(f"{beta} is not a positive root")
    alpha = quiverrep.reflect_i1(c, beta)
    if min(alpha) < 0:
        i = next(i for i in c.nodes() if alpha[i - 1])
        if c.xi[i - 1] != 1:
            raise ConsistencyError(
                "bipartite reflection produced a class-0 negative simple")
    top = y_alpha(c, alpha)
    series = gr_series(c, quiverrep.indecomposable_rep(c, beta))
    return _series_to_qchar(c, top, series)


# --- the level-1 theorem at desk scale -------------------------------------

_GRAPH_CACHE: dict = {}


def level1_graph(c: CartanData, cap: int = 100000):
    """The level-1 exchange graph of c, cached per (c, cap)."""
    from . import cluster
    key = (c, cap)
    if key not in _GRAPH_CACHE:
        seed = cluster.gamma_seed(c, 1)
        _GRAPH_CACHE[key] = cluster.enumerate_exchange_graph(seed, cap)
    return _GRAPH_CACHE[key]


def _node_dvector(c: CartanData, graph, coords) -> tuple:
    order = {v: idx for idx, v in enumerate(graph.seed.mutable)}
    target = [0] * len(graph.seed.mutable)
    for i in c.nodes():
        target[order[(i, c.xi[i - 1] + 2)]] = coords[i - 1]
    return tuple(target)


def cluster_fpoly(c: CartanData, beta, cap: int = 100000) -> LPoly:
    """F-polynomial of the variable with denominator beta, keyed by node.

    beta is a positive root or minus a simple root, one entry per node.
    """
    beta = tuple(beta)
    if not (c.is_positive_root(beta)
            or tuple(-x for x in beta) in map(c.simple_root, c.nodes())):
        raise InvalidInputError(f"{beta} is neither a positive root nor "
                                f"minus a simple root of {c.type_label}")
    from . import cluster
    graph = level1_graph(c, cap)
    cv = cluster.variable_by_denominator(graph, _node_dvector(c, graph, beta))
    fpoly, _ = cluster.f_polynomial_and_gvector(graph.seed, cv)
    return fpoly.map_keys(lambda v: v[0])


def verify_l1(c: CartanData, cap: int = 100000) -> list[dict]:
    """Per-root comparison of the mutation and Grassmannian pipelines.

    Every positive root contributes one report entry; a final entry
    checks that the monomials assigned to all almost positive roots are
    pairwise distinct and dominant.
    """
    graph = level1_graph(c, cap)
    report = []
    monomials = []
    for beta in c.positive_roots():
        fpoly = cluster_fpoly(c, beta, cap)
        series = gr_series(c, quiverrep.indecomposable_rep(c, beta))
        alpha = quiverrep.reflect_i1(c, beta)
        monomials.append(y_alpha(c, alpha))
        report.append({
            "case": "root " + ",".join(map(str, beta)),
            "pass": fpoly == series,
            "lhs": fpoly,
            "rhs": series,
        })
    for i in c.nodes():
        monomials.append(_initial_monomial(c, i))
    distinct = (len(set(monomials)) == len(monomials)
                and all(is_dominant(m) for m in monomials))
    report.append({
        "case": "dominant monomials pairwise distinct",
        "pass": distinct,
        "lhs": LPoly.const(len(set(monomials))),
        "rhs": LPoly.const(len(monomials)),
    })
    return report


# --- tensor factorization in the level-1 category ---------------------------

class PrimeFactor(namedtuple("PrimeFactor", "kind node gamma",
                             defaults=(None, None))):
    """A prime tensor factor: frozen at a node, or a signed-root simple.

    kind is "frozen" (node set) or "simple" (gamma set).
    """

    __slots__ = ()

    def sort_key(self):
        return (self.kind, self.node or 0, self.gamma or ())


def frozen_monomial(c: CartanData, i: int) -> YMonomial:
    xi = c.xi[i - 1]
    return YMonomial([((i, xi), 1), ((i, xi + 2), 1)])


def _generators(c: CartanData, graph):
    """All prime generators with their monomials and cluster idents."""
    from . import cluster
    gens = []
    for i in c.nodes():
        gens.append((PrimeFactor("frozen", node=i), frozen_monomial(c, i), None))
    # initial variables carry the almost-negative denominators
    for i in c.nodes():
        beta = tuple(-1 if j == i else 0 for j in c.nodes())
        cv = cluster.variable_by_denominator(
            graph, _node_dvector(c, graph, beta))
        gamma = _gamma_of_initial(c, i)
        gens.append((PrimeFactor("simple", gamma=gamma),
                     _initial_monomial(c, i), cv.ident))
    for beta in c.positive_roots():
        cv = cluster.variable_by_denominator(
            graph, _node_dvector(c, graph, beta))
        gamma = quiverrep.reflect_i1(c, beta)
        gens.append((PrimeFactor("simple", gamma=gamma),
                     y_alpha(c, gamma), cv.ident))
    return gens


def _gamma_of_initial(c: CartanData, i: int) -> tuple:
    sign = 1 if c.xi[i - 1] == 1 else -1
    return tuple(sign if j == i else 0 for j in c.nodes())


def factor_simple_c1(c: CartanData, m: YMonomial,
                     cap: int = 100000) -> list[PrimeFactor]:
    """Prime tensor factorization of a level-1 simple by exact cover.

    The factor multiset is the unique way of writing m as a product of
    frozen monomials and almost-positive-root monomials whose non-frozen
    members are pairwise compatible in the exchange graph; the positive
    part is cross-checked against the generic decomposition.
    """
    if not is_dominant(m) or not m.in_m_ell(c, 1):
        raise InvalidInputError("monomial is not a level-1 dominant monomial")
    graph = level1_graph(c, cap)
    gens = _generators(c, graph)
    solutions = _exact_cover(c, graph, gens, m)
    if len(solutions) != 1:
        raise ConsistencyError(
            f"{len(solutions)} factorizations found for {m!r}")
    factors = solutions[0]
    positive = [f.gamma for f in factors
                if f.kind == "simple" and min(f.gamma) >= 0]
    total = tuple(sum(g[j] for g in positive) for j in range(c.n))
    expected = quiverrep.generic_decomposition(c, total)
    if sorted(positive) != sorted(expected):
        raise ConsistencyError("factor multiset disagrees with the generic "
                               "decomposition")
    return sorted(factors, key=lambda f: f.sort_key())


def _exact_cover(c, graph, gens, m) -> list:
    solutions = []

    def search(idx, remaining, chosen, idents):
        if len(solutions) > 1:
            return
        if remaining.is_one():
            solutions.append(list(chosen))
            return
        if idx == len(gens):
            return
        factor, mono, ident = gens[idx]
        # try multiplicity 0, 1, 2, ... of this generator
        multiplicity = 0
        reduced = remaining
        stack_markers = []
        while True:
            nxt = reduced / mono
            if any(e < 0 for _, e in nxt.key):
                break
            if ident is not None and any(
                    not graph.compatible(ident, other) for other in idents
                    if other != ident):
                break
            reduced = nxt
            multiplicity += 1
            chosen.append(factor)
            if ident is not None:
                idents.append(ident)
            stack_markers.append(ident)
        # explore from largest multiplicity down to zero
        while True:
            search(idx + 1, reduced, chosen, idents)
            if multiplicity == 0:
                break
            multiplicity -= 1
            chosen.pop()
            marker = stack_markers.pop()
            if marker is not None:
                idents.pop()
            reduced = reduced * mono
        return

    search(0, m, [], [])
    return solutions


def _factor_trunc_qchar(c: CartanData, f: PrimeFactor) -> YPolynomial:
    if f.kind == "frozen":
        return YPolynomial.from_monomial(frozen_monomial(c, f.node))
    gamma = f.gamma
    if min(gamma) < 0:
        i = next(j for j in c.nodes() if gamma[j - 1])
        if c.xi[i - 1] == 0:
            return YPolynomial.from_monomial(y_alpha(c, gamma))
        series = gr_series(c, quiverrep.indecomposable_rep(c, c.simple_root(i)))
        return _series_to_qchar(c, y_alpha(c, gamma), series)
    beta = quiverrep.reflect_i1(c, gamma)
    if min(beta) < 0:
        return YPolynomial.from_monomial(y_alpha(c, gamma))
    series = gr_series(c, quiverrep.indecomposable_rep(c, beta))
    return _series_to_qchar(c, y_alpha(c, gamma), series)


def trunc_qchar_c1(c: CartanData, m: YMonomial, cap: int = 100000) -> YPolynomial:
    """Level-1 truncated q-character of an arbitrary level-1 simple.

    Factors the highest weight into primes first; the truncation of a
    simple tensor product is the product of the factor truncations.
    """
    out = YPolynomial.one()
    for f in factor_simple_c1(c, m, cap):
        out = out * _factor_trunc_qchar(c, f)
    return out


def verify_iota(c: CartanData, ell: int, cap: int = 100000) -> list[dict]:
    """Experimental level >= 2 bookkeeping for the seed-to-KR dictionary.

    Checks that each initial vertex's KR class has the announced highest
    monomial (`highest_monomial`: its one dominant monomial, with
    coefficient 1, above every term), then that the cluster type
    found within the cap is the expected one.  No simple-module
    q-characters beyond level 1 are claimed.
    """
    if ell < 1:
        raise InvalidInputError("level must be >= 1")
    from . import cluster
    report = []
    for i in c.nodes():
        xi = c.xi[i - 1]
        for k in range(ell + 1):
            s = xi + 2 * k
            length = ell + 1 - k
            poly = kr_qchar(c, KRLabel(i, length, s))
            expected = YMonomial([((i, s + 2 * j), 1) for j in range(length)])
            try:
                top = highest_monomial(c, poly)
                ok = top == expected
            except ConsistencyError:
                ok = False
            report.append({
                "case": f"seed variable ({i},{s}) -> KR(i={i},k={length},s={s})",
                "pass": ok,
                "lhs": LPoly.const(poly.n_monomials()),
                "rhs": LPoly.const(poly.total_mult()),
            })
    label = cluster.classify_finite_type(c, ell, cap)
    expected = expected_cluster_type(c, ell)
    report.append({
        "case": f"cluster type fingerprint: {label}" + (
            "" if label == expected else f" (expected {expected})"),
        "pass": label == expected,
        "lhs": LPoly.zero(),
        "rhs": LPoly.zero(),
    })
    return report


_LEVEL_TYPES = {("A2", 2): "D4", ("A2", 3): "E6", ("A2", 4): "E8",
                ("A3", 2): "E6", ("A4", 2): "E8"}


def expected_cluster_type(c: CartanData, ell: int) -> str:
    """Known cluster type of the level-ell algebra of c.

    Level 1 gives the type itself and A1 at level ell gives A_ell; the
    other finite cases are in _LEVEL_TYPES, and every other pair is of
    infinite type (Hernandez-Leclerc 2010, section 13; Scott 2006 for the
    Grassmannian cluster algebras Gr(k, n)).
    """
    if ell == 1:
        return c.type_label
    if c.type_label == "A1":
        return f"A{ell}"
    return _LEVEL_TYPES.get((c.type_label, ell), "infinite-or-large")
