"""Cross-module verification engine.

Builds Kirillov-Reshetikhin q-characters through the T-system recursion
with the Grassmannian fundamentals as seeds.  At level 1 one table,
`_generators`, pairs each almost positive root with a prime simple, a
cluster variable and a truncated q-character; `verify_l1`, the
truncations and the prime factorization by exact cover all read it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul

from . import lpoly, preproj, quiverrep
from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError
from .lpoly import LPoly
from .ymono import YMonomial, YPolynomial, highest_monomial, is_dominant


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


def gr_series(c: CartanData, rep: quiverrep.QuiverRep) -> LPoly:
    """Generating series of Euler characteristics over subrep dimensions."""
    return LPoly([(tuple(sorted(nu)), chi)
                  for nu, chi in quiverrep.euler_series(rep).items()])


_GRAPH_CACHE: dict = {}


def level1_graph(c: CartanData, cap: int = 100000):
    """The level-1 exchange graph of c, cached per (c, cap)."""
    from . import cluster
    key = (c, cap)
    if key not in _GRAPH_CACHE:
        seed = cluster.gamma_seed(c, 1)
        _GRAPH_CACHE[key] = cluster.enumerate_exchange_graph(seed, cap)
    return _GRAPH_CACHE[key]


def _variable(c: CartanData, graph, d: tuple):
    """The level-1 variable with denominator vector d, found by g-vector.

    The level-1 seed is bipartite, so acyclic, and its mutable vertices
    (i, xi_i + 2) come in node order.  For d >= 0 the variable is the
    Caldero-Chapoton character of the indecomposable M of dimension d
    (Caldero and Chapoton, Comment. Math. Helv. 81, 2006), the sum over
    e of chi(Gr_e(M)) prod_j x_j^(-<e, a_j> - <a_j, d - e>), with <,>
    the Euler form of the seed's mutable quiver.  Its e = 0 term is the
    term x^g of F's constant 1 in x^g F(y-hat) (Fomin and Zelevinsky,
    Cluster algebras IV, Cor 6.3), so g_j = -<a_j, d> = -d_j + sum_i
    [b_ij]_+ d_i.  For d = -a_j the variable is the initial one, g = e_j.
    Only the variable found is replayed, and it must replay to
    denominator d, or ConsistencyError.
    """
    b = graph.seed.b
    if min(d) < 0:
        g = tuple(-x for x in d)
    else:
        g = tuple(sum(max(b[i][j], 0) * d[i] for i in range(c.n)) - d[j]
                  for j in range(c.n))
    cv = next((cv for cv in graph.variables.values() if cv.gvector == g),
              None)
    if cv is None or cv.dvector != d:
        raise ConsistencyError(f"no level-1 variable has denominator {d}")
    return cv


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
    fpoly, _ = cluster.f_polynomial_and_gvector(graph.seed,
                                                _variable(c, graph, beta))
    return fpoly.map_keys(lambda v: v[0])


class PrimeFactor(namedtuple("PrimeFactor", "kind node gamma",
                             defaults=(None, None))):
    """A prime tensor factor: frozen at a node, or a signed-root simple.

    kind is "frozen" (node set) or "simple" (gamma set).
    """

    __slots__ = ()

    def sort_key(self):
        return (self.kind, self.node or 0, self.gamma or ())


# one prime of the level-1 category; see _generators
Level1Entry = namedtuple("Level1Entry", "factor monomial variable beta")


def frozen_monomial(c: CartanData, i: int) -> YMonomial:
    xi = c.xi[i - 1]
    return YMonomial([((i, xi), 1), ((i, xi + 2), 1)])


def _generators(c: CartanData, graph) -> list:
    """The level-1 dictionary, one Level1Entry per prime.

    Hernandez and Leclerc (2010, completed by Nakajima) pair each almost
    positive root gamma with a prime simple module, a cluster variable
    and a truncated q-character.  An entry holds the PrimeFactor, the
    monomial (frozen_monomial, or y_alpha(gamma)), the ClusterVariable
    (None when frozen) and beta, the positive root whose
    indecomposable's Grassmannian series corrects the monomial.  The n
    frozen entries come first.  Then the initial variable at each node
    i, with denominator -alpha_i and gamma = alpha_i at class 1 or
    -alpha_i at class 0, so its monomial is Y[i, xi_i + 2]; its
    F-polynomial is 1, so beta is None and its truncation is the
    monomial alone.  Then each positive root beta, with gamma =
    reflect_i1(beta) and the variable of denominator beta.  reflect_i1
    is an involution, negative only at beta = alpha_i with xi_i = 1, so
    every almost positive root is one gamma.  beta alone decides the
    correction: the truncation is y_alpha(gamma) F(v), F the variable's
    F-polynomial at v_i = A[i, xi_i + 1]^-1, and F is the Grassmannian
    series of the indecomposable of dimension beta, the variable's
    denominator (Caldero and Chapoton).
    """
    roots = []
    for i in c.nodes():
        d = tuple(-x for x in c.simple_root(i))
        roots.append((c.simple_root(i) if c.xi[i - 1] else d, d, None))
    roots += [(quiverrep.reflect_i1(c, b), b, b) for b in c.positive_roots()]
    return ([Level1Entry(PrimeFactor("frozen", node=i),
                         frozen_monomial(c, i), None, None)
             for i in c.nodes()]
            + [Level1Entry(PrimeFactor("simple", gamma=g), y_alpha(c, g),
                           _variable(c, graph, d), beta)
               for g, d, beta in roots])


def _trunc(c: CartanData, entry) -> YPolynomial:
    """The entry's truncated q-character, by `preproj.a_inverse_qchar`
    at the vertices (i, xi_i), so that A[i, xi_i + 1]^-1 stands for v_i."""
    if entry.beta is None:
        return YPolynomial.from_monomial(entry.monomial)
    series = gr_series(c, quiverrep.indecomposable_rep(c, entry.beta))
    return preproj.a_inverse_qchar(
        c, entry.monomial, series.map_keys(lambda i: (i, c.xi[i - 1])).items())


def simple_trunc_qchar_c1(c: CartanData, beta) -> YPolynomial:
    """Level-1 truncated q-character of the simple attached to a root.

    It is the truncation of beta's entry in the level-1 dictionary: the
    reflected-root monomial corrected by the Grassmannian series of the
    indecomposable at beta.
    """
    beta = tuple(beta)
    if not c.is_positive_root(beta):
        raise InvalidInputError(f"{beta} is not a positive root")
    return _trunc(c, next(e for e in _generators(c, level1_graph(c))
                          if e.beta == beta))


def verify_l1(c: CartanData, cap: int = 100000) -> list[dict]:
    """Per-root comparison of the mutation and Grassmannian pipelines.

    Each positive root's dictionary entry contributes one report entry,
    its variable's F-polynomial against its indecomposable's
    Grassmannian series; a final entry checks that the monomials of all
    almost positive roots are pairwise distinct and dominant.
    """
    from . import cluster
    graph = level1_graph(c, cap)
    simples = _generators(c, graph)[c.n:]
    report = []
    for e in simples:
        if e.beta is None:
            continue
        fpoly = cluster.f_polynomial_and_gvector(
            graph.seed, e.variable)[0].map_keys(lambda v: v[0])
        series = gr_series(c, quiverrep.indecomposable_rep(c, e.beta))
        report.append({
            "case": "root " + ",".join(map(str, e.beta)),
            "pass": fpoly == series,
            "lhs": fpoly,
            "rhs": series,
        })
    monomials = [e.monomial for e in simples]
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

def factor_simple_c1(c: CartanData, m: YMonomial,
                     cap: int = 100000) -> list[PrimeFactor]:
    """Prime tensor factorization of a level-1 simple by exact cover.

    The factor multiset is the unique way of writing m as a product of
    the level-1 dictionary's monomials whose variables are pairwise
    compatible in the exchange graph; the positive part is cross-checked
    against the generic decomposition.
    """
    return [e.factor for e in _factor_entries(c, m, cap)]


def _factor_entries(c: CartanData, m: YMonomial, cap: int) -> list:
    if not is_dominant(m) or not m.in_m_ell(c, 1):
        raise InvalidInputError("monomial is not a level-1 dominant monomial")
    graph = level1_graph(c, cap)
    solutions = _exact_cover(graph, _generators(c, graph), m)
    if len(solutions) != 1:
        raise ConsistencyError(
            f"{len(solutions)} factorizations found for {m!r}")
    factors = [e.factor for e in solutions[0]]
    positive = [f.gamma for f in factors
                if f.kind == "simple" and min(f.gamma) >= 0]
    total = tuple(sum(g[j] for g in positive) for j in range(c.n))
    expected = quiverrep.generic_decomposition(c, total)
    if sorted(positive) != sorted(expected):
        raise ConsistencyError("factor multiset disagrees with the generic "
                               "decomposition")
    return sorted(solutions[0], key=lambda e: e.factor.sort_key())


def _exact_cover(graph, gens, m) -> list:
    """Multisets of gens whose monomials multiply to m, with pairwise
    compatible variables; the search stops at the second one.  Each
    level fixes one generator's multiplicity, the largest first, so the
    search is at most len(gens) + 1 deep."""
    solutions = []

    def search(start, remaining, chosen):
        if len(solutions) > 1:
            return
        if remaining.is_one():
            solutions.append(chosen)
            return
        for idx in range(start, len(gens)):
            e = gens[idx]
            takes = []
            rest = remaining / e.monomial
            while all(x >= 0 for _, x in rest.key):
                takes.append(rest)
                rest = rest / e.monomial
            if takes and (e.variable is None or all(
                    graph.compatible(e.variable.ident, o.variable.ident)
                    for o in chosen if o.variable not in (None, e.variable))):
                for k in range(len(takes), 0, -1):
                    search(idx + 1, takes[k - 1], chosen + [e] * k)

    search(0, m, [])
    return solutions


def trunc_qchar_c1(c: CartanData, m: YMonomial, cap: int = 100000) -> YPolynomial:
    """Level-1 truncated q-character of an arbitrary level-1 simple.

    Factors the highest weight into primes first; the truncation of a
    simple tensor product is the product of the factor truncations.
    """
    out = YPolynomial.one()
    for e in _factor_entries(c, m, cap):
        out = out * _trunc(c, e)
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
