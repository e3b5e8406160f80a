"""Representations of Dynkin quivers, as integer matrices.

Provides indecomposables indexed by positive roots, built in the
bipartite sink-source orientation by Bernstein-Gelfand-Ponomarev
reflection functors whose new spaces are integer cokernels
(`linalg.cokernel`, the rule that knits the preprojective injectives),
exact Hom/Ext dimensions, generic decompositions, and quiver-Grassmannian
point counts over F_p together with Euler characteristics obtained by
polynomial interpolation of those counts.  A representation is its
integer model alone: Hom and the rational ranks read it over Q, and a
walk over F_p reduces each entry it reads, so no copy mod p is kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

from . import linalg
from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError
from .linalg import GF, QQ


class Quiver(namedtuple("Quiver", "vertices arrows")):
    """Finite quiver: vertex labels plus (source, target) arrows."""

    __slots__ = ()

    @classmethod
    def sink_source(cls, c: CartanData) -> "Quiver":
        """Bipartite orientation of the Dynkin graph, class-0 nodes sinks."""
        arrows = []
        for u, v in c.edges:
            if c.xi[u - 1] == 1:
                arrows.append((u, v))
            else:
                arrows.append((v, u))
        return cls(tuple(c.nodes()), tuple(sorted(arrows)))

    def topological_targets_first(self) -> list:
        """Vertex order in which every arrow target precedes its source.

        Ties go to the vertex listed first in `vertices`.
        """
        pos = {v: k for k, v in enumerate(self.vertices)}.__getitem__
        out_deg = {v: 0 for v in self.vertices}
        preds = {v: [] for v in self.vertices}
        for (s, t) in self.arrows:
            out_deg[s] += 1
            preds[t].append(s)
        ready = [v for v in self.vertices if out_deg[v] == 0]
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            added = []
            for s in preds[v]:
                out_deg[s] -= 1
                if out_deg[s] == 0:
                    added.append(s)
            ready = sorted(ready + added, key=pos)
        if len(order) != len(self.vertices):
            raise InvalidInputError("quiver has an oriented cycle")
        return order


class QuiverRep:
    """Representation: per-vertex dimension, per-arrow integer matrix.

    Matrices have shape (dim target) x (dim source); they are read over
    Q, or over F_p with every entry taken mod p.  The counting data
    derived from them (walk order, ranks over Q and each F_p, point
    counts) is memoized in _memo, so a representation must not be
    changed once counted.
    """

    __slots__ = ("quiver", "dims", "mats", "_memo")

    def __init__(self, quiver: Quiver, dims: dict, mats: dict):
        self.quiver = quiver
        self.dims = dims
        self.mats = mats
        self._memo = {}
        for (s, t) in quiver.arrows:
            m = mats.get((s, t))
            ds, dt = dims.get(s, 0), dims.get(t, 0)
            if m is None:
                mats[(s, t)] = [[0] * ds for _ in range(dt)]
            elif len(m) != dt or (m and any(len(r) != ds for r in m)):
                raise InvalidInputError(f"matrix shape mismatch on arrow {s}->{t}")

    def dim_vector(self) -> tuple:
        return tuple(self.dims.get(v, 0) for v in self.quiver.vertices)


def euler_form(quiver: Quiver, d, e) -> int:
    """<d,e> = sum_i d_i e_i - sum_{arrows s->t} d_s e_t."""
    val = sum(d[i] * e[i] for i in range(len(d)))
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    for (s, t) in quiver.arrows:
        val -= d[idx[s]] * e[idx[t]]
    return val


# --- indecomposables via reflection functors ------------------------------

def _reflect_sources(M: QuiverRep, sources) -> QuiverRep:
    """Reflection functor at pairwise non-adjacent sources of M's quiver.

    The space at each source s becomes the cokernel of M_s -> (+)_t M_t,
    the maps of its arrows s -> t stacked in quiver order, and each such
    arrow turns into t -> s, sending a vector of M_t to its class
    (`linalg.cokernel`, integral or a ConsistencyError).  Every other
    space and arrow is kept.
    """
    dims = dict(M.dims)
    mats = {a: m for a, m in M.mats.items() if a[0] not in sources}
    for s in sources:
        out = [t for (u, t) in M.quiver.arrows if u == s]
        images = [[row[k] for t in out for row in M.mats[(s, t)]]
                  for k in range(M.dims[s])]
        cls = linalg.cokernel(images, sum(M.dims[t] for t in out))
        dims[s] = len(cls[0]) if cls else 0
        start = 0
        for t in out:
            block = cls[start:start + M.dims[t]]
            mats[(t, s)] = [[row[f] for row in block] for f in range(dims[s])]
            start += M.dims[t]
    return QuiverRep(Quiver(M.quiver.vertices, tuple(sorted(mats))), dims,
                     mats)


def _reflect_class(c: CartanData, beta: tuple, cls: int) -> tuple:
    """Product of the commuting simple reflections at nodes with xi == cls."""
    return tuple(beta[j - 1] - (c.pairing(beta, j) if c.xi[j - 1] == cls
                                else 0)
                 for j in c.nodes())


_INDEC_CACHE: dict = {}


def indecomposable_rep(c: CartanData, beta) -> QuiverRep:
    """The indecomposable of the sink-source quiver with dimension beta."""
    beta = tuple(beta)
    if not c.is_positive_root(beta):
        raise InvalidInputError(f"{beta} is not a positive root")
    key = (c, beta)
    if key not in _INDEC_CACHE:
        _INDEC_CACHE[key] = _build_indec(c, beta)
    return _INDEC_CACHE[key]


def _build_indec(c: CartanData, beta: tuple) -> QuiverRep:
    rep = _indec(c, beta)
    if rep.dim_vector() != beta:
        raise ConsistencyError("reflection functors produced a wrong dimension")
    if hom_dim(rep, rep) != 1:
        raise ConsistencyError("constructed representation is decomposable")
    return rep


def _indec(c: CartanData, beta: tuple) -> QuiverRep:
    """A simple, the projective at a class-1 source, or else the inverse
    Coxeter functor on the indecomposable at the Coxeter image of beta:
    reflect at the class-1 nodes, then at the class-0 nodes, as
    _reflect_class does on dimension vectors."""
    quiver = Quiver.sink_source(c)
    dims = dict(zip(c.nodes(), beta))
    if sum(beta) == 1:
        return QuiverRep(quiver, dims, {})
    for i in c.i1():
        nbrs = c.neighbors(i)
        if beta == tuple(int(v == i or v in nbrs) for v in c.nodes()):
            return QuiverRep(quiver, dims, {(i, j): [[1]] for j in nbrs})
    gamma = _reflect_class(c, _reflect_class(c, beta, 0), 1)
    if not c.is_positive_root(gamma):
        raise ConsistencyError(f"Coxeter step left the root system at {beta}")
    return _reflect_sources(_reflect_sources(_indec(c, gamma), c.i1()),
                            c.i0())


# --- Hom, Ext, generic decomposition --------------------------------------

def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    """dim Hom(M, N), by solving the commuting-square system exactly."""
    if M.quiver != N.quiver:
        raise InvalidInputError("representations live over different quivers")
    verts = list(M.quiver.vertices)
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += M.dims.get(v, 0) * N.dims.get(v, 0)
    if total == 0:
        return 0
    rows = []
    for (s, t) in M.quiver.arrows:
        dms, dmt = M.dims.get(s, 0), M.dims.get(t, 0)
        dns, dnt = N.dims.get(s, 0), N.dims.get(t, 0)
        # N_a phi_s - phi_t M_a = 0, entrywise (dnt x dms) equations
        for r in range(dnt):
            for cidx in range(dms):
                row = [0] * total
                for k in range(dns):
                    row[offsets[s] + k * dms + cidx] += N.mats[(s, t)][r][k]
                for k in range(dmt):
                    row[offsets[t] + r * dmt + k] -= M.mats[(s, t)][k][cidx]
                rows.append(row)
    if not rows:
        return total
    return total - linalg.rank(rows, QQ)


def ext1_dim(M: QuiverRep, N: QuiverRep) -> int:
    """dim Ext^1(M, N) = hom(M, N) - <dim M, dim N> (hereditary)."""
    return hom_dim(M, N) - euler_form(M.quiver, M.dim_vector(), N.dim_vector())


_EXT_CACHE: dict = {}


def _ext_orthogonal(c: CartanData, b1: tuple, b2: tuple) -> bool:
    key = (c, b1, b2)
    if key not in _EXT_CACHE:
        m1, m2 = indecomposable_rep(c, b1), indecomposable_rep(c, b2)
        _EXT_CACHE[key] = (ext1_dim(m1, m2) == 0 and ext1_dim(m2, m1) == 0)
    return _EXT_CACHE[key]


def generic_decomposition(c: CartanData, d) -> list[tuple]:
    """The unique Ext-orthogonal multiset of positive roots summing to d."""
    d = tuple(d)
    if any(x < 0 for x in d):
        raise InvalidInputError("dimension vector must be nonnegative")
    if not any(d):
        return []
    roots = sorted(c.positive_roots(), key=lambda r: (-sum(r), r))
    solutions = []

    # each level fixes one root's multiplicity, the largest first, so
    # the search is at most len(roots) + 1 deep
    def search(start, remaining, chosen):
        if len(solutions) > 1:
            return
        if not any(remaining):
            solutions.append(chosen)
            return
        for idx in range(start, len(roots)):
            r = roots[idx]
            takes = []
            rest = tuple(a - b for a, b in zip(remaining, r))
            while all(x >= 0 for x in rest):
                takes.append(rest)
                rest = tuple(a - b for a, b in zip(rest, r))
            if takes and all(_ext_orthogonal(c, prev, r) for prev in chosen):
                for k in range(len(takes), 0, -1):
                    search(idx + 1, takes[k - 1], chosen + [r] * k)

    search(0, d, [])
    if len(solutions) != 1:
        raise ConsistencyError(
            f"generic decomposition of {d} is not unique ({len(solutions)} found)")
    return sorted(solutions[0], key=lambda r: (-sum(r), r))


# --- quiver Grassmannians --------------------------------------------------

def count_subrep_tuples(vertices_order, arrows, dims, mats, p,
                        nus=None) -> dict:
    """Point counts over F_p of subrepresentation Grassmannians, by nu.

    Counts the tuples of subspaces U_v of F_p^(d_v) closed under mats,
    integer matrices read mod p; vertices_order must list arrow targets
    before their sources.  Each nu is a tuple of (vertex, dim U_v) pairs
    along vertices_order with the zeros left out.  Walks every nu (nus
    None) or the set nus, and returns {nu: count} over those with points.

    One side is counted in closed form: the sources or the sinks,
    whichever has the larger sum of the largest nu_v (d_v - nu_v) walked,
    ties going to the sources.
    Neither side has an arrow inside it, so the subspaces at the other
    vertices, walked targets first, fix everything a closed vertex b
    sees: W_b, the span of the images of the arrows into b, and P_b, the
    common preimage of the subspaces at the targets of the arrows out of
    b.  A source has W_b = 0 and a sink has P_b = M_b, so W_b lies in
    P_b, and the U_b of dimension k between them number
    [dim P_b - dim W_b, k - dim W_b]_p for dim W_b <= k <= dim P_b.
    A walked vertex tries only the dimensions that extend a prefix of a
    walked nu.  Every partial choice extends by zero subspaces, so a walk
    of every nu meets no dead end: its work follows the number of points.
    Tables that live for one call do the linear algebra once: subspaces
    are interned as ids keyed by their rref bases, P_v of a walked vertex
    is kept per ids at its targets, its subspace lists per (id, k), and a
    closed vertex's binomials per ids at its neighbours.
    """
    field = GF(p)
    rows = None if nus is None else [dict(nu) for nu in nus]
    spans = {v: range(dims.get(v, 0) + 1) if rows is None
             else {row.get(v, 0) for row in rows} for v in vertices_order}
    heads = {t for (_, t) in arrows}
    tails = {s for (s, _) in arrows}
    sources = [v for v in vertices_order if v not in heads]
    sinks = [v for v in vertices_order if v not in tails]

    def degree(side):
        return sum(max((k * (dims.get(v, 0) - k) for k in spans[v]),
                       default=0) for v in side)

    closed = sources if degree(sources) >= degree(sinks) else sinks
    shut = set(closed)
    walked = [v for v in vertices_order if v not in shut]
    # the walked nu as a trie over the walked vertices; None walks all
    trie = None if rows is None else {}
    for row in rows or ():
        node = trie
        for v in walked:
            node = node.setdefault(row.get(v, 0), {})
    # arrows into closed vertices are read at the leaves only
    out_arrows = {v: [] for v in vertices_order}
    in_arrows = {v: [] for v in closed}
    for (s, t) in arrows:
        if t in shut:
            in_arrows[t].append((s, linalg.transpose(mats[(s, t)])))
        else:
            out_arrows[s].append((t, mats[(s, t)]))
    index = {v: k for k, v in enumerate(vertices_order)}
    # the (v, k) pairs of nu keys are made once and shared by every key
    pairs = {v: [None] + [(v, k) for k in range(1, dims.get(v, 0) + 1)]
             for v in vertices_order}
    combo = [None] * len(vertices_order)
    counts = {}
    # subspaces of F_p^d as ids; bases[i] = (d, rref rows), anns[i] lazy
    ids, bases, anns = {}, [], {}
    chosen = {}
    at = chosen.__getitem__
    # the tables, keyed by the ids at a vertex's targets or neighbours
    targets = {v: tuple(t for t, _ in out_arrows[v]) for v in walked}
    rooms = {v: {} for v in walked}
    lists = {}
    around = {b: tuple(s for s, _ in in_arrows[b])
              + tuple(t for t, _ in out_arrows[b]) for b in closed}
    shuts = {b: {} for b in closed}

    def intern(d, basis):
        key = (d, tuple(map(tuple, basis)))
        if key not in ids:
            ids[key] = len(bases)
            bases.append((d, basis))
        return ids[key]

    def forms(v):
        for t, m in out_arrows[v]:
            i = chosen[t]
            if i not in anns:
                anns[i] = linalg.annihilator(bases[i][1], bases[i][0], field)
            yield from linalg.mat_mul(anns[i], m, field)

    def room(v):
        """Id of the preimage at v of the subspaces at its targets."""
        key = tuple(map(at, targets[v]))
        if key not in rooms[v]:
            dv, eqs = dims.get(v, 0), list(forms(v))
            basis = (linalg.rref(linalg.nullspace(eqs, dv, field), field)[0]
                     if eqs else linalg.identity(dv))
            rooms[v][key] = intern(dv, basis)
        return rooms[v][key]

    def subspaces(a, k):
        # pattern . basis of two full-rank rref matrices is in rref
        if (a, k) not in lists:
            d, basis = bases[a]
            lists[(a, k)] = [intern(d, sub) for sub in
                             linalg.subspaces_of(basis, k, field)]
        return lists[(a, k)]

    def choices(b):
        key = tuple(map(at, around[b]))
        if key not in shuts[b]:
            images = [row for s, mt in in_arrows[b] for row in
                      linalg.mat_mul(bases[chosen[s]][1], mt, field)]
            eqs = list(forms(b))
            low = linalg.rank(images, field) if images else 0
            high = dims.get(b, 0) - (linalg.rank(eqs, field) if eqs else 0)
            shuts[b][key] = [(k, linalg.gaussian_binomial(high - low,
                                                          k - low, p))
                             for k in spans[b] if low <= k <= high]
        return shuts[b][key]

    def close():
        for pick in product(*map(choices, closed)):
            total = 1
            for b, (k, n) in zip(closed, pick):
                combo[index[b]] = pairs[b][k]
                total *= n
            key = tuple(filter(None, combo))
            if nus is None or key in nus:
                counts[key] = counts.get(key, 0) + total

    def walk(idx, node):
        if idx == len(walked):
            close()
            return
        v = walked[idx]
        allowed = room(v)
        for k in (spans[v] if node is None else node):
            combo[index[v]] = pairs[v][k]
            child = None if node is None else node[k]
            for sub in subspaces(allowed, k):
                chosen[v] = sub
                walk(idx + 1, child)

    walk(0, trie)
    return counts


def _memoized(M: QuiverRep, key, make):
    if key not in M._memo:
        M._memo[key] = make()
    return M._memo[key]


def _support_walk(M: QuiverRep):
    """Support vertices, targets first, and the arrows between them."""
    def make():
        support = tuple(v for v in M.quiver.vertices if M.dims.get(v, 0))
        inside = set(support)
        arrows = tuple(a for a in M.quiver.arrows
                       if a[0] in inside and a[1] in inside)
        return Quiver(support, arrows).topological_targets_first(), arrows
    return _memoized(M, "walk", make)


def arrow_ranks(M: QuiverRep, p: int | None = None) -> dict:
    """Rank of every nonempty arrow matrix, over Q, or over F_p given p."""
    field = QQ if p is None else GF(p)
    return _memoized(M, ("ranks", p), lambda: {
        a: linalg.rank(m, field) for a, m in M.mats.items() if m})


def _points(M: QuiverRep, p: int, nus=None) -> dict:
    """{nu: point count over F_p}: one walk of M mod p, of every nu or nus."""
    def make():
        order, arrows = _support_walk(M)
        return count_subrep_tuples(order, arrows, M.dims, M.mats, p, nus)
    return _memoized(M, ("points", p, nus), make)


def _nu_key(M: QuiverRep, nu) -> tuple:
    """nu as a key of _points; raises unless 0 <= nu_v <= d_v everywhere."""
    if not hasattr(nu, "items"):
        nu = {v: nu[i] for i, v in enumerate(M.quiver.vertices)}
    if any(not 0 <= nu.get(v, 0) <= M.dims.get(v, 0)
           for v in M.quiver.vertices):
        raise InvalidInputError("nu must lie between 0 and dim M")
    return tuple((v, nu[v]) for v in _support_walk(M)[0] if nu.get(v, 0))


def grassmannian_count_fq(M: QuiverRep, nu, p: int) -> int:
    """Point count of the subrepresentation Grassmannian over F_p, p prime."""
    if p < 2 or _next_prime(p - 1) != p:
        raise InvalidInputError(f"p = {p} is not a prime")
    key = _nu_key(M, nu)
    return _points(M, p, frozenset((key,))).get(key, 0)


def _first_good_primes(M: QuiverRep, count: int) -> list[int]:
    """First primes at which every arrow matrix keeps its rational rank.

    At such a prime the reduction of the integer model is a genuine
    model of M over F_p; every Euler characteristic uses this policy.
    """
    q_ranks = arrow_ranks(M)
    primes = []
    p = 2
    while len(primes) < count:
        if arrow_ranks(M, p) == q_ranks:
            primes.append(p)
        p = _next_prime(p)
    return primes


def _next_prime(p: int) -> int:
    q = p + 1
    while any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
        q += 1
    return q


def interpolate_at_one(points, degree_bound: int) -> int:
    """Fit an integer polynomial of bounded degree; evaluate at 1.

    points are (p, count) pairs; must contain at least degree_bound + 2
    entries so polynomiality is tested, not just interpolated.  The first
    degree_bound + 1 points fix the coefficients, through the inverse
    Vandermonde matrix of their primes; the fit is checked at all points.
    """
    if degree_bound < 0:
        raise InvalidInputError("degree bound must be nonnegative")
    if len(points) < degree_bound + 2:
        raise InvalidInputError("not enough sample points")
    base = points[:degree_bound + 1]
    den, weights = _inverse_vandermonde(tuple(x for x, _ in base))
    ys = [y for _, y in base]
    # den times the coefficients, constant term first
    coeffs = [sum(map(mul, row, ys)) for row in weights]
    for (x, y) in points:
        acc = 0
        for co in reversed(coeffs):
            acc = acc * x + co
        if acc != den * y:
            raise ConsistencyError(
                "point counts do not fit a polynomial within the degree bound")
    if any(co % den for co in coeffs):
        raise ConsistencyError("counting polynomial is not integral")
    return sum(coeffs) // den


@lru_cache(maxsize=64)
def _inverse_vandermonde(xs: tuple):
    """(den, W): W / den is the inverse of the Vandermonde matrix of xs.

    Row k of W / den maps the values at xs to the coefficient of x^k.
    One integer rref over Q of [V | I] gives it: its row k is a positive
    pivot d_k at column k, then d_k times row k of the inverse, so den
    is the lcm of the pivots.
    """
    n = len(xs)
    aug = [[x ** k for k in range(n)] + [int(i == j) for j in range(n)]
           for i, x in enumerate(xs)]
    red = linalg.rref(aug, QQ)[0]
    den = lcm(*(row[k] for k, row in enumerate(red)))
    return den, tuple(tuple(den // row[k] * q for q in row[n:])
                      for k, row in enumerate(red))


def grassmannian_euler(M: QuiverRep, nu) -> int:
    """Euler characteristic of the subrepresentation Grassmannian at nu.

    Fitted like euler_series, from walks of nu alone, so the counting
    polynomial at nu must have nonnegative coefficients, as for both
    routes' modules and for every indecomposable of a Dynkin quiver (all
    that `rep euler` builds).
    """
    key = _nu_key(M, nu)
    return _fit_series(M, frozenset((key,))).get(key, 0)


def euler_series(M: QuiverRep) -> dict:
    """Every nonzero Euler characteristic of M's quiver Grassmannians.

    Returns {nu: chi}, each nu a tuple of (vertex, nu_v) pairs along the
    walk order with the zeros left out.  The walk of every nu at the
    first good prime p1 finds the nu with points; each later good prime
    is walked only for the nu whose fit needs it.  This is exact because
    every counting polynomial P here has nonnegative integer
    coefficients: P(p1) = 0 forces P = 0, so a nu the walk misses has
    chi = 0, and P(p1) > 0 forces chi = P(1) > 0 and P(p) >= p^deg P, so
    each walked prime p lowers the degree bound, from sum_v nu_v
    (d_v - nu_v), to the largest b with p^b <= P(p); a nu is fitted from
    bound + 2 points.
    - Preprojective route: the Grassmannians of sums of injectives of the
      graded preprojective algebra are Nakajima's graded quiver
      varieties (Leclerc and Plamondon, Nakajima varieties and
      repetitive algebras, 2013; Hernandez and Leclerc, Quantum
      Grothendieck rings and derived Hall algebras, 2015), whose
      cohomology is pure and vanishes in odd degrees (Nakajima, J. Amer.
      Math. Soc. 14, 2001, and Ann. of Math. 160, 2004).
    - Level-1 route: M is a rigid representation of a Dynkin quiver, and
      a nonempty Gr_e(M) is smooth, projective and irreducible of
      dimension <e, d - e> (Caldero and Reineke, J. Pure Appl. Algebra
      212, 2008); its polynomial count is then its Poincare polynomial
      in q = t^2.
    Raises ConsistencyError on a misfit or a chi <= 0, which break that.
    """
    return _fit_series(M, None)


def _fit_series(M: QuiverRep, nus) -> dict:
    """euler_series at the nu of the set nus (at every nu when None)."""
    primes = _first_good_primes(M, 1)
    counts = _points(M, primes[0], nus)
    points = {nu: [] for nu in counts}
    bounds = {nu: sum(k * (M.dims[v] - k) for v, k in nu) for nu in counts}
    pending = points
    while pending:
        for nu in pending:
            n = counts.get(nu, 0)
            points[nu].append((primes[-1], n))
            while bounds[nu] and primes[-1] ** bounds[nu] > n:
                bounds[nu] -= 1
        pending = frozenset(nu for nu in pending
                            if len(primes) < bounds[nu] + 2)
        if pending:
            primes = _first_good_primes(M, len(primes) + 1)
            counts = _points(M, primes[-1], pending)
    series = {}
    for nu, pts in points.items():
        try:
            chi = interpolate_at_one(pts, bounds[nu])
        except ConsistencyError as err:
            raise ConsistencyError(
                f"{err}: at {nu}, primes {[p for p, _ in pts]}, degree "
                f"bound {bounds[nu]}") from err
        if chi <= 0:
            raise ConsistencyError(
                f"Euler characteristic {chi} at {nu}, which has points over "
                f"F_{primes[0]}; the counting polynomial is not positive")
        series[nu] = chi
    return series


def reflect_i1(c: CartanData, beta) -> tuple:
    """Apply the commuting product of class-1 simple reflections to beta.

    The result is a positive root or minus a simple root; returned in
    simple-root coordinates either way.
    """
    beta = tuple(beta)
    if not c.is_positive_root(beta):
        raise InvalidInputError(f"{beta} is not a positive root")
    out = _reflect_class(c, beta, 1)
    if c.is_positive_root(out):
        return out
    negs = [j for j in c.nodes() if out[j - 1] != 0]
    if len(negs) == 1 and out[negs[0] - 1] == -1:
        return out
    raise ConsistencyError(f"reflection of {beta} is not almost positive: {out}")


def rep_direct_sum(reps: list[QuiverRep]) -> QuiverRep:
    """Block-diagonal direct sum of representations of one quiver."""
    if not reps:
        raise InvalidInputError("empty direct sum")
    quiver = reps[0].quiver
    if any(r.quiver != quiver for r in reps):
        raise InvalidInputError("summands live over different quivers")
    dims = {v: sum(r.dims.get(v, 0) for r in reps) for v in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        s = a[0]
        rows = []
        col_off = 0
        for r in reps:
            width = r.dims.get(s, 0)
            for brow in r.mats[a]:
                rows.append([0] * col_off + list(brow)
                            + [0] * (dims[s] - col_off - width))
            col_off += width
        mats[a] = rows
    return QuiverRep(quiver, dims, mats)
