"""Graded preprojective algebra on a finite window of the repetition quiver.

Vertices are pairs (i, r) with r = xi_i (mod 2); arrows drop the degree
by one along Dynkin edges, and the defining relations make the sum of
all length-two loops (i, r) -> (i, r-2) vanish.  A window module is a
QuiverRep of the window's acyclic quiver that satisfies the relations.
Indecomposable injectives are knitted one degree at a time, each space
the cokernel of a small integer mesh map, and q-characters of
fundamental and standard modules are obtained from Euler
characteristics of their quiver Grassmannians.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from . import linalg, lpoly, quiverrep
from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError, WindowTooSmallError
from .linalg import QQ
from .quiverrep import Quiver, QuiverRep, rep_direct_sum
# perfbench/tracer.py wraps these two names on this module
from .quiverrep import count_subrep_tuples, interpolate_at_one  # noqa: F401
from .ymono import YMonomial, YPolynomial, a_monomial_exps

Vertex = tuple[int, int]


def in_i0hat(c: CartanData, i: int, r: int) -> bool:
    return 1 <= i <= c.n and (r - c.xi[i - 1]) % 2 == 0


class ZQWindow(namedtuple("ZQWindow", "c r_lo r_hi quiver relations")):
    """Finite slice of the repetition quiver with its relations.

    quiver has the vertices by (degree, node) and the descending arrows;
    relations lists the vertices (i, r) with (i, r-2) inside the window.
    """

    __slots__ = ()


def build_window(c: CartanData, r_lo: int, r_hi: int) -> ZQWindow:
    """Materialize vertices, descending arrows, and relation positions."""
    if r_lo >= r_hi:
        raise InvalidInputError("window needs r_lo < r_hi")
    vertices = tuple((i, r) for r in range(r_lo, r_hi + 1)
                     for i in c.nodes() if in_i0hat(c, i, r))
    vset = set(vertices)
    arrows = []
    for (i, r) in vertices:
        for j in c.neighbors(i):
            if (j, r - 1) in vset:
                arrows.append(((i, r), (j, r - 1)))
    relations = tuple((i, r) for (i, r) in vertices if (i, r - 2) in vset)
    return ZQWindow(c, r_lo, r_hi, Quiver(vertices, tuple(sorted(arrows))),
                    relations)


def check_relations(window: ZQWindow, rep: QuiverRep) -> bool:
    """Exact verification of every relation of the window on rep."""
    for (i, r) in window.relations:
        dsrc, dtgt = rep.dims.get((i, r), 0), rep.dims.get((i, r - 2), 0)
        if dsrc == 0 or dtgt == 0:
            continue
        acc = linalg.zero_matrix(dtgt, dsrc)
        for j in window.c.neighbors(i):
            if rep.dims.get((j, r - 1), 0) == 0:
                continue
            first = rep.mats[((i, r), (j, r - 1))]
            second = rep.mats[((j, r - 1), (i, r - 2))]
            step = linalg.mat_mul(second, first, QQ)
            acc = [[a + b for a, b in zip(ra, rb)]
                   for ra, rb in zip(acc, step)]
        if any(any(x != 0 for x in row) for row in acc):
            return False
    return True


def injective_module(window: ZQWindow, i: int, r: int) -> QuiverRep:
    """Injective hull of the simple at (i, r), knitted degree by degree.

    The space at v is dual to e_v Lambda e_t for the target t = (i, r),
    built upward from Q at t.  Paths out of v = (u, s) start with an
    arrow a: v -> w, so e_v Lambda e_t is the cokernel of the mesh map
    e_(u,s-2) Lambda e_t -> (+)_a e_w Lambda e_t, q -> (b_w q)_w, where
    b_w is the arrow w -> (u, s-2).  Its basis is the non-pivot
    coordinates of the map's rref (`linalg.cokernel`).  The arrow
    matrices are the transposed composition maps, with integer entries:
    row k of the matrix of a: v -> w is the class of a times basis
    element k at w.
    Raises when the support touches the top of the window (rebuild with
    a larger window).
    """
    c = window.c
    if not in_i0hat(c, i, r):
        raise InvalidInputError(f"({i},{r}) is not a vertex of the "
                                "repetition quiver")
    if not (window.r_lo <= r <= window.r_hi):
        raise WindowTooSmallError("target vertex outside the window")
    target = (i, r)
    out_arrows: dict[Vertex, list] = {}
    for a in window.quiver.arrows:
        out_arrows.setdefault(a[0], []).append(a)
    dims = {v: 0 for v in window.quiver.vertices}
    dims[target] = 1
    mats = {}
    for v in window.quiver.vertices:
        if v[1] <= r:
            continue
        arrows = out_arrows.get(v, [])
        low = (v[0], v[1] - 2)
        mesh = [[x for (_, w) in arrows for x in mats[(w, low)][k]]
                for k in range(dims.get(low, 0))]
        # the class of each coordinate vector of (+)_a e_w Lambda e_t
        cls = linalg.cokernel(mesh, sum(dims[w] for (_, w) in arrows))
        dims[v] = len(cls[0]) if cls else 0
        start = 0
        for a in arrows:
            mats[a] = cls[start:start + dims[a[1]]]
            start += dims[a[1]]

    _assert_inside(window, dims, target)
    rep = QuiverRep(window.quiver, dims, mats)
    if not check_relations(window, rep):
        raise ConsistencyError("injective construction violates a relation")
    return rep


def _assert_inside(window, dims, target):
    top = max((v[1] for v, d in dims.items() if d), default=target[1])
    if top >= window.r_hi - 1:
        raise WindowTooSmallError(
            f"support reaches degree {top}; enlarge the window above "
            f"{window.r_hi}")


# --- q-characters -----------------------------------------------------------

_FUND_CACHE: dict = {}


def fundamental_qchar(c: CartanData, i: int, r: int) -> YPolynomial:
    """q-character of the fundamental module with highest weight Y[i,r].

    Computed once at the base shift xi_i, as the standard module of the
    injective at (i, xi_i), then translated to r.
    """
    c.check_node(i)
    if (r - c.xi[i - 1]) % 2 != 0:
        raise InvalidInputError(
            f"({i},{r}): fundamental weights need r = xi_{i} (mod 2)")
    base = c.xi[i - 1]
    key = (c, i)
    if key not in _FUND_CACHE:
        _FUND_CACHE[key] = standard_qchar(c, {(i, base): 1})
    return _FUND_CACHE[key].shift(r - base)


def standard_qchar(c: CartanData, W) -> YPolynomial:
    """q-character of the standard module attached to the graded space W.

    W maps (i, r) in the degree lattice to a multiplicity; the result is
    Y^W times the A-corrected Grassmannian sum over the direct sum of
    injectives, and agrees with the product of fundamental q-characters.
    """
    W = {k: v for k, v in dict(W).items() if v}
    for (i, r), mult in W.items():
        if not in_i0hat(c, i, r):
            raise InvalidInputError(f"({i},{r}) is not in the degree lattice")
        if mult < 0:
            raise InvalidInputError("multiplicities must be nonnegative")
    if not W:
        return YPolynomial.one()
    r_lo = min(r for (_, r) in W)
    r_hi_anchor = max(r for (_, r) in W)
    window = build_window(c, r_lo, r_hi_anchor + c.coxeter_number())
    parts = []
    for (i, r), mult in sorted(W.items()):
        parts.extend([injective_module(window, i, r)] * mult)
    top = YMonomial([((i, r), mult) for (i, r), mult in W.items()])
    return a_inverse_qchar(
        c, top, quiverrep.euler_series(rep_direct_sum(parts)).items())


def a_inverse_qchar(c: CartanData, top: YMonomial, series) -> YPolynomial:
    """top times the sum of chi prod A[j, s+1]^-n over series' (nu, chi).

    series holds (nu, chi) pairs and is read twice: nu lists (vertex
    (j, s), n) pairs, and chi is the Euler characteristic of the quiver
    Grassmannian of subrepresentations of dimension nu.
    """
    # the exponent pairs of A[j, s+1]^-1, once per vertex (j, s)
    a_inv = {v: a_monomial_exps(c, v[0], v[1] + 1).inverse().key
             for v in {v for nu, _ in series for v, _ in nu}}
    return YPolynomial(lpoly.LPoly(
        (lpoly.mono(chain(top.key, ((y, e * n) for v, n in nu
                                    for y, e in a_inv[v]))), chi)
        for nu, chi in series))
