"""Skew-symmetric cluster algebras with frozen variables.

Seeds carry a sparse exchange matrix over labelled vertices and exact
Laurent expansions of the mutable variables in the initial ones.  A
cluster variable is identified by its expansion, and a cluster by its
set of variables.  The level-ell initial seed glues the descending
arrows of the repetition quiver to vertical translation arrows and
freezes the bottom row.  F-polynomials and g-vectors are read off by
replaying mutation paths on a principal-coefficient copy of the seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Tuple

from .cartan import CartanData
from .errors import (CapExceededError, ConsistencyError, InvalidInputError)
from .lpoly import LPoly

Vertex = Tuple[int, int]


def ring_key(v) -> tuple:
    """Laurent-ring key of a vertex; tagged vertices are their own key."""
    return v if isinstance(v[0], str) else ("z",) + v


@dataclass(frozen=True)
class Seed:
    """Exchange matrix plus tracked variables; never edited in place."""

    mutable: tuple
    frozen: tuple
    b: dict          # sparse {(v, w): entry}, at least one endpoint mutable
    variables: dict  # {vertex: LPoly} for mutable vertices, in seed order

    def var(self, v) -> LPoly:
        p = self.variables.get(v)
        if p is not None:
            return p
        if v in self.frozen:
            return LPoly.var(ring_key(v))
        raise InvalidInputError(f"unknown vertex {v}")

    def cluster_key(self) -> frozenset:
        return frozenset(self.variables.values())


def _seed_from_quiver(mutable, frozen, arrows) -> Seed:
    """Build a seed whose exchange matrix has b[v][w] > 0 for arrows w -> v."""
    mutable = tuple(sorted(mutable))
    frozen = tuple(sorted(frozen))
    mset = set(mutable)
    b: Dict[Tuple[Vertex, Vertex], int] = {}
    for (u, w) in arrows:
        if u not in mset and w not in mset:
            continue
        b[(w, u)] = b.get((w, u), 0) + 1
        b[(u, w)] = b.get((u, w), 0) - 1
    b = {k: v for k, v in b.items() if v}
    variables = {v: LPoly.var(("z",) + v) for v in mutable}
    return Seed(mutable, frozen, b, variables)


def gamma_seed(c: CartanData, ell: int) -> Seed:
    """Initial seed on the level-ell slice of the repetition quiver.

    Vertices (i, xi_i + 2k) for 0 <= k <= ell; arrows are the descending
    repetition-quiver arrows together with vertical arrows
    (i, r) -> (i, r + 2); the bottom row is frozen.
    """
    if ell < 0:
        raise InvalidInputError("level must be >= 0")
    vertices = [(i, c.xi[i - 1] + 2 * k) for i in c.nodes()
                for k in range(ell + 1)]
    vset = set(vertices)
    arrows = []
    for (i, r) in vertices:
        for j in c.neighbors(i):
            if (j, r - 1) in vset:
                arrows.append(((i, r), (j, r - 1)))
        if (i, r + 2) in vset:
            arrows.append(((i, r), (i, r + 2)))
    frozen = [(i, c.xi[i - 1]) for i in c.nodes()]
    mutable = [v for v in vertices if v not in set(frozen)]
    return _seed_from_quiver(mutable, frozen, arrows)


def mutate(seed: Seed, k: Vertex) -> Seed:
    """Fomin-Zelevinsky mutation at a mutable vertex."""
    if k not in seed.mutable:
        raise InvalidInputError(f"cannot mutate at non-mutable vertex {k}")
    b = seed.b
    pos = LPoly.one()
    neg = LPoly.one()
    for v in seed.mutable + seed.frozen:
        e = b.get((v, k), 0)
        if e > 0:
            pos = pos * seed.var(v) ** e
        elif e < 0:
            neg = neg * seed.var(v) ** (-e)
    new_var = (pos + neg).exact_div(seed.var(k))
    # entries at k flip sign; b_vw gains |b_vk| b_kw when b_vk and b_kw
    # share a sign, that is when b_vk b_wk < 0 (b is skew-symmetric)
    newb = {vw: -e if k in vw else e for vw, e in b.items()}
    around = [(v, e) for (v, w), e in b.items() if w == k]
    frozen = set(seed.frozen)
    for v, bvk in around:
        for w, bwk in around:
            if bvk * bwk < 0 and (v not in frozen or w not in frozen):
                val = newb.get((v, w), 0) - abs(bvk) * bwk
                if val:
                    newb[(v, w)] = val
                else:
                    del newb[(v, w)]
    variables = dict(seed.variables)
    variables[k] = new_var
    return Seed(seed.mutable, seed.frozen, newb, variables)


@dataclass
class ClusterVariable:
    """A non-frozen cluster variable found during enumeration."""

    ident: str
    expansion: LPoly
    dvector: tuple          # over mutable initial vertices, seed order
    path: tuple             # mutation path from the initial seed
    vertex: Vertex          # where the variable sits at the end of path
    alt_path: Optional[tuple] = None
    alt_vertex: Optional[Vertex] = None


@dataclass
class ExchangeGraph:
    """Result of a breadth-first closure under mutation."""

    seed: Seed
    clusters: tuple         # frozensets of variable idents
    variables: dict         # ident -> ClusterVariable
    adjacency: dict         # cluster key -> number of distinct neighbors

    def n_clusters(self) -> int:
        return len(self.clusters)

    def n_variables(self) -> int:
        return len(self.variables)

    def compatible(self, id1: str, id2: str) -> bool:
        """Two variables are compatible when some cluster holds both."""
        return any(id1 in cl and id2 in cl for cl in self.clusters)


def _dvector(seed: Seed, expansion: LPoly) -> tuple:
    return tuple(-expansion.min_exponent(("z",) + v) for v in seed.mutable)


def enumerate_exchange_graph(seed: Seed, cap: int = 100000) -> ExchangeGraph:
    """Breadth-first closure of the seed under mutation.

    Each variable is named when the search first meets its expansion,
    and each cluster is keyed by the frozenset of its variables' names;
    raises CapExceededError past the cap.
    """
    idents: Dict[LPoly, str] = {}
    variables: Dict[str, ClusterVariable] = {}

    def name(poly: LPoly, path: tuple, v: Vertex) -> str:
        ident = idents.get(poly)
        if ident is None:
            ident = idents[poly] = f"v{len(idents):03d}"
            variables[ident] = ClusterVariable(
                ident, poly, _dvector(seed, poly), path, v)
        return ident

    names = tuple(name(p, (), v) for v, p in seed.variables.items())
    seen = {frozenset(names)}
    neighbor_sets: Dict[frozenset, set] = {}
    queue = deque([(seed, (), names)])
    while queue:
        current, path, names = queue.popleft()
        ckey = frozenset(names)
        for i, k in enumerate(current.mutable):
            nxt = mutate(current, k)
            npath = path + (k,)
            # only the variable at k is new, and a variable never met
            # before makes a cluster never met before
            nnames = (names[:i] + (name(nxt.variables[k], npath, k),)
                      + names[i + 1:])
            nkey = frozenset(nnames)
            neighbor_sets.setdefault(ckey, set()).add(nkey)
            if nkey not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        f"exchange graph exceeded cap {cap}; "
                        "infinite or very large type")
                seen.add(nkey)
                for v, ident in zip(nxt.variables, nnames):
                    cv = variables[ident]
                    if (cv.alt_path is None
                            and (npath, v) != (cv.path, cv.vertex)):
                        cv.alt_path, cv.alt_vertex = npath, v
                queue.append((nxt, npath, nnames))
    clusters = tuple(sorted(seen, key=sorted))
    adjacency = {ck: len(ns) for ck, ns in neighbor_sets.items()}
    return ExchangeGraph(seed, clusters, variables, adjacency)


def _principal_seed(seed: Seed) -> Seed:
    """Same mutable exchange matrix, principal coefficients, fresh variables."""
    b = {}
    mset = set(seed.mutable)
    for (v, w), e in seed.b.items():
        if v in mset and w in mset:
            b[(v, w)] = e
    for v in seed.mutable:
        b[(("y",) + v, v)] = 1
        b[(v, ("y",) + v)] = -1
    frozen = tuple(("y",) + v for v in seed.mutable)
    variables = {v: LPoly.var(("z",) + v) for v in seed.mutable}
    return Seed(seed.mutable, frozen, b, variables)


def f_polynomial_and_gvector(seed0: Seed, cv: ClusterVariable):
    """F-polynomial and g-vector by replaying the path with principal
    coefficients at the initial seed.

    The F-polynomial comes back keyed by the mutable vertices; the
    g-vector follows the order of seed0.mutable.
    """
    replay = seed0
    for k in cv.path:
        replay = mutate(replay, k)
    if replay.var(cv.vertex) != cv.expansion:
        raise InvalidInputError("variable is not reachable from this seed "
                                "along its recorded path")
    princ = _principal_seed(seed0)
    for k in cv.path:
        princ = mutate(princ, k)
    x = princ.var(cv.vertex)
    fpoly = x.subs_one(lambda key: key[0] == "z").map_keys(lambda key: key[1:])
    if fpoly.const_term() != 1 or any(c <= 0 for _, c in fpoly.items()):
        raise ConsistencyError("F-polynomial lost positivity or its unit "
                               "constant term")
    g = _gvector(seed0, x)
    return fpoly, g


def _gvector(seed0: Seed, expansion: LPoly) -> tuple:
    mutable = seed0.mutable
    index = {("z",) + v: i for i, v in enumerate(mutable)}
    b = seed0.b
    ydeg = {("y",) + v: [-b.get((w, v), 0) for w in mutable]
            for v in mutable}
    degree = None
    for m, _ in expansion.items():
        deg = [0] * len(mutable)
        for key, e in m:
            if key in index:
                deg[index[key]] += e
            else:
                deg = [a + e * d for a, d in zip(deg, ydeg[key])]
        if degree is None:
            degree = deg
        elif degree != deg:
            raise ConsistencyError("principal expansion is not homogeneous")
    return tuple(degree if degree is not None else [0] * len(mutable))


def variable_by_denominator(graph: ExchangeGraph, beta) -> ClusterVariable:
    """The unique variable whose denominator vector matches beta.

    beta is indexed like graph.seed.mutable; negative simples select the
    initial variables.
    """
    target = tuple(beta)
    if len(target) != len(graph.seed.mutable):
        raise InvalidInputError("denominator vector has the wrong length")
    hits = [cv for cv in graph.variables.values() if cv.dvector == target]
    if len(hits) != 1:
        raise ConsistencyError(
            f"{len(hits)} variables have denominator vector {target}")
    return hits[0]


# (variable count, cluster count) fingerprints of the finite cluster types
def _finite_type_table() -> Dict[Tuple[int, int], str]:
    table = {}
    for n in range(1, 13):
        nvars = n * (n + 3) // 2
        nclusters = comb(2 * (n + 1), n + 1) // (n + 2)
        table[(nvars, nclusters)] = f"A{n}"
    for n in range(4, 13):
        nvars = n * n
        nclusters = (3 * n - 2) * comb(2 * n - 2, n - 1) // n
        table[(nvars, nclusters)] = f"D{n}"
    table[(42, 833)] = "E6"
    table[(70, 4160)] = "E7"
    table[(128, 25080)] = "E8"
    return table


def classify_finite_type(c: CartanData, ell: int, cap: int = 100000) -> str:
    """Cluster type of the level-ell algebra by enumeration fingerprint."""
    if ell < 1:
        raise InvalidInputError("classification needs level >= 1")
    try:
        graph = enumerate_exchange_graph(gamma_seed(c, ell), cap)
    except CapExceededError:
        return "infinite-or-large"
    key = (graph.n_variables(), graph.n_clusters())
    label = _finite_type_table().get(key)
    if label is None:
        return f"finite-unrecognized(variables={key[0]},clusters={key[1]})"
    return label
