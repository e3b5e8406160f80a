"""Skew-symmetric cluster algebras with frozen variables.

Seeds carry the extended exchange matrix B-tilde as integer rows and
exact Laurent expansions of the mutable variables in the initial ones;
`_mutate_rows` is the one matrix-mutation rule.  The exchange graph is
enumerated on integers alone, the principal seed's B-tilde (B over the
C-matrix) and the G-matrix, and records clusters and variables only: a
variable is identified by its g-vector, and a cluster by its set of
variables.  The level-ell initial seed glues the descending arrows of
the repetition quiver to vertical translation arrows and freezes the
bottom row.  A variable is expanded only when read, by replaying its
mutation path once on a principal-coefficient copy of the initial seed;
its denominator vector and its F-polynomial are both read off that one
expansion, and the g-vector read there must equal the enumerated one.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from math import comb

from .cartan import CartanData
from .errors import (CapExceededError, ConsistencyError, InvalidInputError)
from .lpoly import LPoly

Vertex = tuple[int, int]


def ring_key(v) -> tuple:
    """Laurent-ring key of a vertex; tagged vertices are their own key."""
    return v if isinstance(v[0], str) else ("z",) + v


class Seed(namedtuple("Seed", "mutable frozen b variables")):
    """Extended exchange matrix plus tracked variables; never edited in place.

    b has one row per vertex of mutable + frozen and one column per
    mutable vertex, with b[v][w] > 0 for arrows w -> v; variables is
    {vertex: LPoly} for the mutable vertices, in seed order.
    """

    __slots__ = ()

    def var(self, v) -> LPoly:
        p = self.variables.get(v)
        if p is not None:
            return p
        if v in self.frozen:
            return LPoly.var(ring_key(v))
        raise InvalidInputError(f"unknown vertex {v}")


def _seed_from_quiver(mutable, frozen, arrows) -> Seed:
    """Build a seed whose exchange matrix has b[v][w] > 0 for arrows w -> v."""
    mutable = tuple(sorted(mutable))
    frozen = tuple(sorted(frozen))
    row = {v: i for i, v in enumerate(mutable + frozen)}
    col = {v: j for j, v in enumerate(mutable)}
    b = [[0] * len(mutable) for _ in row]
    for (u, w) in arrows:
        if u in col:
            b[row[w]][col[u]] += 1
        if w in col:
            b[row[u]][col[w]] -= 1
    variables = {v: LPoly.var(("z",) + v) for v in mutable}
    return Seed(mutable, frozen, tuple(map(tuple, b)), variables)


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
    col = seed.mutable.index(k)
    pos = LPoly.one()
    neg = LPoly.one()
    for v, row in zip(seed.mutable + seed.frozen, seed.b):
        e = row[col]
        if e > 0:
            pos = pos * seed.var(v) ** e
        elif e < 0:
            neg = neg * seed.var(v) ** (-e)
    new_var = (pos + neg).exact_div(seed.var(k))
    variables = dict(seed.variables)
    variables[k] = new_var
    return Seed(seed.mutable, seed.frozen, _mutate_rows(seed.b, col),
                variables)


class ClusterVariable:
    """A non-frozen cluster variable found during enumeration.

    Its expansion with principal coefficients and its denominator vector
    are built on first read, by one replay of the path.
    """

    def __init__(self, ident: str, gvector: tuple, path: tuple,
                 vertex: Vertex, seed: Seed):
        self.ident = ident
        self.gvector = gvector  # over mutable initial vertices, seed order
        self.path = path        # mutation path from the initial seed
        self.vertex = vertex    # where the variable sits at the end of path
        self.seed = seed

    @cached_property
    def principal(self) -> LPoly:
        """The expansion at the principal-coefficient copy of the seed."""
        replay = _principal_seed(self.seed)
        for k in self.path:
            replay = mutate(replay, k)
        return replay.var(self.vertex)

    @cached_property
    def dvector(self) -> tuple:
        """Minus the least exponent of each mutable initial variable.

        By the separation formula (Fomin and Zelevinsky, Cluster algebras
        IV, Thm 3.7 and Cor 6.3) the principal expansion is x^g F(y-hat)
        and the seed's own is x^g F(y-hat) divided by a monomial in the
        frozen variables, with the same g and F; the two y-hats differ
        only in their coefficients, the y_j in one and frozen monomials
        in the other.  F has positive coefficients (Lee and Schiffler,
        Ann. of Math. 2015), so no term cancels in either, and both have
        the same exponents in the mutable initial variables.
        """
        return tuple(-self.principal.min_exponent(("z",) + v)
                     for v in self.seed.mutable)


class ExchangeGraph:
    """Result of a breadth-first closure under mutation."""

    def __init__(self, seed: Seed, clusters: tuple, variables: dict):
        self.seed = seed
        self.clusters = clusters    # frozensets of variable idents
        self.variables = variables  # ident -> ClusterVariable

    def n_clusters(self) -> int:
        return len(self.clusters)

    def n_variables(self) -> int:
        return len(self.variables)

    @cached_property
    def _partners(self) -> dict:
        partners = {ident: set() for ident in self.variables}
        for cl in self.clusters:
            for ident in cl:
                partners[ident] |= cl
        return partners

    def compatible(self, id1: str, id2: str) -> bool:
        """Two variables are compatible when some cluster holds both."""
        return id2 in self._partners.get(id1, ())


def _mutate_rows(rows: tuple, k: int) -> tuple:
    """Fomin-Zelevinsky mutation at k of an extended exchange matrix.

    rows are the rows of B-tilde, mutable vertices first, so row k and
    column k belong to the same vertex.  Row k is negated; in every
    other row the entry at k flips sign, and b_ij gains |b_ik| b_kj when
    b_ik and b_kj share a sign.
    """
    rowk = rows[k]
    out = []
    for i, row in enumerate(rows):
        e = row[k]
        if i == k:
            row = tuple(-x for x in row)
        elif e:
            new = [x + abs(e) * y if e * y > 0 else x
                   for x, y in zip(row, rowk)]
            new[k] = -e
            row = tuple(new)
        out.append(row)
    return tuple(out)


def enumerate_exchange_graph(seed: Seed, cap: int = 100000) -> ExchangeGraph:
    """Breadth-first closure of the seed under mutation.

    Each queued seed carries integers only: the rows of the
    principal-coefficient seed's B-tilde, that is the mutable exchange
    matrix B over the C-matrix block, and the G-matrix (rows are the
    variables' g-vectors).  Mutation at k gives
    g'_k = -g_k + sum_i [b_ik]_+ g_i - sum_j [c_jk]_+ b0_j, with b0_j
    column j of the initial B (Fomin-Zelevinsky, Cluster algebras IV,
    Prop. 6.6).  A g-vector determines its cluster variable in the
    skew-symmetric case (Derksen-Weyman-Zelevinsky 2010), so each
    variable is named when the search first meets its g-vector, and
    each cluster is keyed by the frozenset of its variables' names;
    raises CapExceededError past the cap.
    """
    mutable = seed.mutable
    n = len(mutable)
    rows0 = _principal_seed(seed).b
    b0_cols = tuple(zip(*rows0[:n]))
    idents: dict[tuple, str] = {}
    variables: dict[str, ClusterVariable] = {}

    def name(g: tuple, path: tuple, v: Vertex) -> str:
        ident = idents.get(g)
        if ident is None:
            ident = idents[g] = f"v{len(idents):03d}"
            variables[ident] = ClusterVariable(ident, g, path, v, seed)
        return ident

    unit = rows0[n:]
    names = tuple(name(g, (), v) for v, g in zip(mutable, unit))
    seen = {frozenset(names)}
    # each queued seed carries the index it was mutated at: mutating
    # back there gives its parent's cluster, which is already seen
    queue = deque([(rows0, unit, (), names, None)])
    while queue:
        rows, g, path, names, back = queue.popleft()
        for k, vk in enumerate(mutable):
            if k == back:
                continue
            gk = [-x for x in g[k]]
            for gi, row in zip(g, rows):  # the n rows of B
                e = row[k]
                if e > 0:
                    gk = [x + e * y for x, y in zip(gk, gi)]
            for col, row in zip(b0_cols, rows[n:]):
                e = row[k]
                if e > 0:
                    gk = [x - e * y for x, y in zip(gk, col)]
            gk = tuple(gk)
            npath = path + (vk,)
            # only the variable at k is new, and a variable never met
            # before makes a cluster never met before
            nnames = names[:k] + (name(gk, npath, vk),) + names[k + 1:]
            nkey = frozenset(nnames)
            if nkey in seen:
                continue
            if len(seen) >= cap:
                raise CapExceededError(
                    f"exchange graph exceeded cap {cap}; "
                    "infinite or very large type")
            seen.add(nkey)
            queue.append((_mutate_rows(rows, k), g[:k] + (gk,) + g[k + 1:],
                          npath, nnames, k))
    return ExchangeGraph(seed, tuple(sorted(seen, key=sorted)), variables)


def _principal_seed(seed: Seed) -> Seed:
    """Same mutable exchange matrix, principal coefficients, fresh variables."""
    n = len(seed.mutable)
    # one arrow v -> ("y",) + v per mutable v: the identity below B
    b = seed.b[:n] + tuple(tuple(int(i == j) for j in range(n))
                           for i in range(n))
    frozen = tuple(("y",) + v for v in seed.mutable)
    variables = {v: LPoly.var(("z",) + v) for v in seed.mutable}
    return Seed(seed.mutable, frozen, b, variables)


def f_polynomial_and_gvector(seed0: Seed, cv: ClusterVariable):
    """F-polynomial and g-vector, read off cv's principal expansion.

    The F-polynomial comes back keyed by the mutable vertices; the
    g-vector follows the order of seed0.mutable and must equal the
    tropical cv.gvector.
    """
    x = cv.principal
    g = _gvector(seed0, x)
    if g != cv.gvector:
        raise InvalidInputError("variable is not reachable from this seed "
                                "along its recorded path")
    fpoly = x.subs_one(lambda key: key[0] == "z").map_keys(lambda key: key[1:])
    if fpoly.const_term() != 1 or any(c <= 0 for _, c in fpoly.items()):
        raise ConsistencyError("F-polynomial lost positivity or its unit "
                               "constant term")
    return fpoly, g


def _gvector(seed0: Seed, expansion: LPoly) -> tuple:
    mutable = seed0.mutable
    index = {("z",) + v: i for i, v in enumerate(mutable)}
    # y_j has degree minus column j of B
    ydeg = {("y",) + v: [-x for x in col]
            for v, col in zip(mutable, zip(*seed0.b[:len(mutable)]))}
    degree = None
    for m in expansion.monomials():
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


# (variable count, cluster count) fingerprints of the finite cluster types
def _finite_type_table() -> dict[tuple[int, int], str]:
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
