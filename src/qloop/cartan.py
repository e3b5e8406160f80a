"""Simply laced Cartan data: Dynkin graphs, bipartitions, root systems.

Nodes are labelled 1..n.  Conventions: type A_n is the path 1-2-...-n;
type D_n has edges {1,3}, {2,3} and the chain 3-4-...-n, so the branch
node is 3 and for D_4 the outer nodes are 1, 2, 4; types E_6/E_7/E_8 use
the chain 1-3-4-...-n with node 2 attached to 4.  The bipartition puts
node 1 in class 0, except in type D where the branch node 3 is in class
0, so for D_4 the branch node sits alone in class 0.
"""

from __future__ import annotations

import re

from .errors import InvalidInputError

_COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
            "E": lambda n: {6: 12, 7: 18, 8: 30}[n]}


def _edges_for(family: str, n: int):
    if family == "A":
        if n < 1:
            raise InvalidInputError("type A needs n >= 1")
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        if n < 4:
            raise InvalidInputError("type D needs n >= 4")
        return [(1, 3), (2, 3)] + [(j, j + 1) for j in range(3, n)]
    if family == "E":
        if n not in (6, 7, 8):
            raise InvalidInputError("type E needs n in {6,7,8}")
        return [(1, 3), (2, 4)] + [(j, j + 1) for j in range(3, n)]
    raise InvalidInputError(f"unsupported type family {family!r}")


class CartanData:
    """ADE Cartan matrix with a fixed bipartition of the Dynkin graph.

    Equal data compare and hash equal, so a CartanData can key a cache.
    """

    __slots__ = ("type_label", "n", "edges", "xi", "_adjacent", "_neighbors",
                 "_roots", "_root_set")

    def __init__(self, type_label: str, n: int, edges: tuple, xi: tuple):
        self.type_label = type_label
        self.n = n
        self.edges = edges
        self.xi = xi  # xi[i-1] in {0, 1}
        seen = set()
        for (u, v) in edges:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise InvalidInputError(f"bad edge {(u, v)}")
            if self.xi[u - 1] == self.xi[v - 1]:
                raise InvalidInputError("bipartition must split every edge")
            seen.add(frozenset((u, v)))
        if len(seen) != len(edges):
            raise InvalidInputError("duplicate edges")
        if len(edges) != n - 1 or not self._connected():
            raise InvalidInputError("graph must be a connected tree (ADE)")
        self._assert_ade()
        self._adjacent = frozenset(edges) | {(v, u) for u, v in edges}
        self._neighbors = {i: tuple(sorted(v for u, v in self._adjacent
                                           if u == i)) for i in self.nodes()}
        self._roots = self._root_set = None

    def _fields(self) -> tuple:
        return (self.type_label, self.n, self.edges, self.xi)

    def __eq__(self, other):
        if other.__class__ is not CartanData:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def _assert_ade(self):
        degree = {i: 0 for i in self.nodes()}
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        branch = [i for i, d in degree.items() if d >= 3]
        if any(degree[i] > 3 for i in self.nodes()) or len(branch) > 1:
            raise InvalidInputError("graph is not of ADE type")
        if not branch:
            return  # a path: type A
        adj = {i: [] for i in self.nodes()}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        arms = []
        for start in adj[branch[0]]:
            length, prev, cur = 1, branch[0], start
            while degree[cur] == 2:
                nxt = next(w for w in adj[cur] if w != prev)
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] != 1 or (arms[1] != 1 and (arms[1], arms[2]) not in
                            ((2, 2), (2, 3), (2, 4))):
            raise InvalidInputError("graph is not of ADE type")

    def _connected(self) -> bool:
        if self.n == 1:
            return True
        adj = {i: [] for i in self.nodes()}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        stack, seen = [1], {1}
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @classmethod
    def from_label(cls, label: str) -> "CartanData":
        m = re.fullmatch(r"([ADE])(\d+)", label.strip().upper().replace("_", ""))
        if not m:
            raise InvalidInputError(f"cannot parse type label {label!r}")
        family, n = m.group(1), int(m.group(2))
        edges = tuple(_edges_for(family, n))
        adj = {i: set() for i in range(1, n + 1)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        anchor = 3 if family == "D" else 1
        xi = [None] * n
        xi[anchor - 1] = 0
        stack = [anchor]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if xi[v - 1] is None:
                    xi[v - 1] = 1 - xi[u - 1]
                    stack.append(v)
        return cls(f"{family}{n}", n, edges, tuple(xi))

    def nodes(self):
        return range(1, self.n + 1)

    def a(self, i: int, j: int) -> int:
        """Cartan matrix entry a_ij."""
        if i == j:
            return 2
        return -1 if (i, j) in self._adjacent else 0

    def neighbors(self, i: int) -> tuple:
        return self._neighbors.get(i, ())

    def check_node(self, i: int):
        if not (1 <= i <= self.n):
            raise InvalidInputError(f"node {i} out of range 1..{self.n}")

    def i0(self) -> tuple:
        return tuple(i for i in self.nodes() if self.xi[i - 1] == 0)

    def i1(self) -> tuple:
        return tuple(i for i in self.nodes() if self.xi[i - 1] == 1)

    def coxeter_number(self) -> int:
        return _COXETER[self.type_label[0]](self.n)

    # --- root system, in simple-root coordinates (tuples of length n) ---

    def simple_root(self, i: int) -> tuple:
        self.check_node(i)
        return tuple(1 if j == i else 0 for j in self.nodes())

    def pairing(self, coords: tuple, i: int) -> int:
        """<beta, alpha_i^vee> = sum_j beta_j a_ij."""
        return sum(coords[j - 1] * self.a(i, j) for j in self.nodes())

    def reflect_root(self, coords: tuple, i: int) -> tuple:
        c = self.pairing(coords, i)
        return tuple(coords[j - 1] - (c if j == i else 0) for j in self.nodes())

    def positive_roots(self) -> tuple:
        """All positive roots, sorted by (height, coordinates)."""
        if self._roots is not None:
            return self._roots
        roots = {self.simple_root(i) for i in self.nodes()}
        frontier = set(roots)
        while frontier:
            new = set()
            for beta in frontier:
                for i in self.nodes():
                    img = self.reflect_root(beta, i)
                    if min(img) >= 0 and img not in roots:
                        new.add(img)
            roots |= new
            frontier = new
        self._roots = tuple(sorted(roots, key=lambda r: (sum(r), r)))
        return self._roots

    def is_positive_root(self, coords: tuple) -> bool:
        if self._root_set is None:
            self._root_set = frozenset(self.positive_roots())
        return tuple(coords) in self._root_set
