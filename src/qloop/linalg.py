"""Exact dense linear algebra over Q (Fraction) and prime fields.

Matrices are lists of row lists acting on column vectors.  Subspaces of
F_p^n are represented by basis matrices, one basis vector per row; a
basis is not canonical unless it is the row set of an `rref`.  Over F_p
entries are plain ints, and the functions given a GF reduce them `% p`.
`cokernel` is the one integer quotient rule: the knitted injectives and
the reflected Dynkin indecomposables both take their spaces from it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import mul

from .errors import ConsistencyError


class QQ:
    """Rational field operations."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(x):
        return Fraction(x)

    @staticmethod
    def inv(x):
        return 1 / Fraction(x)


class GF:
    """Prime field F_p: plain ints, reduced with % p."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1


def _normalize(field, x):
    return x % field.p if isinstance(field, GF) else x


def rref(rows, field):
    """Row-reduce a copy of rows; returns (reduced rows, pivot columns)."""
    if isinstance(field, GF):
        return _rref_mod(rows, field.p)
    mat = [[field.of(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [v * inv for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def _rref_mod(rows, p):
    """rref over F_p, on plain ints reduced with % p."""
    mat = [[x % p for x in row] for row in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((k for k in range(r, nrows) if mat[k][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = mat[r] = [v * inv % p for v in row]
        for k in range(nrows):
            f = mat[k][c]
            if f and k != r:
                mat[k] = [(a - f * b) % p for a, b in zip(mat[k], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows, field) -> int:
    return len(rref(rows, field)[1])


def nullspace(rows, ncols, field):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = _normalize(field, -red[r][fc])
        basis.append(vec)
    return basis


def mat_mul(A, B, field):
    if not A or not B:
        return []
    cols = list(zip(*B))
    if isinstance(field, GF):
        p = field.p
        return [[sum(map(mul, row, col)) % p for col in cols] for row in A]
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def zero_matrix(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def cokernel(images, width):
    """Classes of the coordinate vectors of Q^width modulo span(images).

    images are row vectors of length width.  The quotient's basis is the
    non-pivot coordinates of rref(images): row k of the result is the
    class of coordinate vector k, as integers in that basis.  Raises
    ConsistencyError if a class is not integral.
    """
    red, pivots = rref(images, QQ) if images else ([], [])
    free = [k for k in range(width) if k not in pivots]
    cls = [[int(k == f) for f in free] for k in range(width)]
    for row, pc in zip(red, pivots):
        if any(row[f].denominator != 1 for f in free):
            raise ConsistencyError("cokernel has a non-integral class")
        cls[pc] = [-int(row[f]) for f in free]
    return cls


# --- subspaces of F_p^n ---------------------------------------------------

def annihilator(basis, ncols, field):
    """Linear forms vanishing on span(basis), as row vectors."""
    if not basis:
        return identity(ncols)
    return nullspace(basis, ncols, field)


def _rref_patterns(r, k, p):
    """All k x r matrices over F_p in reduced row echelon form."""
    for pivots in combinations(range(r), k):
        free_pos = [(i, j) for i in range(k) for j in range(r)
                    if j > pivots[i] and j not in pivots]
        for values in product(range(p), repeat=len(free_pos)):
            mat = zero_matrix(k, r)
            for i, pc in enumerate(pivots):
                mat[i][pc] = 1
            for (i, j), v in zip(free_pos, values):
                mat[i][j] = v
            yield mat


def subspaces_of(basis, k, field):
    """All k-dimensional subspaces of span(basis), each given by a basis.

    The rows of basis must be independent.  Each subspace comes once, as
    pattern . basis for one k x len(basis) reduced echelon pattern; these
    bases are not canonical (the rows of their `rref` are).
    """
    r = len(basis)
    if k == 0:
        yield []
        return
    if k > r:
        return
    for pat in _rref_patterns(r, k, field.p):
        yield mat_mul(pat, basis, field)


def gaussian_binomial(n, k, q):
    """[n, k]_q: the number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den

