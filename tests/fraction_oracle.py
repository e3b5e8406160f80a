"""Textbook Gauss-Jordan over Q on `Fraction`s, as a test oracle.

`qloop.linalg.rref` eliminates over Q on plain integers.  This oracle
divides every pivot row by its pivot instead, so its reduced rows are
the rational reduced echelon form itself, found by an independent
route.
"""

from fractions import Fraction


def rref_q(rows):
    """(reduced rows as Fractions, pivot columns) of an integer matrix."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        r = len(pivots)
        hit = [k for k in range(r, len(mat)) if mat[k][c]]
        if not hit:
            continue
        mat[r], mat[hit[0]] = mat[hit[0]], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def rank_q(rows) -> int:
    return len(rref_q(rows)[1])


def inverse_q(mat):
    """The inverse of an invertible integer matrix, as Fractions."""
    n = len(mat)
    red, pivots = rref_q([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
