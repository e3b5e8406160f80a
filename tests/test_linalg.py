import random
from fractions import Fraction
from math import gcd

import pytest

from fraction_oracle import rref_q
from qloop import linalg
from qloop.errors import ConsistencyError
from qloop.linalg import GF, QQ


def _naive_rref_mod(rows, p):
    """Textbook Gauss-Jordan over F_p, inverses found by search."""
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = [k for k in range(r, len(mat)) if mat[k][c]]
        if not hit:
            continue
        mat[r], mat[hit[0]] = mat[hit[0]], mat[r]
        inv = next(i for i in range(1, p) if i * mat[r][c] % p == 1)
        mat[r] = [x * inv % p for x in mat[r]]
        for k in range(len(mat)):
            if k != r:
                f = mat[k][c]
                mat[k] = [(a - f * b) % p for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _random_matrix(rng, p):
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
    mat = [[rng.randint(-3 * p, 3 * p) for _ in range(ncols)]
           for _ in range(nrows)]
    for row in mat:
        if rng.random() < 0.2:
            row[:] = [0] * ncols
    for c in range(ncols):
        if rng.random() < 0.2:
            for row in mat:
                row[c] = 0
    return mat


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_fp_rref_matches_naive_gauss_jordan(p):
    rng = random.Random(p)
    cases = [[], [[]], [[], []], [[0, 0], [0, 0]], [[-1, p, 2 * p + 1]]]
    cases += [_random_matrix(rng, p) for _ in range(300)]
    for rows in cases:
        before = [list(row) for row in rows]
        assert linalg.rref(rows, GF(p)) == _naive_rref_mod(rows, p), rows
        assert rows == before


def test_subspaces_of_lists_each_subspace_once():
    field = GF(3)
    basis = [[1, 2, 0, 1], [0, 1, 1, 2], [2, 0, 1, 0]]
    subs = list(linalg.subspaces_of(basis, 2, field))
    canon = {tuple(map(tuple, linalg.rref(s, field)[0]))
             for s in subs}
    assert len(subs) == len(canon) == linalg.gaussian_binomial(3, 2, 3) == 13
    assert all(linalg.rank(s, field) == 2 for s in subs)


def test_subspaces_of_an_rref_basis_come_in_rref():
    # count_subrep_tuples keys each subspace it meets by these bases
    for p, d in ((2, 5), (3, 4), (5, 3)):
        field = GF(p)
        for r in range(d + 1):
            for basis in linalg.subspaces_of(linalg.identity(d), r, field):
                for k in range(r + 1):
                    for sub in linalg.subspaces_of(basis, k, field):
                        assert linalg.rref(sub, field)[0] == sub, (p, basis)


def test_cokernel_gives_integer_classes():
    # Q^3 / span((1,1,0), (0,1,1)) is read by x -> x0 - x1 + x2
    assert linalg.cokernel([[1, 1, 0], [0, 1, 1]], 3) == [[1], [-1], [1]]
    assert linalg.cokernel([[0, 2, 0]], 3) == [[1, 0], [0, 0], [0, 1]]
    assert linalg.cokernel([[1, 0], [0, 1]], 2) == [[], []]
    assert linalg.cokernel([], 3) == linalg.identity(3)
    assert linalg.cokernel([], 0) == []


def test_cokernel_rejects_a_non_integral_class():
    # e0 = -e1/2 modulo (2, 1)
    with pytest.raises(ConsistencyError):
        linalg.cokernel([[2, 1]], 2)


def _random_int_matrix(rng):
    """Entries -5..5, shapes up to 7 x 7, some rows combinations of two."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    mat = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:
        i, j, k = rng.sample(range(nrows), 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        mat[k] = [a * x + b * y for x, y in zip(mat[i], mat[j])]
    return mat


_INT_CASES = [[], [[]], [[], []], [[0, 0], [0, 0]], [[-2, 4, 6]],
              [[0, -3, 6], [2, 1, 1]], [[2, 1], [4, 2]], [[4, 6], [6, 9]],
              [[-5, 3, 1], [3, -5, 2], [1, 1, -5]]]


def test_q_rref_matches_the_fraction_oracle():
    rng = random.Random(2025)
    for rows in _INT_CASES + [_random_int_matrix(rng) for _ in range(2000)]:
        before = [list(row) for row in rows]
        red, pivots = linalg.rref(rows, QQ)
        want, want_pivots = rref_q(rows)
        assert rows == before
        assert pivots == want_pivots and len(red) == len(want), rows
        assert linalg.rank(rows, QQ) == len(want_pivots)
        for row, pc, wrow in zip(red, pivots, want):
            assert all(type(x) is int for x in row), rows
            assert row[pc] > 0 and gcd(*row) == 1, rows
            assert [Fraction(x, row[pc]) for x in row] == wrow, rows


def test_cokernel_matches_the_fraction_oracle():
    rng = random.Random(7)
    raised = 0
    for rows in _INT_CASES + [_random_int_matrix(rng) for _ in range(500)]:
        if not rows or not rows[0]:
            continue
        width = len(rows[0])
        red, pivots = rref_q(rows)
        free = [k for k in range(width) if k not in pivots]
        want = [[Fraction(int(k == f)) for f in free] for k in range(width)]
        for row, pc in zip(red, pivots):
            want[pc] = [-row[f] for f in free]
        if all(x.denominator == 1 for cls in want for x in cls):
            assert linalg.cokernel(rows, width) == want, rows
        else:
            raised += 1
            with pytest.raises(ConsistencyError):
                linalg.cokernel(rows, width)
    assert raised
