"""Closed-form machinery for the rank-one loop algebra.

Everything here is independent of the general engine: Kirillov-Reshetikhin
q-characters from the telescoping product formula, the segment
factorization of simple highest weights, and the trigonometric R-matrix
with an exact Yang-Baxter checker.  These serve as oracles for the
general-type pipelines.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError, SingularityError
from .ymono import YMonomial, YPolynomial, is_dominant

A1 = CartanData.from_label("A1")


class Segment(namedtuple("Segment", "origin length")):
    """The string {q^s, q^{s+2}, ..., q^{s+2k-2}} of origin s and length k.

    Segments sort by (origin, length).
    """

    __slots__ = ()

    def __new__(cls, origin: int, length: int):
        if length < 1:
            raise InvalidInputError("segment length must be >= 1")
        return super().__new__(cls, origin, length)

    def points(self) -> tuple[int, ...]:
        return tuple(self.origin + 2 * j for j in range(self.length))


def segments_in_special_position(a: Segment, b: Segment) -> bool:
    """Special position: neither contains the other, union is a segment."""
    sa, sb = set(a.points()), set(b.points())
    if sa <= sb or sb <= sa:
        return False
    union = sorted(sa | sb)
    return all(t - s == 2 for s, t in zip(union, union[1:]))


def kr_qchar_sl2(k: int, s: int) -> YPolynomial:
    """q-character of the length-k string module with origin q^s.

    Built from the nested form: the top monomial Y_s...Y_{s+2k-2} times
    1 + A_{s+2k-1}^{-1} (1 + A_{s+2k-3}^{-1} ( ... (1 + A_{s+1}^{-1}))).
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    if k == 0:
        return YPolynomial.one()
    top = YMonomial.one()
    for j in range(k):
        top = top * YMonomial.y(1, s + 2 * j)
    acc = YPolynomial.one()
    for j in range(k):
        a_inv = _a_inv_sl2(s + 2 * j + 1)
        acc = YPolynomial.from_monomial(a_inv) * acc + 1
    return YPolynomial.from_monomial(top) * acc


def _a_inv_sl2(s: int) -> YMonomial:
    return YMonomial([((1, s - 1), -1), ((1, s + 1), -1)])


def canonical_segments(m: YMonomial) -> list[Segment]:
    """Unique multiset of pairwise general-position segments with product m.

    Greedy: repeatedly extract the longest segment starting at the
    smallest remaining origin; the result is verified afterwards.
    """
    if not is_dominant(m):
        raise InvalidInputError("segment factorization needs a dominant monomial")
    counts = {}
    for (i, s), e in m.key:
        if i != 1:
            raise InvalidInputError("rank-one monomials only")
        counts[s] = e
    segments = []
    while counts:
        s0 = min(counts)
        k = 0
        s = s0
        while counts.get(s, 0) > 0:
            counts[s] -= 1
            if counts[s] == 0:
                del counts[s]
            k += 1
            s += 2
        segments.append(Segment(s0, k))
    for i, a in enumerate(segments):
        for b in segments[i + 1:]:
            if segments_in_special_position(a, b):
                raise InvalidInputError("greedy segment extraction failed")
    prod = YMonomial.one()
    for seg in segments:
        for s in seg.points():
            prod = prod * YMonomial.y(1, s)
    if prod != m:
        raise ConsistencyError("segments do not multiply back to the monomial")
    return sorted(segments)


def simple_qchar_sl2(m: YMonomial) -> YPolynomial:
    """q-character of the simple module with dominant highest weight m."""
    result = YPolynomial.one()
    for seg in canonical_segments(m):
        result = result * kr_qchar_sl2(seg.length, seg.origin)
    return result


class RMatrix:
    """4x4 trigonometric R-matrix at exact rational (u, q)."""

    __slots__ = ("u", "q", "entries")

    def __init__(self, u, q, entries):
        self.u = u
        self.q = q
        self.entries = entries

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]


def r_matrix_sl2(u, q) -> RMatrix:
    """Six-vertex R-matrix; invertible away from u = q^{+-2}."""
    from fractions import Fraction
    u, q = Fraction(u), Fraction(q)
    if u == q ** 2:
        raise SingularityError(f"R(u) has a pole at u = q^2 = {q ** 2}")
    if q != 0 and u == q ** -2:
        raise SingularityError(f"R(u) has a pole at u = q^-2 = {q ** -2}")
    d = u - q ** 2
    b = q * (u - 1) / d
    c_top = (1 - q ** 2) / d
    c_bot = u * (1 - q ** 2) / d
    one, zero = Fraction(1), Fraction(0)
    rows = ((one, zero, zero, zero),
            (zero, b, c_top, zero),
            (zero, c_bot, b, zero),
            (zero, zero, zero, one))
    return RMatrix(u, q, rows)


def _embed(mat4, pos: tuple[int, int]):
    """Embed a 4x4 two-site operator into (C^2)^{x3} acting on sites pos."""
    other = ({0, 1, 2} - set(pos)).pop()
    out = [[0] * 8 for _ in range(8)]
    for row in range(8):
        rb = [(row >> (2 - t)) & 1 for t in range(3)]
        for col in range(8):
            cb = [(col >> (2 - t)) & 1 for t in range(3)]
            if rb[other] != cb[other]:
                continue
            r4 = 2 * rb[pos[0]] + rb[pos[1]]
            c4 = 2 * cb[pos[0]] + cb[pos[1]]
            out[row][col] = mat4[r4][c4]
    return out


def _mul8(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(8)) for j in range(8)]
            for i in range(8)]


def verify_yang_baxter(u, v, q) -> bool:
    """Exact check of R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u)."""
    from fractions import Fraction
    u, v, q = Fraction(u), Fraction(v), Fraction(q)
    r12 = _embed(r_matrix_sl2(u, q).entries, (0, 1))
    r13 = _embed(r_matrix_sl2(u * v, q).entries, (0, 2))
    r23 = _embed(r_matrix_sl2(v, q).entries, (1, 2))
    lhs = _mul8(_mul8(r12, r13), r23)
    rhs = _mul8(_mul8(r23, r13), r12)
    return lhs == rhs
