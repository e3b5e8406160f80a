import random
from fractions import Fraction

import pytest

from qloop.errors import ConsistencyError, InvalidInputError, SingularityError
from qloop.sl2 import (Segment, canonical_segments, kr_qchar_sl2,
                       r_matrix_sl2, segments_in_special_position,
                       simple_qchar_sl2, verify_yang_baxter)
from qloop.ymono import YMonomial, YPolynomial, dominant_terms


def Y(*triples):
    return YMonomial.from_triples(triples)


def test_kr_small_cases():
    assert kr_qchar_sl2(0, 5) == YPolynomial.one()
    assert kr_qchar_sl2(1, 0) == (YPolynomial.from_monomial(Y((1, 0, 1)))
                                  + YPolynomial.from_monomial(Y((1, 2, -1))))
    expected2 = (YPolynomial.from_monomial(Y((1, 0, 1), (1, 2, 1)))
                 + YPolynomial.from_monomial(Y((1, 0, 1), (1, 4, -1)))
                 + YPolynomial.from_monomial(Y((1, 2, -1), (1, 4, -1))))
    assert kr_qchar_sl2(2, 0) == expected2


def test_kr_shape():
    for k in range(7):
        p = kr_qchar_sl2(k, 0)
        assert p.n_monomials() == k + 1
        assert all(c == 1 for _, c in p.terms())
        assert dominant_terms(p).n_monomials() == (1 if k else 1)


def test_kr_rejects_negative_length():
    with pytest.raises(InvalidInputError):
        kr_qchar_sl2(-1, 0)


def test_kr_t_system_identity():
    # string modules satisfy the rank-one exchange identity for k <= 6
    for k in range(1, 7):
        for s in (0, 2):
            lhs = kr_qchar_sl2(k, s) * kr_qchar_sl2(k, s + 2)
            rhs = kr_qchar_sl2(k + 1, s) * kr_qchar_sl2(k - 1, s + 2) + 1
            assert lhs == rhs, (k, s)


def test_segment_positions():
    assert segments_in_special_position(Segment(0, 1), Segment(2, 1))
    assert not segments_in_special_position(Segment(0, 1), Segment(4, 1))
    assert not segments_in_special_position(Segment(0, 2), Segment(0, 1))
    assert not segments_in_special_position(Segment(0, 2), Segment(0, 2))
    # overlap without containment, union is a string
    assert segments_in_special_position(Segment(0, 2), Segment(2, 2))


def test_canonical_segments_examples():
    assert canonical_segments(Y((1, 0, 1), (1, 2, 1))) == [Segment(0, 2)]
    assert canonical_segments(Y((1, 0, 1), (1, 4, 1))) == [Segment(0, 1),
                                                           Segment(4, 1)]
    assert canonical_segments(Y((1, 0, 2))) == [Segment(0, 1), Segment(0, 1)]
    assert canonical_segments(YMonomial.one()) == []


def test_canonical_segments_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        canonical_segments(Y((1, 0, -1)))
    with pytest.raises(InvalidInputError):
        canonical_segments(Y((2, 0, 1)))


def test_canonical_segments_checks_the_product(monkeypatch):
    # the check must survive python -O, so it is not an assert
    true_points = Segment.points
    monkeypatch.setattr(Segment, "points",
                        lambda seg: true_points(seg)[:-1])
    with pytest.raises(ConsistencyError):
        canonical_segments(Y((1, 0, 1), (1, 2, 1)))


def test_canonical_segments_random_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        m = YMonomial.one()
        for _ in range(rng.randint(0, 5)):
            m = m * Y((1, 2 * rng.randint(0, 4), 1))
        segs = canonical_segments(m)
        rebuilt = YMonomial.one()
        for seg in segs:
            for s in seg.points():
                rebuilt = rebuilt * Y((1, s, 1))
        assert rebuilt == m
        for i, a in enumerate(segs):
            for b in segs[i + 1:]:
                assert not segments_in_special_position(a, b)


def test_simple_qchar_examples():
    assert simple_qchar_sl2(Y((1, 0, 1), (1, 2, 1))) == kr_qchar_sl2(2, 0)
    prod = kr_qchar_sl2(1, 0) * kr_qchar_sl2(1, 4)
    assert simple_qchar_sl2(Y((1, 0, 1), (1, 4, 1))) == prod
    assert prod.n_monomials() == 4
    assert simple_qchar_sl2(YMonomial.one()) == YPolynomial.one()


def test_simple_qchar_multiplicative_when_general_position():
    m1, m2 = Y((1, 0, 1)), Y((1, 4, 1))
    assert (simple_qchar_sl2(m1 * m2)
            == simple_qchar_sl2(m1) * simple_qchar_sl2(m2))


def test_r_matrix_entries():
    u, q = Fraction(3), Fraction(2)
    r = r_matrix_sl2(u, q)
    d = u - q ** 2
    assert r[0, 0] == 1 and r[3, 3] == 1
    assert r[1, 1] == q * (u - 1) / d
    assert r[1, 2] == (1 - q ** 2) / d
    assert r[2, 1] == u * (1 - q ** 2) / d
    assert r[0, 1] == 0


def test_r_matrix_at_u_one_is_permutation():
    r = r_matrix_sl2(1, Fraction(5, 3))
    perm = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    assert tuple(tuple(x for x in row) for row in r.entries) == perm


def test_r_matrix_poles():
    with pytest.raises(SingularityError):
        r_matrix_sl2(4, 2)
    with pytest.raises(SingularityError):
        r_matrix_sl2(Fraction(1, 4), 2)


def test_yang_baxter_specific_and_trivial():
    assert verify_yang_baxter(3, 5, 2)
    assert verify_yang_baxter(1, 1, Fraction(7, 2))


def test_yang_baxter_pole_propagates():
    with pytest.raises(SingularityError):
        verify_yang_baxter(4, 5, 2)
    with pytest.raises(SingularityError):
        verify_yang_baxter(2, 2, 2)  # uv hits q^2


def test_yang_baxter_100_random_rational_triples():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if 0 in (u, v, q):
            continue
        if any(x in (q ** 2, q ** -2) for x in (u, v, u * v)):
            continue
        assert verify_yang_baxter(u, v, q)
        checked += 1
