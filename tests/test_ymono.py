import itertools
import json
import random

import pytest

from qloop.cartan import CartanData
from qloop.errors import InvalidInputError
from qloop.sl2 import kr_qchar_sl2
from qloop.ymono import (WeightVector, YMonomial, YPolynomial, a_monomial,
                         a_monomial_exps, a_factorize, dominant_terms,
                         is_dominant, poly_from_json, poly_to_json,
                         truncate_c1, weight)

A1 = CartanData.from_label("A1")
A3 = CartanData.from_label("A3")
D4 = CartanData.from_label("D4")


def Y(*triples):
    return YMonomial.from_triples(triples)


def test_a_monomial_rank_one():
    # A at s=1 is Y_0 Y_2
    assert a_monomial(A1, 1, 1) == Y((1, 0, 1), (1, 2, 1))


def test_a_monomial_a3_center():
    expected = Y((2, 1, 1), (2, 3, 1), (1, 2, -1), (3, 2, -1))
    assert a_monomial(A3, 2, 2) == expected


def test_a_monomial_weight_is_simple_root():
    for c in (A3, D4):
        for i in c.nodes():
            s = c.xi[i - 1] + 1
            w = weight(a_monomial(c, i, s))
            expected = WeightVector([(j, c.a(j, i)) for j in c.nodes()])
            assert w == expected


def test_a_monomial_validation():
    with pytest.raises(InvalidInputError):
        a_monomial(A3, 5, 0)
    with pytest.raises(InvalidInputError):
        a_monomial(A3, 1, 0)  # parity: needs s = xi_1 + 1 (mod 2)


def test_is_dominant():
    assert is_dominant(Y((1, 0, 1), (2, 3, 1)))
    assert not is_dominant(Y((1, 0, 1), (1, 2, -1)))
    assert is_dominant(YMonomial.one())


def test_weight_examples():
    assert weight(Y((1, 0, 1))) == WeightVector([(1, 1)])
    assert weight(Y((1, 0, 1), (1, 2, -1))) == WeightVector()
    m1, m2 = Y((1, 0, 2), (2, 1, -1)), Y((2, 1, 1), (3, 0, 3))
    assert weight(m1 * m2) == weight(m1) + weight(m2)


def test_a_factorize_basic():
    # chi_q of the rank-one fundamental: lower term is top times A^{-1}
    assert a_factorize(A1, Y((1, 0, 1)), Y((1, 2, -1))) == {(1, 1): 1}
    m = Y((1, 0, 1), (2, 3, 2))
    assert a_factorize(A3, m, m) == {}


def _brute_force_a_factorize(c, ratio, max_exp=4, window=range(-3, 4)):
    """Independent oracle: exhaustive search for nonnegative A-exponents."""
    slots = [(i, s) for i in c.nodes() for s in window]
    vecs = [a_monomial_exps(c, i, s) for (i, s) in slots]
    for combo in itertools.product(range(max_exp + 1), repeat=len(slots)):
        if sum(combo) > max_exp:
            continue
        prod = YMonomial.one()
        for e, vec in zip(combo, vecs):
            prod = prod * vec ** e
        if prod == ratio:
            return {sl: e for sl, e in zip(slots, combo) if e}
    return None


def test_a_factorize_no_solution_matches_brute_force():
    # Y_0 / Y_0^{-1} = Y_0^2 is not a product of A's
    assert _brute_force_a_factorize(A1, Y((1, 0, 2))) is None
    assert a_factorize(A1, Y((1, 0, 1)), Y((1, 0, -1))) is None


def test_a_factorize_against_brute_force_random():
    rng = random.Random(3)
    for _ in range(25):
        combo = {}
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(1, 3)
            s = rng.randint(-1, 2)
            combo[(i, s)] = combo.get((i, s), 0) + 1
        ratio = YMonomial.one()
        for (i, s), e in combo.items():
            ratio = ratio * a_monomial_exps(A3, i, s) ** e
        got = a_factorize(A3, ratio, YMonomial.one())
        assert got == {k: v for k, v in combo.items() if v}


def test_a_factorize_single_step_invariant():
    for c in (A3, D4):
        m = Y((1, c.xi[0], 1))
        for i in c.nodes():
            s = c.xi[i - 1] + 1
            lower = m * a_monomial(c, i, s) ** -1
            assert a_factorize(c, m, lower) == {(i, s): 1}


def test_dominant_terms():
    p = kr_qchar_sl2(1, 0)
    assert dominant_terms(p) == YPolynomial.from_monomial(Y((1, 0, 1)))
    q = YPolynomial.from_monomial(Y((1, 2, -1)), 5)
    assert dominant_terms(q) == YPolynomial.zero()


def test_truncate_single_dominant_monomial():
    m = Y((1, 0, 1), (3, 0, 1))
    p = YPolynomial.from_monomial(m)
    assert truncate_c1(A3, p, m) == p


def test_truncate_kr2_keeps_only_top():
    p = kr_qchar_sl2(2, 0)
    top = Y((1, 0, 1), (1, 2, 1))
    assert truncate_c1(A1, p, top) == YPolynomial.from_monomial(top)


def test_truncate_rejects_terms_not_below_top():
    p = YPolynomial.from_monomial(Y((1, 0, 1))) + \
        YPolynomial.from_monomial(Y((1, 4, 1)))
    with pytest.raises(InvalidInputError):
        truncate_c1(A1, p, Y((1, 0, 1)))


def test_json_canonical_form():
    p = kr_qchar_sl2(2, 0)
    data = poly_to_json(p)
    # terms sorted by monomial key, Y triples sorted by (i, s)
    assert data["terms"][0]["Y"] == [[1, 0, 1], [1, 2, 1]]
    for term in data["terms"]:
        assert term["Y"] == sorted(term["Y"])
    assert poly_from_json(json.loads(json.dumps(data))) == p


def test_shift_twists_spectral_parameters():
    p = kr_qchar_sl2(2, 0)
    assert p.shift(2) == kr_qchar_sl2(2, 2)
    assert p.shift(0) == p


def test_membership_predicates():
    assert Y((1, 0, 1), (1, 2, 1)).in_m_ell(A3, 1)
    assert not Y((1, 4, 1)).in_m_ell(A3, 1)


def test_product_of_positive_polynomials_is_positive():
    rng = random.Random(5)
    for _ in range(20):
        def rand_positive():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = Y((rng.randint(1, 3), rng.randint(-2, 2),
                       rng.randint(-2, 2) or 1))
                terms[m] = terms.get(m, 0) + rng.randint(1, 3)
            return YPolynomial(terms)
        p, q = rand_positive(), rand_positive()
        assert all(coeff > 0 for _, coeff in (p * q).terms())
