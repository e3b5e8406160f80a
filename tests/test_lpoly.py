import random
from heapq import heappush

import pytest

from qloop import lpoly
from qloop.lpoly import (EXP_MAX, LPoly, divide_table, graded_quotient, mono,
                         mono_mul, mono_pow)

# The three key shapes the package uses: plain names, (node, shift)
# Y-variables and tagged cluster variables.  Keys of one monomial must be
# comparable, so a polynomial draws its keys from one family; all
# families share the process-wide slot table.
KEY_FAMILIES = [
    ["x", "y", "z", "w"],
    [(1, 0), (2, 1), (1, 2), (3, 5), (2, -3)],
    [("z", 1, 2), ("z", 2, 3), ("y", 1, 2), ("z", 4, 0)],
]
# A grade per key, for the graded division: a monomial's grade is the
# sum of exponent times grade, and distinct monomials may share one.
GRADES = {key: (1, 2, 3, 5, 8)[n] for keys in KEY_FAMILIES
          for n, key in enumerate(keys)}


# --- naive tuple-monomial oracle --------------------------------------------

def naive_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono(list(m1) + list(m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def rand_terms(rng, keys, nterms, lo=-3, hi=3) -> dict:
    terms = {}
    for _ in range(nterms):
        m = mono((k, rng.randint(lo, hi))
                 for k in rng.sample(keys, rng.randint(0, len(keys))))
        terms[m] = terms.get(m, 0) + rng.randint(-4, 4)
    return {m: c for m, c in terms.items() if c}


def as_canonical(terms: dict) -> tuple:
    return tuple(sorted(terms.items()))


# --- tests ------------------------------------------------------------------

def test_mono_canonicalization():
    assert mono([("b", 1), ("a", 2)]) == (("a", 2), ("b", 1))
    assert mono([("a", 1), ("a", -1)]) == ()
    assert mono_mul((("a", 1),), (("a", -1), ("b", 2))) == (("b", 2),)
    assert mono_pow((("a", 2),), 0) == ()


def test_products_match_naive_oracle():
    rng = random.Random(3)
    for trial in range(150):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        a = rand_terms(rng, keys, rng.randint(0, 6))
        b = rand_terms(rng, keys, rng.randint(0, 6))
        prod = LPoly(a) * LPoly(b)
        assert sorted(prod.monomials()) == sorted(naive_mul(a, b))
        # monomials() leaves no sorted form cached on the polynomial
        assert prod._canon is None
        assert prod.canonical() == as_canonical(naive_mul(a, b))
        assert prod.items() == list(as_canonical(naive_mul(a, b)))
        assert 0 not in prod.terms.values()


@pytest.mark.parametrize("span", [3, EXP_MAX // 2])
def test_exact_divisions_match_naive_oracle(span):
    rng = random.Random(5)
    for trial in range(150):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        q = rand_terms(rng, keys, rng.randint(0, 6), -span, span)
        g = rand_terms(rng, keys, rng.randint(1, 5), -span, span) or {(): 1}
        f = naive_mul(q, g)
        quotient = LPoly(f).exact_div(LPoly(g))
        assert quotient.canonical() == as_canonical(q)


def test_key_maps_match_naive_oracle():
    rng = random.Random(9)
    keys = KEY_FAMILIES[1]
    for _ in range(60):
        terms = rand_terms(rng, keys, rng.randint(0, 6))
        p = LPoly(terms)
        shifted = {mono(((i, s + 2), e) for (i, s), e in m): c
                   for m, c in terms.items()}
        assert p.map_keys(lambda k: (k[0], k[1] + 2)).canonical() == \
            as_canonical(shifted)
        kept = {}
        for m, c in terms.items():
            mm = tuple((k, e) for k, e in m if k[0] != 1)
            kept[mm] = kept.get(mm, 0) + c
        assert p.subs_one(lambda k: k[0] == 1).canonical() == \
            as_canonical({m: c for m, c in kept.items() if c})
        assert {k for m in p.monomials() for k, _ in m} == \
            {k for m in terms for k, _ in m}
        for key in keys + [(9, 9)]:
            want = min((dict(m).get(key, 0) for m in terms), default=0)
            assert p.min_exponent(key) == want


def test_cancellation_to_zero():
    x, y = LPoly.var("x"), LPoly.var("y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) * (x - y) - x * x + y * y == 0
    assert not ((x + y) * (x - y) - x * x + y * y).terms
    assert (x - x) * y == LPoly.zero()
    assert LPoly.zero().exact_div(x + y) == 0
    unit = LPoly.var("x", 2) * LPoly.var("x", -2)
    assert unit == 1 and unit.canonical() == (((), 1),)


def test_ring_axioms_on_random_samples():
    rng = random.Random(7)
    keys = ["x", "y", "z"]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            m = mono([(k, rng.randint(-2, 2)) for k in rng.sample(keys, 2)])
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        return LPoly(terms)

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * LPoly.one() == a


def test_exact_division_roundtrip():
    rng = random.Random(11)
    keys = ["x", "y"]
    for _ in range(40):
        def rand_poly(allow_zero):
            terms = {}
            for _ in range(rng.randint(0 if allow_zero else 1, 4)):
                m = mono([(k, rng.randint(-2, 3)) for k in keys])
                terms[m] = terms.get(m, 0) + rng.randint(-4, 4)
            p = LPoly(terms)
            return p if (p or allow_zero) else LPoly.var("x")
        f = rand_poly(True)
        g = rand_poly(False)
        assert (f * g).exact_div(g) == f


def test_random_divisions_terminate_and_are_sound():
    rng = random.Random(13)
    for trial in range(200):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        f = LPoly(rand_terms(rng, keys, rng.randint(1, 8)))
        g = LPoly(rand_terms(rng, keys, rng.randint(2, 4)))
        if len(g) < 2:
            continue
        try:
            q = f.exact_div(g)
        except ValueError:
            continue
        assert q * g == f


def test_inexact_division_raises():
    x, y = LPoly.var("x"), LPoly.var("y")
    with pytest.raises(ValueError, match=r"division \(monomial\)"):
        (x + y).exact_div(x + 1)
    with pytest.raises(ValueError, match=r"division \(monomial\)"):
        x.exact_div(x * x + 1)
    with pytest.raises(ValueError, match=r"division \(coefficient\)"):
        (x * x + 1).exact_div(2 * x + 1)
    with pytest.raises(ValueError, match="inexact coefficient division"):
        (2 * x + 1).exact_div(LPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        x.exact_div(LPoly.zero())


def test_divisions_through_monomials_absent_from_the_dividend(monkeypatch):
    # Signed coefficients let the remainder reach monomials that f lacks;
    # those come off the division's side heap, counted here.
    pushed = []
    monkeypatch.setattr(lpoly, "heappush",
                        lambda heap, p: (pushed.append(p), heappush(heap, p)))
    y = LPoly.var("side_y")
    x = LPoly.var("side_x")     # interned after y: x leads
    xy = {(("side_x", 1),): 1, (("side_y", 1),): 1}
    q = naive_mul(xy, {**xy, (): 1})
    g = {(("side_x", 1),): 1, (("side_y", 1),): -1}
    f = naive_mul(naive_mul(xy, g), {**xy, (): 1})
    assert LPoly(f).exact_div(LPoly(g)).canonical() == as_canonical(q)
    assert LPoly(f) == (x * x - y * y) * (x + y + 1) and pushed
    del pushed[:]
    rng = random.Random(17)
    keys = ["side_x", "side_y"]
    for _ in range(60):
        q = rand_terms(rng, keys, rng.randint(1, 6))
        g = rand_terms(rng, keys, rng.randint(2, 4))
        if len(g) < 2:
            continue
        quotient = LPoly(naive_mul(q, g)).exact_div(LPoly(g))
        assert quotient.canonical() == as_canonical(q)
    assert pushed
    # x^2 + y^2 = (x - y)(x + y) + 2y^2: the walk meets xy, then y^2 / x
    # leaves the box; 2x^2 + y^2 over 2x - y meets xy with coefficient 1
    for f, g, msg in ((x * x + y * y, x - y, "monomial"),
                      (2 * x * x + y * y, 2 * x - y, "coefficient")):
        del pushed[:]
        with pytest.raises(ValueError,
                           match=rf"inexact polynomial division \({msg}\)"):
            f.exact_div(g)
        assert pushed, msg


def test_divisions_leave_both_operands_unchanged():
    # the division reads its dividend in place; it must never write it
    x, y = LPoly.var("x"), LPoly.var("y")
    rng = random.Random(19)
    cases = [(x * x + y * y, x - y), (2 * x * x + y * y, 2 * x - y),
             ((x * x - y * y) * (x + y + 1), x - y)]
    for trial in range(60):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        g = rand_terms(rng, keys, rng.randint(2, 4))
        if len(g) >= 2:
            q = rand_terms(rng, keys, rng.randint(1, 6))
            cases.append((LPoly(naive_mul(q, g)), LPoly(g)))
    raised = set()
    for f, g in cases:
        before = (dict(f.terms), dict(g.terms))
        try:
            f.exact_div(g)
        except ValueError as exc:
            raised.add(str(exc))
        assert (f.terms, g.terms) == before
    assert raised == {"inexact polynomial division (monomial)",
                      "inexact polynomial division (coefficient)"}


def _graded(products, g):
    """graded_quotient under GRADES, or the ValueError it raised."""
    try:
        return graded_quotient(products, g, GRADES.__getitem__)
    except ValueError as exc:
        return exc


def _single_top(g):
    """Whether the top grade of g holds one term."""
    grades = [sum(e * GRADES[k] for k, e in m) for m in g.monomials()]
    return grades.count(max(grades)) == 1


def test_graded_quotient_residual_matches_the_expanded_identity():
    rng = random.Random(23)
    held = raised = 0
    for trial in range(300):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        a, b, c, d, e, h = (LPoly(rand_terms(rng, keys, rng.randint(0, 6)))
                            for _ in range(6))
        h = h or LPoly.one()
        if trial % 3 == 0:
            # a * b - c * d = e * h, c * d meeting keys a * b lacks
            a, b = e * h + c * d, LPoly.one()
        elif trial % 3 == 1:
            # c * d cancels part of a * b, and b - d is the divisor
            c, d = a, LPoly(dict(b.items()[::2]))
            h = (b - d) or LPoly.one()
        else:
            # one coefficient off, or a term gained
            m = mono((k, rng.randint(-3, 3)) for k in rng.sample(keys, 2))
            a = e * h + c * d + LPoly.monomial(m, rng.choice([-1, 1]))
            b = LPoly.one()
        before = [dict(p.terms) for p in (a, b, c, d, h)]
        got = _graded([(a, b, 1), (c, d, -1)], h)
        dividend = a * b - c * d
        try:
            want = dividend.exact_div(h)
        except ValueError:
            want = None
        if not _single_top(h):
            assert str(got) == ("the divisor's top grade holds more than "
                                "one term")
        elif want is None:
            assert str(got).startswith("inexact polynomial division")
            raised += 1
        else:
            assert got == (want, True) and want * h == dividend
            held += 1
        assert [p.terms for p in (a, b, c, d, h)] == before
    assert held >= 100 and raised >= 30


def test_graded_quotient_overflows_exactly_when_a_product_does():
    rng = random.Random(29)
    raised = 0
    for _ in range(200):
        def exponent():
            if rng.random() < 0.5:
                return rng.randint(-4, 4)
            return rng.choice([-1, 1]) * rng.randint(EXP_MAX - 4, EXP_MAX)

        def near_bound():
            return LPoly({mono((k, exponent()) for k in ("x", "y")):
                          rng.randint(1, 3) for _ in range(rng.randint(1, 3))})
        a, b, x = near_bound(), near_bound(), LPoly.var("x")
        one = LPoly.one()
        try:
            a * b
        except OverflowError:
            raised += 1
            for products in ([(a, b, 1), (x, x, -1)],
                             [(x, x, 1), (a, b, -1)]):
                with pytest.raises(OverflowError):
                    graded_quotient(products, one, GRADES.__getitem__)
        else:
            assert _graded([(x, x, 1), (a, b, -1)], one) == (
                x * x - a * b, True)
    assert 0 < raised < 200


def test_divisor_with_two_top_grade_terms_raises():
    x, y, z, one = LPoly.var("x"), LPoly.var("y"), LPoly.var("z"), LPoly.one()
    g = x + y
    f = g * (x + z)
    with pytest.raises(ValueError, match="top grade holds more than one"):
        graded_quotient([(f, one, 1)], g, lambda key: 1)
    # the same division with y graded below x is exact
    assert graded_quotient([(f, one, 1)], g, {"x": 2, "y": 1, "z": 1}.get) \
        == (x + z, True)


def test_graded_quotient_names_an_inexact_monomial_or_coefficient():
    # grades x = 2, y = 1.  x^2 + y^2 over x - y leaves 2 y^2 below the
    # quotient's lowest grade; 2 x^2 + y^2 over 2 x - y meets x y with
    # coefficient 1; 1 + x over 1 + y meets x y^-1, whose y exponent
    # lies outside the box [0 - 0, 0 - 1] of any exact quotient
    x, y, one = LPoly.var("x"), LPoly.var("y"), LPoly.one()
    for f, g, msg in ((x * x + y * y, x - y, "monomial"),
                      (2 * x * x + y * y, 2 * x - y, "coefficient"),
                      (1 + x, 1 + y, "monomial")):
        with pytest.raises(ValueError,
                           match=rf"inexact polynomial division \({msg}\)"):
            graded_quotient([(f, one, 1)], g, {"x": 2, "y": 1}.get)


def test_table_division_agrees_with_exact_div():
    # the graded division of the slabs of f + c * d - c * d, whose box
    # from the factors is wider than f's own, against f / g
    rng = random.Random(31)
    exact = 0
    for trial in range(300):
        keys = KEY_FAMILIES[trial % len(KEY_FAMILIES)]
        g = LPoly(rand_terms(rng, keys, rng.randint(1, 4)))
        if not g:
            continue
        if trial % 2:
            f = LPoly(naive_mul(rand_terms(rng, keys, rng.randint(1, 6)),
                                dict(g.items())))
        else:
            f = LPoly(rand_terms(rng, keys, rng.randint(1, 8)))
        c, d = (LPoly(rand_terms(rng, keys, rng.randint(0, 4)))
                for _ in range(2))
        got = _graded([(f + c * d, LPoly.one(), 1), (c, d, -1)], g)
        try:
            want = f.exact_div(g)
        except ValueError:
            want = None
        if not _single_top(g):
            assert "top grade" in str(got)
        elif want is None:
            assert str(got).startswith("inexact polynomial division")
        else:
            assert got == (want, True)
            exact += 1
    assert 100 <= exact < 300


def test_wide_table_box_never_overflows_by_itself():
    # x^E cancels from the dividend, so its box from the factors reaches
    # x^E while its own does not: (x^-1 + x^-2) / (x^-1 + x^-2) fits, and
    # 1 / (x^-1 + x^-2) is inexact, not an overflow
    one = LPoly.one()
    g = LPoly.var("x", -1) + LPoly.var("x", -2)
    top = LPoly.var("x", EXP_MAX)
    for f in (g, one):
        products = [(f + top, one, 1), (top, one, -1)]
        if f == g:
            assert _graded(products, g) == (one, True)
        else:
            with pytest.raises(ValueError, match=r"\(monomial\)"):
                graded_quotient(products, g, GRADES.__getitem__)
    # a quotient that does leave the range still overflows
    f = top + LPoly.var("x", EXP_MAX - 1)
    with pytest.raises(OverflowError):
        graded_quotient([(f, one, 1)], g, GRADES.__getitem__)
    with pytest.raises(OverflowError):
        divide_table(f.terms, g)


def test_laurent_division_with_negative_exponents():
    x = LPoly.var("x")
    xinv = LPoly.var("x", -1)
    f = x + 2 + xinv
    g = x + 1
    # f = (x+1)(1 + x^{-1})
    assert f.exact_div(g) == LPoly.one() + xinv


def test_laurent_quotient_outside_the_dividend_box():
    # f has x-exponents in [0, 1]; the quotient x^2 y^-3 lies outside
    x, y = LPoly.var("x"), LPoly.var("y")
    f = 1 + x
    g = LPoly.var("x", -2) * LPoly.var("y", 3) + LPoly.var("x", -1) * y ** 3
    assert f.exact_div(g) == LPoly.var("x", 2) * LPoly.var("y", -3)
    assert (x * y).exact_div(LPoly.var("y", -4)) == x * y ** 5


def test_exponents_at_the_digit_bound():
    top = LPoly.var("x", EXP_MAX)
    assert top.canonical() == (((("x", EXP_MAX),), 1),)
    assert LPoly.var("x", -EXP_MAX).min_exponent("x") == -EXP_MAX
    assert LPoly.var("x", EXP_MAX - 1) * LPoly.var("x") == top
    near = LPoly.var("x", EXP_MAX - 1)
    assert (top + near).exact_div(LPoly.var("x") + 1) == near
    assert top * LPoly.var("y") == LPoly.monomial((("x", EXP_MAX), ("y", 1)))
    assert top * LPoly.var("x", -EXP_MAX) == 1
    # a loose bound is tightened before an overflow is reported
    one = (LPoly.var("y", 8000) + 1) - LPoly.var("y", 8000)
    assert one * LPoly.var("y", 9000) == LPoly.var("y", 9000)


def test_digit_overflow_raises():
    top = LPoly.var("x", EXP_MAX)
    with pytest.raises(OverflowError):
        LPoly.var("x", EXP_MAX + 1)
    with pytest.raises(OverflowError):
        LPoly.monomial((("y", 2), ("z", -EXP_MAX - 1)))
    with pytest.raises(OverflowError):
        top * LPoly.var("x")
    with pytest.raises(OverflowError):
        top ** 2
    with pytest.raises(OverflowError):
        top.exact_div(LPoly.var("x", -1))
    # (x^E + x^(E-1)) / (x^-2 + x^-1) = x^(E+1)
    with pytest.raises(OverflowError):
        (top + LPoly.var("x", EXP_MAX - 1)).exact_div(
            LPoly.var("x", -2) + LPoly.var("x", -1))


def test_min_exponent_and_subs():
    x, y = LPoly.var("x"), LPoly.var("y")
    p = x * x + y * LPoly.var("x", -3)
    assert p.min_exponent("x") == -3
    assert p.min_exponent("y") == 0
    assert p.min_exponent("w") == 0
    assert LPoly.var("x").min_exponent("x") == 1
    q = p.subs_one(lambda k: k == "x")
    assert q == LPoly.one() + y


def test_canonical_is_deterministic():
    x, y = LPoly.var("x"), LPoly.var("y")
    p = x + 3 * y
    q = 3 * y + x
    assert p.canonical() == q.canonical()
    assert hash(p) == hash(q)
    # equal polynomials built by different routes, with their packed
    # terms inserted in different orders, are one dict key
    target = x * x + x * y
    routes = [
        target,
        x * y + x * x,                                  # term order
        (x * x + x * y + y) - y,                        # cancellation
        (target * (x + y + 1)).exact_div(x + y + 1),    # long division
        (target * (1 + y)).exact_div(1 + y),
        target.map_keys(lambda k: ("t", k)).map_keys(lambda k: k[1]),
    ]
    for r in routes:
        assert r == target and hash(r) == hash(target)
    keys = {r: None for r in routes}
    assert len(keys) == 1 and target + 1 not in keys
