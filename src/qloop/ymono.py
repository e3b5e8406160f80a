"""The Laurent ring of Y-variables with integer spectral exponents.

Variables are Y[i,s] for a node i and an integer s (the spectral
parameter q^s); every q-character handled by this package lives here.
Monomials and polynomials are immutable; all arithmetic is exact.
"""

from __future__ import annotations

import json

from . import lpoly
from .cartan import CartanData
from .errors import ConsistencyError, InvalidInputError

__all__ = [
    "CartanData", "YMonomial", "YPolynomial", "WeightVector",
    "a_monomial", "a_monomial_exps", "is_dominant", "a_factorize",
    "weight", "dominant_terms", "truncate_c1", "poly_to_json",
    "poly_from_json", "render_text", "render_latex", "vpoly_to_json",
    "render_vpoly_text",
]


class YMonomial:
    """Product of Y[i,s]^e factors, stored sparsely without zero exponents."""

    __slots__ = ("key",)

    def __init__(self, exps=None):
        self.key = lpoly.mono(exps.items() if hasattr(exps, "items")
                              else (exps or ()))

    @classmethod
    def one(cls) -> "YMonomial":
        return cls()

    @classmethod
    def y(cls, i: int, s: int, e: int = 1) -> "YMonomial":
        return cls([((i, s), e)])

    @classmethod
    def from_triples(cls, triples) -> "YMonomial":
        return cls([((i, s), e) for (i, s, e) in triples])

    def triples(self) -> tuple:
        return tuple((i, s, e) for (i, s), e in self.key)

    def exps(self) -> dict[tuple[int, int], int]:
        return dict(self.key)

    def __mul__(self, other: "YMonomial") -> "YMonomial":
        out = YMonomial.__new__(YMonomial)
        out.key = lpoly.mono_mul(self.key, other.key)
        return out

    def __pow__(self, n: int) -> "YMonomial":
        out = YMonomial.__new__(YMonomial)
        out.key = lpoly.mono_pow(self.key, n)
        return out

    def inverse(self) -> "YMonomial":
        return self ** -1

    def __truediv__(self, other: "YMonomial") -> "YMonomial":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return isinstance(other, YMonomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "YMonomial") -> bool:
        # serialization order only; not the dominance order
        return self.key < other.key

    def __repr__(self) -> str:
        return f"YMonomial({render_mono_text(self)})"

    def is_one(self) -> bool:
        return not self.key

    def in_m_ell(self, c: CartanData, ell: int) -> bool:
        """All variables of the form Y[i, xi_i + 2k] with 0 <= k <= ell."""
        for (i, s), _ in self.key:
            k2 = s - c.xi[i - 1]
            if k2 % 2 or not (0 <= k2 // 2 <= ell):
                return False
        return True

    def shift(self, t: int) -> "YMonomial":
        return YMonomial([((i, s + t), e) for (i, s), e in self.key])


class WeightVector:
    """Integer combination of fundamental weights, additively written."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        items = coeffs.items() if hasattr(coeffs, "items") else (coeffs or ())
        acc = {}
        for i, e in items:
            acc[i] = acc.get(i, 0) + e
        self.coeffs = tuple(sorted((i, e) for i, e in acc.items() if e))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(list(self.coeffs) + list(other.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightVector) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"WeightVector({dict(self.coeffs)})"

    def coeff(self, i: int) -> int:
        return dict(self.coeffs).get(i, 0)

    def reflect(self, c: CartanData, i: int) -> "WeightVector":
        """Simple reflection s_i; alpha_i = sum_j a_ji w_j."""
        ci = self.coeff(i)
        return WeightVector(list(self.coeffs)
                            + [(j, -ci * c.a(j, i)) for j in c.nodes()])


class YPolynomial:
    """Integer combination of YMonomials."""

    __slots__ = ("poly",)

    def __init__(self, terms=None):
        if isinstance(terms, lpoly.LPoly):
            self.poly = terms
        elif terms is None:
            self.poly = lpoly.LPoly.zero()
        elif hasattr(terms, "items"):
            self.poly = lpoly.LPoly({m.key: c for m, c in terms.items()})
        else:
            self.poly = lpoly.LPoly([(m.key, c) for m, c in terms])

    @classmethod
    def zero(cls) -> "YPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "YPolynomial":
        return cls(lpoly.LPoly.one())

    @classmethod
    def from_monomial(cls, m: YMonomial, c: int = 1) -> "YPolynomial":
        return cls(lpoly.LPoly.monomial(m.key, c))

    def terms(self):
        """Sorted (YMonomial, coefficient) pairs."""
        for m, c in self.poly.items():
            ym = YMonomial.__new__(YMonomial)
            ym.key = m
            yield ym, c

    def coeff(self, m: YMonomial) -> int:
        return self.poly.coeff(m.key)

    def n_monomials(self) -> int:
        return len(self.poly)

    def total_mult(self) -> int:
        """Sum of all coefficients (dimension, for a q-character)."""
        return sum(self.poly.terms.values())

    def __add__(self, other):
        if isinstance(other, int):
            return YPolynomial(self.poly + other)
        return YPolynomial(self.poly + other.poly)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return YPolynomial(self.poly - other)
        return YPolynomial(self.poly - other.poly)

    def __neg__(self):
        return YPolynomial(-self.poly)

    def __mul__(self, other):
        if isinstance(other, int):
            return YPolynomial(self.poly * other)
        if isinstance(other, YMonomial):
            other = YPolynomial.from_monomial(other)
        return YPolynomial(self.poly * other.poly)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "YPolynomial":
        return YPolynomial(self.poly ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.poly == other
        return isinstance(other, YPolynomial) and self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __repr__(self) -> str:
        return f"YPolynomial({render_text(self)})"

    def exact_div(self, other: "YPolynomial") -> "YPolynomial":
        return YPolynomial(self.poly.exact_div(other.poly))

    def shift(self, t: int) -> "YPolynomial":
        """Shift every spectral exponent by t (twist by q^t)."""
        if not t:
            return self
        return YPolynomial(self.poly.map_keys(lambda k: (k[0], k[1] + t)))


def is_dominant(m: YMonomial) -> bool:
    """True when no Y-variable appears with a negative exponent."""
    return all(e > 0 for _, e in m.key)


def weight(m: YMonomial) -> WeightVector:
    """Image under the weight map Y[i,s] -> fundamental weight at i."""
    return WeightVector([(i, e) for (i, s), e in m.key])


def a_monomial_exps(c: CartanData, i: int, s: int) -> YMonomial:
    """A[i,s] = Y[i,s+1] Y[i,s-1] prod_{j ~ i} Y[j,s]^{-1}; no parity check."""
    pairs = [((i, s + 1), 1), ((i, s - 1), 1)]
    pairs += [((j, s), -1) for j in c.neighbors(i)]
    return YMonomial(pairs)


def a_monomial(c: CartanData, i: int, s: int) -> YMonomial:
    """A[i,s] for s = xi_i + 1 (mod 2), the lattice the Y's live on."""
    c.check_node(i)
    if (s - c.xi[i - 1]) % 2 != 1:
        raise InvalidInputError(
            f"A[{i},{s}]: spectral parity must be xi_{i}+1 (mod 2)")
    return a_monomial_exps(c, i, s)


def a_factorize(c: CartanData, numerator: YMonomial,
                denominator: YMonomial) -> dict[tuple[int, int], int] | None:
    """Write numerator/denominator as prod A[i,s]^{v_is} with all v_is >= 0.

    Returns the multiset {(i,s): v_is} when it exists (equivalently,
    denominator <= numerator in the standard partial order), else None.
    The A-exponent vectors are linearly independent, so the solution is
    found by peeling spectral levels from the top; it is unique.
    """
    ratio = (numerator / denominator).key
    if not ratio:
        return {}
    n = c.n
    levels = [s for (_, s), _ in ratio]
    lo, hi = min(levels), max(levels)
    # the exponent of Y[i,t] is cells[(t - lo) * n + i - 1]
    cells = [0] * (n * (hi - lo + 1))
    for (i, s), e in ratio:
        if not 1 <= i <= n:
            return None  # no A-monomial has a Y at a node outside 1..n
        cells[(s - lo) * n + i - 1] = e
    nodes = [(i, c.neighbors(i)) for i in c.nodes()]
    v: dict[tuple[int, int], int] = {}
    for s in range(hi - 1, lo, -1):
        at = (s - lo) * n - 1  # Y[i,s] is at cells[at + i]
        for i, around in nodes:
            # only A[i,s] can still produce Y[i,s+1]
            e = cells[at + n + i]
            if e < 0:
                return None
            if e:
                cells[at + n + i] = 0
                cells[at - n + i] -= e
                for j in around:
                    cells[at + j] += e
                v[(i, s)] = e
    return None if any(cells) else v


def dominant_terms(p: YPolynomial) -> YPolynomial:
    """Restriction of p to its dominant monomials."""
    return YPolynomial([(m, c) for m, c in p.terms() if is_dominant(m)])


def highest_monomial(c: CartanData, p: YPolynomial) -> YMonomial:
    """The single dominant monomial of p, checked exactly.

    Raises ConsistencyError unless p has exactly one dominant monomial,
    with coefficient 1, and every term of p lies below it (a_factorize).
    """
    dom = list(dominant_terms(p).terms())
    if len(dom) != 1 or dom[0][1] != 1:
        raise ConsistencyError("polynomial does not have a unique dominant "
                               "monomial with coefficient one")
    top = dom[0][0]
    if any(a_factorize(c, top, m) is None for m, _ in p.terms()):
        raise ConsistencyError("the dominant monomial does not dominate "
                               "every term")
    return top


def truncate_c1(c: CartanData, p: YPolynomial, top: YMonomial) -> YPolynomial:
    """Keep the terms reachable from top using only A[i, xi_i+1] steps.

    This is the level-1 truncation: corrections A[i,s]^{-1} with
    s > xi_i + 1 are specialized to zero.
    """
    if p.coeff(top) != 1:
        raise InvalidInputError("top monomial must occur with coefficient 1")
    kept = []
    for m, coeff in p.terms():
        fac = a_factorize(c, top, m)
        if fac is None:
            raise InvalidInputError(f"term {m!r} is not below the top monomial")
        if all(s == c.xi[i - 1] + 1 for (i, s) in fac):
            kept.append((m, coeff))
    return YPolynomial(kept)


# --- canonical JSON form and rendering -----------------------------------

def _json_terms(p: YPolynomial):
    return ({"Y": [[i, s, e] for (i, s), e in m.key], "c": c}
            for m, c in p.terms())


def poly_to_json(p: YPolynomial, out=None) -> dict | None:
    """Canonical form {"terms":[{"Y":[[i,s,e],...],"c":coeff},...]}.

    With out, the form's JSON text, as json.dumps writes it, goes to
    out one term at a time instead, and nothing is returned.
    """
    if out is None:
        return {"terms": list(_json_terms(p))}
    out.write('{"terms": [')
    _write_joined(out, ", ", map(json.dumps, _json_terms(p)))
    out.write("]}")


def _write_joined(out, sep: str, parts) -> bool:
    """Write sep.join(parts) to out a part at a time; False if no parts."""
    first = True
    for part in parts:
        out.write(part if first else sep + part)
        first = False
    return not first


def poly_from_json(data: dict) -> YPolynomial:
    terms = []
    for t in data["terms"]:
        terms.append((YMonomial.from_triples(tuple(map(tuple, t["Y"]))),
                      int(t["c"])))
    return YPolynomial(terms)


def vpoly_to_json(p: lpoly.LPoly) -> dict:
    """Canonical form {"terms":[{"v":[[k,e],...],"c":coeff},...]} of an
    LPoly, such as an F-polynomial keyed by node."""
    return {"terms": [{"v": [[k, e] for k, e in m], "c": c}
                      for m, c in p.items()]}


def _join_terms(terms, factor, mul: str, times: str, out=None) -> str | None:
    """Sum of (factors, coeff) terms; factor renders one (key, exp).

    With out, the sum goes to out one term at a time instead, and
    nothing is returned.
    """
    def parts():
        for factors, c in terms:
            body = mul.join(factor(k, e) for k, e in factors)
            yield (str(c) if not body else
                   body if c == 1 else f"{c}{times}{body}")

    if out is None:
        return " + ".join(parts()) or "0"
    if not _write_joined(out, " + ", parts()):
        out.write("0")


def _y_text(k, e: int) -> str:
    return f"Y[{k[0]},{k[1]}]" + (f"^{e}" if e != 1 else "")


def render_mono_text(m: YMonomial) -> str:
    return "*".join(_y_text(k, e) for k, e in m.key) or "1"


def render_text(p: YPolynomial, out=None) -> str | None:
    """Text form of p; written to out term by term when out is given."""
    return _join_terms(((m.key, c) for m, c in p.terms()), _y_text, "*", "*",
                       out)


def render_latex(p: YPolynomial, out=None) -> str | None:
    """LaTeX form of p; written to out term by term when out is given."""
    return _join_terms(
        ((m.key, c) for m, c in p.terms()),
        lambda k, e: (f"Y_{{{k[0]},q^{{{k[1]}}}}}"
                      + (f"^{{{e}}}" if e != 1 else "")),
        "", "\\,", out)


def render_vpoly_text(p: lpoly.LPoly) -> str:
    """Text form of an LPoly keyed by node, with variables v<node>."""
    return _join_terms(p.items(),
                       lambda k, e: f"v{k}" + (f"^{e}" if e != 1 else ""),
                       "*", "*")
