"""Sparse Laurent polynomials with exact integer coefficients.

Outside this module a monomial is a tuple of (key, exponent) pairs,
sorted by key, with distinct keys and nonzero exponents; keys can be
anything hashable, and the keys of one monomial must be mutually
comparable (plain ints, (node, shift) pairs, string-tagged tuples).
The empty tuple is the unit monomial.

Inside `LPoly` a monomial is one Python int, the packed layout of
Monagan and Pearce.  A process-wide slot table gives every key a slot,
and the monomial prod x_k^e_k is the int sum e_k * 2**(W * slot_k) with
signed (balanced) digits of W bits.  The unit monomial is 0, a product
of monomials is an int sum and an inverse is a negation.  Comparing the
ints is a group order on monomials (lex, highest slot first), which the
long division uses; it reads its dividend in place, as a plain table
of packed monomials.  A sum of products whose factors carry a grading
(a per-key integer grade, with the divisor's top grade a single term)
is divided one grade at a time instead: `graded_quotient` builds one
slab of the dividend at a time from the factors' term pairs, so the
dividend is never formed, and checks each slab's residual.

Every exponent lies in [-EXP_MAX, EXP_MAX].  EXP_MAX leaves two spare
bits per digit, so the difference of two exponents still fits a digit
and a digit lifted by 2**(W-2) leaves its top bit free as a guard bit.
Each polynomial carries an upper bound on the absolute values of its
exponents; an operation whose result could leave the range raises
OverflowError instead of wrapping a digit.  `LPoly` is immutable after
construction.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush

Mono = tuple

ONE_MONO: Mono = ()

_W = 16
EXP_MAX = (1 << (_W - 2)) - 1
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)

# The slot table interns keys: it grows with the distinct keys the
# process meets and is never cleared, since packed ints refer to it.
_OFFSETS: dict = {}     # key -> bit offset W * slot
_KEYS: list = []        # slot -> key


def mono(pairs) -> Mono:
    """Canonical monomial from (key, exp) pairs; drops zero exponents."""
    acc = {}
    for key, exp in pairs:
        acc[key] = acc.get(key, 0) + exp
    return tuple(sorted((k, e) for k, e in acc.items() if e != 0))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    return mono(list(a) + list(b))


def mono_pow(a: Mono, n: int) -> Mono:
    if n == 0:
        return ONE_MONO
    return tuple((k, e * n) for k, e in a)


# --- the packed layout --------------------------------------------------------

def _offset(key) -> int:
    off = _OFFSETS.get(key)
    if off is None:
        off = _OFFSETS[key] = _W * len(_KEYS)
        _KEYS.append(key)
    return off


def _ones() -> int:
    """1 in the lowest bit of every digit of the current slot table."""
    return ((1 << (_W * len(_KEYS))) - 1) // _MASK


def _overflow() -> OverflowError:
    return OverflowError(f"exponent could leave the packed digit range "
                         f"[-{EXP_MAX}, {EXP_MAX}]")


def _encode(m: Mono) -> tuple:
    """Packed int of a tuple monomial, and its largest |exponent|."""
    p = bound = 0
    for key, e in m:
        a = e if e > 0 else -e
        if a > bound:
            bound = a
        p += e << _offset(key)
    if bound > EXP_MAX:
        raise _overflow()
    return p, bound


def _digits(p: int) -> list:
    """(slot, exponent) pairs of the nonzero digits of a packed int."""
    out = []
    slot = 0
    while p:
        skip = ((p & -p).bit_length() - 1) // _W
        p >>= _W * skip
        slot += skip
        e = ((p + _HALF) & _MASK) - _HALF
        out.append((slot, e))
        p = (p - e) >> _W
        slot += 1
    return out


def _decode(p: int) -> Mono:
    return tuple(sorted((_KEYS[s], e) for s, e in _digits(p)))


def _box(monos) -> tuple:
    """Digit-wise minimum and maximum of nonempty packed monomials.

    Absent keys count as exponent 0.  Each digit is lifted into
    [1, 2**(W-1)), and one subtraction per bound compares all digits
    at once through their guard bits and holds each digit's step.
    """
    ones = _ones()
    lift = ones << (_W - 2)
    guard = ones << (_W - 1)
    it = iter(monos)
    lo = hi = next(it) + lift
    for p in it:
        y = p + lift
        d = (hi | guard) - y        # digits hi - y + 2**(W-1)
        g = d & guard               # guard bits where hi >= y
        hi = y + (d & (g - (g >> (_W - 1))))
        d = (y | guard) - lo        # digits y - lo + 2**(W-1)
        g = d & guard               # guard bits where y >= lo
        lo = y - (d & (g - (g >> (_W - 1))))
    return lo - lift, hi - lift


def _max_abs(*packed) -> int:
    return max((abs(e) for p in packed for _, e in _digits(p)), default=0)


def _product_bound(a: "LPoly", b: "LPoly") -> int:
    """Bound on the exponents of a * b; raises when one could overflow.

    The sum of the two bounds usually settles it.  Otherwise the digit
    boxes of a and b give the exact bounds of both, which are stored,
    and the box of the product lies inside their digit-wise sum.
    """
    if not (a.terms and b.terms):
        return 0
    bound = a._bound + b._bound
    if bound > EXP_MAX:
        (alo, ahi), (blo, bhi) = _box(a.terms), _box(b.terms)
        a._bound, b._bound = _max_abs(alo, ahi), _max_abs(blo, bhi)
        bound = _max_abs(alo + blo, ahi + bhi)
        if bound > EXP_MAX:
            raise _overflow()
    return bound


def _packed(data: dict, bound: int) -> "LPoly":
    out = LPoly.__new__(LPoly)
    out.terms = data
    out._bound = bound
    out._canon = None
    return out


class LPoly:
    """Integer-coefficient Laurent polynomial, keyed by packed monomials.

    `terms` maps packed ints to nonzero coefficients; the constructor,
    `var`, `monomial` and `coeff` take tuple monomials, and `items` and
    `canonical` give them back sorted.  Equality and hashing read the
    packed terms; `canonical` is only for sorting and output.
    """

    __slots__ = ("terms", "_bound", "_canon")

    def __init__(self, terms=None):
        data = {}
        bound = 0
        if terms:
            for m, c in (terms.items() if hasattr(terms, "items") else terms):
                if c:
                    p, b = _encode(m)
                    if b > bound:
                        bound = b
                    nc = data.get(p, 0) + c
                    if nc:
                        data[p] = nc
                    else:
                        del data[p]
        self.terms = data
        self._bound = bound
        self._canon = None

    @classmethod
    def zero(cls) -> "LPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LPoly":
        return cls({ONE_MONO: c})

    @classmethod
    def one(cls) -> "LPoly":
        return cls.const(1)

    @classmethod
    def var(cls, key, exp: int = 1) -> "LPoly":
        return cls({((key, exp),): 1})

    @classmethod
    def monomial(cls, m: Mono, c: int = 1) -> "LPoly":
        return cls({m: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {0: other})
        return isinstance(other, LPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        # equal polynomials have equal packed terms: the slot table is
        # process-wide, so a monomial has exactly one packed int
        return hash(frozenset(self.terms.items()))

    def canonical(self) -> tuple:
        """Deterministic serialization: terms sorted by tuple monomial."""
        if self._canon is None:
            self._canon = tuple(sorted((_decode(p), c)
                                       for p, c in self.terms.items()))
        return self._canon

    def items(self):
        return list(self.canonical())

    def monomials(self):
        """The tuple monomials of the terms, unsorted and not cached."""
        return map(_decode, self.terms)

    def coeff(self, m: Mono) -> int:
        return self.terms.get(_encode(m)[0], 0)

    def const_term(self) -> int:
        return self.terms.get(0, 0)

    def __neg__(self) -> "LPoly":
        return _packed({p: -c for p, c in self.terms.items()}, self._bound)

    def _plus(self, other, sign: int) -> "LPoly":
        """self + sign * other, in one pass over other's terms."""
        if isinstance(other, int):
            other = LPoly.const(other)
        data = dict(self.terms)
        get = data.get
        for p, c in other.terms.items():
            nc = get(p, 0) + sign * c
            if nc:
                data[p] = nc
            else:
                del data[p]
        return _packed(data, max(self._bound, other._bound))

    def __add__(self, other) -> "LPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "LPoly":
        return self._plus(other, -1)

    def __mul__(self, other) -> "LPoly":
        if isinstance(other, int):
            if other == 0:
                return LPoly.zero()
            return _packed({p: c * other for p, c in self.terms.items()},
                           self._bound)
        bound = _product_bound(self, other)
        data = {}
        _add_pairs(data, list(self.terms.items()), list(other.terms.items()),
                   1)
        return _packed(data, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = LPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def map_keys(self, fn: Callable) -> "LPoly":
        """Relabel variable keys through fn (must stay injective)."""
        offsets = {}
        data = {}
        for p, c in self.terms.items():
            q = 0
            for slot, e in _digits(p):
                off = offsets.get(slot)
                if off is None:
                    off = offsets[slot] = _offset(fn(_KEYS[slot]))
                q += e << off
            data[q] = c
        return _packed(data, self._bound)

    def subs_one(self, drop: Callable) -> "LPoly":
        """Set every variable with drop(key) true to 1."""
        dropped = {}
        data = {}
        for p, c in self.terms.items():
            q = p
            for slot, e in _digits(p):
                gone = dropped.get(slot)
                if gone is None:
                    gone = dropped[slot] = bool(drop(_KEYS[slot]))
                if gone:
                    q -= e << (_W * slot)
            nc = data.get(q, 0) + c
            if nc:
                data[q] = nc
            else:
                del data[q]
        return _packed(data, self._bound)

    def min_exponent(self, key) -> int:
        """Minimum exponent of key over the terms (missing key counts 0)."""
        off = _OFFSETS.get(key)
        if off is None or not self.terms:
            return 0
        lift = _ones() << (_W - 1)
        return min(((p + lift) >> off) & _MASK for p in self.terms) - _HALF

    def exact_div(self, other: "LPoly") -> "LPoly":
        """Exact division; raises ValueError when the division is not exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LPoly.zero()
        if len(other.terms) == 1:
            ((m, c),) = other.terms.items()
            if any(x % c for x in self.terms.values()):
                raise ValueError("inexact coefficient division")
            bound = _product_bound(self, _packed({-m: 1}, other._bound))
            return _packed({p - m: x // c for p, x in self.terms.items()},
                           bound)
        return divide_table(self.terms, other)


def _add_pairs(data: dict, a: list, b: list, sign: int):
    """Add sign * c1 * c2 at p1 + p2 into data, in place, for every pair
    of terms (p1, c1) of a and (p2, c2) of b.

    An entry that reaches 0 is deleted at once, so data keeps only
    nonzero coefficients if it had only those.  The shorter list is the
    outer loop; the sums are the same either way.  This is the one
    term-pair loop of the module, for products and for the graded
    division.
    """
    if len(a) > len(b):
        a, b = b, a
    get = data.get
    for p1, c1 in a:
        c1 *= sign
        for p2, c2 in b:
            p = p1 + p2
            c = get(p, 0) + c1 * c2
            if c:
                data[p] = c
            else:
                del data[p]


def _by_grade(terms: dict, slot_grade: dict, grade: Callable) -> dict:
    """The terms grouped by grade, {grade: [(packed, coeff), ...]}.

    A monomial's grade is the sum of exponent * grade(key) over its
    keys; slot_grade caches grade(key) by slot.
    """
    out = {}
    for p, c in terms.items():
        h = 0
        for slot, e in _digits(p):
            r = slot_grade.get(slot)
            if r is None:
                r = slot_grade[slot] = grade(_KEYS[slot])
            h += e * r
        out.setdefault(h, []).append((p, c))
    return out


def _clamp(p: int) -> int:
    """p with every digit clamped into [-EXP_MAX, EXP_MAX]."""
    return sum(max(-EXP_MAX, min(EXP_MAX, e)) << (_W * slot)
               for slot, e in _digits(p))


def _divide_slab(rest: dict, m: int, c: int, lo: int, hi: int) -> list:
    """rest / (c x^m) term by term, as a list of (packed, coeff) terms.

    Raises ValueError unless every coefficient is divisible by c and
    every quotient monomial lies digit by digit in [lo, hi], and
    OverflowError for a quotient monomial outside the digit range.
    """
    guard = _ones() << (_W - 1)
    out = []
    for p, x in rest.items():
        t = p - m
        if ((t - lo) | (hi - t)) & guard:
            if _max_abs(t) > EXP_MAX:
                raise _overflow()
            raise ValueError("inexact polynomial division (monomial)")
        if x % c:
            raise ValueError("inexact polynomial division (coefficient)")
        out.append((t, x // c))
    return out


def graded_quotient(products: list, g: LPoly, grade: Callable) -> tuple:
    """(sum of sign * x * y over products) / g, one grade at a time.

    products is a list of (x, y, sign) triples and g is nonzero.  Every
    key has an integer grade(key), and a monomial's grade is the sum of
    exponent times grade over its keys, so the grade of a product term
    is the sum of its factors' grades.  The top grade of g must hold a
    single term c x^m; this is checked, and ValueError raised if not.

    Write F for the dividend, F_h for its slab of grade h and Q_q for
    the quotient's.  If F = Q g exactly, the top (bottom) slab of Q g is
    the product of the top (bottom) slabs of Q and g, so every quotient
    grade lies in [h_min - g_min, h_max - g_top], with [h_min, h_max]
    the grades the products can reach.  The walk runs h from h_max down
    to h_min.  At each h it builds F_h alone from the term pairs of
    the products' slabs, subtracts Q_(h-j) g_j for every grade j of g
    below g_top (those quotient grades lie above h - g_top and are
    known), and divides the rest term by term by c x^m: that is
    Q_(h - g_top).  A rest left where h - g_top lies below the quotient
    range means the division is not exact.  Then the slab's residual
    F_h - sum over all j of Q_(h-j) g_j, top term included, is
    recomputed from a copy of F_h and must be empty; the residuals of
    all slabs are empty iff F = Q g, since every term of F and of Q g
    has a grade in [h_min, h_max].

    Every quotient monomial must also lie digit by digit in the box
    [lo - min g, hi - max g], with [lo, hi] the digit-wise hull of the
    products' boxes (each the sum of its factors' boxes), clamped to
    the digit range: every exact quotient does (Newton polytopes add),
    so the remainder stays inside [lo, hi] and no digit can wrap.

    The working memory is one slab, its copy and the quotient, besides
    the factors' terms grouped by grade.  Returns (quotient, True) when
    every residual is empty, and (None, False) at the first slab whose
    residual is not.  Raises ValueError when the division is not exact,
    and OverflowError when a product could overflow (before any work)
    or a quotient monomial leaves the digit range.  No operand changes.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    slot_grade = {}
    parts, corners = [], []
    for x, y, sign in products:
        _product_bound(x, y)
        if x.terms and y.terms:
            parts.append((_by_grade(x.terms, slot_grade, grade),
                          _by_grade(y.terms, slot_grade, grade), sign))
            (xlo, xhi), (ylo, yhi) = _box(x.terms), _box(y.terms)
            corners += (xlo + ylo, xhi + yhi)
    if not parts:
        return LPoly.zero(), True
    gs = _by_grade(g.terms, slot_grade, grade)
    g_top, g_min = max(gs), min(gs)
    if len(gs[g_top]) != 1:
        raise ValueError("the divisor's top grade holds more than one term")
    ((m, c),) = gs[g_top]
    (flo, fhi), (glo, ghi) = _box(corners), _box(g.terms)
    lo, hi = _clamp(flo - glo), _clamp(fhi - ghi)
    h_max = max(max(xs) + max(ys) for xs, ys, _ in parts)
    h_min = min(min(xs) + min(ys) for xs, ys, _ in parts)
    quotient = {}                       # grade -> [(packed, coeff), ...]
    for h in range(h_max, h_min - 1, -1):
        slab = {}
        for xs, ys, sign in parts:
            for hx, xt in xs.items():
                yt = ys.get(h - hx)
                if yt:
                    _add_pairs(slab, xt, yt, sign)
        residual = dict(slab)
        for j, gt in gs.items():
            qt = quotient.get(h - j)
            if j != g_top and qt:
                _add_pairs(slab, qt, gt, -1)
        if slab:
            if h - g_top < h_min - g_min:
                raise ValueError("inexact polynomial division (monomial)")
            quotient[h - g_top] = _divide_slab(slab, m, c, lo, hi)
        for j, gt in gs.items():
            qt = quotient.get(h - j)
            if qt:
                _add_pairs(residual, qt, gt, -1)
        if residual:
            return None, False
    return _packed({p: x for qt in quotient.values() for p, x in qt},
                   _max_abs(lo, hi)), True


def divide_table(terms: dict, g: LPoly) -> LPoly:
    """terms / g by leading terms, for a table of terms and a nonzero g.

    terms maps packed monomials to coefficients, as `LPoly.terms` does,
    and is read in place and never written.  The remainder's leading
    monomial comes from two descending streams: the table's monomials,
    sorted once, and a heap of remainder monomials absent from the
    table.  New remainder monomials lie below the current one, so each
    is visited once.  The working memory is the sorted key list plus
    the pending changes: a dict holding the current coefficient of only
    those monomials that earlier quotient terms changed, each popped
    when the walk reaches it; a cancelled one keeps coefficient 0 until
    then.  Every quotient term must lie digit by digit in the box
    [lo - min g, hi - max g], with [lo, hi] the table's own box: every
    exact quotient does (Newton polytopes add), the remainder then
    stays inside [lo, hi] so no digit can overflow, and the quotient
    terms strictly decrease inside a finite box, so an inexact division
    ends with ValueError.
    """
    if not terms:
        return LPoly.zero()
    (flo, fhi), (glo, ghi) = _box(terms), _box(g.terms)
    lo, hi = flo - glo, fhi - ghi
    bound = _max_abs(lo, hi)
    # each difference tested below has digits in (-2**(W-1), 2**(W-1)),
    # so it is nonnegative in every digit iff no guard bit is set
    guard = _ones() << (_W - 1)
    if (hi - lo) & guard:
        raise ValueError("inexact polynomial division (monomial)")
    if bound > EXP_MAX:
        raise _overflow()
    lg = max(g.terms)
    cg = g.terms[lg]
    rest = [(p, c) for p, c in g.terms.items() if p != lg]
    fget = terms.get
    pending = {}
    walk = iter(sorted(terms, reverse=True))
    lf = next(walk, None)
    heap = []
    quotient = {}
    while lf is not None or heap:
        if heap and (lf is None or -heap[0] > lf):
            lr = -heappop(heap)
            cr = pending.pop(lr)
        else:
            lr, lf = lf, next(walk, None)
            cr = pending.pop(lr, None)
            if cr is None:
                cr = terms[lr]
        if not cr:
            continue
        t = lr - lg
        if ((t - lo) | (hi - t)) & guard:
            raise ValueError("inexact polynomial division (monomial)")
        if cr % cg:
            raise ValueError("inexact polynomial division (coefficient)")
        ct = cr // cg
        quotient[t] = ct
        for p, c in rest:
            p += t
            old = pending.get(p)
            if old is None:
                old = fget(p)
                if old is None:
                    heappush(heap, -p)
                    old = 0
            pending[p] = old - ct * c
    return _packed(quotient, bound)
