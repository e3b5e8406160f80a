"""euler_series against the kernel-bound sweep it replaced.

The oracle interpolates chi at every nu that passes the kernel bound
nu_s <= nu_t + dim ker M_(s->t) on each arrow, with the loose degree
bound sum_v nu_v (d_v - nu_v) and so one prime per unit of it, and
keeps the nonzero answers; euler_series must find exactly those nu,
with the same Euler characteristics, from one walk of every nu at the
first good prime, walks of fewer nu at later primes, and degree bounds
capped by the counts.  The oracle reads walks of every nu, so it first
checks them, at the first two good primes, against direct_counts, which
shares no code with count_subrep_tuples, and then checks that a walk of
a nu set, at p = 2, 3 and 5, is the walk of every nu filtered to it.
At those primes every walk also equals _reference_walk, the same walk
without its subspace tables.
"""

import re
from collections import Counter
from itertools import product

import pytest

from qloop import linalg, quiverrep
from qloop.cartan import CartanData
from qloop.cli import main
from qloop.errors import ConsistencyError
from qloop.linalg import GF
from qloop.preproj import build_window, injective_module
from qloop.quiverrep import (QuiverRep, _first_good_primes, _nu_key,
                             _points, _support_walk, arrow_ranks,
                             count_subrep_tuples, euler_series,
                             grassmannian_euler, indecomposable_rep,
                             interpolate_at_one)

SMALL = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]


def _kernel_bound_sweep(M):
    """Every nu <= dim M that passes the kernel bound on each arrow.

    Yields dicts over the support without zero entries, along the walk
    order (targets first), first vertex outermost.
    """
    order, arrows = _support_walk(M)
    ranks = arrow_ranks(M)
    index = {v: k for k, v in enumerate(order)}
    bounds = {v: [] for v in order}
    for a in arrows:
        bounds[a[0]].append((index[a[1]], M.dims[a[0]] - ranks[a]))
    combo = [0] * len(order)

    def walk(idx):
        if idx == len(order):
            yield {v: n for v, n in zip(order, combo) if n}
            return
        v = order[idx]
        cap = M.dims[v]
        for k, corank in bounds[v]:
            cap = min(cap, combo[k] + corank)
        for n in range(cap + 1):
            combo[idx] = n
            yield from walk(idx + 1)
        combo[idx] = 0

    return walk(0)


def direct_counts(M, p):
    """{nu: points of Gr_nu(M) over F_p}, one subspace tuple at a time.

    Walks the support targets first and picks each U_v among all the
    subspaces of the preimage of the U_t already picked at its targets;
    no vertex is counted in closed form.
    """
    field = GF(p)
    order, arrows = _support_walk(M)
    mats = {a: [[x % p for x in row] for row in M.mats[a]] for a in arrows}
    counts = Counter()

    def walk(idx, anns, nu):
        if idx == len(order):
            counts[tuple((v, k) for v, k in zip(order, nu) if k)] += 1
            return
        v = order[idx]
        forms = [row for (s, t) in arrows if s == v
                 for row in linalg.mat_mul(anns[t], mats[(s, t)], field)]
        room = (linalg.nullspace(forms, M.dims[v], field) if forms
                else linalg.identity(M.dims[v]))
        for k in range(len(room) + 1):
            for sub in linalg.subspaces_of(room, k, field):
                ann = linalg.annihilator(sub, M.dims[v], field)
                walk(idx + 1, {**anns, v: ann}, nu + (k,))

    walk(0, {}, ())
    return dict(counts)


def _reference_walk(vertices_order, arrows, dims, mats, p, nus=None):
    """The walk of count_subrep_tuples without its tables.

    Every walk node takes its nullspace, annihilators and constraint
    products afresh, and every leaf its closed vertices' ranks.
    """
    field = GF(p)
    rows = None if nus is None else [dict(nu) for nu in nus]
    spans = {v: range(dims.get(v, 0) + 1) if rows is None
             else {row.get(v, 0) for row in rows} for v in vertices_order}
    heads = {t for (_, t) in arrows}
    tails = {s for (s, _) in arrows}
    sources = [v for v in vertices_order if v not in heads]
    sinks = [v for v in vertices_order if v not in tails]

    def degree(side):
        return sum(max((k * (dims.get(v, 0) - k) for k in spans[v]),
                       default=0) for v in side)

    closed = sources if degree(sources) >= degree(sinks) else sinks
    shut = set(closed)
    walked = [v for v in vertices_order if v not in shut]
    # the walked nu as a trie over the walked vertices; None walks all
    trie = None if rows is None else {}
    for row in rows or ():
        node = trie
        for v in walked:
            node = node.setdefault(row.get(v, 0), {})
    # arrows into closed vertices are read at the leaves only
    out_arrows = {v: [] for v in vertices_order}
    in_arrows = {v: [] for v in closed}
    for (s, t) in arrows:
        if t in shut:
            in_arrows[t].append((s, linalg.transpose(mats[(s, t)])))
        else:
            out_arrows[s].append((t, mats[(s, t)]))
    index = {v: k for k, v in enumerate(vertices_order)}
    combo = [0] * len(vertices_order)
    counts = {}

    def constraint(v, anns):
        return [row for t, m in out_arrows[v]
                for row in linalg.mat_mul(anns[t], m, field)]

    def close(chosen, anns):
        choices = []
        for b in closed:
            images = [row for s, mt in in_arrows[b]
                      for row in linalg.mat_mul(chosen[s], mt, field)]
            forms = constraint(b, anns)
            low = linalg.rank(images, field) if images else 0
            high = dims.get(b, 0) - (linalg.rank(forms, field) if forms
                                     else 0)
            choices.append([(k, linalg.gaussian_binomial(high - low, k - low,
                                                         p))
                            for k in spans[b] if low <= k <= high])
        for pick in product(*choices):
            total = 1
            for b, (k, n) in zip(closed, pick):
                combo[index[b]] = k
                total *= n
            key = tuple((v, k) for v, k in zip(vertices_order, combo) if k)
            if nus is None or key in nus:
                counts[key] = counts.get(key, 0) + total

    def walk(idx, chosen, anns, node):
        if idx == len(walked):
            close(chosen, anns)
            return
        v = walked[idx]
        dv = dims.get(v, 0)
        forms = constraint(v, anns)
        allowed = (linalg.nullspace(forms, dv, field) if forms
                   else linalg.identity(dv))
        for k in (spans[v] if node is None else node):
            combo[index[v]] = k
            child = None if node is None else node[k]
            for sub in linalg.subspaces_of(allowed, k, field):
                chosen[v] = sub
                if v in heads:
                    anns[v] = linalg.annihilator(sub, dv, field)
                walk(idx + 1, chosen, anns, child)

    walk(0, {}, {}, trie)
    return counts


def loose_bound_euler(M, nu):
    """chi at the dict nu, fitted with the degree bound sum nu (d - nu)."""
    bound = sum(n * (M.dims[v] - n) for v, n in nu.items())
    key = _nu_key(M, nu)
    return interpolate_at_one([(p, _points(M, p).get(key, 0))
                               for p in _first_good_primes(M, bound + 2)],
                              bound)


def fit_primes(M):
    """{nu: the good primes euler_series fits nu from}.

    Read from walks of every nu: a nu with points over F_p1 starts with
    the degree bound sum nu (d - nu), each prime p read lowers it to the
    largest b with p^b <= P(p), and nu stops at bound + 2 primes.
    """
    p1 = _first_good_primes(M, 1)[0]
    primes_of = {}
    for nu in _points(M, p1):
        bound = sum(k * (M.dims[v] - k) for v, k in nu)
        read = []
        while len(read) < bound + 2:
            p = _first_good_primes(M, len(read) + 1)[-1]
            read.append(p)
            while bound and p ** bound > _points(M, p).get(nu, 0):
                bound -= 1
        primes_of[nu] = read
    return primes_of


def _check_walks_of_nu_sets(M):
    """A walk of a nu set is the walk of every nu filtered to the set,
    for the set euler_series walks at p and for one nu; each of these
    walks equals _reference_walk of the same set."""
    primes_of = fit_primes(M)
    order, arrows = _support_walk(M)
    for p in (2, 3, 5):
        free = _points(M, p)
        assert free == _reference_walk(order, arrows, M.dims, M.mats, p), p
        asked = frozenset(nu for nu, ps in primes_of.items() if p in ps)
        heaviest = frozenset([max(free, key=free.get)])
        for nus in (asked, heaviest):
            walk = count_subrep_tuples(order, arrows, M.dims, M.mats, p,
                                       nus)
            assert walk == {nu: n for nu, n in free.items() if nu in nus}, p
            assert walk == _reference_walk(order, arrows, M.dims, M.mats,
                                           p, nus), p


def _swept_series(M):
    for p in _first_good_primes(M, 2):
        assert _points(M, p) == direct_counts(M, p), p
    _check_walks_of_nu_sets(M)
    series = {}
    for nu in _kernel_bound_sweep(M):
        chi = loose_bound_euler(M, nu)
        if chi:
            series[tuple(nu.items())] = chi
    return series


def _fundamental_injective(c, i):
    r = c.xi[i - 1]
    return injective_module(build_window(c, r, r + c.coxeter_number()), i, r)


@pytest.mark.parametrize("label", SMALL)
def test_euler_series_matches_sweep_on_fundamental_injectives(label):
    c = CartanData.from_label(label)
    for i in c.nodes():
        delta = _fundamental_injective(c, i)
        assert euler_series(delta) == _swept_series(delta), (label, i)


@pytest.mark.parametrize("label", SMALL)
def test_euler_series_matches_sweep_on_indecomposables(label):
    c = CartanData.from_label(label)
    for beta in c.positive_roots():
        rep = indecomposable_rep(c, beta)
        assert euler_series(rep) == _swept_series(rep), (label, beta)


@pytest.mark.parametrize("label, i", [("D6", 3), ("E6", 3)])
def test_euler_series_matches_sweep_on_larger_injectives(label, i):
    delta = _fundamental_injective(CartanData.from_label(label), i)
    assert euler_series(delta) == _swept_series(delta)


def test_a_free_walk_reads_its_subspaces_from_tables(monkeypatch):
    # without tables this walk takes 4182 rrefs, about one per walk node
    delta = _fundamental_injective(CartanData.from_label("E6"), 3)
    order, arrows = _support_walk(delta)
    calls = []
    rref = linalg.rref

    def counted(rows, field):
        calls.append(field)
        return rref(rows, field)

    monkeypatch.setattr(linalg, "rref", counted)
    counts = count_subrep_tuples(order, arrows, delta.dims, delta.mats, 2)
    assert (len(counts), sum(counts.values())) == (351, 405)
    assert len(calls) < 1000


def test_euler_series_rejects_a_walked_nu_without_positive_chi(monkeypatch):
    rep = indecomposable_rep(CartanData.from_label("A2"), (1, 1))
    monkeypatch.setattr(quiverrep, "interpolate_at_one",
                        lambda points, degree_bound: 0)
    with pytest.raises(ConsistencyError, match="not positive"):
        euler_series(rep)


def test_grassmannian_euler_matches_the_series_at_every_nu():
    c = CartanData.from_label("D4")
    reps = [indecomposable_rep(c, beta) for beta in c.positive_roots()]
    for rep in reps + [_fundamental_injective(c, 3)]:
        series = euler_series(rep)
        for nu in _kernel_bound_sweep(rep):
            assert (grassmannian_euler(rep, nu)
                    == series.get(tuple(nu.items()), 0)), nu


def _fresh(rep):
    """A copy of rep with nothing memoized on it."""
    return QuiverRep(rep.quiver, rep.dims, rep.mats)


# P(2) = 9 allows degree 3, but P(3) = 16 = (1 + 3)^2 allows only 2
E6_BETA, E6_NU = (1, 1, 2, 3, 2, 1), ((4, 2), (6, 1), (5, 1))


def test_later_primes_walk_only_the_nu_whose_fit_needs_them(monkeypatch):
    rep = indecomposable_rep(CartanData.from_label("E6"), E6_BETA)
    primes_of = fit_primes(rep)
    assert primes_of[E6_NU] == [2, 3, 5, 7]
    series = euler_series(rep)
    walks = []
    walk = quiverrep.count_subrep_tuples

    def recorded(order, arrows, dims, mats, p, nus=None):
        walks.append((p, nus))
        return walk(order, arrows, dims, mats, p, nus)

    monkeypatch.setattr(quiverrep, "count_subrep_tuples", recorded)
    m = _fresh(rep)
    assert grassmannian_euler(m, dict(E6_NU)) == 4
    assert walks == [(p, frozenset([E6_NU])) for p in (2, 3, 5, 7)]
    del walks[:]
    assert euler_series(_fresh(rep)) == series
    primes = sorted({p for ps in primes_of.values() for p in ps})
    assert walks == [(2, None)] + [
        (p, frozenset(nu for nu, ps in primes_of.items() if p in ps))
        for p in primes[1:]]


def test_a_misfit_names_its_nu_primes_and_bound(monkeypatch, capsys):
    walk = quiverrep.count_subrep_tuples

    def off_at_5(order, arrows, dims, mats, p, nus=None):
        counts = walk(order, arrows, dims, mats, p, nus)
        return {nu: n + (p == 5) for nu, n in counts.items()}

    monkeypatch.setattr(quiverrep, "count_subrep_tuples", off_at_5)
    # Gr_(0,0,1,0) of this indecomposable counts p + 1 points, degree 1
    m = _fresh(indecomposable_rep(CartanData.from_label("D4"), (1, 1, 2, 1)))
    message = ("point counts do not fit a polynomial within the degree "
               "bound: at ((3, 1),), primes [2, 3, 5], degree bound 1")
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        grassmannian_euler(m, (0, 0, 1, 0))
    # from the CLI too, with exit 1; the miscounted module is not kept
    monkeypatch.setattr(quiverrep, "_INDEC_CACHE", {})
    assert main(["rep", "euler", "--type", "D4", "--beta", "1,1,2,1",
                 "--nu", "0,0,1,0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
