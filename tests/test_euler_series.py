"""euler_series against the kernel-bound sweep it replaced.

The oracle asks grassmannian_euler at every nu that passes the kernel
bound nu_s <= nu_t + dim ker M_(s->t) on each arrow, and keeps the
nonzero answers; euler_series must find exactly those nu, with the same
Euler characteristics, from one walk at the first good prime.
"""

import pytest

from qloop import quiverrep
from qloop.cartan import CartanData
from qloop.errors import ConsistencyError
from qloop.preproj import build_window, injective_module
from qloop.quiverrep import (_support_walk, arrow_ranks, euler_series,
                             grassmannian_euler, indecomposable_rep)

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


def _swept_series(M):
    series = {}
    for nu in _kernel_bound_sweep(M):
        chi = grassmannian_euler(M, nu)
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


@pytest.mark.slow
@pytest.mark.parametrize("label, i", [("D6", 3), ("E6", 3)])
def test_euler_series_matches_sweep_slow(label, i):
    delta = _fundamental_injective(CartanData.from_label(label), i)
    assert euler_series(delta) == _swept_series(delta)


def test_euler_series_rejects_a_walked_nu_without_positive_chi(monkeypatch):
    rep = indecomposable_rep(CartanData.from_label("A2"), (1, 1))
    monkeypatch.setattr(quiverrep, "grassmannian_euler", lambda M, nu: 0)
    with pytest.raises(ConsistencyError, match="not positive"):
        euler_series(rep)
