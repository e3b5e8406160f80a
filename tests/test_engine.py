import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import golden_data
from weyl_oracle import weyl_invariant_weights
from test_euler_series import loose_bound_euler
from qloop import cli, engine, lpoly
from qloop.cartan import CartanData
from qloop.engine import (KRLabel, cluster_fpoly, factor_simple_c1,
                          frozen_monomial, gr_series, kr_qchar, level1_graph,
                          simple_trunc_qchar_c1, trunc_qchar_c1,
                          verify_iota, verify_l1, verify_tsystem, y_alpha)
from qloop.cli import main
from qloop.errors import ConsistencyError, InvalidInputError
from qloop.lpoly import LPoly
from qloop.preproj import a_inverse_qchar
from qloop.quiverrep import euler_series, indecomposable_rep, reflect_i1
from qloop.sl2 import kr_qchar_sl2
from qloop.ymono import (YMonomial, YPolynomial, a_monomial_exps,
                         dominant_terms, highest_monomial, truncate_c1)

A1 = CartanData.from_label("A1")
A2 = CartanData.from_label("A2")
A3 = CartanData.from_label("A3")
A4 = CartanData.from_label("A4")
A5 = CartanData.from_label("A5")
D4 = CartanData.from_label("D4")


def Y(*triples):
    return YMonomial.from_triples(triples)


def test_kr_rank_one_equals_closed_form():
    for k in range(7):
        for s in (0, 2):
            assert kr_qchar(A1, KRLabel(1, k, s)) == kr_qchar_sl2(k, s)


def test_kr_base_cases():
    assert kr_qchar(A3, KRLabel(2, 0, 1)) == YPolynomial.one()
    from qloop.preproj import fundamental_qchar
    assert kr_qchar(A3, KRLabel(2, 1, 1)) == fundamental_qchar(A3, 2, 1)


def test_kr_parity_shift():
    assert kr_qchar(A1, KRLabel(1, 2, 1)) == kr_qchar_sl2(2, 1)


def _kr_direct(c, i, k, s):
    """The T-system recursion at shift s itself, with no cache."""
    from qloop.preproj import fundamental_qchar
    if k == 0:
        return YPolynomial.one()
    if k == 1:
        return fundamental_qchar(c, i, s)
    lhs = _kr_direct(c, i, k - 1, s) * _kr_direct(c, i, k - 1, s + 2)
    prod = YPolynomial.one()
    for j in c.neighbors(i):
        prod = prod * _kr_direct(c, j, k - 1, s + 1)
    return (lhs - prod).exact_div(_kr_direct(c, i, k - 2, s + 2))


def test_kr_cache_is_normalized_by_shift(monkeypatch):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    for i in A3.nodes():
        for s in (A3.xi[i - 1], A3.xi[i - 1] + 4):
            assert kr_qchar(A3, KRLabel(i, 3, s)) == _kr_direct(A3, i, 3, s)
    assert sorted(engine._KR_CACHE, key=lambda key: key[1:]) == [
        (A3, i, k) for i in A3.nodes() for k in range(4)]


def _kr_keys(c, i, k):
    """The (c, i, k) keys the T-system recursion for T_k of node i reads."""
    keys = {(c, i, k)}
    if k >= 2:
        for j in (i, *c.neighbors(i)):
            keys |= _kr_keys(c, j, k - 1)
        keys |= _kr_keys(c, i, k - 2)
    return keys


@pytest.mark.parametrize("c, i", [(D4, 3), (A4, 2)], ids=["D4-3", "A4-2"])
def test_shared_tsystem_step_matches_the_uncached_recursion(monkeypatch, c, i):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    for s in (c.xi[i - 1], c.xi[i - 1] + 6):
        assert kr_qchar(c, KRLabel(i, 3, s)) == _kr_direct(c, i, 3, s)
    assert verify_tsystem(c, i, 2, 37)
    assert set(engine._KR_CACHE) == _kr_keys(c, i, 3)


def test_kr_a3_length_two_is_minuscule():
    poly = kr_qchar(A3, KRLabel(1, 2, 0))
    assert highest_monomial(A3, poly) == Y((1, 0, 1), (1, 2, 1))


def test_kr_minuscule_across_types():
    for c, kmax in ((A2, 3), (A3, 3), (D4, 2)):
        for i in c.nodes():
            for k in range(1, kmax + 1):
                poly = kr_qchar(c, KRLabel(i, k, c.xi[i - 1]))
                highest_monomial(c, poly)  # raises when not minuscule


def test_rank_one_exchange_identity():
    for s in (0, 2):
        lhs = kr_qchar(A1, KRLabel(1, 1, s)) * kr_qchar(A1, KRLabel(1, 1, s + 2))
        rhs = kr_qchar(A1, KRLabel(1, 2, s)) + 1
        assert lhs == rhs


@pytest.mark.parametrize("label,kmax", [("A2", 3), ("A3", 3)])
def test_tsystem_verification(label, kmax):
    c = CartanData.from_label(label)
    for i in c.nodes():
        for k in range(1, kmax + 1):
            for s in (c.xi[i - 1], c.xi[i - 1] + 1):
                assert verify_tsystem(c, i, k, s), (i, k, s)


def test_tsystem_d4_small():
    for i in D4.nodes():
        for k in (1, 2):
            for s in (D4.xi[i - 1], D4.xi[i - 1] + 1):
                assert verify_tsystem(D4, i, k, s), (i, k, s)


def test_tsystem_rejects_zero_length():
    with pytest.raises(InvalidInputError):
        verify_tsystem(A2, 1, 0, 0)


def test_tsystem_check_fails_on_a_wrong_quotient(monkeypatch, capsys):
    real = lpoly._divide_slab

    def off_by_one(rest, m, c, lo, hi):
        (t, x), *others = real(rest, m, c, lo, hi)
        return [(t, x + 1), *others]

    # the lower steps run first, so only the slabs of T_3 of node 3
    # come out wrong, and the first one's residual is not empty
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    assert verify_tsystem(D4, 3, 2, 0)
    del engine._KR_CACHE[(D4, 3, 3)]
    monkeypatch.setattr(lpoly, "_divide_slab", off_by_one)
    assert not verify_tsystem(D4, 3, 2, 0)
    assert (D4, 3, 3) not in engine._KR_CACHE
    code = main(["verify", "tsystem", "--type", "D4", "--node", "3",
                 "--k", "2", "--s", "0"])
    assert code == 1 and capsys.readouterr().out == "FAIL\n"
    # the same wrong slab fails `qchar kr`, which now checks every step
    code = main(["qchar", "kr", "--type", "D4", "--node", "3", "--k", "3",
                 "--s", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "residual is not zero" in err


@pytest.mark.parametrize("node, k", [(3, 2), (1, 2), (3, 1)],
                         ids=["lhs", "neighbour", "divisor"])
def test_tsystem_check_fails_on_a_wrong_kr_coefficient(monkeypatch, capsys,
                                                       node, k):
    # the step at D4 node 3, k = 2 reads T_2 of node 3 in lhs, T_2 of
    # node 1 among the neighbours and T_1 of node 3 as the divisor
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    assert verify_tsystem(D4, 3, 2, 0)
    right = engine._KR_CACHE[(D4, node, k)]
    m = next(right.terms())[0]
    engine._KR_CACHE[(D4, node, k)] = right + YPolynomial.from_monomial(m)
    code = main(["verify", "tsystem", "--type", "D4", "--node", "3",
                 "--k", "2", "--s", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and (out == "FAIL\n" or "T-system division" in err)


@pytest.mark.parametrize("c, i, k", [(D4, 3, 2), (A5, 3, 2), (A4, 2, 3)],
                         ids=["D4-3-2", "A5-3-2", "A4-2-3"])
def test_tsystem_step_matches_the_polynomial_route(monkeypatch, capsys,
                                                   c, i, k):
    # T_(k+1) against lhs - prod formed and divided as LPolys, and the
    # verdict and `qchar kr` output at several shifts
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    xi = c.xi[i - 1]
    want = _kr_direct(c, i, k + 1, xi)
    for s in (xi, xi + 1, xi + 6):
        assert verify_tsystem(c, i, k, s)
        got = kr_qchar(c, KRLabel(i, k + 1, s))
        assert got == want.shift(s - xi)
        for fmt in ("text", "json"):
            assert main(["qchar", "kr", "--type", c.type_label, "--node",
                         str(i), "--k", str(k + 1), "--s", str(s),
                         "--format", fmt]) == 0
            out = capsys.readouterr().out
            cli._emit_poly(want.shift(s - xi), fmt)
            assert out == capsys.readouterr().out


def test_tsystem_step_leaves_its_factors_unchanged(monkeypatch):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    assert verify_tsystem(D4, 3, 2, 0)
    before = {key: dict(p.poly.terms) for key, p in engine._KR_CACHE.items()}
    assert verify_tsystem(D4, 3, 2, 0)
    assert {key: p.poly.terms
            for key, p in engine._KR_CACHE.items()} == before


def test_tsystem_inexact_numerator_names_its_step(monkeypatch):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    t2 = kr_qchar(D4, KRLabel(3, 2, 0))
    engine._KR_CACHE[(D4, 3, 2)] = t2 + 1
    with pytest.raises(ConsistencyError, match=r"T-system division failed "
                       r"at \(i=3, k=3, s=0\): inexact"):
        verify_tsystem(D4, 3, 2, 0)


def test_tsystem_check_fails_on_a_spurious_neighbour_term(monkeypatch):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    t2 = kr_qchar(D4, KRLabel(1, 2, D4.xi[0]))
    spurious = YPolynomial.from_monomial(Y((1, D4.xi[0] + 40, 1)))
    engine._KR_CACHE[(D4, 1, 2)] = t2 + spurious
    try:
        ok = verify_tsystem(D4, 3, 2, 0)
    except ConsistencyError:
        ok = False
    assert not ok


# Peak of the memory tracemalloc traces over one check, fundamentals
# built beforehand, in a fresh interpreter: the slot table is
# process-wide, so earlier tests would widen every packed monomial.
_PEAK_SCRIPT = """
import sys, tracemalloc
from qloop import engine, preproj
from qloop.cartan import CartanData
c = CartanData.from_label(sys.argv[1])
for j in c.nodes():
    preproj.fundamental_qchar(c, j, c.xi[j - 1])
tracemalloc.start()
ok = engine.verify_tsystem(c, int(sys.argv[2]), int(sys.argv[3]), 0)
print(ok, tracemalloc.get_traced_memory()[1])
"""


def _traced_peak_mb(label, i, k):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", _PEAK_SCRIPT, label,
                          str(i), str(k)], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    ok, peak = out.stdout.split()
    assert ok == "True"
    return int(peak) / 2**20


def test_tsystem_check_memory_d4():
    # one grade of lhs - prod at a time, with neither formed: 0.87 MB
    # measured with Python 3.11 (6.20 MB with one working table of
    # lhs - prod; 10.87 MB with lhs, prod and a working copy of lhs),
    # bound 15% above
    assert _traced_peak_mb("D4", 3, 2) <= 0.87 * 1.15


@pytest.mark.slow
def test_tsystem_check_memory_d4_length_three():
    # 16.1 MB measured with Python 3.11 (207.0 MB with one working table
    # of lhs - prod; 355.0 MB with lhs, prod and a working copy of lhs),
    # bound 15% above
    assert _traced_peak_mb("D4", 3, 3) <= 16.1 * 1.15


@pytest.mark.parametrize("label, i, k, dim", [
    # the central node: V(2w) + V(w) + V(0) = 300 + 28 + 1 for w the
    # adjoint weight (Chari 2001)
    ("D4", 3, 2, 329),
    ("D4", 1, 2, 35),      # minuscule node: V(2w1) = Sym^2 minus trace
    ("E6", 1, 2, 351),     # minuscule node: V(2w1)
    ("A4", 2, 3, 175),     # V(3w2), by the hook-content formula
    # V(3w) + V(2w) + V(w) + V(0) = 1925 + 300 + 28 + 1
    pytest.param("D4", 3, 3, 2254, marks=pytest.mark.slow),
])
def test_kr_modules_have_weyl_invariant_weights_of_classical_dimension(
        label, i, k, dim):
    # an oracle outside the T-system: the underlying module's weights
    # and its dimension from the classical decomposition
    c = CartanData.from_label(label)
    poly = kr_qchar(c, KRLabel(i, k, c.xi[i - 1]))
    multiset = weyl_invariant_weights(c, poly)
    assert sum(multiset.values()) == dim


@pytest.mark.slow
def test_tsystem_d4_central_node_at_length_three(monkeypatch):
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    assert verify_tsystem(D4, 3, 3, 0)
    assert engine._KR_CACHE[(D4, 3, 4)].n_monomials() == 9885


def test_y_alpha_examples():
    assert y_alpha(D4, (0, 0, 1, 0)) == Y((3, 0, 1))
    assert y_alpha(A3, (0, -1, 0)) == Y((2, 1, 1))
    assert y_alpha(A3, (1, 1, 0)) == Y((1, 0, 1), (2, 3, 1))


def test_y_alpha_rejects_junk():
    with pytest.raises(InvalidInputError):
        y_alpha(A3, (1, 0, 1))
    with pytest.raises(InvalidInputError):
        y_alpha(A3, (-1, -1, 0))


def test_simple_trunc_at_a_source_root():
    # class-1 simple roots give the two-term polynomial m (1 + v_i)
    i = A3.i1()[0]
    beta = A3.simple_root(i)
    poly = simple_trunc_qchar_c1(A3, beta)
    assert poly.n_monomials() == 2
    top = highest_monomial(A3, poly)
    assert top == Y((i, 1, 1))


def test_simple_trunc_d4_long_root_matches_golden_truncation():
    poly = simple_trunc_qchar_c1(D4, (1, 1, 1, 1))
    assert poly == golden_data.d4_truncated_expected()
    assert poly.n_monomials() == 9


def test_truncation_of_the_d4_fundamental_agrees():
    from qloop.preproj import fundamental_qchar
    full = fundamental_qchar(D4, 3, 0)
    trunc = truncate_c1(D4, full, Y((3, 0, 1)))
    assert trunc == golden_data.d4_truncated_expected()


def test_fpoly_equals_grassmannian_series_everywhere():
    for c in (A2, A3):
        for beta in c.positive_roots():
            lhs = cluster_fpoly(c, beta)
            rhs = gr_series(c, indecomposable_rep(c, beta))
            assert lhs == rhs, beta


def test_gr_series_prune_drops_only_zero_terms():
    skipped = 0
    for c in (A3, D4):
        for beta in c.positive_roots():
            rep = indecomposable_rep(c, beta)
            every_nu = [dict(zip(rep.quiver.vertices, nu)) for nu in
                        itertools.product(*[range(d + 1) for d in beta])]
            full = LPoly([(tuple((v, n) for v, n in nu.items() if n),
                           loose_bound_euler(rep, nu)) for nu in every_nu])
            assert gr_series(c, rep) == full, beta
            skipped += len(every_nu) - len(euler_series(rep))
    assert skipped > 0


def test_verify_l1_reports():
    for label in ("A2", "A3", "A4", "D4", "D5"):
        c = CartanData.from_label(label)
        report = verify_l1(c)
        assert all(entry["pass"] for entry in report)
        assert len(report) == len(c.positive_roots()) + 1


def test_verify_l1_type_e6():
    c = CartanData.from_label("E6")
    report = verify_l1(c)
    assert all(entry["pass"] for entry in report)
    assert len(report) == 37


def test_verify_l1_monomial_set_matches_the_golden_set():
    graph = level1_graph(A3)
    monomials = set()
    for beta in A3.positive_roots():
        from qloop.quiverrep import reflect_i1
        monomials.add(y_alpha(A3, reflect_i1(A3, beta)))
    for i in A3.nodes():
        monomials.add(Y((i, A3.xi[i - 1] + 2, 1)))
    expected = {Y(*t) for t in golden_data.A3_LEVEL1_PRIME_MONOMIALS}
    assert monomials == expected


def test_d4_long_root_fpoly_has_a_coefficient_two():
    fpoly = cluster_fpoly(D4, (1, 1, 2, 1))
    assert max(c for _, c in fpoly.items()) >= 2
    assert fpoly == gr_series(D4, indecomposable_rep(D4, (1, 1, 2, 1)))


def test_level1_table_holds_each_almost_positive_root_once():
    for label in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        c = CartanData.from_label(label)
        graph = level1_graph(c)
        gens = engine._generators(c, graph)
        assert [e.factor for e in gens[:c.n]] == [
            engine.PrimeFactor("frozen", node=i) for i in c.nodes()]
        simples = gens[c.n:]
        negatives = [tuple(-x for x in c.simple_root(i)) for i in c.nodes()]
        assert (sorted(e.factor.gamma for e in simples)
                == sorted(list(c.positive_roots()) + negatives)), label
        assert ({e.variable.ident for e in simples}
                == set(graph.variables)), label
        for e in simples:
            # the initial variables carry the denominators -alpha_i
            d = e.beta or tuple(-abs(x) for x in e.factor.gamma)
            assert e.variable.dvector == d, (label, e.factor)
            assert e.monomial == y_alpha(c, e.factor.gamma)


def test_a_inverse_rule_at_level_one_is_the_v_product():
    # the level-1 correction variables v_i = A[i, xi_i + 1]^-1, as a
    # product over each Grassmannian series term
    for c in (A3, D4):
        v = {i: a_monomial_exps(c, i, c.xi[i - 1] + 1) ** -1
             for i in c.nodes()}
        for beta in c.positive_roots():
            top = y_alpha(c, reflect_i1(c, beta))
            series = gr_series(c, indecomposable_rep(c, beta))
            terms = []
            for nu, chi in series.items():
                mono = top
                for i, e in nu:
                    mono = mono * v[i] ** e
                terms.append((mono, chi))
            shared = a_inverse_qchar(
                c, top, series.map_keys(lambda i: (i, c.xi[i - 1])).items())
            assert shared == YPolynomial(terms), beta
            assert simple_trunc_qchar_c1(c, beta) == shared, beta


def test_cluster_fpoly_replays_only_the_variable_it_returns(monkeypatch):
    from qloop import cluster
    E6 = CartanData.from_label("E6")
    # a fresh graph, so that no variable has been replayed yet
    monkeypatch.setattr(engine, "_GRAPH_CACHE", {})
    calls = []
    mutate = cluster.mutate

    def counted(seed, k):
        calls.append(k)
        return mutate(seed, k)

    monkeypatch.setattr(cluster, "mutate", counted)
    beta = (1, 1, 2, 2, 1, 1)
    cluster_fpoly(E6, beta)
    replayed = [cv for cv in level1_graph(E6).variables.values()
                if "principal" in vars(cv)]
    assert [cv.dvector for cv in replayed] == [beta]
    assert len(calls) == len(replayed[0].path) > 0


def test_factor_rejects_a_table_with_a_duplicated_entry(monkeypatch):
    table = engine._generators
    monkeypatch.setattr(engine, "_generators",
                        lambda c, graph: table(c, graph) + table(c, graph)[-1:])
    m = table(A3, level1_graph(A3))[-1].monomial
    with pytest.raises(ConsistencyError, match="2 factorizations found"):
        factor_simple_c1(A3, m)


def test_factor_rejects_a_wrong_generic_decomposition(monkeypatch):
    monkeypatch.setattr(engine.quiverrep, "generic_decomposition",
                        lambda c, d: [])
    with pytest.raises(ConsistencyError, match="disagrees"):
        factor_simple_c1(A3, Y((1, 0, 1), (2, 3, 1), (3, 0, 1)))


def test_factor_single_prime():
    m = Y((1, 0, 1), (2, 3, 1), (3, 0, 1))
    factors = factor_simple_c1(A3, m)
    assert len(factors) == 1
    assert factors[0].kind == "simple" and factors[0].gamma == (1, 1, 1)


def test_factor_frozen():
    for i in A3.nodes():
        factors = factor_simple_c1(A3, frozen_monomial(A3, i))
        assert len(factors) == 1
        assert factors[0].kind == "frozen" and factors[0].node == i


def test_factor_compatible_pair():
    graph = level1_graph(A3)
    m = Y((1, 0, 1)) * Y((1, 0, 1), (2, 3, 1))
    factors = factor_simple_c1(A3, m)
    gammas = sorted(f.gamma for f in factors)
    assert gammas == [(1, 0, 0), (1, 1, 0)]


def test_factor_a_power_deeper_than_the_recursion_limit():
    # the search fixes each generator's multiplicity in one step, so a
    # factor repeated 1200 times costs one level, not 1200
    factors = factor_simple_c1(A1, Y((1, 0, 1200)))
    assert factors == [factors[0]] * 1200
    assert factors[0].kind == "simple" and factors[0].gamma == (1,)


def test_factor_rejects_monomials_outside_level_one():
    with pytest.raises(InvalidInputError):
        factor_simple_c1(A3, Y((1, 4, 1)))
    with pytest.raises(InvalidInputError):
        factor_simple_c1(A3, Y((1, 0, -1)))


def test_factor_roundtrip_random_products():
    rng = random.Random(99)
    graph = level1_graph(A3)
    gens = engine._generators(A3, graph)
    by_ident = {g.variable.ident: g for g in gens if g.variable}
    frozen_gens = [g for g in gens if g.variable is None]
    for _ in range(30):
        cl = rng.choice(graph.clusters)
        idents = rng.sample(sorted(cl), rng.randint(1, 3))
        chosen = [by_ident[i] for i in idents if i in by_ident]
        chosen += [rng.choice(frozen_gens)] * rng.randint(0, 1)
        if not chosen:
            continue
        m = YMonomial.one()
        expected = []
        for factor, mono, _, _ in chosen:
            m = m * mono
            expected.append(factor)
        got = factor_simple_c1(A3, m)
        assert sorted(got, key=lambda f: f.sort_key()) == \
            sorted(expected, key=lambda f: f.sort_key())


def test_trunc_qchar_general_monomial():
    m = Y((1, 0, 2), (2, 3, 1))
    trunc = trunc_qchar_c1(A2, m)
    dom = dominant_terms(trunc)
    assert dom.n_monomials() >= 2
    assert dom.coeff(m) == 1
    assert dom.coeff(Y((1, 0, 1))) == 1


def test_trunc_qchar_equals_direct_generic_rep_series():
    # direct route: Grassmannian series of the generic representation
    from qloop.quiverrep import generic_decomposition, rep_direct_sum
    m = Y((1, 0, 2), (2, 3, 1))
    pieces = [indecomposable_rep(A2, b)
              for b in generic_decomposition(A2, (2, 1))]
    series = gr_series(A2, rep_direct_sum(pieces))
    direct = a_inverse_qchar(
        A2, m, series.map_keys(lambda i: (i, A2.xi[i - 1])).items())
    assert trunc_qchar_c1(A2, m) == direct


def test_verify_iota_level_two():
    report = verify_iota(A2, 2)
    assert all(entry["pass"] for entry in report)
    assert any("D4" in entry["case"] for entry in report)


def test_verify_iota_rank_one():
    report = verify_iota(A1, 3)
    assert all(entry["pass"] for entry in report)


def test_qcharacters_have_a_unique_highest_monomial():
    from qloop.ymono import a_factorize
    from qloop.preproj import fundamental_qchar
    cases = [
        (A3, fundamental_qchar(A3, 2, 1)),
        (D4, fundamental_qchar(D4, 3, 0)),
        (A2, kr_qchar(A2, KRLabel(1, 2, 0))),
    ]
    for c, poly in cases:
        top = highest_monomial(c, poly)
        assert poly.coeff(top) == 1
        assert all(a_factorize(c, top, m) is not None for m, _ in poly.terms())


def test_highest_monomial_rejects_what_is_not_highest():
    top = YPolynomial.from_monomial(Y((1, 0, 1)))
    below = YPolynomial.from_monomial(Y((1, 2, -1)))
    for poly in (top + top + below,  # coefficient 2
                 top + below + YPolynomial.from_monomial(Y((1, 8, 1))),
                 top + YPolynomial.from_monomial(Y((1, 4, -1)))):  # not below
        with pytest.raises(ConsistencyError):
            highest_monomial(A1, poly)
    assert highest_monomial(A1, top + below) == Y((1, 0, 1))


def test_verify_iota_fails_on_a_term_above_the_highest_monomial(monkeypatch):
    true_kr = engine.kr_qchar

    def kr_with_a_stray_term(c, lbl):
        stray = YPolynomial.from_monomial(Y((lbl.i, lbl.s + 40, -1)))
        return true_kr(c, lbl) + (stray if lbl.k == 2 else 0)

    monkeypatch.setattr(engine, "kr_qchar", kr_with_a_stray_term)
    report = verify_iota(A1, 1)
    assert [entry["pass"] for entry in report] == [False, True, True]


def test_simple_trunc_is_top_monomial_times_fpoly():
    for beta in A3.positive_roots():
        poly = simple_trunc_qchar_c1(A3, beta)
        from qloop.quiverrep import reflect_i1
        top = y_alpha(A3, reflect_i1(A3, beta))
        fpoly = cluster_fpoly(A3, beta)
        assert poly == a_inverse_qchar(
            A3, top, fpoly.map_keys(lambda i: (i, A3.xi[i - 1])).items())


def _rectangle_dim(n_plus_1, rows, cols):
    # hook content formula for the rectangular shape rows x cols
    contents = 1
    hooks = 1
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            contents *= n_plus_1 + c - r
            hooks *= (rows - r) + (cols - c) + 1
    assert contents % hooks == 0
    return contents // hooks


def test_type_a_kr_dimensions_match_hook_content():
    for label, cases in (("A2", [(1, 2), (1, 3), (2, 2)]),
                         ("A3", [(1, 2), (2, 2), (3, 2), (2, 3)])):
        c = CartanData.from_label(label)
        for i, k in cases:
            poly = kr_qchar(c, KRLabel(i, k, c.xi[i - 1]))
            assert poly.total_mult() == _rectangle_dim(c.n + 1, i, k), (i, k)


def test_factor_empty_monomial():
    assert factor_simple_c1(A3, YMonomial.one()) == []
    assert trunc_qchar_c1(A3, YMonomial.one()) == YPolynomial.one()


def test_factor_squared_prime():
    # squares of cluster variables stay cluster monomials, so the square
    # of the long prime factors as the prime with multiplicity two
    m = Y((1, 0, 2), (2, 3, 2), (3, 0, 2))
    factors = factor_simple_c1(A3, m)
    assert [f.gamma for f in factors] == [(1, 1, 1), (1, 1, 1)]


def test_factor_frozen_and_prime_at_one_node():
    m = Y((1, 0, 2), (1, 2, 1))
    factors = factor_simple_c1(A3, m)
    kinds = sorted((f.kind, f.node or f.gamma) for f in factors)
    assert kinds == [("frozen", 1), ("simple", (1, 0, 0))]


def test_factor_squared_frozen():
    m = Y((2, 1, 2), (2, 3, 2))
    factors = factor_simple_c1(A3, m)
    assert [(f.kind, f.node) for f in factors] == [("frozen", 2)] * 2
