from math import comb

import pytest

import golden_data
from weyl_oracle import weyl_invariant_weights
from qloop import linalg
from qloop.cartan import CartanData
from qloop.errors import InvalidInputError, WindowTooSmallError
from qloop.linalg import QQ
from qloop.preproj import (a_inverse_qchar, build_window, check_relations,
                           fundamental_qchar, injective_module, standard_qchar)
from qloop.quiverrep import (QuiverRep, _support_walk, euler_series,
                             rep_direct_sum)
from qloop.sl2 import kr_qchar_sl2
from qloop.ymono import YMonomial, YPolynomial, dominant_terms, weight

A1 = CartanData.from_label("A1")
A2 = CartanData.from_label("A2")
A3 = CartanData.from_label("A3")
A4 = CartanData.from_label("A4")
D4 = CartanData.from_label("D4")
D5 = CartanData.from_label("D5")


def support(rep):
    return sorted(v for v, d in rep.dims.items() if d)


def test_window_vertices_match_the_repetition_pattern():
    w = build_window(A3, 0, 5)
    low = [v for v in w.quiver.vertices if v[1] <= 2]
    assert low == [(1, 0), (3, 0), (2, 1), (1, 2), (3, 2)]
    # each vertex two degrees above the floor carries one relation
    assert set(w.relations) == {v for v in w.quiver.vertices if v[1] >= 2}


def test_window_rejects_empty_range():
    with pytest.raises(InvalidInputError):
        build_window(A3, 3, 3)


def test_d4_center_vertex_arrow_pattern():
    w = build_window(D4, 0, 4)
    incoming = [a for a in w.quiver.arrows if a[1] == (3, 2)]
    outgoing = [a for a in w.quiver.arrows if a[0] == (3, 2)]
    assert len(incoming) == 3 and len(outgoing) == 3


def test_injective_d4_dimensions():
    w = build_window(D4, 0, 6)
    delta = injective_module(w, 3, 0)
    assert sum(delta.dims.values()) == 10
    assert delta.dims.get((3, 2), 0) == 2
    assert all(delta.dims.get(v, 0) == 1 for v in support(delta)
               if v != (3, 2))
    assert check_relations(w, delta)
    assert all(type(x) is int for m in delta.mats.values()
               for row in m for x in row)


def test_injective_socle_is_one_dimensional():
    w = build_window(A3, 0, 6)
    for (i, r) in ((1, 0), (3, 0), (2, 1)):
        delta = injective_module(w, i, r)
        assert delta.dims.get((i, r), 0) == 1


def test_injective_type_a_end_node_is_a_flag():
    # the end-node injective has a one-dimensional space on one diagonal
    for c in (A2, A3, A4):
        w = build_window(c, 0, c.coxeter_number())
        delta = injective_module(w, 1, 0)
        assert sum(delta.dims.values()) == c.n
        assert support(delta) == [(k, k - 1) for k in c.nodes()]


def test_injective_window_too_small():
    w = build_window(D4, 0, 3)
    with pytest.raises(WindowTooSmallError):
        injective_module(w, 3, 0)
    with pytest.raises(WindowTooSmallError):
        injective_module(build_window(D4, 0, 6), 3, 8)


def test_injective_rejects_bad_vertex():
    w = build_window(A3, 0, 5)
    with pytest.raises(InvalidInputError):
        injective_module(w, 1, 1)


def test_fundamental_a3_matches_golden_values():
    assert (fundamental_qchar(A3, 1, 0)
            == golden_data.a3_fundamental_node1_expected())
    assert (fundamental_qchar(A3, 2, 1)
            == golden_data.a3_fundamental_node2_expected())


def test_fundamental_d4_term_by_term():
    poly = fundamental_qchar(D4, 3, 0)
    assert poly == golden_data.d4_fundamental_expected()
    assert poly.n_monomials() == 28
    assert poly.total_mult() == 29


def test_fundamental_parity_validation():
    with pytest.raises(InvalidInputError):
        fundamental_qchar(A3, 1, 1)


def test_fundamental_shift_covariance():
    # the public route shifts a base computation; recompute one directly
    direct = standard_qchar(A3, {(1, 2): 1})
    assert direct == fundamental_qchar(A3, 1, 0).shift(2)
    direct_odd = standard_qchar(A3, {(2, 3): 1})
    assert direct_odd == fundamental_qchar(A3, 2, 1).shift(2)


def test_fundamentals_are_minuscule():
    for c in (A2, A3, D4):
        for i in c.nodes():
            poly = fundamental_qchar(c, i, c.xi[i - 1])
            dom = list(dominant_terms(poly).terms())
            assert len(dom) == 1 and dom[0][1] == 1


def test_standard_single_slot_is_fundamental():
    assert standard_qchar(A3, {(2, 1): 1}) == fundamental_qchar(A3, 2, 1)
    assert standard_qchar(A3, {}) == YPolynomial.one()


def test_standard_rank_one_pair_and_its_dominant_part():
    w = {(1, 0): 1, (1, 2): 1}
    poly = standard_qchar(A1, w)
    assert poly == kr_qchar_sl2(1, 0) * kr_qchar_sl2(1, 2)
    dom = dominant_terms(poly)
    expected = (YPolynomial.from_monomial(
        YMonomial.from_triples(((1, 0, 1), (1, 2, 1)))) + YPolynomial.one())
    assert dom == expected


def test_standard_rank_one_multiplicities_are_binomial():
    k = 3
    poly = standard_qchar(A1, {(1, 0): k})
    coeffs = sorted(c for _, c in poly.terms())
    assert coeffs == sorted(comb(k, j) for j in range(k + 1))
    assert poly == fundamental_qchar(A1, 1, 0) ** k


def test_standard_is_multiplicative():
    cases = [
        (A2, {(1, 0): 1, (2, 1): 1}),
        (A3, {(1, 0): 1, (3, 0): 1}),
        (A3, {(2, 1): 2}),
        (D4, {(1, 1): 1, (3, 0): 1}),
    ]
    for c, w in cases:
        prod = YPolynomial.one()
        for (i, r), mult in w.items():
            prod = prod * fundamental_qchar(c, i, r) ** mult
        assert standard_qchar(c, w) == prod


def test_standard_validation():
    with pytest.raises(InvalidInputError):
        standard_qchar(A3, {(1, 1): 1})
    with pytest.raises(InvalidInputError):
        standard_qchar(A3, {(1, 0): -1})


def test_d4_weight_image_is_weyl_invariant_of_dimension_29():
    multiset = weyl_invariant_weights(D4, fundamental_qchar(D4, 3, 0))
    assert sum(multiset.values()) == 29
    zero = weight(YMonomial.one())
    # adjoint zero-weight space (rank four) plus the trivial summand
    assert multiset.get(zero, 0) == 5


def test_direct_sum_shapes():
    w = build_window(A3, 0, 4)
    d1 = injective_module(w, 1, 0)
    d2 = injective_module(w, 3, 0)
    s = rep_direct_sum([d1, d2])
    assert sum(s.dims.values()) == (sum(d1.dims.values())
                                    + sum(d2.dims.values()))
    assert check_relations(w, s)


def test_relation_check_rejects_a_broken_module():
    w = build_window(A3, 0, 6)
    delta = injective_module(w, 2, 1)
    assert check_relations(w, delta)
    delta.mats[((2, 3), (1, 2))] = [[2 * x for x in row]
                                    for row in delta.mats[((2, 3), (1, 2))]]
    assert not check_relations(w, delta)


def test_window_walk_order_is_degree_then_node():
    # the point count walks the support targets first, ties by position
    w = build_window(D5, 0, D5.coxeter_number())
    delta = injective_module(w, 3, 0)
    order, arrows = _support_walk(delta)
    assert order == sorted(support(delta), key=lambda v: (v[1], v[0]))
    assert all(delta.dims[s] and delta.dims[t] for s, t in arrows)


def test_fundamental_dimensions_match_classical_theory():
    # underlying spaces restrict to known classical modules: exterior
    # powers in type A, spinor/vector/sum-of-exterior-powers in type D
    for n in (1, 2, 3, 4):
        c = CartanData.from_label(f"A{n}")
        for i in c.nodes():
            dim = fundamental_qchar(c, i, c.xi[i - 1]).total_mult()
            assert dim == comb(n + 1, i), (n, i)
    d4_dims = {i: fundamental_qchar(D4, i, D4.xi[i - 1]).total_mult()
               for i in D4.nodes()}
    assert d4_dims == {1: 8, 2: 8, 3: 29, 4: 8}


def test_fundamental_dimensions_d5():
    d5 = CartanData.from_label("D5")
    dims = {i: fundamental_qchar(d5, i, d5.xi[i - 1]).total_mult()
            for i in d5.nodes()}
    # spinors, spinor, lambda^3 + vector, lambda^2 + trivial, vector
    assert dims == {1: 16, 2: 16, 3: 130, 4: 46, 5: 10}


def _assert_fundamental(label, i, dim):
    c = CartanData.from_label(label)
    r = c.xi[i - 1]  # the shift parity node i needs
    poly = fundamental_qchar(c, i, r)
    assert poly.total_mult() == dim, (label, i)
    dom = list(dominant_terms(poly).terms())
    assert dom == [(YMonomial([((i, r), 1)]), 1)], (label, i)


@pytest.mark.parametrize("label, i, dim", [
    ("E6", 1, 27),   # the classical 27
    ("E6", 2, 79),   # adjoint 78 plus trivial
    ("E6", 3, 378),  # 351 + 27
    ("E6", 5, 378),  # its dual
    ("E6", 6, 27),   # the dual 27
    ("E7", 1, 134),  # adjoint 133 plus trivial
    ("E7", 2, 968),  # V(w2) + V(w7) = 912 + 56
    ("E7", 7, 56),   # the minuscule 56
    ("E8", 8, 249),  # adjoint 248 plus trivial
])
def test_exceptional_fundamental_dimensions(label, i, dim):
    _assert_fundamental(label, i, dim)


def test_e6_node4_fundamental_is_weyl_invariant():
    # No independent oracle confirms 3732 yet: it fits the restriction
    # V(w4) + V(w1 + w6) + 2 V(w2) + V(0) = 2925 + 650 + 2 * 78 + 1, and
    # a Frenkel-Mukhin run would check it (ROADMAP item 2).
    e6 = CartanData.from_label("E6")
    poly = fundamental_qchar(e6, 4, e6.xi[3])
    assert poly.n_monomials() == 2925
    assert poly.total_mult() == 3732
    weyl_invariant_weights(e6, poly)


@pytest.mark.slow
def test_e7_node5_fundamental_is_weyl_invariant():
    # No independent oracle confirms 27664 monomials and total
    # multiplicity 36080 yet; a Frenkel-Mukhin run would check them
    # (ROADMAP item 2).  Takes under a minute on a 2-core host.
    e7 = CartanData.from_label("E7")
    poly = fundamental_qchar(e7, 5, e7.xi[4])
    assert poly.n_monomials() == 27664
    assert poly.total_mult() == 36080
    weyl_invariant_weights(e7, poly)
    assert list(dominant_terms(poly).terms()) == [
        (YMonomial([((5, e7.xi[4]), 1)]), 1)]


# --- oracle: injectives as duals of explicit path spaces --------------------

def _paths_down(window, target):
    """All descending paths from each vertex to target, as arrow tuples."""
    out_arrows = {}
    for a in window.quiver.arrows:
        out_arrows.setdefault(a[0], []).append(a)
    paths = {target: [()]}
    for r in range(target[1] + 1, window.r_hi + 1):
        for v in window.quiver.vertices:
            if v[1] != r:
                continue
            found = [(a,) + p for a in sorted(out_arrows.get(v, []))
                     for p in paths.get(a[1], [])]
            if found:
                paths[v] = found
    return paths


def _relation_vectors(window, v, target, paths, index):
    """Span of p . sigma_(u,t) . q inside the path space of v -> target."""
    vset = set(window.quiver.vertices)
    vectors = []
    # every route v -> midpoint is a prefix of some full path into target
    prefixes = set()
    for p in paths.get(v, []):
        node = v
        for ln in range(len(p) + 1):
            prefixes.add((node, p[:ln]))
            if ln < len(p):
                node = p[ln][1]
    for (node, pref) in sorted(prefixes):
        (u, t) = node
        if (u, t - 2) not in vset or t - 2 < target[1]:
            continue
        for tail in paths.get((u, t - 2), []):
            vec = [0] * len(paths[v])
            for j in window.c.neighbors(u):
                mid = (j, t - 1)
                if mid in vset:
                    full = pref + ((node, mid), (mid, (u, t - 2))) + tail
                    vec[index[full]] += 1
            if any(vec):
                vectors.append(vec)
    return vectors


def _quotient_data(vectors, dim):
    """Quotient of Q^dim by the span: (rref rows, pivots, basis indices)."""
    red, pivots = linalg.rref(vectors, QQ) if vectors else ([], [])
    return red, pivots, [i for i in range(dim) if i not in pivots]


def _path_space_injective(window, i, r):
    """The injective at (i, r) as duals of path spaces mod relations."""
    target = (i, r)
    paths = _paths_down(window, target)
    quots, dims = {}, {}
    for v in window.quiver.vertices:
        plist = sorted(paths.get(v, []))
        index = {p: k for k, p in enumerate(plist)}
        rel = _relation_vectors(window, v, target, paths, index)
        quots[v] = _quotient_data(rel, len(plist)) + (index, plist)
        dims[v] = len(quots[v][2])
    mats = {}
    for a in window.quiver.arrows:
        red, pivots, free_s, index_s, _ = quots[a[0]]
        _, _, free_t, _, plist_t = quots[a[1]]
        rows = []
        for p in (plist_t[k] for k in free_t):
            vec = [QQ.zero] * len(index_s)
            vec[index_s[(a,) + p]] = QQ.one
            for row, pc in zip(red, pivots):
                f = vec[pc]
                if f:
                    vec = [x - f * y for x, y in zip(vec, row)]
            assert all(vec[k].denominator == 1 for k in free_s)
            rows.append([vec[k].numerator for k in free_s])
        mats[a] = rows
    return QuiverRep(window.quiver, dims, mats)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_knitted_injectives_match_path_space_oracle(label):
    c = CartanData.from_label(label)
    for i in c.nodes():
        r = c.xi[i - 1]
        w = build_window(c, r, r + c.coxeter_number())
        knit = injective_module(w, i, r)
        oracle = _path_space_injective(w, i, r)
        assert knit.dims == oracle.dims, (label, i)
        for a in w.quiver.arrows:
            assert (linalg.rank(knit.mats[a], QQ)
                    == linalg.rank(oracle.mats[a], QQ)), (label, i, a)
            assert all(type(x) is int for row in knit.mats[a] for x in row)
        assert check_relations(w, oracle)
        # fundamental_qchar is the Grassmannian sum over the knitted one
        top = YMonomial([((i, r), 1)])
        assert (a_inverse_qchar(c, top, euler_series(oracle).items())
                == fundamental_qchar(c, i, r)), (label, i)
