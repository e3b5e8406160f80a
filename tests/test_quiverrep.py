import itertools
import random

import pytest

from qloop import linalg, quiverrep
from qloop.cartan import CartanData
from qloop.errors import ConsistencyError, InvalidInputError
from qloop.linalg import GF
from qloop.preproj import build_window, injective_module
from qloop.quiverrep import (Quiver, QuiverRep, _points, _support_walk,
                             count_subrep_tuples, ext1_dim, euler_form,
                             generic_decomposition, grassmannian_count_fq,
                             grassmannian_euler, hom_dim, indecomposable_rep,
                             interpolate_at_one, reflect_i1, rep_direct_sum)

A2 = CartanData.from_label("A2")
A3 = CartanData.from_label("A3")
D4 = CartanData.from_label("D4")


def simple(c, i):
    return indecomposable_rep(c, c.simple_root(i))


def test_positive_roots_examples():
    assert A2.positive_roots() == ((0, 1), (1, 0), (1, 1))
    assert len(A3.positive_roots()) == 6
    d4_roots = D4.positive_roots()
    assert len(d4_roots) == 12
    assert (1, 1, 2, 1) in d4_roots


def test_sink_source_orientation():
    q = Quiver.sink_source(A2)
    assert q.arrows == ((2, 1),)
    q4 = Quiver.sink_source(D4)
    assert set(q4.arrows) == {(1, 3), (2, 3), (4, 3)}


def test_indecomposable_simple_and_extension():
    s1 = simple(A2, 1)
    assert s1.dim_vector() == (1, 0)
    m = indecomposable_rep(A2, (1, 1))
    assert m.dim_vector() == (1, 1)
    assert m.mats[(2, 1)] == [[1]]


def test_indecomposable_d4_highest_root():
    m = indecomposable_rep(D4, (1, 1, 2, 1))
    assert m.dim_vector() == (1, 1, 2, 1)
    images = []
    for outer in (1, 2, 4):
        col = [row[0] for row in m.mats[(outer, 3)]]
        assert any(col), "outer map must be injective"
        images.append(linalg.rref([col], linalg.QQ)[0])
    assert len({tuple(map(tuple, img)) for img in images}) == 3
    assert hom_dim(m, m) == 1


def test_indecomposable_rejects_non_roots():
    with pytest.raises(InvalidInputError):
        indecomposable_rep(A2, (2, 0))
    with pytest.raises(InvalidInputError):
        indecomposable_rep(A2, (0, 0))


def _assert_rigid_indecomposables(labels):
    for label in labels:
        c = CartanData.from_label(label)
        for beta in c.positive_roots():
            m = indecomposable_rep(c, beta)
            assert m.dim_vector() == beta
            assert all(type(x) is int for mat in m.mats.values()
                       for row in mat for x in row)
            assert hom_dim(m, m) == 1
            assert ext1_dim(m, m) == 0


def test_every_root_gives_a_rigid_indecomposable():
    _assert_rigid_indecomposables(("A2", "A3", "D4", "D5", "E6"))


@pytest.mark.slow
def test_every_e7_and_e8_root_gives_a_rigid_indecomposable():
    _assert_rigid_indecomposables(("E7", "E8"))


def test_hom_ext_examples():
    s1, s2 = simple(A2, 1), simple(A2, 2)
    assert hom_dim(s2, s2) == 1
    assert ext1_dim(s2, s2) == 0
    assert ext1_dim(s1, s2) == 0
    assert ext1_dim(s2, s1) == 1
    assert euler_form(s1.quiver, (0, 1), (1, 0)) == -1


def test_hom_rejects_mismatched_data():
    s1 = simple(A2, 1)
    t1 = simple(A3, 1)
    with pytest.raises(InvalidInputError):
        hom_dim(s1, t1)


def test_euler_form_is_one_on_roots():
    for c in (A2, A3, D4):
        q = Quiver.sink_source(c)
        for beta in c.positive_roots():
            assert euler_form(q, beta, beta) == 1


def test_generic_decomposition_examples():
    assert generic_decomposition(A2, (1, 1)) == [(1, 1)]
    assert generic_decomposition(A2, (2, 1)) == [(1, 1), (1, 0)]
    assert generic_decomposition(A2, (0, 0)) == []
    for c in (A2, A3, D4):
        for beta in c.positive_roots():
            assert generic_decomposition(c, beta) == [beta]


def test_generic_decomposition_rejects_negative():
    with pytest.raises(InvalidInputError):
        generic_decomposition(A2, (-1, 0))


def _brute_force_count(rep, nu, p):
    """Oracle: enumerate every subspace tuple over F_p directly."""
    field = GF(p)
    verts = rep.quiver.vertices
    all_subs = {v: list(linalg.subspaces_of(linalg.identity(rep.dims[v]),
                                            nu[i], field))
                for i, v in enumerate(verts)}
    count = 0
    for combo in itertools.product(*[all_subs[v] for v in verts]):
        chosen = dict(zip(verts, combo))
        ok = True
        for (s, t) in rep.quiver.arrows:
            mat = [[x % p for x in row] for row in rep.mats[(s, t)]]
            for vec in chosen[s]:
                img = [y for [y] in linalg.mat_mul(mat, [[x] for x in vec],
                                                    field)]
                ann = linalg.annihilator(chosen[t], rep.dims[t], field)
                if any(sum(a * b for a, b in zip(row, img)) % p
                       for row in ann):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_count_lines_in_a_plane():
    two_points = rep_direct_sum([simple(A2, 1), simple(A2, 1)])
    for p in (2, 3, 5):
        assert grassmannian_count_fq(two_points, (1, 0), p) == p + 1


def test_count_examples_on_the_extension():
    m = indecomposable_rep(A2, (1, 1))
    for p in (2, 3):
        assert grassmannian_count_fq(m, (0, 1), p) == 0
        assert grassmannian_count_fq(m, (1, 0), p) == 1
        assert grassmannian_count_fq(m, (1, 1), p) == 1


def test_count_rejects_a_modulus_that_is_not_prime():
    # Z/p is a field only for a prime p; 1 used to divide by zero, and
    # 4 and 9 counted in a ring with zero divisors
    m = indecomposable_rep(A2, (1, 1))
    for p in (0, 1, 4, 9):
        with pytest.raises(InvalidInputError, match=f"p = {p} "):
            grassmannian_count_fq(m, (1, 0), p)


def test_count_matches_brute_force():
    rng = random.Random(17)
    reps = [indecomposable_rep(A2, (1, 1)),
            rep_direct_sum([simple(A2, 1), indecomposable_rep(A2, (1, 1))]),
            indecomposable_rep(A3, (1, 1, 1)),
            indecomposable_rep(D4, (1, 1, 2, 1))]
    for rep in reps:
        dims = rep.dim_vector()
        for _ in range(4):
            nu = tuple(rng.randint(0, d) for d in dims)
            assert (grassmannian_count_fq(rep, nu, 2)
                    == _brute_force_count(rep, nu, 2)), (dims, nu)


def _linear_a3(m21, m32):
    """3 -> 2 -> 1 with dimensions (2, 2, 2): vertex 3 is the only
    source and vertex 1 the only sink."""
    return QuiverRep(Quiver((1, 2, 3), ((2, 1), (3, 2))),
                     {1: 2, 2: 2, 3: 2}, {(2, 1): m21, (3, 2): m32})


def test_closed_form_count_matches_brute_force_on_both_sides():
    # (3, 2) -> (1, 2) has rank 1 mod 2 and mod 3 but rank 2 over Q
    rep = _linear_a3([[1, 0], [0, 0]], [[1, 2], [-1, 4]])
    closed_sources = set()
    for nu in itertools.product(range(3), repeat=3):
        # the closed side is the one with the larger nu_v (d_v - nu_v)
        closed_sources.add(nu[2] * (2 - nu[2]) >= nu[0] * (2 - nu[0]))
        for p in (2, 3):
            assert (grassmannian_count_fq(rep, nu, p)
                    == _brute_force_count(rep, nu, p)), (nu, p)
    assert closed_sources == {True, False}


def test_closed_form_count_matches_brute_force_on_window_modules():
    w = build_window(D4, 0, 6)
    inj = injective_module(w, 3, 0)
    # a simple at the top of the window meets no arrow of the support
    top = QuiverRep(w.quiver, {(3, 6): 2}, {})
    rng = random.Random(5)
    for rep in (inj, rep_direct_sum([inj, top])):
        dims = rep.dim_vector()
        for _ in range(12):
            nu = tuple(rng.randint(0, d) for d in dims)
            for p in (2, 3):
                assert (grassmannian_count_fq(rep, nu, p)
                        == _brute_force_count(rep, nu, p)), (nu, p)


def test_closed_vertex_without_room_counts_zero():
    rep = _linear_a3([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    # sink 1 closed: the image of U_2 = F^2 does not fit in a line
    # source 3 closed: U_3 must map into U_2 = 0, and ker M_(3,2) = 0
    for nu in ((1, 2, 0), (0, 0, 1)):
        for p in (2, 3):
            assert grassmannian_count_fq(rep, nu, p) == 0
            assert _brute_force_count(rep, nu, p) == 0


def test_free_walk_matches_brute_force():
    w = build_window(D4, 0, 6)
    reps = [_linear_a3([[1, 0], [0, 0]], [[1, 2], [-1, 4]]),
            _linear_a3([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
            indecomposable_rep(D4, (1, 1, 2, 1)),
            injective_module(w, 3, 0)]
    for rep in reps:
        order, arrows = _support_walk(rep)
        verts = rep.quiver.vertices
        for p in (2, 3):
            mats = {a: [[x % p for x in row] for row in m]
                    for a, m in rep.mats.items()}
            free = count_subrep_tuples(order, arrows, rep.dims, mats, p)
            brute, every = {}, []
            for nu in itertools.product(*[range(d + 1)
                                          for d in rep.dim_vector()]):
                dims = dict(zip(verts, nu))
                key = tuple((v, dims[v]) for v in order if dims[v])
                every.append(key)
                n = _brute_force_count(rep, nu, p)
                if n:
                    brute[key] = n
            assert free == brute, (rep.dim_vector(), p)
            # walks of nu sets: each nu alone, and every other nu
            for nus in [[key] for key in every] + [every[::2]]:
                assert (count_subrep_tuples(order, arrows, rep.dims, mats,
                                            p, frozenset(nus))
                        == {nu: brute[nu] for nu in nus if nu in brute})


def test_count_split_sums_to_total_subrep_count():
    m = indecomposable_rep(D4, (1, 1, 2, 1))
    p = 3
    total = 0
    for nu in itertools.product(*[range(d + 1) for d in m.dim_vector()]):
        total += grassmannian_count_fq(m, nu, p)
    assert total == _brute_force_total(m, p)


def _brute_force_total(rep, p):
    total = 0
    for nu in itertools.product(*[range(d + 1) for d in rep.dim_vector()]):
        total += _brute_force_count(rep, nu, p)
    return total


def test_count_rejects_oversized_nu():
    m = indecomposable_rep(A2, (1, 1))
    with pytest.raises(InvalidInputError):
        grassmannian_count_fq(m, (2, 0), 3)
    # negative entries too, and grassmannian_euler shares the check
    m = indecomposable_rep(D4, (1, 1, 2, 1))
    for nu in ((2, 0, 0, 0), (-1, 0, 0, 0), {3: 3}, {3: -1}):
        with pytest.raises(InvalidInputError):
            grassmannian_count_fq(m, nu, 2)
        with pytest.raises(InvalidInputError):
            grassmannian_euler(m, nu)


def test_interpolate_at_one_recovers_a_known_polynomial():
    # 3x^3 - 2x + 5; a larger degree bound fits a zero top coefficient
    points = [(p, 3 * p ** 3 - 2 * p + 5) for p in (2, 3, 5, 7, 11, 13)]
    assert interpolate_at_one(points, 3) == 6
    assert interpolate_at_one(points, 4) == 6
    assert interpolate_at_one([(2, 7), (3, 7)], 0) == 7


def test_interpolate_at_one_rejects_a_negative_degree_bound():
    with pytest.raises(InvalidInputError):
        interpolate_at_one([], -3)
    with pytest.raises(InvalidInputError):
        interpolate_at_one([(2, 1), (3, 1)], -1)


def test_interpolate_at_one_needs_a_spare_point():
    points = [(p, p + 1) for p in (2, 3, 5)]
    with pytest.raises(InvalidInputError, match="not enough"):
        interpolate_at_one(points, 2)


def test_interpolate_at_one_rejects_a_point_off_the_fit():
    points = [(p, p * p + 1) for p in (2, 3, 5)] + [(7, 51)]
    with pytest.raises(ConsistencyError, match="do not fit"):
        interpolate_at_one(points, 2)


def test_interpolate_at_one_rejects_a_non_integral_fit():
    # x (x - 1) / 2 is integer valued with coefficients 1/2
    points = [(p, p * (p - 1) // 2) for p in (2, 3, 5, 7)]
    with pytest.raises(ConsistencyError, match="not integral"):
        interpolate_at_one(points, 2)


def test_euler_examples():
    two_points = rep_direct_sum([simple(A2, 1), simple(A2, 1)])
    assert grassmannian_euler(two_points, (1, 0)) == 2
    m = indecomposable_rep(D4, (1, 1, 2, 1))
    assert grassmannian_euler(m, (0, 0, 0, 0)) == 1
    assert grassmannian_euler(m, (1, 1, 2, 1)) == 1
    assert grassmannian_euler(m, (0, 0, 1, 0)) == 2  # a projective line


def test_euler_nonnegative_on_indecomposables():
    for c in (A2, A3, D4):
        for beta in c.positive_roots():
            m = indecomposable_rep(c, beta)
            for nu in itertools.product(*[range(d + 1)
                                          for d in m.dim_vector()]):
                assert grassmannian_euler(m, nu) >= 0


def test_type_a_grassmannians_are_points():
    for c in (A2, A3):
        for beta in c.positive_roots():
            m = indecomposable_rep(c, beta)
            for nu in itertools.product(*[range(d + 1)
                                          for d in m.dim_vector()]):
                assert grassmannian_euler(m, nu) in (0, 1)


def test_reflect_i1_examples():
    assert reflect_i1(A3, (0, 1, 0)) == (0, -1, 0)
    assert reflect_i1(A3, (1, 1, 0)) == (1, 0, 0)
    assert reflect_i1(A3, (1, 0, 0)) == (1, 1, 0)


def test_reflect_i1_is_an_involution_on_positives():
    for c in (A2, A3, D4):
        for beta in c.positive_roots():
            img = reflect_i1(c, beta)
            if min(img) >= 0:
                assert reflect_i1(c, img) == beta


def test_reflect_i1_rejects_non_roots():
    with pytest.raises(InvalidInputError):
        reflect_i1(A3, (1, 0, 1))


def test_zero_module_has_one_empty_subrep():
    zero = QuiverRep(Quiver.sink_source(A2), {1: 0, 2: 0}, {})
    assert grassmannian_count_fq(zero, (0, 0), 3) == 1
    assert grassmannian_euler(zero, (0, 0)) == 1


def test_topological_order_breaks_ties_by_position():
    q = Quiver(("b", "a", "c"), (("c", "a"),))
    assert q.topological_targets_first() == ["b", "a", "c"]


def test_euler_ranks_each_prime_once(monkeypatch):
    m = QuiverRep(Quiver((1, 2), ((1, 2),)), {1: 2, 2: 1}, {(1, 2): [[1, 1]]})
    calls = []
    rank = linalg.rank

    def counted(rows, field):
        # the good-prime test ranks the arrow matrix itself, not a copy
        if isinstance(field, GF) and rows is m.mats[(1, 2)]:
            calls.append(field.p)
        return rank(rows, field)

    monkeypatch.setattr(linalg, "rank", counted)
    first = [grassmannian_euler(m, nu) for nu in ((1, 0), (1, 1), (2, 1))]
    second = [grassmannian_euler(m, nu) for nu in ((1, 0), (1, 1), (2, 1))]
    assert first == second == [1, 2, 1]
    assert len(calls) > 1 and len(calls) == len(set(calls))


@pytest.mark.parametrize("p", [2, 3])
def test_points_read_integer_matrices_mod_p(p):
    rng = random.Random(p)
    quiver = Quiver((1, 2, 3), ((1, 2), (2, 3)))
    # the first dimensions close the source, the second the sink
    for dims in ({1: 2, 2: 3, 3: 1}, {1: 1, 2: 3, 3: 2}):
        mats = {(s, t): [[rng.randint(-9, 9) for _ in range(dims[s])]
                         for _ in range(dims[t])] for s, t in quiver.arrows}
        entries = [x for m in mats.values() for row in m for x in row]
        assert min(entries) < 0 and max(entries) >= p
        reduced = {a: [[x % p for x in row] for row in m]
                   for a, m in mats.items()}
        assert (_points(QuiverRep(quiver, dims, mats), p)
                == _points(QuiverRep(quiver, dict(dims), reduced), p)), dims


def test_grassmannian_euler_walks_only_its_nu(monkeypatch):
    walks = []
    walk = quiverrep.count_subrep_tuples

    def recorded(order, arrows, dims, mats, p, nus=None):
        counts = walk(order, arrows, dims, mats, p, nus)
        walks.append((nus, counts))
        return counts

    monkeypatch.setattr(quiverrep, "count_subrep_tuples", recorded)
    # a fresh copy, so that no walk is memoized yet
    m = indecomposable_rep(D4, (1, 1, 2, 1))
    m = QuiverRep(m.quiver, m.dims, m.mats)
    assert grassmannian_euler(m, (0, 0, 1, 0)) == 2
    assert walks
    assert all(nus == {((3, 1),)} and list(counts) == [((3, 1),)]
               for nus, counts in walks)
    # no points over the first good prime: one walk, and chi = 0
    del walks[:]
    assert grassmannian_euler(m, (1, 0, 0, 0)) == 0
    assert walks == [({((1, 1),)}, {})]
