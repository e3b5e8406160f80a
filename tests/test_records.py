"""Value semantics of the record classes: the equality, hashing and order
that callers rely on, and the checks their constructors make."""

import pytest

from qloop import engine
from qloop.cartan import CartanData
from qloop.cluster import gamma_seed, mutate
from qloop.engine import KRLabel, kr_qchar
from qloop.errors import InvalidInputError
from qloop.quiverrep import Quiver
from qloop.sl2 import Segment, canonical_segments
from qloop.ymono import YMonomial


def test_equal_cartan_data_share_cache_entries(monkeypatch):
    a, b = CartanData.from_label("D4"), CartanData.from_label("D4")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != CartanData.from_label("D5")
    monkeypatch.setattr(engine, "_KR_CACHE", {})
    expected = kr_qchar(a, KRLabel(1, 1, 1))
    filled = dict(engine._KR_CACHE)
    assert kr_qchar(b, KRLabel(1, 1, 1)) == expected
    assert engine._KR_CACHE == filled


def test_cartan_data_keeps_its_checks():
    with pytest.raises(InvalidInputError, match="bipartition"):
        CartanData("A2", 2, ((1, 2),), (0, 0))
    with pytest.raises(InvalidInputError, match="bad edge"):
        CartanData("A2", 2, ((1, 3),), (0, 1))


def test_kr_labels_compare_and_hash_by_value():
    assert KRLabel(2, 3, 1) == KRLabel(2, 3, 1)
    assert hash(KRLabel(2, 3, 1)) == hash(KRLabel(2, 3, 1))
    assert KRLabel(2, 3, 1) != KRLabel(2, 3, 3)
    assert len({KRLabel(1, 2, 0), KRLabel(1, 2, 0), KRLabel(2, 2, 0)}) == 2


def test_segments_sort_by_origin_then_length():
    # greedy extraction meets Segment(0, 2) before Segment(0, 1)
    m = YMonomial([((1, 0), 2), ((1, 2), 1)])
    assert canonical_segments(m) == [Segment(0, 1), Segment(0, 2)]
    assert sorted([Segment(2, 1), Segment(0, 3)]) == [Segment(0, 3),
                                                      Segment(2, 1)]
    with pytest.raises(InvalidInputError):
        Segment(0, 0)


def test_quivers_and_seeds_compare_by_value():
    a2 = CartanData.from_label("A2")
    assert Quiver.sink_source(a2) == Quiver.sink_source(a2)
    assert hash(Quiver.sink_source(a2)) == hash(Quiver.sink_source(a2))
    s = gamma_seed(a2, 1)
    assert s == gamma_seed(a2, 1)
    assert all(mutate(s, k) != s for k in s.mutable)
