"""Unit tests for the tECS data structure (paper Section 5.1-5.2)."""
import pytest

from repro.core.enumerate import enumerate_matches
from repro.core.tecs import DEAD, TECS, Bottom, Output, Union, is_safe, odepth


@pytest.fixture()
def tecs():
    return TECS(debug=True)


def test_bottom_carries_pos_and_maxstart(tecs):
    b = tecs.bottom(3, 3.0)
    assert b.pos == 3 and b.max_start == 3.0
    assert odepth(b) == 0 and is_safe(b)


def test_extend_preserves_maxstart(tecs):
    b = tecs.bottom(1, 1.0)
    o = tecs.extend(b, 5)
    assert o.pos == 5 and o.child is b and o.max_start == 1.0
    assert is_safe(o)


def test_union_of_nonunion_nodes_gadget_a(tecs):
    b1, b2 = tecs.bottom(2, 2.0), tecs.bottom(2, 2.0)
    u = tecs.union(b1, b2)
    assert isinstance(u, Union)
    assert u.left is b1 and u.right is b2
    assert u.max_start == 2.0 and is_safe(u)


def test_union_gadget_b_puts_nonunion_left(tecs):
    b = tecs.bottom(2, 2.0)
    u0 = tecs.union(tecs.bottom(2, 2.0), tecs.bottom(2, 2.0))
    u = tecs.union(u0, b)  # n1 union, n2 non-union -> gadget (b)
    assert u.left is b and u.right is u0
    assert is_safe(u)


def test_union_of_unions_gadgets_cd(tecs):
    def mk(max1, max2):
        # a safe union node with overall max-start max1, right max-start max2
        a = tecs.extend(tecs.bottom(0, max1), 1)
        b = tecs.extend(tecs.bottom(0, max2), 1)
        return tecs.merge([a, b])

    u1 = mk(9.0, 5.0)
    u2 = mk(9.0, 7.0)  # max(right(u2)) > max(right(u1)) -> gadget (d)
    u = tecs.union(u1, u2)
    assert is_safe(u)
    assert odepth(u) <= 3
    u3 = mk(9.0, 3.0)
    v = tecs.union(mk(9.0, 5.0), u3)  # gadget (c)
    assert is_safe(v) and odepth(v) <= 3


def test_union_requires_equal_maxstart(tecs):
    with pytest.raises(AssertionError):
        tecs.union(tecs.bottom(0, 1.0), tecs.bottom(0, 2.0))


def test_merge_single_returns_node(tecs):
    b = tecs.bottom(0, 0.0)
    assert tecs.merge([b]) is b


def test_merge_chain_time_ordered_and_safe(tecs):
    ns = [tecs.bottom(i, float(10 - i)) for i in range(4)]
    u = tecs.merge(ns)
    assert is_safe(u)
    assert u.max_start == 10.0


def test_insert_union_on_equal_max(tecs):
    ul = [tecs.bottom(5, 5.0), tecs.bottom(3, 3.0)]
    n = tecs.extend(tecs.bottom(3, 3.0), 4)
    tecs.insert(ul, n)
    assert len(ul) == 2
    assert isinstance(ul[1], Union)


def test_insert_position_keeps_sorted_order(tecs):
    ul = [tecs.bottom(5, 5.0), tecs.bottom(4, 4.0), tecs.bottom(1, 1.0)]
    tecs.insert(ul, tecs.bottom(2, 2.0))
    assert [n.max_start for n in ul] == [5.0, 4.0, 2.0, 1.0]


def test_insert_equal_to_head_goes_position_one(tecs):
    ul = [tecs.bottom(5, 5.0), tecs.bottom(1, 1.0)]
    tecs.insert(ul, tecs.bottom(5, 5.0))
    assert [n.max_start for n in ul] == [5.0, 5.0, 1.0]
    # head stays non-union
    assert isinstance(ul[0], Bottom)


def test_insert_append_at_tail(tecs):
    ul = [tecs.bottom(5, 5.0)]
    tecs.insert(ul, tecs.bottom(2, 2.0))
    assert [n.max_start for n in ul] == [5.0, 2.0]


def test_insert_rejects_larger_than_head(tecs):
    ul = [tecs.bottom(2, 2.0)]
    with pytest.raises(AssertionError):
        tecs.insert(ul, tecs.bottom(9, 9.0))


def test_node_counter_tracks_creation(tecs):
    n0 = tecs.n_nodes
    b = tecs.bottom(0, 0.0)
    tecs.extend(b, 1)
    tecs.union(tecs.bottom(1, 1.0), tecs.bottom(1, 1.0))
    # bottom + output + (2 bottoms and 1 union node inside the union call)
    assert tecs.n_nodes == n0 + 5


def test_three_boundedness_under_mixed_ops(tecs):
    # Build many unions through the legal API; all must remain 3-bounded.
    import random

    rng = random.Random(0)
    pools = {}
    for ts in (5.0, 7.0, 9.0):
        pools[ts] = [tecs.extend(tecs.bottom(0, ts), 1) for _ in range(6)]
    for _ in range(60):
        ts = rng.choice(list(pools))
        pool = pools[ts]
        if len(pool) < 2:
            continue
        n1, n2 = rng.sample(pool, 2)
        pool.remove(n2)
        u = tecs.union(n1, n2)
        pool[pool.index(n1)] = u
        assert odepth(u) <= 3 and is_safe(u)


def test_cut_replaces_out_of_window_right_children_oldest_first():
    tecs = TECS(debug=True, windowed=True)
    old = tecs.union(tecs.bottom(1, 1.0), tecs.bottom(1, 1.0))
    keep = tecs.merge([tecs.bottom(5, 5.0), tecs.bottom(4, 4.0)])
    late = tecs.merge([tecs.bottom(6, 6.0), tecs.bottom(2, 2.0)])
    # ``keep``'s right child is inside the window, so it blocks ``late``.
    assert tecs.cut(3.0) == 4.0
    assert old.right is DEAD and keep.right.max_start == 4.0
    assert late.right.max_start == 2.0 and list(tecs.unions) == [keep, late]
    assert tecs.cut(4.5) == -float("inf")
    assert keep.right is late.right is DEAD and not tecs.unions
    # Enumeration never enters a cut edge: it skips the dead leaf as it
    # skipped the subtree that left the window.
    assert enumerate_matches(keep, 7, 7.0, 2.5) == [(5, 7, ())]


def test_unwindowed_tecs_queues_no_unions():
    tecs = TECS()
    tecs.union(tecs.bottom(1, 1.0), tecs.bottom(1, 1.0))
    assert not tecs.unions
