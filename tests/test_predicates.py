"""Unit tests for atomic predicates and bit-vectors (paper Section 5.4)."""
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cea.predicates import Atom, PredicateIndex, TRUE, guard, type_atom

OPS = ("==", "!=", "<", "<=", ">", ">=")
ATTRS = ("a", "b")
NAN = float("nan")
# Constants and values that stress the mask's equality table: True/1/1.0
# share a dict key, NaN equals nothing (not even itself), strings and
# numbers are incomparable, and None is NULL.
SCALARS = [True, False, 1, 0, 1.0, 2.5, -1, NAN, "x", "1", "MSFT"]
# NaN gets its own branch: only the very same NaN object would be found by
# a dict lookup, so constant and value must often share it.
constants = (
    st.sampled_from(SCALARS) | st.just(NAN) | st.integers(-3, 3) | st.floats(allow_nan=True)
)
values = constants | st.none() | st.just(NAN) | st.lists(st.integers(0, 2), max_size=2)
atoms = st.builds(Atom, st.sampled_from(ATTRS), st.sampled_from(OPS), constants)
tuples = st.dictionaries(st.sampled_from(ATTRS + ("c",)), values)


@pytest.mark.parametrize(
    "op,value,attr_value,expected",
    [
        ("==", 5, 5, True),
        ("==", 5, 6, False),
        ("!=", 5, 6, True),
        ("!=", 5, 5, False),
        ("<", 5, 4, True),
        ("<", 5, 5, False),
        ("<=", 5, 5, True),
        ("<=", 5, 6, False),
        (">", 5, 6, True),
        (">", 5, 5, False),
        (">=", 5, 5, True),
        (">=", 5, 4, False),
        ("==", "MSFT", "MSFT", True),
        ("==", "MSFT", "ORCL", False),
    ],
)
def test_atom_eval(op, value, attr_value, expected):
    assert Atom("x", op, value).eval({"x": attr_value}) is expected


def test_atom_missing_attribute_is_null():
    # NULL satisfies no comparison (Section 3: t(a) = NULL).
    for op in ("==", "!=", "<", "<=", ">", ">="):
        assert Atom("x", op, 1).eval({"y": 1}) is False


def test_atom_none_value_is_null():
    assert Atom("x", "==", 1).eval({"x": None}) is False


def test_atom_incomparable_types():
    assert Atom("x", "<", 5).eval({"x": "abc"}) is False


def test_atom_rejects_bad_op():
    with pytest.raises(ValueError):
        Atom("x", "~", 1)


def test_type_atom():
    assert type_atom("SELL").eval({"type": "SELL"})
    assert not type_atom("SELL").eval({"type": "BUY"})


def test_index_bitvector_and_guards():
    a1 = Atom("price", ">", 100)
    a2 = type_atom("SELL")
    idx = PredicateIndex([a1, a2, a1])  # duplicates collapse
    assert len(idx) == 2
    m = idx.mask({"type": "SELL", "price": 200})
    assert m == 0b11
    assert idx.satisfies(guard(a1, a2), m)
    m2 = idx.mask({"type": "SELL", "price": 50})
    assert not idx.satisfies(guard(a1, a2), m2)
    assert idx.satisfies(guard(a2), m2)


def test_true_guard_always_satisfied():
    idx = PredicateIndex([])
    assert idx.satisfies(TRUE, idx.mask({"anything": 1}))


def test_bitvector_is_hashable_cache_key():
    idx = PredicateIndex([Atom("v", "<", 3)])
    assert hash(idx.bitvector({"v": 1})) == hash((True,))


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=100, deadline=None)
@given(c=constants, more=st.lists(atoms, max_size=6), t=tuples)
def test_mask_agrees_with_atom_eval(op, c, more, t):
    idx = PredicateIndex([Atom("a", op, c)] + more)
    m = idx.mask(t)
    bv = idx.bitvector(t)
    assert m >> len(idx) == 0
    for i, a in enumerate(idx.atoms):
        assert bool(m >> i & 1) == bool(bv[i]) == bool(a.eval(t))
    guards = [TRUE, frozenset(idx.atoms)]
    guards += [frozenset(p) for k in (1, 2) for p in itertools.combinations(idx.atoms, k)]
    for g in guards:
        assert idx.satisfies(g, m) == all(a.eval(t) for a in g)


def test_mask_equality_table_edge_cases():
    idx = PredicateIndex([Atom("x", "==", 1), Atom("x", "==", "1"), Atom("x", "==", NAN)])
    assert idx.mask({"x": True}) == idx.mask({"x": 1.0}) == 0b001
    assert idx.mask({"x": "1"}) == 0b010
    assert idx.mask({"x": NAN}) == 0  # NaN == NaN is false
    assert idx.mask({"x": [1]}) == 0  # unhashable: compared atom by atom
    assert idx.mask({"x": None}) == idx.mask({}) == 0
