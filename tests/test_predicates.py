"""Unit tests for atomic predicates and bit-vectors (paper Section 5.4)."""
import inspect
import itertools
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings

from repro.cea.ceql import compile_query
from repro.cea.predicates import (
    Atom, PredicateIndex, TRUE, _kernel_factory, guard, is_null, type_atom,
)
from repro.harness.stock_queries import STOCK_QUERIES

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
# An atom's constant may also be None, which no table may hold.
atom_constants = constants | st.none()
atoms = st.builds(Atom, st.sampled_from(ATTRS), st.sampled_from(OPS), atom_constants)
tuples = st.dictionaries(st.sampled_from(ATTRS + ("c",)), values)
# Attribute names and string constants that would break, or run as, Python
# if the mask kernel spliced them into its source.
HOSTILE = [
    "a'", 'b"', "c\nd", "e\\", "f'); import os; os._exit(3) #", '"""', "{g}", "h\r\x00",
]
HOSTILE_ATOMS = [Atom(HOSTILE[i], OPS[i % len(OPS)], HOSTILE[-1 - i]) for i in range(len(HOSTILE))]
HOSTILE_TUPLE = {a: c for a, c in zip(HOSTILE, HOSTILE[1:] + HOSTILE[:1])}
SYNTH_QUERY = "SELECT * FROM S WHERE A1; A2+; A3 WITHIN 100 events"


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


@pytest.mark.parametrize(
    "v",
    [
        None, float("nan"), np.float32("nan"), pd.NA, pd.NaT, np.datetime64("NaT"),
        Decimal("NaN"), 0, "", False, 1.5, "x", pd.Timestamp("2024-01-02 03:04"),
    ],
    ids=repr,
)
def test_is_null_agrees_with_pandas(v):
    """``is_null`` reads NULL as ``pd.isna`` does without importing pandas,
    and returns a plain bool even for ``pd.NA``, whose comparisons are NA."""
    assert is_null(v) is bool(pd.isna(v))


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
@given(c=atom_constants, more=st.lists(atoms, max_size=6), t=tuples)
@example(c="'", more=HOSTILE_ATOMS, t={**HOSTILE_TUPLE, "a": "'"})
@example(c='"\n', more=HOSTILE_ATOMS, t={h: h for h in HOSTILE})
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


# NULLs of every kind and an unhashable value, which no table may match.
ODD_VALUES = [None, NAN, pd.NA, pd.NaT, Decimal("NaN"), [1]]


def _bits(idx, t):
    return [bool(idx.mask(t) >> i & 1) for i in range(len(idx))]


def _holds(idx, t):
    """``bitvector`` as bits: ``pd.NA == c`` is NA, which holds no more
    than False does."""
    return [b is True for b in idx.bitvector(t)]


@pytest.mark.parametrize("v", ODD_VALUES, ids=repr)
@pytest.mark.parametrize("query", [SYNTH_QUERY, *(STOCK_QUERIES[q] for q in ("Q1", "Q4", "Q7"))],
                         ids=["synth", "Q1", "Q4", "Q7"])
def test_table_only_kernels_on_null_and_unhashable_values(query, v):
    """The kernels of one (synth) and two (Q1, Q4, Q7) table-only
    attributes read each attribute with one ``get`` and one table lookup,
    without a NULL test, and still agree with ``bitvector``."""
    idx = compile_query(query).cea.det("all").index
    assert "is not None" not in inspect.getsource(idx.mask)
    for attr in dict.fromkeys(a.attr for a in idx.atoms):
        for t in ({attr: v}, {**{a.attr: a.value for a in idx.atoms}, attr: v}):
            assert _bits(idx, t) == _holds(idx, t)


@pytest.mark.parametrize("v", ODD_VALUES + [1, "x", 0], ids=repr)
def test_equality_with_none_never_holds(v):
    idx = PredicateIndex([Atom("x", "==", None), Atom("x", "==", 1), Atom("x", "==", "x")])
    for t in ({"x": v}, {}):
        assert not idx.mask(t) & 1
        assert _bits(idx, t) == _holds(idx, t)


def test_kernels_of_one_shape_keep_their_own_bindings():
    """Two indexes of one shape share the compiled kernel code, yet each
    mask reads its own attributes, constants and bits."""
    one = PredicateIndex([type_atom("A"), Atom("price", ">", 100), type_atom("B")])
    two = PredicateIndex([Atom("name", "==", "x"), Atom("vol", ">", 5.5), Atom("name", "==", "y")])
    assert one.mask.__code__ is two.mask.__code__
    rows = [
        {"type": "A", "price": 200, "name": "y", "vol": 1},
        {"type": "B", "price": 50, "name": "x", "vol": 6},
        {"type": "x", "name": "A", "price": 6, "vol": 200},
    ]
    assert [one.mask(r) for r in rows] == [0b011, 0b100, 0b000]
    assert [two.mask(r) for r in rows] == [0b100, 0b011, 0b010]


def test_kernel_source_holds_no_query_text():
    """Attribute names and constants reach the kernel only through its
    closure: its source is the same for any query of its shape."""
    idx = PredicateIndex(HOSTILE_ATOMS)
    src = inspect.getsource(idx.mask)
    assert all(h not in src for h in HOSTILE + ["import", "_exit"])
    for t in (HOSTILE_TUPLE, {h: h for h in HOSTILE}, {}):
        assert [bool(idx.mask(t) >> i & 1) for i in range(len(idx))] == list(idx.bitvector(t))
    # The same shape over plain names compiles to the same code.
    plain = PredicateIndex([Atom(f"x{i}", a.op, i) for i, a in enumerate(HOSTILE_ATOMS)])
    assert plain.mask.__code__ is idx.mask.__code__



def test_recompiling_queries_compiles_no_kernel():
    """Compiling a query binds its kernel to names but compiles no source
    once its shape has been seen in the process: the second round over
    Q1-Q7 and the synthetic Kleene query misses the kernel cache zero
    times, so each ``compile()`` happens at most once per shape."""
    texts = [*STOCK_QUERIES.values(), SYNTH_QUERY]
    for text in texts:
        compile_query(text)
    compiles = _kernel_factory.cache_info().misses
    for text in texts:
        compile_query(text)
    assert _kernel_factory.cache_info().misses == compiles


# Column-wise masks: one column per dtype the Spark paths can hand over.
# Constants add integers too large for float64 and a timestamp.
frame_constants = (
    constants
    | st.integers(-(2**62), 2**62)
    | st.just(2**53 + 1)
    | st.just(pd.Timestamp("2020-01-02"))
)
frame_atoms = st.builds(
    Atom, st.sampled_from(("a", "b", "missing")), st.sampled_from(OPS), frame_constants
)
COLUMN_KINDS = {
    "int64": (st.integers(-3, 3) | st.integers(-(2**62), 2**62), "int64"),
    "float64": (st.floats(allow_nan=True) | st.none() | st.integers(-3, 3), "float64"),
    "bool": (st.booleans(), "bool"),
    "object": (values, object),
    "datetime": (st.sampled_from([None, "2020-01-01", "2020-01-02", "2020-01-03"]), "datetime64[ns]"),
}


@st.composite
def frames(draw):
    n = draw(st.integers(0, 8))
    cols = {}
    for name in ("a", "b"):
        vals, dtype = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        cols[name] = pd.Series(draw(st.lists(vals, min_size=n, max_size=n)), dtype=dtype)
    return pd.DataFrame(cols)


def _null(v):
    return v is None or v is pd.NaT or (isinstance(v, float) and v != v)


@settings(max_examples=300, deadline=None)
@given(frame=frames(), atoms_=st.lists(frame_atoms, min_size=1, max_size=8))
def test_masks_agree_with_mask_per_row(frame, atoms_):
    """Row i's column-wise mask is ``mask`` of row i with None/NaN/NaT as
    NULL (the Spark paths' former per-row conversion)."""
    idx = PredicateIndex(atoms_)
    rows = [{k: None if _null(v) else v for k, v in r.items()} for r in frame.to_dict("records")]
    got = idx.masks(frame)
    assert got == [idx.mask(r) for r in rows]
    assert all(type(m) is int for m in got)


def test_masks_edge_cases():
    nan = float("nan")
    frame = pd.DataFrame({
        "f": [1.0, nan, 2.5],
        "o": pd.Series(["x", 1, [1]], dtype=object),  # a list is unhashable
        "t": pd.to_datetime(["2020-01-01", None, "2020-01-03"]),
        "g": [2.0**53, 1.0, nan],
        "i": [2**53 + 1, 0, -5],
    })
    idx = PredicateIndex([
        Atom("f", "!=", 1), Atom("o", "==", True), Atom("o", "<", 5),
        Atom("t", "!=", 0), Atom("f", "==", nan), Atom("gone", "!=", 1),
        Atom("g", "==", 2**53 + 1), Atom("i", ">", 2.0**53),
    ])
    # NULL (NaN, NaT) sets no bit even for !=; True == 1; "x" < 5 is
    # incomparable; a NaN constant equals nothing; ints and floats compare
    # exactly, as in Python (float64 would round 2**53 + 1 to 2**53).
    assert idx.masks(frame) == [0b10001000, 0b00000110, 0b00001001]


def test_masks_past_62_atoms_are_python_ints():
    idx = PredicateIndex([Atom("v", "==", k) for k in range(70)] + [Atom("v", ">", 66)])
    frame = pd.DataFrame({"v": [0, 69, 66, -1]})
    got = idx.masks(frame)
    assert got == [idx.mask({"v": v}) for v in (0, 69, 66, -1)]
    assert got[1] == 1 << 69 | 1 << 70
