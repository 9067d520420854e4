"""``ops.vinter_rows`` against per-row ``ops.vinter``, bit for bit.

Values are arbitrary finite floats (not the integer-valued floats of
``test_value_props.py``), so any change of summation order shows up as
a mismatch: the batched row reduction must add every row's combined
pairs exactly as ``np.sum`` adds the 1-D array ``ops.vinter`` builds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import ops

VALOPS = ("MAC", "MAX", "MIN")

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, allow_subnormal=False)
kv_maps = st.dictionaries(st.integers(min_value=0, max_value=60), finite,
                          max_size=30)


def split(d):
    keys = np.array(sorted(d), dtype=np.int64)
    vals = np.array([d[k] for k in sorted(d)], dtype=np.float64)
    return keys, vals


def csr(rows):
    """(indptr, indices, data) of a list of (keys, vals) rows."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([k.size for k, _ in rows])
    if not rows:
        return indptr, np.empty(0, np.int64), np.empty(0, np.float64)
    return (indptr, np.concatenate([k for k, _ in rows]),
            np.concatenate([v for _, v in rows]))


def assert_matches_per_row(a_keys, a_vals, rows, op):
    indptr, indices, data = csr(rows)
    counts, values = ops.vinter_rows(a_keys, a_vals, indptr, indices,
                                     data, op)
    expect_counts = [ops.intersect_count(a_keys, k) for k, _ in rows]
    expect = np.array([ops.vinter(a_keys, a_vals, k, v, op)
                       for k, v in rows], dtype=np.float64)
    assert counts.tolist() == expect_counts
    assert values.tolist() == expect.tolist()
    assert values.tobytes() == expect.tobytes()


@given(kv_maps, st.lists(kv_maps, max_size=12), st.sampled_from(VALOPS))
def test_matches_per_row_vinter(da, drows, op):
    a_keys, a_vals = split(da)
    assert_matches_per_row(a_keys, a_vals, [split(d) for d in drows], op)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.05, max_value=1.0),
       st.sampled_from(VALOPS))
def test_long_rows_cross_the_pairwise_block(seed, n_rows, density, op):
    """Rows of up to ~630 matches (the first row is dense): past numpy's
    8-way unrolled loop and its 128-element pairwise block, where the
    summation tree changes."""
    rng = np.random.default_rng(seed)
    universe = 700
    a_keys = np.flatnonzero(rng.random(universe) < 0.9).astype(np.int64)
    a_vals = rng.standard_normal(a_keys.size) * 10.0 ** rng.integers(
        -6, 7, a_keys.size)
    dense = np.arange(universe, dtype=np.int64)
    rows = [(dense, rng.standard_normal(universe))]
    for _ in range(n_rows):
        keys = np.flatnonzero(rng.random(universe)
                              < density * rng.random()).astype(np.int64)
        rows.append((keys, rng.standard_normal(keys.size)))
    indptr, indices, data = csr(rows)
    counts, _ = ops.vinter_rows(a_keys, a_vals, indptr, indices, data, op)
    assert counts[0] > 128
    assert_matches_per_row(a_keys, a_vals, rows, op)


@given(st.lists(kv_maps, max_size=6), st.sampled_from(VALOPS))
def test_empty_stream_matches_nothing(drows, op):
    empty = np.empty(0, dtype=np.int64)
    assert_matches_per_row(empty, np.empty(0), [split(d) for d in drows],
                           op)


def test_empty_rows_and_no_rows():
    a_keys, a_vals = split({1: 2.0, 4: -3.0})
    empty = (np.empty(0, np.int64), np.empty(0, np.float64))
    assert_matches_per_row(a_keys, a_vals, [empty, split({4: 0.5}), empty],
                           "MAC")
    counts, values = ops.vinter_rows(a_keys, a_vals, *csr([]))
    assert counts.size == 0 and values.size == 0


def test_operand_order_follows_vinter():
    """``combine(a_vals, row_vals)``: a non-commutative op sees the
    stream's values first, as in ``ops.vinter``."""
    op = ops.ValueOp("SUB", np.subtract)
    a_keys, a_vals = split({1: 5.0, 2: 1.0})
    _, values = ops.vinter_rows(a_keys, a_vals, *csr([split({1: 2.0})]), op)
    assert values.tolist() == [3.0]
    assert ops.vinter(a_keys, a_vals, *split({1: 2.0}), op) == 3.0
