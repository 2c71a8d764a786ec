"""Property-based differential test of resolution_engine.rank_over.

Random matrices with entries 0 and +-1, in the signed bit rows rank_over
takes, against the dense references in _dense_rank, over Q and prime fields
whose kernels differ: XOR over F_2, bit-slicing over F_3, and elimination
on decoded rows otherwise.  Skipped where Hypothesis is not installed.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bettipowers.resolution_engine import CoefficientField, rank_over  # noqa: E402

from _dense_rank import rank_integer, rank_mod_p, signed_rows  # noqa: E402


@st.composite
def signed_matrices(draw):
    # Up to 12 rows of up to 70 columns, past one machine word; some rows
    # repeat an earlier row, negated or not, so ranks fall short of full.
    ncols = draw(st.integers(0, 70))
    entry = st.sampled_from((0, 0, 1, -1))
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=12))
    for at, sign in draw(st.lists(st.tuples(st.integers(0, 11), st.sampled_from((1, -1))), max_size=3)):
        if dense:
            dense.append([sign * x for x in dense[at % len(dense)]])
    return dense, ncols


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(signed_matrices(), st.sampled_from((0, 2, 3, 5, 2**61 - 1)))
def test_rank_over_agrees_with_dense_references(matrix, p):
    dense, ncols = matrix
    rows = signed_rows(dense)
    expected = rank_integer(dense, ncols) if p == 0 else rank_mod_p(dense, ncols, p)
    assert rank_over(rows, ncols, CoefficientField(p)) == expected
