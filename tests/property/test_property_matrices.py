"""Property-based tests for matrix normalisation and decomposition."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from repro.hin.decomposition import decompose_adjacency
from repro.hin.matrices import col_normalize, row_normalize, safe_reciprocal


@st.composite
def nonneg_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    values = draw(
        arrays(
            dtype=np.float64,
            shape=(rows, cols),
            elements=st.floats(0.01, 10, allow_nan=False),
        )
    )
    # Sparsify: zero out ~half the entries deterministically from the draw.
    mask = draw(
        arrays(dtype=np.bool_, shape=(rows, cols), elements=st.booleans())
    )
    return values * mask


class TestNormalization:
    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_row_sums_zero_or_one(self, dense):
        normalized = row_normalize(sparse.csr_matrix(dense)).toarray()
        sums = normalized.sum(axis=1)
        assert ((np.isclose(sums, 1.0)) | (sums == 0.0)).all()

    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_col_sums_zero_or_one(self, dense):
        normalized = col_normalize(sparse.csr_matrix(dense)).toarray()
        sums = normalized.sum(axis=0)
        assert ((np.isclose(sums, 1.0)) | (sums == 0.0)).all()

    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_property2_duality(self, dense):
        """col_normalize(W) == row_normalize(W')' -- the V/U transposition."""
        matrix = sparse.csr_matrix(dense)
        np.testing.assert_allclose(
            col_normalize(matrix).toarray(),
            row_normalize(matrix.T).toarray().T,
            atol=1e-12,
        )

    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_sparsity_pattern_preserved(self, dense):
        normalized = row_normalize(sparse.csr_matrix(dense)).toarray()
        np.testing.assert_array_equal(normalized > 0, dense > 0)

    @given(nonneg_matrices())
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, dense):
        once = row_normalize(sparse.csr_matrix(dense))
        twice = row_normalize(once)
        np.testing.assert_allclose(once.toarray(), twice.toarray(), atol=1e-12)


class TestDecomposition:
    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_product_recovers_matrix(self, dense):
        """Property 1 over random weighted adjacency matrices."""
        matrix = sparse.csr_matrix(dense)
        w_ae, w_eb = decompose_adjacency(matrix)
        np.testing.assert_allclose(
            (w_ae @ w_eb).toarray(), matrix.toarray(), atol=1e-10
        )

    @given(nonneg_matrices())
    @settings(max_examples=80, deadline=None)
    def test_edge_count(self, dense):
        matrix = sparse.csr_matrix(dense)
        matrix.eliminate_zeros()
        w_ae, w_eb = decompose_adjacency(matrix)
        assert w_ae.shape[1] == matrix.nnz
        assert w_eb.shape[0] == matrix.nnz


class TestSafeReciprocal:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(0, 20),
            elements=st.floats(0, 1e6, allow_nan=False, allow_subnormal=False),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_zero_maps_to_zero_rest_inverts(self, values):
        result = safe_reciprocal(values)
        assert not np.isnan(result).any()
        assert not np.isinf(result).any()
        zero = values == 0
        np.testing.assert_array_equal(result[zero], 0.0)
        np.testing.assert_allclose(
            result[~zero] * values[~zero], 1.0, atol=1e-9
        )
