"""Subspaces of matrix space in vec coordinates."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths.operators import (
    SubspaceBasis,
    orthonormal_columns,
    subspace_from_matrices,
    unvec,
    vec,
)


def test_vec_unvec_round_trip_and_layout():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3))
    v = vec(x)
    assert v.shape == (9,)
    assert v[1 * 3 + 2] == x[1, 2]  # row-major
    assert np.array_equal(unvec(v, 3), x)


def test_orthonormal_columns_handles_rank_deficiency():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 2))
    wide = np.column_stack([a, a @ rng.standard_normal((2, 3))])
    q = orthonormal_columns(wide)
    assert q.shape == (6, 2)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    # same span
    assert np.allclose(q @ (q.T @ a), a, atol=1e-10)
    assert orthonormal_columns(np.zeros((5, 0))).shape == (5, 0)


def test_an_independent_column_after_a_dependent_one_is_kept():
    # an unpivoted QR reads a zero diagonal entry at the repeated column
    # and dropped e_3 with it, although the rank is 2
    q = orthonormal_columns(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert q.shape == (3, 2)
    assert np.allclose(q @ q.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_full_rank_input_gets_its_qr_factor():
    a = np.random.default_rng(3).standard_normal((9, 4))
    assert np.array_equal(orthonormal_columns(a), np.linalg.qr(a)[0])


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(rows=st.integers(1, 9), kinds=st.lists(st.sampled_from(["new", "copy", "mix", "zero"]),
                                              min_size=1, max_size=9),
       seed=st.integers(0, 2**32 - 1))
def test_orthonormal_columns_span_the_input_at_its_rank(rows, kinds, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind == "new" or not cols:
            cols.append(rng.standard_normal(rows) if kind != "zero" else np.zeros(rows))
        elif kind == "copy":
            cols.append(cols[rng.integers(len(cols))].copy())
        elif kind == "mix":
            cols.append(np.column_stack(cols) @ rng.standard_normal(len(cols)))
        else:
            cols.append(np.zeros(rows))
    a = np.column_stack(cols)
    q = orthonormal_columns(a)
    assert q.shape == (rows, np.linalg.matrix_rank(a))
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
    assert np.allclose(q @ (q.T @ a), a, atol=1e-10 * max(1.0, np.abs(a).max()))


def test_subspace_basis_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        SubspaceBasis(np.ones((4, 2)), 2)
    with pytest.raises(ValueError):
        SubspaceBasis(np.eye(4)[:, :2], 3)  # wrong ambient dimension
    with pytest.raises(ValueError, match="real"):
        SubspaceBasis(np.eye(4)[:, :2] * 1j, 2)


def test_subspace_projection_is_an_orthogonal_idempotent():
    rng = np.random.default_rng(8)
    basis = subspace_from_matrices([rng.standard_normal((3, 3)) for _ in range(4)], 3)
    assert basis.dim == 4
    x = rng.standard_normal((3, 3))
    def project(m):
        return basis.member(basis.coefficients(m))

    p = project(x)
    assert np.allclose(project(p), p, atol=1e-12)
    # the residual is Frobenius-orthogonal to the subspace
    assert np.allclose(basis.coefficients(x - p), 0.0, atol=1e-12)
    # members of the span are fixed points
    member = basis.member(rng.standard_normal(4))
    assert np.allclose(project(member), member, atol=1e-12)


def test_subspace_from_matrices_deduplicates_span():
    rng = np.random.default_rng(9)
    m1 = rng.standard_normal((2, 2))
    m2 = rng.standard_normal((2, 2))
    basis = subspace_from_matrices([m1, m2, 2.0 * m1 - m2], 2)
    assert basis.dim == 2
    assert subspace_from_matrices([], 2).dim == 0
    mats = basis.basis_matrices()
    assert len(mats) == 2
    assert np.allclose(vec(mats[0]), basis.columns[:, 0])


@pytest.mark.parametrize("N,dim", [(2, 1), (2, 3), (3, 4)])
def test_subspace_complement_is_an_orthonormal_cached_frame(N, dim):
    rng = np.random.default_rng(5)
    basis = SubspaceBasis(orthonormal_columns(rng.standard_normal((N * N, dim))), N)
    comp = basis.complement
    assert comp.shape == (N * N, N * N - dim)
    assert np.allclose(comp.T @ comp, np.eye(N * N - dim), atol=1e-12)
    assert np.allclose(basis.columns.T @ comp, 0.0, atol=1e-12)
    assert basis.complement is comp
    # an equal but distinct basis computes its own frame
    twin = SubspaceBasis(basis.columns.copy(), N)
    assert twin.complement is not comp
    assert np.array_equal(twin.complement, comp)


def test_subspace_complement_of_the_zero_subspace_is_the_identity():
    basis = SubspaceBasis(np.zeros((9, 0)), 3)
    assert np.array_equal(basis.complement, np.eye(9))
