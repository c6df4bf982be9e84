"""Operators and subspaces on matrix space in vec coordinates."""
import numpy as np
import pytest

from schatten_widths.operators import (
    OperatorOnMatrices,
    SubspaceBasis,
    identity_operator,
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


def test_identity_operator_is_neutral():
    ident = identity_operator(3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3))
    assert np.array_equal(ident.apply(x), x)
    assert ident.rank == 9
    assert np.allclose(ident.subtract_from_identity().matrix, 0.0)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        OperatorOnMatrices(np.eye(4), 3)


def test_apply_and_adjoint_are_dual_under_frobenius_pairing():
    rng = np.random.default_rng(3)
    op = OperatorOnMatrices(rng.standard_normal((9, 9)), 3)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))
    lhs = np.tensordot(op.apply(x), y)  # <T x, y>
    rhs = np.tensordot(x, op.apply_adjoint(y))  # <x, T* y>
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_compose_and_rank():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    op_a = OperatorOnMatrices(a, 2)
    op_b = OperatorOnMatrices(b, 2)
    x = rng.standard_normal((2, 2))
    composed = op_a.compose(op_b)
    assert np.allclose(composed.apply(x), op_a.apply(op_b.apply(x)), atol=1e-12)
    low = OperatorOnMatrices(np.outer(a[:, 0], a[:, 1]), 2)
    assert low.rank == 1
    with pytest.raises(ValueError):
        identity_operator(2).compose(identity_operator(3))


def test_subtract_from_identity_is_the_residual_map():
    rng = np.random.default_rng(6)
    op = OperatorOnMatrices(rng.standard_normal((4, 4)), 2)
    x = rng.standard_normal((2, 2))
    assert np.allclose(op.subtract_from_identity().apply(x), x - op.apply(x), atol=1e-12)


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


def test_subspace_basis_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        SubspaceBasis(np.ones((4, 2)), 2)
    with pytest.raises(ValueError):
        SubspaceBasis(np.eye(4)[:, :2], 3)  # wrong ambient dimension


def test_subspace_projection_is_an_orthogonal_idempotent():
    rng = np.random.default_rng(8)
    basis = subspace_from_matrices([rng.standard_normal((3, 3)) for _ in range(4)], 3)
    assert basis.dim == 4
    x = rng.standard_normal((3, 3))
    p = basis.project(x)
    assert np.allclose(basis.project(p), p, atol=1e-12)
    # the residual is Frobenius-orthogonal to the subspace
    assert np.allclose(basis.coefficients(x - p), 0.0, atol=1e-12)
    # members of the span are fixed points
    member = basis.member(rng.standard_normal(4))
    assert np.allclose(basis.project(member), member, atol=1e-12)


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
