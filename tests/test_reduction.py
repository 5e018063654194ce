import numpy as np
import pytest

from lagflow.errors import InputError, PreconditionError
from lagflow.grassmann import (
    J_matrix,
    LagrangianFrame,
    cayley_graph,
    chart_point,
    standard_lagrangians,
)
from lagflow.linalg import (
    Tolerance,
    numeric_kernel,
    orthonormalize,
    subspaces_equal,
)
from lagflow.reduction import (
    IsotropicSubspace,
    annihilator_and_reduced,
    generalized_reduce,
    reduce_lagrangian,
    reduce_unitary,
)

from conftest import random_hermitian, random_unitary, unitary_with_phases


def su2(z, w):
    return np.array([[z, -np.conj(w)], [w, np.conj(z)]])


def clean_unitary(n, rng, margin=0.25):
    """Random unitary with every eigenvalue at distance >= margin from -1."""
    while True:
        u = random_unitary(n, rng)
        if np.abs(np.linalg.eigvals(u) + 1.0).min() > margin:
            return u


def test_isotropic_validation(rng):
    w = IsotropicSubspace.from_flag_indices(3, [2, 3])
    assert w.ambient_n == 3 and w.p == 2 and w.codim_in_hminus == 1
    assert IsotropicSubspace(w.frame).ambient_n == 3  # n read from the 2n rows
    bad = np.zeros((6, 1), dtype=complex)
    bad[0, 0] = 1.0  # supported in H+
    with pytest.raises(InputError):
        IsotropicSubspace(bad)


def _h_minus_frame(n, columns):
    """2n x p frame whose H- block holds the given n x p columns."""
    columns = np.asarray(columns, dtype=complex)
    return np.vstack([np.zeros((n, columns.shape[1])), columns])


@pytest.mark.parametrize("frame, message", [
    (np.zeros((5, 1)), "2n x p"),
    (np.zeros((0, 0)), "2n x p"),
    (_h_minus_frame(2, np.eye(2)[:, [0, 1, 1]]), "2n x p"),
    (np.eye(4)[:, :1], "supported in the H- block"),
    (_h_minus_frame(2, [[2.0], [0.0]]), "not orthonormal"),
], ids=["odd-rows", "no-rows", "p-above-n", "h-plus-block", "not-orthonormal"])
def test_each_isotropic_frame_rejection_is_an_input_error(frame, message):
    with pytest.raises(InputError, match=message):
        IsotropicSubspace(frame)


def test_annihilator_and_reduced_dimensions():
    n = 2
    w_full = IsotropicSubspace.from_flag_indices(n, [1, 2])
    w_omega, hw = annihilator_and_reduced(w_full)
    assert w_omega.shape == (4, 2) and hw.shape == (4, 0)

    w_zero = IsotropicSubspace.from_h_minus_vectors(n, np.zeros((n, 0)))
    w_omega, hw = annihilator_and_reduced(w_zero)
    assert w_omega.shape == (4, 4) and hw.shape == (4, 4)

    w1 = IsotropicSubspace.from_flag_indices(n, [2])
    w_omega, hw = annihilator_and_reduced(w1)
    assert w_omega.shape == (4, 3) and hw.shape == (4, 2)
    # H_W = span{e1-direction, f1-direction} and J-invariant
    assert np.allclose(hw[:, 0], [1, 0, 0, 0])
    assert np.allclose(hw[:, 1], [0, 0, 1, 0])
    j = J_matrix(n)
    proj = hw @ hw.conj().T
    assert np.abs(proj @ j - j @ proj).max() < 1e-10


def test_reduce_section_form_exact(rng):
    n = 4
    w = IsotropicSubspace.from_flag_indices(n, [3, 4])
    _, hw = annihilator_and_reduced(w)
    ell = cayley_graph(random_unitary(2, rng))
    emb = np.hstack([hw @ ell.frame, J_matrix(n) @ w.frame])
    lag = LagrangianFrame(orthonormalize(emb))
    red = reduce_lagrangian(lag, w)
    assert subspaces_equal(red.frame, ell.frame)


def test_reduce_graph_block_rule(rng):
    # reduction of the graph over H+ keeps the leading block of the coordinate
    n = 5
    hp = standard_lagrangians(n)[0]
    s = random_hermitian(n, rng)
    w = IsotropicSubspace.from_flag_indices(n, [3, 4, 5])
    red = reduce_lagrangian(chart_point(hp, s), w)
    target = chart_point(standard_lagrangians(2)[0], s[:2, :2])
    assert subspaces_equal(red.frame, target.frame)


def test_reduce_not_clean(rng):
    n = 3
    w = IsotropicSubspace.from_flag_indices(n, [2])
    hm = standard_lagrangians(n)[1]
    with pytest.raises(PreconditionError, match="not clean"):
        reduce_lagrangian(hm, w)


def test_reduce_unitary_block_diagonal():
    t = np.diag([np.exp(0.3j), np.exp(-0.4j)])
    u = np.zeros((3, 3), dtype=complex)
    u[0, 0] = 1j
    u[1:, 1:] = t
    red = reduce_unitary(u, np.array([[1.0], [0.0], [0.0]]))
    assert np.abs(red - t).max() < 1e-12


def test_reduce_unitary_su2_formula(rng):
    z = 0.32 - 0.11j
    w = np.sqrt(1 - abs(z) ** 2) * np.exp(0.9j)
    red = reduce_unitary(su2(z, w), np.array([[1.0], [0.0]]))
    assert abs(red[0, 0] - (1 + np.conj(z)) / (1 + z)) < 1e-12


def test_reduce_unitary_kernel_preservation(rng):
    # engineered -1 eigenvector avoiding W; the reduced kernel is the
    # projection of the original kernel onto the complement basis
    from lagflow.linalg import orthocomplement_basis

    for _ in range(10):
        u = unitary_with_phases([np.pi, 0.5, -1.2, 2.2, 0.9], rng)
        kern = numeric_kernel(np.eye(5) + u)
        w = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        w -= kern @ (kern.conj().T @ w)
        red = reduce_unitary(u, w)
        assert np.abs(red.conj().T @ red - np.eye(3)).max() < 1e-10
        red_kern = numeric_kernel(np.eye(3) + red)
        assert red_kern.shape[1] == kern.shape[1]
        vb = orthocomplement_basis(orthonormalize(w))
        projected = orthonormalize(vb.conj().T @ kern)
        assert subspaces_equal(red_kern, projected)


def test_reduce_unitary_not_clean(rng):
    u = np.diag([-1.0 + 0j, 1j])
    with pytest.raises(PreconditionError, match="not clean"):
        reduce_unitary(u, np.array([[1.0], [0.0]]))


def test_reduce_unitary_lambda_variant(rng):
    lam = np.exp(0.7j)
    u = unitary_with_phases([0.7 + np.pi, 0.2, 1.9, -2.0], rng)  # lam+U singular dir
    kern = numeric_kernel(lam * np.eye(4) + u)
    assert kern.shape[1] == 1
    w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    w -= kern @ (kern.conj().T @ w)
    red = reduce_unitary(u, w, lam=lam)
    assert np.abs(red.conj().T @ red - np.eye(2)).max() < 1e-10
    assert numeric_kernel(lam * np.eye(2) + red).shape[1] == 1


def test_reduce_unitary_rejects_bad_lambda():
    u = np.eye(2, dtype=complex)
    w = np.array([[1.0], [0.0]])
    with pytest.raises(InputError):
        reduce_unitary(u, w, lam=-1.0)
    with pytest.raises(InputError):
        reduce_unitary(u, w, lam=2.0)


def test_cayley_reduction_consistency(rng):
    # reduce_lagrangian(C(U), W) spans C(reduce_unitary(U, W)) in H_W coordinates
    for n, idx in ((4, [3, 4]), (6, [2, 5, 6]), (8, [5, 6, 7, 8])):
        for _ in range(5):
            u = clean_unitary(n, rng)
            w = IsotropicSubspace.from_flag_indices(n, idx)
            red_lag = reduce_lagrangian(cayley_graph(u), w)
            red_uni = reduce_unitary(u, w.h_part)
            assert subspaces_equal(red_lag.frame, cayley_graph(red_uni).frame,
                                   Tolerance(rank_eps=1e-8))


def test_su2_reduction_idempotent_values(rng):
    # applying the published scalar formula twice returns the original phase
    z = 0.5 + 0.5j
    w = np.sqrt(1 - abs(z) ** 2)
    val = (1 + np.conj(z)) / (1 + z)
    # the reduced value is unit; reducing the 1x1 case is the identity
    red = reduce_unitary(np.array([[val]]), np.zeros((1, 0)))
    assert abs(red[0, 0] - val) < 1e-14


def test_generalized_reduce_clean_matches(rng):
    n = 4
    w = IsotropicSubspace.from_flag_indices(n, [3, 4])
    u = clean_unitary(n, rng)
    lag = cayley_graph(u)
    ell, v = generalized_reduce(lag, w)
    assert v.shape[1] == 0
    assert subspaces_equal(ell.frame, reduce_lagrangian(lag, w).frame)


def test_generalized_reduce_associate_form(rng):
    # L = ell + V + J V-perp recovers (ell, V) including a k=1 construction
    n = 4
    w = IsotropicSubspace.from_flag_indices(n, [2, 3, 4])
    coef = rng.normal(size=3) + 1j * rng.normal(size=3)
    v_vec = w.frame @ (coef / np.linalg.norm(coef))
    v_perp = orthonormalize(w.frame - np.outer(v_vec, v_vec.conj() @ w.frame))
    ell = cayley_graph(random_unitary(1, rng))
    _, hw = annihilator_and_reduced(w)
    emb = np.hstack([hw @ ell.frame, v_vec[:, None], J_matrix(n) @ v_perp])
    lag = LagrangianFrame(orthonormalize(emb))
    ell_rec, v_rec = generalized_reduce(lag, w)
    assert v_rec.shape[1] == 1
    assert subspaces_equal(v_rec, v_vec[:, None])
    assert subspaces_equal(ell_rec.frame, ell.frame)


def test_generalized_reduce_dimension_count(rng):
    # dim(L ∩ W^omega) = k + dim(H_W)/2
    from lagflow.linalg import subspace_intersection_basis

    n = 4
    w = IsotropicSubspace.from_flag_indices(n, [2, 3, 4])
    hm = standard_lagrangians(n)[1]
    w_omega, hw = annihilator_and_reduced(w)
    cap = subspace_intersection_basis(hm.frame, w_omega)
    ell, v = generalized_reduce(hm, w)
    assert cap.shape[1] == v.shape[1] + hw.shape[1] // 2
