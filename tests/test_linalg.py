import itertools

import numpy as np
import pytest

from lagflow.errors import InputError
from lagflow.linalg import (
    Tolerance,
    as_complex_matrix,
    hermitian_eig,
    numeric_kernel,
    numeric_rank,
    orthocomplement_basis,
    orthonormalize,
    subspace_intersection_dim,
    subspaces_equal,
    symmetrize,
)

from conftest import random_hermitian, random_unitary


def test_tolerance_validation():
    with pytest.raises(InputError):
        Tolerance(rank_eps=0.0)
    with pytest.raises(InputError):
        Tolerance(crossing_eps=-1e-9)
    with pytest.raises(InputError):
        Tolerance(rank_eps=np.inf)
    with pytest.raises(InputError):
        Tolerance(crossing_eps=np.inf)
    # at rank_eps >= 1 the kernel threshold reaches sigma_max
    for rank_eps in (1.0, 10.0):
        with pytest.raises(InputError):
            Tolerance(rank_eps=rank_eps)


def test_eig_diagonal():
    vals, vecs = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(3))


def test_eig_pauli_x():
    vals, vecs = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])
    for col, lam in zip(vecs.T, vals):
        assert np.allclose(np.abs(col), 1 / np.sqrt(2))
        assert np.linalg.norm(np.array([[0, 1], [1, 0]]) @ col - lam * col) < 1e-12


def test_eig_residual_random(rng):
    for n in (6, 32, 64):
        m = random_hermitian(n, rng, scale=3.0)
        vals, vecs = hermitian_eig(m)
        resid = np.abs(m @ vecs - vecs * vals).max()
        assert resid <= 1e-10 * max(1.0, np.abs(m).max())
        assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-10
        assert np.all(np.diff(vals) >= 0)


def test_kernel_zero_matrix():
    assert numeric_kernel(np.zeros((3, 3))).shape[1] == 3


def test_kernel_below_threshold():
    assert numeric_kernel(np.diag([1.0, 1e-15])).shape[1] == 1


def test_kernel_known_rank(rng):
    a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    m = a @ b
    ker = numeric_kernel(m)
    assert ker.shape[1] == 2
    assert np.abs(m @ ker).max() < 1e-8
    assert numeric_rank(m) == 2


def test_kernel_dim_unitary_invariant(rng):
    m = (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))) @ \
        (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    d0 = numeric_kernel(m).shape[1]
    for _ in range(5):
        u = random_unitary(5, rng)
        v = random_unitary(5, rng)
        assert numeric_kernel(u @ m @ v).shape[1] == d0


def test_intersection_examples():
    e1 = np.array([[1.0], [0.0]])
    assert subspace_intersection_dim(e1, e1) == 1
    hp = np.vstack([np.eye(2), np.zeros((2, 2))])
    hm = np.vstack([np.zeros((2, 2)), np.eye(2)])
    assert subspace_intersection_dim(hp, hm) == 0


def test_intersection_symmetric_and_gauge_invariant(rng):
    f1 = orthonormalize(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    f2 = orthonormalize(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    d12 = subspace_intersection_dim(f1, f2)
    assert d12 == subspace_intersection_dim(f2, f1)
    g = f1 @ random_unitary(3, rng)
    assert subspace_intersection_dim(g, f2) == d12
    assert subspaces_equal(f1, g)


def test_intersection_dimension_mismatch():
    with pytest.raises(InputError):
        subspace_intersection_dim(np.eye(3), np.eye(4))


def test_orthonormalize_drops_dependent_columns(rng):
    a = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    dup = np.hstack([a, a[:, :1]])
    q = orthonormalize(dup)
    assert q.shape[1] == 2
    assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-12


def test_orthocomplement_keeps_index_order():
    # complement of span{f2, f3} in C^3 must come out as e1 exactly
    w = np.zeros((3, 2), dtype=complex)
    w[1, 0] = 1.0
    w[2, 1] = 1.0
    comp = orthocomplement_basis(w)
    assert comp.shape == (3, 1)
    assert np.allclose(comp[:, 0], [1.0, 0.0, 0.0])


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(InputError):
        symmetrize(np.ones((2, 3)))


def test_parts_past_2_pow_1023_are_rejected():
    # M + M* overflows for them, and internals use checked matrices as they are
    from lagflow.flow import HermitianPath, spectral_flow_tracking
    from lagflow.grassmann import switched_graph

    assert np.isfinite(symmetrize(np.array([[8.9e307]]))).all()
    big = np.array([[1.7e308, 1.5e308], [1.5e308, -1.7e308]])
    with pytest.raises(InputError, match="finite"):
        symmetrize(big)
    with pytest.raises(InputError, match="finite"):
        switched_graph(big)
    with pytest.raises(InputError, match="finite"):
        spectral_flow_tracking(HermitianPath(np.array([0.0, 1.0]), (big, -big)))


def test_the_finite_check_accepts_exactly_the_parts_below_2_pow_1023():
    # the rule, part by part: |Re| < 2**1023 and |Im| < 2**1023, NaN rejected
    below = np.nextafter(2.0**1023, 0.0)
    cases = {np.nan: False, np.inf: False, -np.inf: False, 2.0**1023: False,
             -(2.0**1023): False, below: True, -below: True}
    base = np.arange(24.0).reshape(4, 6) * (1.0 - 0.5j)
    layouts = {"contiguous": lambda a: a, "transposed": lambda a: a.T,
               "strided": lambda a: a[::2, 1::3]}
    for (value, accepted), part, (layout, view) in itertools.product(
            cases.items(), ("real", "imag"), layouts.items()):
        m = view(base.copy())
        getattr(m, part)[-1, 0] = value
        assert np.isfinite(getattr(m, {"real": "imag", "imag": "real"}[part])).all()
        assert m.flags.c_contiguous == (layout == "contiguous")
        if accepted:
            assert as_complex_matrix(m).tobytes() == np.ascontiguousarray(m).tobytes()
        else:
            with pytest.raises(InputError, match="finite and below 2\\*\\*1023"):
                as_complex_matrix(m)
    assert as_complex_matrix(np.zeros((0, 3))).shape == (0, 3)
