import numpy as np
import pytest

from lagflow.errors import InputError, PreconditionError
from lagflow.flow import spectral_flow_tracking
from lagflow.grassmann import cayley_graph
from lagflow.linalg import subspaces_equal
from lagflow.universal import (
    UnitaryLoop,
    discretize_operator,
    discretized_path,
    exact_spectrum,
    reduced_boundary_frame,
    universal_loop_flow,
    universal_reduction,
)

from conftest import evenly_winding, random_unitary


def test_exact_spectrum_identity():
    vals = exact_spectrum(np.eye(2), (-7.0, 7.0))
    expected = sorted([-2 * np.pi] * 2 + [0.0] * 2 + [2 * np.pi] * 2)
    assert np.allclose(vals, expected)


def test_exact_spectrum_antiperiodic():
    vals = exact_spectrum(np.array([[-1.0 + 0j]]), (-4.0, 4.0))
    assert np.allclose(vals, [-np.pi, np.pi])


def test_exact_spectrum_conjugation_invariant(rng):
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    s1 = exact_spectrum(u, (-9.0, 9.0))
    s2 = exact_spectrum(v @ u @ v.conj().T, (-9.0, 9.0))
    assert np.allclose(np.sort(s1), np.sort(s2))


def test_discretize_validation():
    with pytest.raises(InputError):
        discretize_operator(np.eye(1), 8)


def test_discretize_hermitian_and_periodic_spectrum():
    m = 32
    d = discretize_operator(np.eye(1), m)
    assert np.abs(d - d.conj().T).max() == 0.0
    ev = np.sort(np.linalg.eigvalsh(d))
    ks = np.arange(-(m // 2), m - m // 2)
    expected = np.sort(m * np.sin(2 * np.pi * ks / m))
    assert np.abs(ev - expected).max() < 1e-9


def test_discretize_antiperiodic_symmetry():
    ev = np.sort(np.linalg.eigvalsh(discretize_operator(np.array([[-1.0 + 0j]]), 64)))
    assert np.abs(ev + ev[::-1]).max() < 1e-9


def test_discrete_approximates_exact(rng):
    u = random_unitary(1, rng)
    ev = np.linalg.eigvalsh(discretize_operator(u, 256))
    theta = float(np.angle(np.linalg.eigvals(u))[0])
    assert min(abs(ev - theta)) < 1e-2


def test_discrete_convergence_order(rng):
    u = random_unitary(2, rng)
    exact = exact_spectrum(u, (-np.pi, np.pi))
    errs = []
    for m in (64, 128, 256):
        ev = np.linalg.eigvalsh(discretize_operator(u, m))
        errs.append(max(min(abs(ev - x)) for x in exact))
    order = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order >= 1.9 and order2 >= 1.9


def test_loop_flow_twisted():
    loop = UnitaryLoop.from_function(
        lambda t: np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]]), 17)
    assert universal_loop_flow(loop) == 1


def test_loop_flow_constant():
    loop = UnitaryLoop.from_function(lambda t: np.eye(2) * np.exp(0.4j), 9)
    assert universal_loop_flow(loop) == 0


def test_loop_flow_mixed():
    loop = UnitaryLoop.from_function(
        lambda t: np.diag([np.exp(1j * (2 * np.pi * t + np.pi)),
                           np.exp(1j * np.pi / 2)]), 17)
    assert universal_loop_flow(loop) == 1


@pytest.mark.parametrize("n", [3, 65])
def test_loop_flow_winding_equals_dimension(n, rng):
    u0 = random_unitary(n, rng)
    if np.min(np.abs(np.angle(np.linalg.eigvals(u0)))) < 1e-3:
        u0 = u0 * np.exp(0.05j)
    loop = UnitaryLoop.from_function(lambda t: np.exp(2j * np.pi * t) * u0, 33)
    assert universal_loop_flow(loop) == n


@pytest.mark.parametrize("endpoint", [False, True])
@pytest.mark.parametrize("n", [8, 64, 65, 100, 128])
def test_loop_flow_of_evenly_spaced_windings(n, endpoint):
    # at n >= 64 one step moves every phase past two or more neighbours
    loop = UnitaryLoop.from_function(evenly_winding(n, endpoint), 33)
    assert universal_loop_flow(loop) == n


def test_loop_flow_degenerate_endpoint():
    loop = UnitaryLoop.from_function(
        lambda t: np.array([[np.exp(2j * np.pi * t)]]), 17)
    with pytest.raises(PreconditionError, match="degenerate endpoint"):
        universal_loop_flow(loop)


def test_loop_endpoint_mismatch():
    grid = np.linspace(0, 1, 5)
    vals = tuple(np.array([[np.exp(1j * t)]]) for t in grid)
    with pytest.raises(InputError):
        UnitaryLoop(grid, vals)


def test_zero_dimension_loop_is_rejected():
    empty = np.zeros((0, 0))
    with pytest.raises(InputError, match="loop dimension must be >= 1"):
        UnitaryLoop(np.array([0.0, 1.0]), (empty, empty))
    with pytest.raises(InputError, match="loop dimension must be >= 1"):
        UnitaryLoop.from_function(lambda t: empty)


def test_discretized_loop_flow_is_zero():
    # a finite-dimensional discretization of a loop is itself a loop of
    # Hermitian matrices, and loops of finite Hermitian families always
    # have zero net flow (equal endpoint spectra); the physical winding is
    # carried away by the Nyquist branch of the centered-difference stencil
    loop = UnitaryLoop.from_function(
        lambda t: np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]]), 17)
    path = discretized_path(loop, 32)
    assert spectral_flow_tracking(path)[0] == 0


def test_reduction_involution(rng):
    assert np.allclose(universal_reduction(np.eye(1)), -np.eye(1))
    assert np.allclose(universal_reduction(-np.eye(1)), np.eye(1))
    for n in (1, 3, 5):
        u = random_unitary(n, rng)
        r = universal_reduction(u)
        assert np.abs(r.conj().T @ r - np.eye(n)).max() < 1e-10
        assert np.abs(universal_reduction(r) - u).max() < 1e-10


def test_reduced_boundary_lagrangian_identity(rng):
    # {(i(1-U)b, (1+U)b/2)} spans the Cayley graph of the reduced unitary
    assert subspaces_equal(reduced_boundary_frame(np.eye(2)).frame,
                           cayley_graph(-np.eye(2)).frame)
    for n in (1, 2, 4):
        u = random_unitary(n, rng)
        direct = reduced_boundary_frame(u)
        via_reduction = cayley_graph(universal_reduction(u))
        assert subspaces_equal(direct.frame, via_reduction.frame)
