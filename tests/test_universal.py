import numpy as np
import pytest

import lagflow.flow
from lagflow.errors import InputError, PreconditionError
from lagflow.flow import LagrangianPath, maslov_index, spectral_flow_tracking
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

from conftest import count_steps, evenly_winding, random_unitary


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


def winding_pair(phase):
    """t |-> diag(e^{i phase(t)}, e^{0.3i}): one phase moves, the other stays off 0 and pi."""
    return lambda t: np.diag([np.exp(1j * phase(t)), np.exp(0.3j)])


def winding(w):
    return winding_pair(lambda t: 2 * np.pi * w * t + 0.5)


# four excursions up to 0.98 pi past the start and back; the phase passes
# pi and -pi but nets no turn, and every node of 5 or 9 sits where it rests
bumps = winding_pair(lambda t: 0.98 * np.pi * np.sin(8 * np.pi * t) + 0.5)


def cayley_func_path(u, nodes):
    """A ``func`` path of Cayley graphs on exactly ``nodes`` nodes (no guard refinement)."""
    grid = np.linspace(0.0, 1.0, nodes)
    func = lambda t: cayley_graph(u(t))  # noqa: E731
    return LagrangianPath(grid, tuple(func(t) for t in grid), func)


@pytest.mark.parametrize("nodes", [5, 3])
def test_loop_flow_refines_steps_a_func_loop_turns_past_their_reach(nodes):
    # a step of 3/4 or 3/2 turns reads as a short turn backwards; halved
    # until every step turns at most pi/2, the count is the winding
    loop = UnitaryLoop.from_function(winding(3), nodes)
    assert universal_loop_flow(loop) == universal_loop_flow(loop) == 3


def test_a_func_loop_that_turns_once_per_step_is_too_coarse():
    # both nodes coincide; the halving check sees the turn the step hides
    loop = UnitaryLoop.from_function(winding(1), 2)
    path = cayley_func_path(winding(1), 2)
    for call in (lambda: universal_loop_flow(loop), lambda: maslov_index(path)) * 2:
        with pytest.raises(PreconditionError, match="grid too coarse"):
            call()


@pytest.mark.parametrize("phase, nodes", [
    # a tent up to 1.6 pi at t = 1/2 and back: each node step reads as a
    # short turn of -0.4 pi, but its halves turn 0.8 pi each
    (lambda t: 0.5 + 3.2 * np.pi * min(t, 1.0 - t), 3),
    # a jump of 0.9 pi at t = 0.3 stays wider than pi/2 at every halving
    (lambda t: 0.5 + 0.9 * np.pi * (0.3 <= t < 0.7), 5),
])
def test_a_func_loop_that_halving_cannot_resolve_is_too_coarse(phase, nodes):
    loop = UnitaryLoop.from_function(winding_pair(phase), nodes)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="grid too coarse"):
            universal_loop_flow(loop)


@pytest.mark.parametrize("nodes", [5, 9, 17])
def test_excursions_between_the_nodes_of_a_func_loop_net_nothing(nodes):
    loop = UnitaryLoop.from_function(bumps, nodes)
    assert universal_loop_flow(loop) == universal_loop_flow(loop) == 0
    if nodes < 17:  # at 17 nodes the frames break the 0.5 guard
        path = cayley_func_path(bumps, nodes)
        assert maslov_index(path)[0] == maslov_index(path)[0] == 0


def test_a_func_loop_checks_its_steps_once(monkeypatch):
    calls = count_steps(monkeypatch)
    loop = UnitaryLoop.from_function(winding(3), 5)
    assert universal_loop_flow(loop) == 3
    assert calls
    calls.clear()
    assert universal_loop_flow(loop) == 3
    assert calls == []


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


def test_a_func_loop_value_of_the_wrong_type_is_an_input_error():
    # a frame in place of a unitary for 0.51 < t < 0.52
    def u(t):
        return np.diag(np.exp(1j * (2 * np.pi * t + 0.5 + np.arange(2))))

    loop = UnitaryLoop.from_function(
        lambda t: cayley_graph(u(t)) if 0.51 < t < 0.52 else u(t), 33)
    with pytest.raises(InputError, match="expected a matrix, got LagrangianFrame"):
        loop.value_at(0.515)


def test_a_func_loop_value_of_the_wrong_size_is_an_input_error():
    # one more entry for 0.51 < t < 0.52, which holds the midpoint 33/64 of
    # a step the loop count checks
    def u(t):
        k = 3 if 0.51 < t < 0.52 else 2
        return np.diag(np.exp(1j * (2 * np.pi * t + 0.5 + np.arange(k))))

    loop = UnitaryLoop.from_function(u, 33)
    with pytest.raises(InputError, match="all loop values must share one dimension"):
        universal_loop_flow(loop)
    with pytest.raises(InputError, match="all loop values must share one dimension"):
        loop.value_at(0.515)
