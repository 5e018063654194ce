import gc

import numpy as np
import pytest

import lagflow.flow
from lagflow.errors import InputError, PreconditionError
from lagflow.flow import (
    HermitianPath,
    LagrangianPath,
    maslov_index,
    spectral_flow_crossing,
    spectral_flow_tracking,
)
from lagflow.grassmann import (
    LagrangianFrame,
    cayley_graph,
    lagrangian_to_unitary,
    switched_graph,
)
from lagflow.universal import UnitaryLoop, universal_loop_flow

from conftest import evenly_winding, random_hermitian, random_unitary


def affine_path(a, b, nodes=9):
    return HermitianPath.from_function(lambda t: a + t * b, nodes)


def admissible_affine(n, rng, speed=3.0):
    """Random affine path with invertible endpoints and clean crossings."""
    for _ in range(100):
        a = random_hermitian(n, rng)
        b = speed * random_hermitian(n, rng)
        path = affine_path(a, b)
        try:
            flow, _ = spectral_flow_crossing(path)
        except PreconditionError:
            continue
        return path, flow
    raise RuntimeError("could not build an admissible path")


def test_path_validation():
    with pytest.raises(InputError):
        HermitianPath(np.array([0.0, 0.5]), (np.eye(1), np.eye(1), np.eye(1)))
    with pytest.raises(InputError):
        HermitianPath(np.array([0.0, 0.4, 0.2, 1.0]), tuple(np.eye(1) for _ in range(4)))


def test_zero_dimension_paths_are_rejected():
    # 0 x 0 values used to reach spectral_flow_* and maslov_index, which
    # failed with numpy's "zero-size array" ValueError
    empty = np.zeros((0, 0))
    with pytest.raises(InputError, match="dimension must be >= 1"):
        HermitianPath(np.array([0.0, 1.0]), (empty, empty))
    with pytest.raises(InputError, match="dimension must be >= 1"):
        HermitianPath.from_function(lambda t: empty)
    frame = LagrangianFrame(empty)  # n = 0 stays a frame: a lagrangian W reduces to it
    assert frame.n == 0
    with pytest.raises(InputError, match="half-dimension must be >= 1"):
        LagrangianPath(np.array([0.0, 1.0]), (frame, frame))


def test_single_positive_crossing():
    path = HermitianPath.from_function(lambda t: np.array([[t - 0.5]]), 9)
    assert spectral_flow_crossing(path)[0] == 1
    assert spectral_flow_tracking(path)[0] == 1
    crossings = spectral_flow_crossing(path)[1]
    assert len(crossings) == 1
    assert abs(crossings[0].t - 0.5) < 1e-10


def test_constant_invertible_path():
    path = HermitianPath.from_function(lambda t: np.eye(3), 5)
    assert spectral_flow_crossing(path)[0] == 0
    assert spectral_flow_tracking(path)[0] == 0


def test_cancelling_pair():
    path = HermitianPath.from_function(lambda t: (t - 0.5) * np.diag([1.0, -1.0]), 9)
    assert spectral_flow_crossing(path)[0] == 0
    assert spectral_flow_tracking(path)[0] == 0


def test_degenerate_endpoint():
    path = HermitianPath.from_function(lambda t: np.array([[t]]), 9)
    with pytest.raises(PreconditionError, match="degenerate endpoint"):
        spectral_flow_crossing(path)
    with pytest.raises(PreconditionError, match="degenerate endpoint"):
        spectral_flow_tracking(path)


def test_degenerate_crossing_rejected():
    # exact tangency: the eigenvalue touches zero with vanishing crossing form
    path = HermitianPath.from_function(lambda t: np.array([[(t - 0.5) ** 2]]), 9)
    with pytest.raises(PreconditionError, match="degenerate crossing|grid too coarse"):
        spectral_flow_crossing(path)


def test_near_tangency_resolves_to_zero():
    # dips below zero by more than the threshold: two honest crossings
    path = HermitianPath.from_function(
        lambda t: np.array([[(t - 0.5) ** 2 - 1e-6]]), 9)
    flow, crossings = spectral_flow_crossing(path)
    assert flow == 0
    assert len(crossings) == 2


def test_double_crossing_between_nodes():
    # the branch dips through zero and back between two coarse nodes
    path = HermitianPath.from_function(
        lambda t: np.array([[0.05 - np.sin(np.pi * t) ** 2]]), 3)
    flow, crossings = spectral_flow_crossing(path)
    assert flow == 0
    assert len(crossings) == 2


def test_node_exactly_on_crossing():
    # grid node sits at the crossing parameter
    grid = np.linspace(0.0, 1.0, 5)  # includes 0.5
    vals = tuple(np.array([[t - 0.5]]) for t in grid)
    path = HermitianPath(grid, vals)
    assert spectral_flow_crossing(path)[0] == 1
    assert spectral_flow_tracking(path)[0] == 1


def test_sampled_equals_functional_for_affine(rng):
    a = random_hermitian(3, rng)
    b = 3.0 * random_hermitian(3, rng)
    func_path = affine_path(a, b)
    grid = np.linspace(0, 1, 9)
    sampled = HermitianPath(grid, tuple(a + t * b for t in grid))
    try:
        f1 = spectral_flow_crossing(func_path)[0]
    except PreconditionError:
        pytest.skip("inadmissible sample")
    assert spectral_flow_crossing(sampled)[0] == f1


def test_cross_algorithm_agreement(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        path, flow = admissible_affine(n, rng)
        assert spectral_flow_tracking(path)[0] == flow


def test_analytic_derivatives_match_fd(rng):
    a = random_hermitian(4, rng)
    b = 3.0 * random_hermitian(4, rng)
    with_d = HermitianPath.from_function(lambda t: a + t * b, 9,
                                         dfunc=lambda t: b)
    without = affine_path(a, b)
    try:
        f1 = spectral_flow_crossing(with_d)[0]
    except PreconditionError:
        pytest.skip("inadmissible sample")
    assert spectral_flow_crossing(without)[0] == f1


def test_concatenation_additivity(rng):
    for _ in range(10):
        path, flow = admissible_affine(int(rng.integers(1, 6)), rng)
        mid = path.value_at(0.5)
        if np.min(np.abs(np.linalg.eigvalsh(mid))) < 1e-3:
            continue
        left = path.restricted(0.0, 0.5)
        right = path.restricted(0.5, 1.0)
        assert spectral_flow_crossing(left)[0] + spectral_flow_crossing(right)[0] == flow


def test_homotopy_invariance_small_loop(rng):
    path, flow = admissible_affine(3, rng)
    gap = min(np.min(np.abs(np.linalg.eigvalsh(path.value_at(t))))
              for t in (0.0, 1.0))
    bump = random_hermitian(3, rng)
    bump *= (0.4 * gap) / max(1.0, np.abs(bump).max())
    wobbly = HermitianPath.from_function(
        lambda t: path.value_at(t) + np.sin(2 * np.pi * t) ** 2 * bump, 17)
    assert spectral_flow_crossing(wobbly)[0] == flow


def test_maslov_switched_graph_example():
    lp = LagrangianPath.from_function(
        lambda t: switched_graph(np.array([[t - 0.5]])), 17)
    flow, crossings = maslov_index(lp)
    assert flow == 1
    assert abs(crossings[0].t - 0.5) < 1e-8


def test_maslov_generator_loop():
    lp = LagrangianPath.from_function(
        lambda t: cayley_graph(np.array([[np.exp(2j * np.pi * t)]])), 33)
    assert maslov_index(lp)[0] == 1


def test_maslov_constant_path():
    frame = cayley_graph(np.diag([np.exp(0.4j), np.exp(-0.9j)]))
    lp = LagrangianPath.from_function(lambda t: frame, 5)
    assert maslov_index(lp)[0] == 0


def test_maslov_degenerate_endpoint():
    lp = LagrangianPath.from_function(
        lambda t: switched_graph(np.array([[t]])), 9)
    with pytest.raises(PreconditionError, match="degenerate endpoint"):
        maslov_index(lp)


def test_maslov_equals_spectral_flow(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        path, flow = admissible_affine(n, rng)
        lp = LagrangianPath.from_function(
            lambda t, p=path: switched_graph(p.value_at(t)), 17)
        assert maslov_index(lp)[0] == flow


def test_maslov_gauge_invariance(rng):
    # right-multiplying each node frame by a unitary changes nothing
    a = random_hermitian(2, rng)
    b = 3.0 * random_hermitian(2, rng)
    base = LagrangianPath.from_function(
        lambda t: switched_graph(a + t * b), 33)
    try:
        flow = maslov_index(base)[0]
    except PreconditionError:
        pytest.skip("inadmissible sample")
    gauged_frames = tuple(
        LagrangianFrame(v.frame @ random_unitary(2, rng)) for v in base.values)
    gauged = LagrangianPath(base.grid, gauged_frames)
    assert maslov_index(gauged)[0] == flow


def test_maslov_sampled_path(rng):
    # node-sampled path (no callable): frames interpolate through unitaries
    grid = np.linspace(0, 1, 33)
    frames = tuple(cayley_graph(np.array([[np.exp(2j * np.pi * t)]])) for t in grid)
    lp = LagrangianPath(grid, frames)
    assert maslov_index(lp)[0] == 1


def test_maslov_double_winding_and_horizontal_passage():
    # both eigenphases wind once: two crossings of the train; the passage
    # of eigenphases through 0 (the path meeting H+) must not count
    def frame(t):
        u = np.diag([np.exp(1j * (2 * np.pi * t + 0.5)),
                     np.exp(1j * (2 * np.pi * t - 0.5))])
        return cayley_graph(u)

    lp = LagrangianPath.from_function(frame, 65)
    flow, crossings = maslov_index(lp)
    assert flow == 2
    assert len(crossings) == 2


def test_tracking_counts_a_branch_flat_at_zero():
    # the eigenvalue sits exactly on zero over a whole grid interval, so
    # no node can be nudged off it; the inertia count still sees n-(0) = 1
    # and n-(1) = 0
    grid = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    vals = tuple(np.array([[v]]) for v in (-1.0, 0.0, 0.0, 1.0))
    path = HermitianPath(grid, vals)
    flow, detail = spectral_flow_tracking(path)
    assert flow == 1
    assert [c.sign for c in detail] == [1]
    with pytest.raises(PreconditionError):
        spectral_flow_crossing(path)


def test_maslov_with_branches_moving_past_their_gap():
    # parallel branches move farther than their gap in one step, so no
    # matching of the sorted phases at the nodes can follow them
    theta = np.array([2.019, 1.768])
    cayley = LagrangianPath.from_function(
        lambda t: cayley_graph(np.diag(np.exp(1j * (theta + 2 * np.pi * t)))), 17)
    flow, crossings = maslov_index(cayley)
    assert flow == 2
    assert [c.sign for c in crossings] == [1, 1]

    rng = np.random.default_rng(64)
    a = random_hermitian(64, rng) / 8.0
    b = random_hermitian(64, rng)
    switched = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 9)
    flow, crossings = maslov_index(switched)
    assert flow == spectral_flow_tracking(affine_path(a, b))[0] == 0
    assert sum(c.sign for c in crossings) == 0


@pytest.mark.parametrize("endpoint", [False, True])
@pytest.mark.parametrize("n", [8, 64, 65])
def test_maslov_of_evenly_spaced_windings(n, endpoint):
    # at n >= 64 one step moves every phase past four or more neighbours,
    # so the sorted phase sets at consecutive nodes look almost unmoved
    u = evenly_winding(n, endpoint)
    lp = LagrangianPath.from_function(lambda t: cayley_graph(u(t)), 17)
    assert maslov_index(lp)[0] == n


def test_crossing_route_evaluates_each_parameter_once():
    # in the eigenbasis v, the second entry rises through zero at t = 0.3
    # and the third falls through it at t = 0.7; the other six stay away
    rng = np.random.default_rng(8)
    v = random_unitary(8, rng)
    slopes = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    offsets = np.array([-2.0, -0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0])
    calls = []

    def func(t):
        calls.append(t)
        return (v * (offsets + t * slopes)) @ v.conj().T

    path = HermitianPath.from_function(func, 9, dfunc=lambda t: (v * slopes) @ v.conj().T)
    calls.clear()
    flow, crossings = spectral_flow_crossing(path)
    assert flow == 0
    assert [c.sign for c in crossings] == [1, -1]
    # each parameter value is evaluated once; a located crossing once more,
    # for the eigenvectors of its kernel
    counts = {t: calls.count(t) for t in calls}
    located = {c.t for c in crossings}
    assert located <= set(counts)
    assert {t: k for t, k in counts.items() if k != (2 if t in located else 1)} == {}


def test_sampled_maslov_decomposes_each_node_step_once(monkeypatch):
    # two eigenvalues of a + t b cross zero, at t = 1/3 and 2/3
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    b = 1.5 * np.eye(4)
    sampled = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    path = LagrangianPath(sampled.grid, sampled.values)  # geodesics between nodes
    nodes = [lagrangian_to_unitary(f) for f in path.values]
    pairs = []
    original = lagflow.flow._step_angles

    def counting(ua, ub):
        pairs.append((ua, ub))
        return original(ua, ub)

    monkeypatch.setattr(lagflow.flow, "_step_angles", counting)
    flow, crossings = maslov_index(path)
    assert flow == 2
    assert len(crossings) == 2  # located inside steps, on the geodesics
    for ua, ub in zip(nodes[:-1], nodes[1:]):
        same = [p for p in pairs if np.array_equal(p[0], ua) and np.array_equal(p[1], ub)]
        assert len(same) <= 1


def test_from_function_measures_each_gap_once(monkeypatch):
    projections = []
    original = LagrangianFrame.projection

    def counting(self):
        projections.append(self)
        return original(self)

    monkeypatch.setattr(LagrangianFrame, "projection", counting)
    rng = np.random.default_rng(17)
    a, b = random_hermitian(6, rng), random_hermitian(6, rng)
    path = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    assert path.grid.size == 17
    assert len(projections) == 2 * 16  # two projections per gap, 16 gaps


def test_sampled_path_is_signed_with_its_interpolant_slope():
    # the branch rises through zero 7e-5 before the node at 0.5, where its
    # slope jumps from 2 to 2000; a difference across that node gave sign -1
    path = HermitianPath(np.array([0.0, 0.5, 1.0]),
                         tuple(np.array([[v]]) for v in (-1.0, 1.4e-4, 1000.0)))
    flow, crossings = spectral_flow_crossing(path)
    assert (flow, [c.sign for c in crossings]) == (1, [1])
    assert crossings[0].t == pytest.approx(0.5 / (1.0 + 1.4e-4), abs=1e-12)
    assert path.derivative_at(0.4)[0, 0] == pytest.approx(2.0 * (1.0 + 1.4e-4), rel=1e-15)
    assert spectral_flow_tracking(path)[0] == 1


def test_sampled_maslov_is_signed_with_the_geodesic_speed():
    # e^{i theta(t)} passes through -1 7e-5 before the node at 0.5, where
    # the phase speed jumps from 2 to 50
    grid = np.array([0.0, 0.25, 0.5, 0.52, 0.76, 1.0])
    theta = np.pi + 1.4e-4 + np.array([-1.0, -0.5, 0.0, 1.0, 1.5, 2.0])
    path = LagrangianPath(grid, tuple(cayley_graph(np.array([[np.exp(1j * x)]]))
                                      for x in theta))
    flow, crossings = maslov_index(path)
    assert (flow, [c.sign for c in crossings]) == (1, [1])
    assert crossings[0].t == pytest.approx(0.5 - 7e-5, abs=1e-12)


def test_flow_routes_leave_no_reference_cycles():
    # a cycle would keep a call's caches alive until the next collection
    a, b = np.diag([-1.0, 0.5, 2.0]), np.diag([3.0, -2.0, 1.0])
    hpath = affine_path(a, b)
    lfunc = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    windings = np.array([1.0, 1.0, 0.0])
    loop = UnitaryLoop.from_function(
        lambda t: np.diag(np.exp(1j * (np.array([0.3, -1.1, 2.0]) + 2 * np.pi * t * windings))))
    calls = [(maslov_index, lfunc),
             (maslov_index, LagrangianPath(lfunc.grid, lfunc.values)),
             (spectral_flow_crossing, hpath),
             (spectral_flow_tracking, hpath),
             (universal_loop_flow, loop),
             (universal_loop_flow, UnitaryLoop(loop.grid, loop.values))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for route, arg in calls:
            route(arg)  # warm-up: first-call caches of numpy and scipy
            gc.collect()
            route(arg)
            assert gc.collect() == 0, route.__name__
    finally:
        if enabled:
            gc.enable()
