import gc
import json

import numpy as np
import pytest

import lagflow.flow
from lagflow.cli import main as cli_main
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
from lagflow.linalg import Tolerance
from lagflow.serialize import encode_lagrangian
from lagflow.universal import UnitaryLoop, discretized_path, universal_loop_flow

from conftest import evenly_winding, random_hermitian, random_unitary, unitary_with_phases


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


def test_three_roots_in_one_sub_interval_are_an_unresolved_cluster():
    # the roots c - 1e-3, c and c + 1e-3 (signs +, -, +) share the x8
    # sub-interval [1/2, 33/64] around c; the root finder lands on the middle
    # root, and its sign alone misses n-(A(0)) - n-(A(1)) = 1
    c = 0.5078125
    path = HermitianPath.from_function(
        lambda t: np.array([[(t - c) - 1e-3 * np.tanh((t - c) / 1e-5)]]), 9)
    assert spectral_flow_tracking(path)[0] == 1
    with pytest.raises(PreconditionError, match="unresolved cluster"):
        spectral_flow_crossing(path)


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


def test_concatenation_additivity_with_a_dfunc():
    # diag(-1, .5, 2) + t diag(3, -2, 1) crosses at t = 1/4 (-1) and 1/3 (+1);
    # cut between them, each half keeps one crossing, signed by the
    # derivative the restriction rescales
    a, b = np.diag([-1.0, 0.5, 2.0]), np.diag([3.0, -2.0, 1.0])
    path = HermitianPath.from_function(lambda t: a + t * b, 9, dfunc=lambda t: b)
    assert spectral_flow_crossing(path)[0] == 0
    left, right = path.restricted(0.0, 0.3), path.restricted(0.3, 1.0)
    assert left.dfunc is not None
    assert np.allclose(left.derivative_at(0.5), 0.3 * b)
    assert np.allclose(right.derivative_at(0.5), 0.7 * b)
    for half, sign, t in ((left, -1, 0.25 / 0.3), (right, 1, (1.0 / 3.0 - 0.3) / 0.7)):
        flow, crossings = spectral_flow_crossing(half)
        assert (flow, [c.sign for c in crossings]) == (sign, [sign])
        assert abs(crossings[0].t - t) < 1e-12


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
    # U(t) = exp(i pi (1 + 32 t)) is -1 at every node, so its 17-node path
    # passes the 0.5 guard; its steps are too coarse, and the endpoints are
    # checked first
    coarse = LagrangianPath.from_function(
        lambda t: cayley_graph(np.array([[np.exp(1j * np.pi * (1.0 + 32.0 * t))]])), 17)
    assert coarse.grid.size == 17
    for path in (lp, coarse):
        with pytest.raises(PreconditionError, match="degenerate endpoint"):
            maslov_index(path)


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



def test_tracking_route_evaluates_each_parameter_once():
    # the path of test_crossing_route_evaluates_each_parameter_once
    rng = np.random.default_rng(8)
    v = random_unitary(8, rng)
    slopes = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    offsets = np.array([-2.0, -0.3, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0])
    calls = []

    def func(t):
        calls.append(t)
        return (v * (offsets + t * slopes)) @ v.conj().T

    path = HermitianPath.from_function(func, 9)
    calls.clear()
    flow, detail = spectral_flow_tracking(path)
    assert flow == 0
    assert [c.sign for c in detail] == [1, -1]
    assert sorted(calls) == sorted(set(calls))
    assert set(calls) == {float(t) for t in np.linspace(0.0, 1.0, 33)}


def _stacking_corpus():
    """(path, ts) of sampled and func paths, n = 1, 3, 6 and 65, on a uniform
    and a non-uniform grid: t at the nodes, at the midpoints, at 0 and 1, and
    one double inside each end."""
    rng = np.random.default_rng(18)
    for n in (1, 3, 6, 65):
        a, b, c = (random_hermitian(n, rng) for _ in range(3))
        func = lambda t, a=a, b=b, c=c: a + t * b + np.sin(3.0 * t) * c  # noqa: E731
        for grid in (np.linspace(0.0, 1.0, 9), np.array([0.0, 0.013, 0.3, 0.71, 1.0])):
            sampled = HermitianPath(grid, tuple(func(t) for t in grid))
            fpath = HermitianPath(grid, sampled.values, func=func)
            fine = np.linspace(0.0, 1.0, 33)
            ts = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), fine,
                                 [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]])
            for path in (sampled, fpath):
                yield path, np.sort(ts)


def test_stacked_values_and_eigenvalues_equal_value_at_bit_for_bit():
    for path, ts in _stacking_corpus():
        steps = [lagflow.flow._bracket(path.grid, t)[0] for t in ts]
        for i in sorted(set(steps)):
            here = [t for t, j in zip(ts, steps) if j == i]
            stack = path._stack(i, here)
            for t, value in zip(here, stack):
                assert value.tobytes() == path.value_at(t).tobytes()
        rows = list(lagflow.flow._stacked_eigs(path, ts))
        assert len(rows) == ts.size
        for t, vals in zip(ts, rows):
            assert vals.tobytes() == np.linalg.eigvalsh(path.value_at(t)).tobytes()


def test_no_stacked_eigvalsh_holds_more_than_eight_matrices(monkeypatch):
    sizes = []
    original = np.linalg.eigvalsh

    def spy(a):
        sizes.append(a.shape[0] if a.ndim == 3 else 1)
        return original(a)

    monkeypatch.setattr(lagflow.flow.np.linalg, "eigvalsh", spy)
    a, b = np.diag([-1.0, 0.5, 2.0]), np.diag([3.0, -2.0, 1.0])
    grid = np.linspace(0.0, 1.0, 9)
    sampled = HermitianPath(grid, tuple(a + t * b for t in grid))
    loop = UnitaryLoop.from_function(
        lambda t: np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]]), 17)
    for path in (sampled, affine_path(a, b), discretized_path(loop, 32)):
        for route in (spectral_flow_crossing, spectral_flow_tracking):
            sizes.clear()
            route(path)
            assert max(sizes) == (8 if route is spectral_flow_crossing else 4)


def _linspace_refined(grid, factor):
    return np.concatenate([np.linspace(a, b, factor + 1)[:-1]
                           for a, b in zip(grid[:-1], grid[1:])] + [grid[-1:]])


def _unscreened_crossing(path):
    """spectral_flow_crossing as a loop that hands every (interval, branch)
    to _branch_crossings, on a grid refined by linspace: the oracle of the
    screened scan and of _refine_grid."""
    f, tol = lagflow.flow, Tolerance()
    eig_at, eig_rows, scale, node_eps = f._path_eigs(path, tol)
    ts, evs, stuck = f._shift_interior_zeros(_linspace_refined(path.grid, 8), eig_at, eig_rows,
                                             node_eps)
    eig_rows(0.5 * (ts[:-1] + ts[1:])[np.any(evs[:-1] * evs[1:] >= 0.0, axis=1)])
    events = [(t, "touch") for t in stuck]
    touch_eps = max(tol.crossing_eps * 1e-3, 1e-13 * scale)
    for j in range(path.dim):
        branch = lambda t, _j=j: float(eig_at(t)[_j])  # noqa: E731
        for i in range(ts.size - 1):
            f._branch_crossings(branch, ts[i], ts[i + 1], float(evs[i, j]),
                                float(evs[i + 1, j]), touch_eps, events)
    min_abs = lambda t: float(np.min(np.abs(eig_at(t))))  # noqa: E731
    flow, crossings = 0, []
    for t_star, is_touch in f._merge_events(events, 1e-9):
        if is_touch:
            t_star = f._refine_to_minimum(min_abs, t_star, float(np.min(np.diff(ts))))
            if min_abs(t_star) > node_eps:
                continue
        if not (0.0 < t_star < 1.0):
            raise PreconditionError("degenerate endpoint")
        vals, vecs = np.linalg.eigh(path.value_at(t_star))
        kmask = np.abs(vals) <= max(100.0 * np.min(np.abs(vals)), node_eps)
        sgn = f._crossing_signature(vecs[:, kmask], path._rates(t_star), tol)
        crossings.append(f.Crossing(t_star, sgn))
        flow += sgn
    if flow != np.sum(eig_at(0.0) < 0.0) - np.sum(eig_at(1.0) < 0.0):
        raise PreconditionError("unresolved cluster")
    return flow, crossings


def _screen_corpus():
    """Functions and grids: the named cases, then seeded ones, n = 1 to 5,
    on coarse, uniform and non-uniform grids."""
    c = 0.5078125  # a midpoint that the x8 scan probes
    yield lambda t: np.diag([(t - c) ** 2, 1.0]), 9  # tangency on that probe
    yield lambda t: np.diag([(t - 0.3) ** 2, 1.0]), 9  # tangency between probes
    yield lambda t: np.array([[(t - c) - 1e-3 * np.tanh((t - c) / 1e-5)]]), 9  # three roots
    yield lambda t: np.diag([t - 0.5, 1.0]), 5  # a crossing on a node
    yield lambda t: np.diag([t - 0.515625, 0.25 - t]), 9  # and on refined nodes
    yield lambda t: np.array([[0.05 - np.sin(np.pi * t) ** 2]]), 3  # a dip between nodes
    # between the refined nodes c -+ 1/128: a narrow dip through zero, and a
    # V whose probe at c falls below half its ends, with a dip beside c
    yield lambda t: np.array([[0.01 - np.exp(-((t - c) / 0.002) ** 2)]]), 9
    yield lambda t: np.array([[0.001 + 10.0 * abs(t - c)
                               - 0.05 * np.exp(-((t - c - 1 / 256) / 0.001) ** 2)]]), 9
    # exactly zero on a refined node and 1e-8 around it, past its nudges: a zero end
    yield lambda t: np.array([[np.sign(t - 0.53125) * max(0.0, abs(t - 0.53125) - 1e-8)]]), 9
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 5):
        for grid in (2, 3, 5, 9, np.array([0.0, 0.013, 0.3, 0.71, 1.0])):
            a, b, d = (random_hermitian(n, rng) for _ in range(3))
            yield lambda t, a=a, b=b, d=d: a + 3.0 * t * b + np.sin(5.0 * t) * d, grid


def _outcome(route, path):
    try:
        flow, crossings = route(path)
    except (InputError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return flow, [(c.t.hex(), c.sign) for c in crossings]


def test_the_screened_scan_answers_as_the_unscreened_loop():
    kinds = set()
    for func, grid in _screen_corpus():
        if np.ndim(grid) == 0:
            grid = np.linspace(0.0, 1.0, grid)
        for factor in (4, 8):
            fine = _linspace_refined(grid, factor)
            assert lagflow.flow._refine_grid(grid, factor).tobytes() == fine.tobytes()
        sampled = HermitianPath(grid, tuple(func(t) for t in grid))
        for path in (sampled, HermitianPath(grid, sampled.values, func=func)):
            expected = _outcome(_unscreened_crossing, path)
            assert _outcome(spectral_flow_crossing, path) == expected
            kinds.add(expected[1] if isinstance(expected[0], str) else "answer")
    assert kinds == {"answer", "degenerate crossing", "grid too coarse", "unresolved cluster"}


def test_maslov_stacks_at_most_eight_node_phases(monkeypatch):
    sizes = []
    original = np.linalg.eigvals

    def spy(a):
        sizes.append(a.shape[0] if a.ndim == 3 else 1)
        return original(a)

    monkeypatch.setattr(lagflow.flow.np.linalg, "eigvals", spy)
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    lfunc = LagrangianPath.from_function(lambda t: switched_graph(a + 1.5 * t * np.eye(4)), 17)
    for path in (lfunc, LagrangianPath(lfunc.grid, lfunc.values)):
        sizes.clear()
        assert maslov_index(path)[0] == 2
        assert max(sizes) == 8 and sizes[:3] == [8, 8, 1]  # the 17 nodes


@pytest.mark.parametrize("n", [1, 3, 6, 65])
def test_maslov_node_phases_equal_eigvals_node_by_node_bit_for_bit(n):
    a = random_hermitian(n, np.random.default_rng(n))
    graphs = LagrangianPath.from_function(lambda t: switched_graph(a + 1.5 * t * np.eye(n)), 17)
    sampled = LagrangianPath(graphs.grid, graphs.values)
    nodes = sampled._geodesic.nodes
    rows = lagflow.flow._node_phases(nodes)
    assert rows.shape == (len(nodes), n)
    for u, row in zip(nodes, rows):
        assert row.tobytes() == np.angle(np.linalg.eigvals(u)).tobytes()
    lam = np.linalg.eigvalsh(a)
    assert maslov_index(sampled)[0] == int(np.sum((lam < 0.0) & (lam > -1.5)))


def test_a_func_value_of_the_wrong_size_is_an_input_error():
    # one more entry for 0.51 < t < 0.52, where node 33 of the x8 scan lies
    def func(t):
        return np.diag([t - 0.3, 1.0, 2.0] if 0.51 < t < 0.52 else [t - 0.3, 1.0])

    path = HermitianPath.from_function(func, 9)
    with pytest.raises(InputError, match="all path values must share one dimension"):
        spectral_flow_crossing(path)
    assert spectral_flow_tracking(path)[0] == 1  # its x4 scan never reads the window
    square = HermitianPath.from_function(lambda t: np.diag([t - 0.3, 1.0]), 9,
                                         dfunc=lambda t: np.eye(3))
    with pytest.raises(InputError, match="all path values must share one dimension"):
        square.derivative_at(0.5)


_BAD_VALUES = {
    "wrong size": lambda t: np.diag([t - 0.3, 1.0, 2.0]),
    "ragged": lambda t: [[t - 0.3, 0.0], [1.0]],
    "nan": lambda t: np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": lambda t: np.array([[t - 0.3, 0.0], [0.0, -np.inf]]),
    "non-square": lambda t: np.ones((2, 3)),
    "vector": lambda t: np.array([t - 0.3, 1.0]),
    "3-d": lambda t: np.diag([t - 0.3, 1.0])[None],
    "frame": lambda t: cayley_graph(_turning(t)),
    "text": lambda t: "diag(t - 0.3, 1)",
}


@pytest.mark.parametrize("kind", sorted(_BAD_VALUES))
def test_a_bad_func_value_inside_a_stack_is_value_ats_input_error(kind):
    # t = 17/32 is a node of both scans, the third of its x8 stack and the
    # second of its x4 stack; every other value is good
    bad = 17.0 / 32.0

    def func(t):
        return _BAD_VALUES[kind](t) if t == bad else np.diag([t - 0.3, 1.0])

    path = HermitianPath.from_function(func, 9)
    with pytest.raises(InputError) as expected:
        path.value_at(bad)
    for route in (spectral_flow_crossing, spectral_flow_tracking):
        with pytest.raises(InputError) as raised:
            route(path)
        assert str(raised.value) == str(expected.value)


def test_a_func_frame_of_the_wrong_size_is_an_input_error():
    def u(t):
        # an eigenphase passes pi at t = 0.515, inside the window of the extra entry
        k = 3 if 0.51 < t < 0.52 else 2
        return np.diag(np.exp(1j * (2 * np.pi * (t - 0.515) + np.pi + 0.5 * np.arange(k))))

    path = LagrangianPath.from_function(lambda t: cayley_graph(u(t)), 17)
    with pytest.raises(InputError, match="all frames must share one half-dimension"):
        maslov_index(path)
    with pytest.raises(InputError, match="all frames must share one half-dimension"):
        path.frame_at(0.515)


def _turning(t):
    return np.diag(np.exp(1j * (2 * np.pi * t + 0.5 + np.arange(2))))


def test_a_func_value_of_the_wrong_type_is_an_input_error():
    # a frame in place of a matrix for 0.51 < t < 0.52
    path = HermitianPath.from_function(
        lambda t: cayley_graph(_turning(t)) if 0.51 < t < 0.52 else np.diag([t - 0.3, 1.0]), 9)
    with pytest.raises(InputError, match="expected a matrix, got LagrangianFrame"):
        path.value_at(0.515)


def test_a_func_frame_of_the_wrong_type_is_an_input_error():
    # the bare frame matrix in place of the frame for 0.51 < t < 0.52
    def frame(t):
        lag = cayley_graph(_turning(t))
        return lag.frame if 0.51 < t < 0.52 else lag

    path = LagrangianPath.from_function(frame, 17)
    with pytest.raises(InputError, match="path values must be LagrangianFrame instances"):
        path.frame_at(0.515)


def test_a_dfunc_needs_a_func_and_both_are_keywords():
    # a sampled path is signed by its interpolant's slope, never by another
    # derivative, and a third positional argument is an error, not a derivative
    grid = np.linspace(0.0, 1.0, 3)
    values = tuple(np.array([[t - 0.3]]) for t in grid)
    with pytest.raises(InputError, match="dfunc needs func"):
        HermitianPath(grid, values, dfunc=lambda t: np.eye(1))
    with pytest.raises(TypeError):
        HermitianPath(grid, values, tuple(np.eye(1) for _ in grid))


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


def test_frames_farther_apart_than_the_guard_are_an_input_error():
    # sin(0.52) < 0.5 < sin(0.55); an antipodal step is past the geodesics' reach
    def path(phase):
        frames = (cayley_graph(np.eye(1)), cayley_graph(np.array([[np.exp(1j * phase)]])))
        return LagrangianPath(np.array([0.0, 1.0]), frames)

    assert path(1.04).grid.size == 2
    for phase in (1.1, np.pi):
        with pytest.raises(InputError, match="consecutive frames exceed subspace distance 0.5"):
            path(phase)


def test_sampled_paths_decompose_each_grid_step_once(monkeypatch, tmp_path, capsys):
    # the 0.5 guard decomposes the 16 grid steps; maslov_index and the
    # eigenphase plot read those decompositions and decompose no step
    calls = []
    original = lagflow.flow._step_angles

    def counting(ua, ub):
        calls.append(ua.shape)
        return original(ua, ub)

    monkeypatch.setattr(lagflow.flow, "_step_angles", counting)
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    b = 1.5 * np.eye(4)
    path = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    assert (path.grid.size, len(calls)) == (17, 16)
    sampled = LagrangianPath(path.grid, path.values)
    assert len(calls) == 32
    assert maslov_index(sampled)[0] == 2
    assert len(calls) == 32

    calls.clear()
    lpath = tmp_path / "lpath.json"
    lpath.write_text(json.dumps({"grid": path.grid.tolist(),
                                 "values": [encode_lagrangian(f) for f in path.values]}))
    assert cli_main(["maslov", str(lpath), "--plot", str(tmp_path / "phases.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["flow"] == 2
    assert len(calls) == 16


# ---------------------------------------------------------------------------
# the step kernel: eigenphases of R = Ua* Ub from eigh of a Cayley transform


def _kernel_phases(kind, n):
    """Known eigenphases of one kind: spread over (-pi, pi), repeated, or with
    max|phi| just below or just above pi/2 (one pass, or two)."""
    if kind == "spread":
        return (np.arange(n) + 0.5) / n * 2.0 * np.pi - np.pi + 0.01
    if kind == "repeated":
        return np.resize([2.9, -1.0, 0.25], n)
    edge = 0.5 * np.pi * (1.0 - 1e-9 if kind == "below" else 1.0 + 1e-9)
    return np.resize([-edge, 0.3, edge, -1.2], n) if n > 1 else np.array([edge])


def _step_of(phases, seed):
    """(Ua, Ub, R) with R = Ua* Ub = W diag(e^{i phases}) W*, W and Ua Haar."""
    rng = np.random.default_rng(seed)
    r = unitary_with_phases(phases, rng)
    ua = random_unitary(len(phases), rng)
    return ua, ua @ r, r


@pytest.mark.parametrize("kind", ["spread", "repeated", "below", "above"])
@pytest.mark.parametrize("n", [1, 2, 6, 64, 65, 128])
def test_step_kernel_recovers_known_phases(monkeypatch, n, kind):
    eigvals_calls, passes = [], []
    original, original_pass = np.linalg.eigvals, lagflow.flow._cayley_angles

    def counting(a):
        eigvals_calls.append(a.shape)
        return original(a)

    def counting_pass(r, alpha):
        passes.append(alpha)
        return original_pass(r, alpha)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(lagflow.flow, "_cayley_angles", counting_pass)
    phases = _kernel_phases(kind, n)
    ua, ub, r = _step_of(phases, n)
    phi, vecs = lagflow.flow._step_angles(ua, ub)
    assert abs(np.sum(phi) - np.sum(phases)) <= 1e-13
    assert np.max(np.abs(np.sort(phi) - np.sort(phases))) <= 1e-13
    assert np.max(np.abs(vecs @ vecs.conj().T - np.eye(n))) <= 1e-13
    assert np.max(np.abs((vecs * np.exp(1j * phi)) @ vecs.conj().T - r)) <= 1e-13
    # the alpha = 0 pass alone while max|phi| <= pi/2, else a rotated one
    # too, its pole placed from the first pass's phases with no eigvals call
    rotated = np.max(np.abs(phases)) > 0.5 * np.pi
    assert len(passes) == 1 + int(rotated) and passes[0] == 0.0
    assert eigvals_calls == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 2, 6, 64, 65, 128])
def test_step_kernel_guard_decides_as_the_exact_phases(n, sign):
    for offset, too_coarse in ((-1e-8, False), (1e-8, True)):
        phases = _kernel_phases("spread", n) * 0.9
        phases[-1] = sign * (np.pi - 1e-6 + offset)
        ua, ub, _ = _step_of(phases, n)
        if too_coarse:
            with pytest.raises(PreconditionError, match="grid too coarse"):
                lagflow.flow._step_angles(ua, ub)
        else:
            phi, _ = lagflow.flow._step_angles(ua, ub)
            assert abs(np.sum(phi) - np.sum(phases)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 6, 64])
def test_step_kernel_rejects_an_exact_minus_one(n):
    # 1 + R is exactly singular for the diagonal R, nearly so in a Haar basis
    phases = _kernel_phases("spread", n) * 0.5
    phases[0] = np.pi
    diagonal = np.diag(np.exp(1j * phases))
    diagonal[0, 0] = -1.0
    for ua, ub in ((np.eye(n), diagonal), _step_of(phases, n)[:2]):
        with pytest.raises(PreconditionError, match="grid too coarse"):
            lagflow.flow._step_angles(ua, ub)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 65])
def test_subspace_distance_is_the_largest_half_angle_sine(n):
    # ||P_a - P_b||_2 = max|sin(phi/2)|, phi the eigenphases of Ua* Ub
    rng = np.random.default_rng(n)
    for spread in (0.05, 0.5, 2.0):
        ua = random_unitary(n, rng)
        ub = ua @ unitary_with_phases(rng.uniform(-spread, spread, n), rng)
        phi, _ = lagflow.flow._step_angles(ua, ub)
        gap = np.linalg.norm(cayley_graph(ua).projection() - cayley_graph(ub).projection(), 2)
        assert abs(np.max(np.abs(np.sin(0.5 * phi))) - gap) < 1e-13


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


@pytest.mark.parametrize("values, flow", [((-1.0, 0.0, -0.001), 0), ((1.0, 0.0, 0.001), 0),
                                          ((-1.0, 0.0, 1.0), 1), ((-1.0, 0.0, 10.0), 1)])
def test_an_event_on_a_node_counts_half_of_each_side(values, flow):
    # at 0.5 the interpolant has two slopes: the branch touches zero and
    # turns back (flow 0), or passes through (flow 1), with or without a kink
    path = HermitianPath(np.array([0.0, 0.5, 1.0]), tuple(np.array([[v]]) for v in values))
    assert spectral_flow_tracking(path)[0] == flow
    total, crossings = spectral_flow_crossing(path)
    assert (total, [c.sign for c in crossings]) == (flow, [flow])
    assert crossings[0].t == pytest.approx(0.5, abs=1e-12)

    graphs = LagrangianPath.from_function(lambda t: switched_graph(path.value_at(t)), 33)
    assert maslov_index(LagrangianPath(graphs.grid, graphs.values))[0] == flow


@pytest.mark.parametrize("peak", [1e-8, 1e-10])
def test_a_crossing_next_to_a_node_is_signed_on_its_own_step(peak):
    # the branch rises through zero 5e-10 (5e-12) before the node 0.5 with
    # slope 20 and falls back 5e-6 (5e-8) after it with slope -2e-3
    path = HermitianPath(np.array([0.0, 0.5, 1.0]),
                         tuple(np.array([[v]]) for v in (-10.0, peak, -0.001)))
    assert spectral_flow_tracking(path)[0] == 0
    total, crossings = spectral_flow_crossing(path)
    assert (total, [c.sign for c in crossings]) == (0, [1, -1])
    assert crossings[0].t < 0.5 < crossings[1].t

    graphs = LagrangianPath.from_function(lambda t: switched_graph(path.value_at(t)), 33)
    total, crossings = maslov_index(LagrangianPath(graphs.grid, graphs.values))
    assert (total, [c.sign for c in crossings]) == (0, [1, -1])


def test_a_kinked_touch_of_a_func_path_is_a_named_precondition():
    # a func path has no one-sided rates, so the touch cannot be signed
    path = HermitianPath(np.array([0.0, 0.5, 1.0]),
                         tuple(np.array([[v]]) for v in (1.0, 0.0, 0.001)))
    graphs = LagrangianPath.from_function(lambda t: switched_graph(path.value_at(t)), 33)
    with pytest.raises(PreconditionError, match="degenerate crossing"):
        maslov_index(graphs)


def test_paths_keep_read_only_copies_of_the_callers_arrays():
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 1e-13])
    angles = 2 * np.pi * np.linspace(0.0, 1.0, 5) + 0.3
    values = [np.array([[np.exp(1j * x)]]) for x in angles]
    loop = UnitaryLoop(grid, tuple(values))
    assert universal_loop_flow(loop) == 1
    values[1][0, 0] = np.exp(0.3j)  # an edit after construction reaches no cached step
    assert universal_loop_flow(loop) == 1
    assert grid[-1] == 1.0 - 1e-13 and loop.grid[-1] == 1.0
    with pytest.raises(ValueError):
        loop.values[1][0, 0] = 1.0
    frames = tuple(cayley_graph(np.array([[np.exp(0.1j * k)]])) for k in range(grid.size))
    paths = [HermitianPath(grid, tuple(np.eye(1) for _ in grid)),
             LagrangianPath(grid, frames), loop]
    for path in paths:
        with pytest.raises(ValueError):
            path.grid[0] = 0.5
    assert grid[-1] == 1.0 - 1e-13  # no constructor snapped the caller's grid


def test_lagrangian_frames_keep_read_only_copies_of_the_callers_arrays():
    # a sampled path reads a node's frame at the node and its geodesic next to it
    grid = np.linspace(0.0, 1.0, 9)
    arrays = [0.5 * np.vstack([1 + z, -1j * (1 - z)])
              for z in (np.array([[np.exp(0.1j * k)]]) for k in range(grid.size))]
    path = LagrangianPath(grid, tuple(LagrangianFrame(a) for a in arrays))
    at_node, beside = path.frame_at(0.125).frame.copy(), path.frame_at(0.14).frame.copy()
    arrays[1][:] = cayley_graph(np.array([[np.exp(2.0j)]])).frame
    assert np.array_equal(path.frame_at(0.125).frame, at_node)
    assert np.array_equal(path.frame_at(0.14).frame, beside)
    with pytest.raises(ValueError):
        path.values[1].frame[0, 0] = 1.0


@pytest.mark.parametrize("delta, rank_eps, degenerate", [
    (0.5e-12, 1e-14, True), (2e-12, 1e-14, False),  # |theta| within 1e-12 of pi
    (1.5e-8, 1e-8, True), (2.5e-8, 1e-8, False),  # |cos(theta/2)| = sin(delta/2) <= rank_eps
])
def test_maslov_endpoint_a_phase_delta_below_pi(delta, rank_eps, degenerate):
    def frame(t):
        return cayley_graph(np.array([[np.exp(1j * (np.pi - delta - 0.5 * t))]]))

    sampled = LagrangianPath.from_function(frame, 3)
    tol = Tolerance(rank_eps=rank_eps)
    for path in (sampled, LagrangianPath(sampled.grid, sampled.values)):
        if degenerate:
            with pytest.raises(PreconditionError, match="degenerate endpoint"):
                maslov_index(path, tol)
        else:
            assert maslov_index(path, tol) == (0, [])


def test_flow_routes_leave_no_reference_cycles():
    # a cycle would keep a call's caches, or a path's steps, alive until
    # the next collection
    a, b = np.diag([-1.0, 0.5, 2.0]), np.diag([3.0, -2.0, 1.0])
    hpath = affine_path(a, b)
    lfunc = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    windings = np.array([1.0, 1.0, 0.0])
    loop = UnitaryLoop.from_function(
        lambda t: np.diag(np.exp(1j * (np.array([0.3, -1.1, 2.0]) + 2 * np.pi * t * windings))))
    calls = [lambda: maslov_index(lfunc),
             lambda: maslov_index(LagrangianPath.from_function(lfunc.func, 17)),
             lambda: maslov_index(LagrangianPath(lfunc.grid, lfunc.values)),
             lambda: LagrangianPath(lfunc.grid, lfunc.values).frame_at(0.3),
             lambda: spectral_flow_crossing(hpath),
             lambda: spectral_flow_tracking(hpath),
             lambda: universal_loop_flow(loop),
             lambda: universal_loop_flow(UnitaryLoop.from_function(loop.func)),
             lambda: universal_loop_flow(UnitaryLoop(loop.grid, loop.values)),
             lambda: UnitaryLoop(loop.grid, loop.values).value_at(0.3),
             lambda: discretized_path(UnitaryLoop(loop.grid, loop.values), 16).value_at(0.3)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k, call in enumerate(calls):
            call()  # warm-up: first-call caches of numpy
            gc.collect()
            call()
            assert gc.collect() == 0, k
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the bracketed root finder and the crossing times it locates


def _itp_bound(lo, hi, width):
    return max(int(np.ceil(np.log2((hi - lo) / width))), 0) + 1


def _check_root(g, lo, hi, width):
    """_root on g over [lo, hi]: its evaluations, and its answer checked."""
    seen = {lo: g(lo), hi: g(hi)}
    calls = []

    def counted(x):
        calls.append(x)
        seen[x] = g(x)
        return seen[x]

    t, left, right = lagflow.flow._root(counted, lo, hi, seen[lo], seen[hi], width)
    assert len(calls) <= _itp_bound(lo, hi, width)
    assert lo <= left <= t <= right <= hi
    assert t in seen and left in seen and right in seen  # only points where g is known
    if seen[t] != 0.0:  # else an exact zero
        # as wide as width, up to the rounding of the bracket's ends
        assert t in (left, right) and right - left <= width + 4 * np.spacing(abs(t))
        assert np.sign(seen[left]) == -np.sign(seen[right]) != 0
        assert abs(seen[t]) == min(abs(seen[left]), abs(seen[right]))
    return t, len(calls)


@pytest.mark.parametrize("seed", range(20))
def test_root_on_smooth_functions(seed):
    rng = np.random.default_rng(seed)
    root = rng.uniform(-1.0, 2.0)
    lo, hi = root - rng.uniform(1e-3, 2.0), root + rng.uniform(1e-3, 2.0)
    slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
    # the log-slope of g changes by up to 1 over [lo, hi] (mild) or by up
    # to 24 (steep); ITP keeps its superlinear steps on the first, and on
    # the second it may spend its slack and finish by bisection
    for bend, most in ((rng.uniform(-1.0, 1.0) / (hi - lo), 12), (rng.uniform(-3.0, 3.0), None)):
        def g(x):  # one simple zero, at root
            return slope * (x - root) * np.exp(bend * (x - root))

        for width in (1e-15, 1e-14, 1e-10):
            t, evals = _check_root(g, lo, hi, width)
            assert abs(t - root) <= max(width, 4e-16 * max(1.0, abs(root)))
            assert most is None or evals <= most  # bisection takes 35 to 53


@pytest.mark.filterwarnings("error")  # a division by zero raises, in numpy floats too
@pytest.mark.parametrize("name", ["step", "flat", "noise", "triple", "plateau", "kink"])
def test_root_is_never_worse_than_bisection(name):
    def noise(x):  # sign noise of size 1e-12 within about 1e-12 of 0.4
        return 1e-12 * (-1.0) ** int(abs(x) * 1e15 % 7)

    g = {"step": lambda x: -1.0 if x < 0.3 else 2.0,
         "flat": lambda x: 1e3 * max(x - 0.7, 0.0) - 1e-9,  # -1e-9 up to 0.7
         "noise": lambda x: (x - 0.4) + noise(x),
         "triple": lambda x: (x - 0.3) ** 3,
         # -0.05 up to 0.55, in Python floats: the first step lands there, and
         # the inverse-quadratic step's quotients meet g_c = g_a
         "plateau": lambda x: float(max(x - 0.6, -0.05)),
         "kink": lambda x: float(x - 0.3 if x < 0.3 else 1e3 * (x - 0.3))}[name]
    for lo, hi in ((0.0, 1.0), (-3.0, 0.9)):
        for width in (1e-15, 1e-14, 1e-6):
            _check_root(g, lo, hi, width)


def test_root_spends_few_evaluations_on_mild_bends():
    # the mild bends of test_root_on_smooth_functions, over 200 seeds:
    # regula falsi's estimate alone spent 8.2 evaluations a root on them
    evals = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        root = rng.uniform(-1.0, 2.0)
        lo, hi = root - rng.uniform(1e-3, 2.0), root + rng.uniform(1e-3, 2.0)
        slope = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
        bend = rng.uniform(-1.0, 1.0) / (hi - lo)
        for width in (1e-15, 1e-14, 1e-10):
            evals.append(_check_root(
                lambda x: slope * (x - root) * np.exp(bend * (x - root)), lo, hi, width)[1])
    assert np.mean(evals) <= 6.0


@pytest.mark.parametrize("n", [1, 6, 64, 65])
def test_crossing_times_are_the_exact_roots(n):
    # A(t) = V diag(a + t b) V*: the first three entries (one if n = 1) cross
    # zero at -a/b, the others stay at least 0.8 away from it
    rng = np.random.default_rng(n)
    v = random_unitary(n, rng)
    roots = np.array([0.23, 0.52, 0.81])[:min(n, 3)]
    rest = n - roots.size
    b = np.concatenate([[1.3, -0.9, 1.1][:roots.size], rng.uniform(-0.2, 0.2, rest)])
    a = np.concatenate([-roots * b[:roots.size],
                        rng.choice([-1.0, 1.0], rest) * rng.uniform(1.0, 2.0, rest)])

    def value(t):
        return (v * (a + t * b)) @ v.conj().T

    signs = list(np.sign(b[:roots.size]).astype(int))
    func_path = HermitianPath.from_function(value, 9)
    for path in (func_path, HermitianPath(func_path.grid, func_path.values)):
        flow, crossings = spectral_flow_crossing(path)
        assert [c.sign for c in crossings] == signs
        assert np.max(np.abs([c.t for c in crossings] - roots)) <= 1e-13

    graphs = LagrangianPath.from_function(lambda t: switched_graph(value(t)), 17)
    sampled = LagrangianPath(graphs.grid, graphs.values)
    # on the sampled path U(t) keeps the eigenbasis V, and each eigenphase
    # moves linearly on a grid step: its passage through pi is exact
    theta = np.array([np.angle(np.diag(v.conj().T @ lagrangian_to_unitary(f) @ v))
                      for f in graphs.values])
    sampled_roots = []
    for i in range(roots.size):
        j = int(np.searchsorted(graphs.grid, roots[i])) - 1
        h = graphs.grid[j + 1] - graphs.grid[j]
        turn = np.angle(np.exp(1j * (theta[j + 1, i] - theta[j, i])))
        to_pi = np.mod(np.sign(turn) * (np.pi - theta[j, i]), 2.0 * np.pi)
        sampled_roots.append(graphs.grid[j] + to_pi / abs(turn) * h)
    for path, exact in ((graphs, roots), (sampled, np.array(sampled_roots))):
        flow, crossings = maslov_index(path)
        assert [c.sign for c in crossings] == signs
        assert np.max(np.abs([c.t for c in crossings] - exact)) <= 1e-13


def test_crossing_route_spends_few_evaluations_per_crossing():
    # bisection to width 1e-15 spent 47 evaluations per crossing
    rng = np.random.default_rng(11)
    n = 64
    a = random_hermitian(n, rng, 1.0 / 8.0)
    b = random_hermitian(n, rng, 1.0 / 8.0) + 0.3 * np.eye(n)
    calls = []

    def func(t):
        calls.append(t)
        return a + t * b

    path = HermitianPath.from_function(func, 3, dfunc=lambda t: b)
    calls.clear()
    flow, crossings = spectral_flow_crossing(path)
    assert flow == spectral_flow_tracking(path)[0] and len(crossings) == 5
    scan = np.linspace(0.0, 1.0, 33)  # the x8 refined nodes and the midpoints between them
    beyond = [t for t in calls if np.min(np.abs(scan - t)) > 1e-12]
    # the root finder's steps, and A(t) once more at each crossing for its kernel
    assert len(beyond) <= 10 * len(crossings)


def test_maslov_spends_few_evaluations_per_passage():
    # the Maslov twin of the test above, on the switched graphs of a func path
    rng = np.random.default_rng(12)
    n = 8
    a = random_hermitian(n, rng, 1.0 / 8.0)
    b = random_hermitian(n, rng, 1.0 / 8.0) + 0.3 * np.eye(n)
    calls = []

    def func(t):
        calls.append(t)
        return switched_graph(a + t * b)

    path = LagrangianPath.from_function(func, 17)
    calls.clear()
    flow, crossings = maslov_index(path)
    assert (flow, len(crossings)) == (3, 3)
    checks = 0.5 * (path.grid[:-1] + path.grid[1:])  # the first count halves each step once
    beyond = [t for t in calls if np.min(np.abs(checks - t)) > 1e-12]
    # the root finder's steps, and four values of the Richardson difference
    # that signs each passage
    assert len(beyond) <= 10 * len(crossings)


@pytest.mark.parametrize("sampled", [False, True])
def test_maslov_recounts_a_root_where_the_nearest_eigenvalue_changes(monkeypatch, sampled):
    # the first phase rises through pi at t = 0.6.  Near -1 at t = 0 is the
    # third (theta = pi - 0.05, arg(-lambda) < 0), which moves away, so the
    # second (-pi + 0.16, arg(-lambda) > 0) is nearest from t = 0.22: there
    # arg(-lambda) jumps across 0 with no passage
    v = random_unitary(3, np.random.default_rng(5))

    def frame(t):
        theta = np.array([np.pi + (t - 0.6), -np.pi + 0.16, np.pi - 0.05 - 0.5 * t])
        return cayley_graph((v * np.exp(1j * theta)) @ v.conj().T)

    path = LagrangianPath.from_function(frame, 2)
    if sampled:  # the phases move linearly, so the geodesic is the same path
        path = LagrangianPath(path.grid, path.values)
    assert path.grid.size == 2
    found = []
    original = lagflow.flow._root

    def recording(*args):
        found.append(original(*args))
        return found[-1]

    monkeypatch.setattr(lagflow.flow, "_root", recording)
    flow, crossings = maslov_index(path)
    assert abs(found[0][0] - 0.22) < 1e-12  # the jump, which the recount rejects
    assert (flow, [c.sign for c in crossings]) == (1, [1])
    assert abs(crossings[0].t - 0.6) < 1e-13


def test_func_maslov_decomposes_each_grid_step_once(monkeypatch):
    # the 0.5 guard decomposes the node pairs; maslov_index reads them and
    # asks func nothing at a grid node
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    b = 1.5 * np.eye(4)
    calls, pairs = [], []

    def func(t):
        calls.append(t)
        return switched_graph(a + t * b)

    original = lagflow.flow._step_angles

    def counting(ua, ub):
        pairs.append((ua, ub))
        return original(ua, ub)

    monkeypatch.setattr(lagflow.flow, "_step_angles", counting)
    path = LagrangianPath.from_function(func, 17)
    assert path.grid.size == 17 and len(pairs) == 16
    calls.clear()
    flow, crossings = maslov_index(path)
    assert (flow, [c.sign for c in crossings]) == (2, [1, 1])
    assert not set(calls) & set(path.grid)
    nodes = [lagrangian_to_unitary(f) for f in path.values]
    for ua, ub in zip(nodes[:-1], nodes[1:]):
        same = [p for p in pairs if np.array_equal(p[0], ua) and np.array_equal(p[1], ub)]
        assert len(same) == 1


def test_func_maslov_checks_its_steps_once(monkeypatch):
    # the first count halves each of the 16 steps once, to check it: two
    # step decompositions and one func call per step, and the locating adds
    # its own; a later count reads the checked steps and makes only the
    # locating's calls, which in the first call found two of the check's
    # U(t) cached
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    b = 1.5 * np.eye(4)
    step_calls, func_calls = [], []
    original = lagflow.flow._step_angles

    def counting(ua, ub):
        step_calls.append(ua.shape)
        return original(ua, ub)

    def func(t):
        func_calls.append(t)
        return switched_graph(a + t * b)

    monkeypatch.setattr(lagflow.flow, "_step_angles", counting)
    path = LagrangianPath.from_function(func, 17)
    assert (path.grid.size, len(step_calls)) == (17, 16)
    counts = []
    for _ in range(2):
        step_calls.clear()
        func_calls.clear()
        assert maslov_index(path)[0] == 2
        counts.append((len(step_calls), len(func_calls)))
    assert counts[0] == (34, 30)
    assert counts[1] == (34 - 32, 30 - 16 + 2)
