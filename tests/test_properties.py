"""Property tests of the Cayley correspondence, the Schubert index it induces,
the Maslov index and the loop flow.

The examples are derandomized, so every run draws the same cases.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagflow.cli import main
from lagflow.flow import (
    HermitianPath,
    LagrangianPath,
    maslov_index,
    spectral_flow_crossing,
    spectral_flow_tracking,
)
from lagflow.grassmann import cayley_graph, lagrangian_to_unitary, switched_graph
from lagflow.schubert import Flag, schubert_index_of
from lagflow.serialize import encode_lagrangian
from lagflow.universal import UnitaryLoop, universal_loop_flow

from conftest import random_hermitian, random_unitary, unitary_with_phases

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=st.integers(1, 70), seed=SEEDS)
def test_cayley_round_trip(n, seed):
    # the sizes cross n = 64
    u = random_unitary(n, np.random.default_rng(seed))
    assert np.abs(lagrangian_to_unitary(cayley_graph(u)) - u).max() < 1e-10


@PROPERTY
@given(m=st.integers(0, 8), others=st.lists(st.floats(-2.8, 2.8), max_size=8), seed=SEEDS)
@example(m=3, others=np.linspace(-2.8, 2.8, 62).tolist(), seed=65)  # n = 65, past 64
def test_minus_one_eigenspace_gives_the_leading_index(m, others, seed):
    # L ∩ H- = Ker(1 + U) is a generic m-plane, so d_j = max(m - j, 0) <= n - j
    n = m + len(others)
    assume(n >= 1)
    u = unitary_with_phases([np.pi] * m + others, np.random.default_rng(seed))
    index = schubert_index_of(cayley_graph(u), Flag(n))
    assert index.I == tuple(range(1, m + 1))
    assert index.weight == m * m


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(2, 6), seed=SEEDS, rank_eps=st.floats(0.3, 0.95))
def test_schubert_profiles_that_exit_0_drop_by_0_or_1(tmp_path_factory, n, seed, rank_eps):
    # W_j has codimension 1 in W_{j-1}, so d_{j-1} - 1 <= d_j <= d_{j-1}; a
    # loose tolerance may misread the profile, and then the verb exits 2
    lag = cayley_graph(random_unitary(n, np.random.default_rng(seed)))
    path = tmp_path_factory.mktemp("schubert") / "l.json"
    path.write_text(json.dumps(encode_lagrangian(lag)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["schubert", str(path), "--tol", str(rank_eps)])
    if code == 2:
        assert "non-generic profile" in err.getvalue()
        return
    assert code == 0
    profile = json.loads(out.getvalue())["profile"]
    assert all(d - 1 <= e <= d for d, e in zip(profile, profile[1:]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(1, 6), seed=SEEDS)
def test_maslov_of_switched_graphs_is_the_inertia_drop(n, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, rng)
    b = 3.0 * random_hermitian(n, rng)
    start, end = np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + b)
    assume(min(np.min(np.abs(start)), np.min(np.abs(end))) > 1e-3)
    path = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    assert maslov_index(path)[0] == np.sum(start < 0) - np.sum(end < 0)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2, 63, 64, 65, 128]), seed=SEEDS, sampled=st.booleans())
def test_loop_flow_is_the_total_winding(n, seed, sampled):
    # U(t) = V diag(e^{i(theta_j + 2 pi w_j t)}) V*, whose flow is sum(w)
    rng = np.random.default_rng(seed)
    windings = rng.integers(-2, 3, size=n)
    theta = rng.uniform(-np.pi, np.pi, size=n)
    theta[np.abs(theta) < 1e-3] += 0.01  # an eigenvalue 1 at t = 0 is degenerate
    v = random_unitary(n, rng)

    def at(t):
        return (v * np.exp(1j * (theta + 2 * np.pi * windings * t))) @ v.conj().T

    loop = UnitaryLoop.from_function(at, 33)
    if sampled:
        loop = UnitaryLoop(loop.grid, loop.values)
    assert universal_loop_flow(loop) == windings.sum()


def _affine(a, b, nodes=9):
    return HermitianPath.from_function(lambda t: a + t * b, nodes)


def _negatives(m):
    return int(np.sum(np.linalg.eigvalsh(m) < 0))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 5, 8, 65]), seed=SEEDS)
def test_reversing_the_parameter_negates_the_crossings(n, seed):
    # t -> 1 - t: the same crossings, at 1 - t and with the opposite signs
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, rng)
    b = 3.0 * random_hermitian(n, rng)
    ends = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + b)])
    assume(np.min(np.abs(ends)) > 1e-3)
    flow, crossings = spectral_flow_crossing(_affine(a, b))
    assume(crossings)
    back, reversed_crossings = spectral_flow_crossing(_affine(a + b, -b))
    assert back == -flow
    assert len(reversed_crossings) == len(crossings)
    for c, r in zip(crossings, reversed_crossings[::-1]):
        assert abs(r.t - (1.0 - c.t)) <= 1e-12
        assert r.sign == -c.sign


@settings(derandomize=True, max_examples=15, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 5, 8, 65]), seed=SEEDS)
def test_conjugating_the_path_keeps_the_flow(n, seed):
    # A -> V A V* for a fixed unitary V
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, rng)
    b = 3.0 * random_hermitian(n, rng)
    v = random_unitary(n, rng)
    ends = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + b)])
    assume(np.min(np.abs(ends)) > 1e-3)
    flow = spectral_flow_crossing(_affine(a, b))[0]
    gauged = _affine(v @ a @ v.conj().T, v @ b @ v.conj().T)
    assert spectral_flow_crossing(gauged)[0] == flow


@settings(derandomize=True, max_examples=6, deadline=None)
@given(n=st.sampled_from([64, 65]), seed=SEEDS)
def test_both_routes_give_the_inertia_drop_beyond_64(n, seed):
    # a small drift moves a few of the n eigenvalues through zero
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, rng) / np.sqrt(n)
    b = random_hermitian(n, rng) / np.sqrt(n) + 0.3 * np.eye(n)
    ends = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + b)])
    assume(np.min(np.abs(ends)) > 1e-3)
    path = _affine(a, b, 3)
    drop = _negatives(a) - _negatives(a + b)
    assert spectral_flow_crossing(path)[0] == spectral_flow_tracking(path)[0] == drop


@settings(derandomize=True, max_examples=8, deadline=None)
@given(n=st.sampled_from([1, 3, 6, 65]), seed=SEEDS)
def test_flow_is_additive_under_concatenation(n, seed):
    # a sampled path with a kink at its node 0.5, cut there and at 0.3
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 3)
    path = HermitianPath(grid, tuple(random_hermitian(n, rng) / np.sqrt(n) for _ in grid))
    cuts = (0.5, 0.3)
    ends = [path.value_at(t) for t in (0.0, *cuts, 1.0)]
    assume(min(np.min(np.abs(np.linalg.eigvalsh(m))) for m in ends) > 1e-3)
    for route in (spectral_flow_crossing, spectral_flow_tracking):
        flow = route(path)[0]
        for cut in cuts:
            halves = path.restricted(0.0, cut), path.restricted(cut, 1.0)
            assert flow == sum(route(half)[0] for half in halves)


@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=SEEDS)
def test_flow_is_the_maslov_index_of_sampled_switched_graphs_at_65(seed):
    # between nodes the switched graphs follow the unitary geodesics
    n = 65
    rng = np.random.default_rng(seed)
    a = random_hermitian(n, rng) / np.sqrt(n)
    b = random_hermitian(n, rng) / np.sqrt(n) + 0.3 * np.eye(n)
    ends = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + b)])
    assume(np.min(np.abs(ends)) > 1e-3)
    graphs = LagrangianPath.from_function(lambda t: switched_graph(a + t * b), 17)
    flow = maslov_index(LagrangianPath(graphs.grid, graphs.values))[0]
    assert flow == spectral_flow_tracking(_affine(a, b, 3))[0] == _negatives(a) - _negatives(a + b)
