import itertools

import numpy as np
import pytest

from lagflow.errors import InputError, PreconditionError
from lagflow.flow import HermitianPath, spectral_flow_crossing
from lagflow.grassmann import J_matrix, switched_graph
from lagflow.intersect import (
    FamilyJet,
    LagrangianJet,
    MeshedFamily,
    ProjectionJet,
    crossing_jet,
    intersection_number_lagrangian,
    intersection_number_operator,
    intersection_number_projection,
    locate_crossings,
    operator_determinant,
    operator_jet_to_lagrangian,
    total_intersection_number,
)
from lagflow.intersect import _gap, _gaps  # the mesh scan's private measure
from lagflow.linalg import orthonormalize, symmetrize
from lagflow.reduction import IsotropicSubspace

from conftest import random_hermitian, random_unitary

W2 = np.array([[0.0], [1.0]], dtype=complex)
PARTIALS2 = (
    np.array([[0, 0], [0, 1.0]], dtype=complex),
    np.array([[0, 1.0], [1.0, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
)


def worked_jet_full_kernel():
    return FamilyJet(2, np.zeros((2, 2), dtype=complex), PARTIALS2, W2)


def worked_jet_partial_kernel():
    return FamilyJet(2, np.diag([1.0, 0.0]).astype(complex), PARTIALS2, W2)


def random_localized_jet(k, n, rng):
    """Random operator jet with dim(Ker T0 ∩ W) = 1 and p in 1..k."""
    p = int(rng.integers(1, k + 1))
    for _ in range(60):
        w = orthonormalize(rng.normal(size=(n, n - k + 1))
                           + 1j * rng.normal(size=(n, n - k + 1)))
        w_perp = orthonormalize(
            (np.eye(n) - w @ w.conj().T)
            @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))[:, :k - 1]
        c = rng.normal(size=n - k + 1) + 1j * rng.normal(size=n - k + 1)
        kernel_cols = [w @ (c / np.linalg.norm(c))]
        for _ in range(p - 1):
            a = w @ (rng.normal(size=n - k + 1) + 1j * rng.normal(size=n - k + 1))
            b = w_perp @ (rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)) \
                if k > 1 else 0.0
            v = a + 2.0 * b
            for q in kernel_cols:
                v = v - np.vdot(q, v) * q
            nv = np.linalg.norm(v)
            if nv < 1e-6:
                break
            kernel_cols.append(v / nv)
        if len(kernel_cols) != p:
            continue
        kern = orthonormalize(np.column_stack(kernel_cols))
        rest = orthonormalize(
            (np.eye(n) - kern @ kern.conj().T)
            @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))[:, :n - p]
        lam = rng.normal(size=n - p) + np.sign(rng.normal(size=n - p))
        t0 = (rest * lam) @ rest.conj().T
        partials = tuple(random_hermitian(n, rng) for _ in range(2 * k - 1))
        try:
            jet = FamilyJet(k, t0, partials, w)
            intersection_number_operator(jet)
            return jet
        except PreconditionError:
            continue
    raise RuntimeError("no localized jet found")


def test_jet_validation():
    with pytest.raises(InputError):
        FamilyJet(2, np.zeros((2, 2)), PARTIALS2[:2], W2)
    with pytest.raises(InputError):
        FamilyJet(2, np.zeros((2, 2)), PARTIALS2, np.eye(2))  # codim 0, need 1


def test_worked_jet_full_kernel():
    jet = worked_jet_full_kernel()
    det, p = operator_determinant(jet)
    assert p == 2
    assert abs(det - (-1.0)) < 1e-12
    assert intersection_number_operator(jet) == -1


def test_worked_jet_partial_kernel():
    jet = worked_jet_partial_kernel()
    det, p = operator_determinant(jet)
    assert p == 1
    assert abs(det - (-1.0)) < 1e-12
    assert intersection_number_operator(jet) == -1


def test_worked_jets_at_lagrangian_level():
    for jet in (worked_jet_full_kernel(), worked_jet_partial_kernel()):
        assert intersection_number_lagrangian(operator_jet_to_lagrangian(jet)) == -1


def test_k1_reduces_to_crossing_sign():
    jet = FamilyJet(1, np.zeros((1, 1), dtype=complex),
                    (np.array([[2.0]], dtype=complex),), np.eye(1, dtype=complex))
    assert intersection_number_operator(jet) == 1
    jet_neg = FamilyJet(1, np.zeros((1, 1), dtype=complex),
                        (np.array([[-0.7]], dtype=complex),), np.eye(1, dtype=complex))
    assert intersection_number_operator(jet_neg) == -1


def test_k1_matches_spectral_flow_sign(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = random_hermitian(n, rng)
        b = 3.0 * random_hermitian(n, rng)
        path = HermitianPath.from_function(lambda t: a + t * b, 9)
        try:
            _, crossings = spectral_flow_crossing(path)
        except PreconditionError:
            continue
        for c in crossings:
            jet = FamilyJet(1, path.value_at(c.t), (b,), np.eye(n, dtype=complex))
            assert intersection_number_operator(jet) == c.sign


def test_operator_matches_lagrangian(rng):
    checked = 0
    for k in (1, 2, 3):
        for _ in range(12):
            n = int(rng.integers(max(k, 2), 7)) if k > 1 else int(rng.integers(1, 7))
            jet = random_localized_jet(k, n, rng)
            assert intersection_number_operator(jet) == \
                intersection_number_lagrangian(operator_jet_to_lagrangian(jet))
            checked += 1
    assert checked == 36


def test_projection_route_consistency(rng):
    for _ in range(15):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(k, 2), 7)) if k > 1 else int(rng.integers(1, 7))
        jet = random_localized_jet(k, n, rng)
        lag_jet = operator_jet_to_lagrangian(jet)
        z = lag_jet.lagrangian.frame
        jz = J_matrix(n) @ z
        pdots = tuple(z @ s @ jz.conj().T + jz @ s @ z.conj().T
                      for s in lag_jet.tangents)
        proj_jet = ProjectionJet(k, lag_jet.lagrangian, pdots, lag_jet.w)
        assert intersection_number_projection(proj_jet) == \
            intersection_number_lagrangian(lag_jet)


def test_zero_tangent_not_transversal():
    lag = switched_graph(np.zeros((2, 2)))
    w = IsotropicSubspace.from_flag_indices(2, [2])
    zero = tuple(np.zeros((2, 2)) for _ in range(3))
    with pytest.raises(PreconditionError, match="not transversal"):
        intersection_number_lagrangian(LagrangianJet(2, lag, zero, w))
    zero_p = tuple(np.zeros((4, 4)) for _ in range(3))
    with pytest.raises(PreconditionError, match="not transversal"):
        intersection_number_projection(ProjectionJet(2, lag, zero_p, w))


def test_not_localized_errors():
    # Ker T0 misses W entirely
    jet_t0 = np.diag([0.0, 2.0]).astype(complex)
    w = np.array([[1.0], [0.0]], dtype=complex)  # W = span e1, kernel = span e1? no:
    # Ker = span e1 here, so move W to e2 to miss it
    with pytest.raises(PreconditionError, match="not localized"):
        intersection_number_operator(FamilyJet(2, np.diag([2.0, 0.0]).astype(complex),
                                               PARTIALS2, w))
    # kernel larger than k
    big = FamilyJet(1, np.zeros((2, 2), dtype=complex),
                    (np.eye(2, dtype=complex),), np.eye(2, dtype=complex))
    with pytest.raises(PreconditionError, match="kernel too large"):
        intersection_number_operator(big)


def test_phase_and_basis_invariance(rng):
    jet = random_localized_jet(3, 6, rng)
    base = intersection_number_operator(jet)
    lag_jet = operator_jet_to_lagrangian(jet)
    assert intersection_number_lagrangian(lag_jet) == base

    # recombining the frame by a unitary gauge changes nothing: rebuild the
    # same jet with a gauged frame and rotated tangents
    from lagflow.grassmann import LagrangianFrame

    g = random_unitary(6, rng)
    gauged = LagrangianJet(
        lag_jet.k,
        LagrangianFrame(lag_jet.lagrangian.frame @ g),
        tuple(g.conj().T @ s @ g for s in lag_jet.tangents),
        lag_jet.w,
        lag_jet.tol,
    )
    assert intersection_number_lagrangian(gauged) == base


def test_parameter_parity(rng):
    jet = random_localized_jet(2, 4, rng)
    base = intersection_number_operator(jet)
    for perm in itertools.permutations(range(3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        permuted = FamilyJet(jet.k, jet.t0,
                             tuple(jet.partials[i] for i in perm), jet.w, jet.tol)
        assert intersection_number_operator(permuted) == sign * base


def test_locate_crossings_plant_and_recover(rng):
    # plant Ker T(x*) ∩ W at an interior mesh point
    n, k = 2, 2
    x_star = np.array([0.21, -0.13, 0.05])
    base = np.diag([0.0, 1.7]).astype(complex)
    dirs = [random_hermitian(n, rng) for _ in range(3)]

    def func(x):
        d = x - x_star
        out = base.copy()
        for di, mat in zip(d, dirs):
            out = out + di * mat
        return out

    axes = tuple(np.linspace(-0.6, 0.6, 9) for _ in range(3))
    w = np.array([[1.0], [0.0]], dtype=complex)  # Ker base = span e1 ⊂ W
    fam = MeshedFamily(k, axes, w, func=func)
    points = locate_crossings(fam)
    assert len(points) == 1
    spacing = fam.spacing()
    assert np.linalg.norm(points[0] - x_star) < spacing / 2**6


def test_locate_crossings_empty(rng):
    axes = tuple(np.linspace(-0.5, 0.5, 7) for _ in range(3))
    t0 = np.diag([1.0, 2.0]).astype(complex)
    fam = MeshedFamily(2, axes, W2, func=lambda x: t0 + x[0] * 0.1 * np.eye(2))
    assert locate_crossings(fam) == []
    total, detail = total_intersection_number(fam)
    assert total == 0 and detail == []


def test_crossing_jet_off_a_crossing_keeps_rank_eps_below_one():
    # the kernel tolerance is 1e3 x the detector value, here far above 1
    axes = tuple(np.linspace(-0.5, 0.5, 7) for _ in range(3))
    t0 = np.diag([1.0, 2.0]).astype(complex)
    fam = MeshedFamily(2, axes, W2, func=lambda x: t0 + x[0] * 0.1 * np.eye(2))
    jet = crossing_jet(fam, np.zeros(3))
    assert 1e-3 < jet.tol.rank_eps < 1.0


def test_total_intersection_orientation_flip(rng):
    x_star = np.array([0.1, 0.0, -0.2])
    dirs = (np.array([[0, 0], [0, 1.0]], dtype=complex),
            np.array([[0, 1.0], [1.0, 0]], dtype=complex),
            np.array([[0, 1j], [-1j, 0]], dtype=complex))

    def func(x):
        d = x - x_star
        return d[0] * dirs[0] + d[1] * dirs[1] + d[2] * dirs[2]

    axes = tuple(np.linspace(-0.7, 0.7, 9) for _ in range(3))
    fam_pos = MeshedFamily(2, axes, W2, func=func, orientation=1)
    fam_neg = MeshedFamily(2, axes, W2, func=func, orientation=-1)
    tot_pos, det_pos = total_intersection_number(fam_pos)
    tot_neg, _ = total_intersection_number(fam_neg)
    assert abs(tot_pos) == 1
    assert tot_neg == -tot_pos
    assert len(det_pos) == 1


def test_sampled_family_matches_functional(rng):
    # multilinear samples of an affine family reproduce the located point
    x_star = np.array([0.05, -0.1, 0.15])
    dirs = (np.array([[0, 0], [0, 1.0]], dtype=complex),
            np.array([[0, 1.0], [1.0, 0]], dtype=complex),
            np.array([[0, 1j], [-1j, 0]], dtype=complex))

    def func(x):
        d = x - x_star
        return d[0] * dirs[0] + d[1] * dirs[1] + d[2] * dirs[2]

    axes = tuple(np.linspace(-0.6, 0.6, 9) for _ in range(3))
    shape = tuple(a.size for a in axes)
    values = np.empty(shape + (2, 2), dtype=complex)
    for idx in np.ndindex(shape):
        x = np.array([axes[d][i] for d, i in enumerate(idx)])
        values[idx] = func(x)
    fam = MeshedFamily(2, axes, W2, values=values)
    points = locate_crossings(fam)
    assert len(points) == 1
    assert np.linalg.norm(points[0] - x_star) < fam.spacing() / 2**6
    jet = crossing_jet(fam, points[0])
    assert intersection_number_operator(jet) in (-1, 1)


def _sampled_k1_draws(count):
    """(family, path) of the first count draws of default_rng(1): 9 nodes
    (A + A*)/2 on [-1, 1], A complex standard normal and n = 2 or 3; the path
    holds the same samples on t = (x + 1)/2."""
    rng = np.random.default_rng(1)
    axis, grid = np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 1.0, 9)
    for _ in range(count):
        n = int(rng.integers(2, 4))
        values = [symmetrize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  for _ in axis]
        yield (MeshedFamily(1, (axis,), np.eye(n), values=np.stack(values)),
               HermitianPath(grid, tuple(values)))


def test_sampled_k1_jets_carry_the_signs_of_the_spectral_flow():
    # crossing_jet at each crossing of spectral_flow_crossing on the same
    # samples, x = 2t - 1.  Jets differenced one mesh spacing wide mis-signed
    # draws 5, 602, 815, 927 and 1335; the first 1,336 draws hold all five.
    # Only draws whose crossings lie a spacing (1/8 in t) apart and half a
    # spacing from the ends are signed, to keep the test short
    checked = []
    for draw, (family, path) in enumerate(_sampled_k1_draws(1336)):
        _, crossings = spectral_flow_crossing(path)
        ts = np.array([0.0] + [c.t for c in crossings] + [1.0])
        if np.min(np.diff(ts)[1:-1], initial=1.0) < 0.125 - 1e-5 or (
                crossings and min(ts[1], 1.0 - ts[-2]) < 0.0625 - 1e-5):
            continue
        signs = [intersection_number_operator(crossing_jet(family, np.array([2.0 * c.t - 1.0])))
                 for c in crossings]
        assert signs == [c.sign for c in crossings], draw
        checked.append(draw)
    assert {5, 602, 815, 927, 1335} <= set(checked)


def test_a_sampled_k1_total_is_the_flow_of_its_axis_path():
    # the family is a Hermitian path on t = (x + 1)/2, so its total, points
    # and signs are spectral_flow_crossing's.  The mesh scan once raised on
    # 238 of these 300 draws, and left cancelling pairs out of 50 of the rest
    for draw, (family, path) in enumerate(_sampled_k1_draws(300)):
        flow, crossings = spectral_flow_crossing(path)
        total, detail = total_intersection_number(family)
        assert total == flow, draw
        assert [eps for _, eps in detail] == [c.sign for c in crossings], draw
        assert all(abs(x[0] - (2.0 * c.t - 1.0)) <= 1e-12
                   for (x, _), c in zip(detail, crossings)), draw


def _corner_sum(family, x):
    """Multilinear interpolation of a sampled family as the sum over the 2^d
    corners of its cell, each node weighted by the product of its offsets."""
    cell, weights = [], []
    for a, xi in zip(family.axes, x):
        i = int(np.clip(np.searchsorted(a, xi, side="right") - 1, 0, a.size - 2))
        cell.append(i)
        weights.append(np.clip((xi - a[i]) / (a[i + 1] - a[i]), 0.0, 1.0))
    out = np.zeros(family.values.shape[-2:], dtype=complex)
    for corner in itertools.product((0, 1), repeat=family.dims):
        weight = np.prod([s if c else 1.0 - s for c, s in zip(corner, weights)])
        out = out + weight * family.values[tuple(i + c for i, c in zip(cell, corner))]
    return out


def test_a_sampled_family_interpolates_as_a_path_one_axis_at_a_time():
    rng = np.random.default_rng(4)
    # k = 1 on a path's grid: the path's value, bit for bit
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]])
    path = HermitianPath(grid, tuple(random_hermitian(3, rng) for _ in grid))
    family = MeshedFamily(1, (grid,), np.eye(3), values=np.stack(path.values))
    ts = np.concatenate([grid, rng.uniform(0.0, 1.0, 200), [1e-13, 1.0 - 1e-13]])
    for t in ts:
        assert family.value_at(np.array([t])).tobytes() == path.value_at(t).tobytes(), t
    # k = 2: the corner sum, exactly at the nodes and to rounding between them
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 4), np.linspace(-1.0, 0.5, 6))
    shape = tuple(a.size for a in axes)
    values = np.stack([random_hermitian(2, rng) for _ in range(int(np.prod(shape)))])
    family = MeshedFamily(2, axes, W2, values=values.reshape(shape + (2, 2)))
    for idx in np.ndindex(shape):
        x = np.array([a[i] for a, i in zip(axes, idx)])
        assert np.array_equal(family.value_at(x), family.values[idx])
        assert np.array_equal(_corner_sum(family, x), family.values[idx])
    for _ in range(500):
        x = np.array([rng.uniform(a[0], a[-1]) for a in axes])
        ref = _corner_sum(family, x)
        assert np.abs(family.value_at(x) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_two_crossings_closer_than_the_spacing_are_an_unresolved_cluster():
    # T = [[1, a], [a*, b]] with W = span(e2) meets the variety where a = b = 0:
    # at c +- rho d, d the cell's diagonal, near opposite corners of the cell
    # [0, 0.25]^3; 2 rho = 0.2 lies between spacing/8 and the spacing
    d = np.ones(3) / np.sqrt(3.0)
    p = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    q = np.cross(d, p)
    axes = tuple(np.linspace(-1.0, 1.0, 9) for _ in range(3))
    centre = np.full(3, 0.125)

    def family(rho):
        def func(x):
            y = x - centre
            a = p @ y + 1j * (q @ y)
            return np.array([[1.0, a], [np.conj(a), (d @ y) ** 2 - rho**2]])
        return MeshedFamily(2, axes, W2, func=func)

    with pytest.raises(PreconditionError, match="unresolved cluster"):
        locate_crossings(family(0.1))
    # 0.6 apart, the runs locate both
    points = locate_crossings(family(0.3))
    assert sorted(float(x @ d) for x in points) == pytest.approx(
        [float(centre @ d) - 0.3, float(centre @ d) + 0.3], abs=1e-12)


def test_a_crossing_jet_where_the_family_has_no_value_is_a_boundary_crossing():
    axes = (np.linspace(-1.0, 1.0, 9),)
    sampled = MeshedFamily(1, axes, np.eye(2),
                           values=np.stack([np.diag([x - 0.3, 1.0]) for x in axes[0]]))
    holed = MeshedFamily(1, axes, np.eye(2), func=lambda x: (
        None if x[0] > 0.5 else np.diag([x[0] - 0.3, 1.0])))
    for family, x in ((sampled, 1.1), (holed, 0.6)):
        assert family.value_at(np.array([x])) is None
        with pytest.raises(PreconditionError, match="boundary crossing"):
            crossing_jet(family, np.array([x]))


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _su2_centre_chart(nodes, extent):
    """T = i(1 + U)(1 - U)^-1 of U = q0 + i q.sigma on the q-chart q0 < 0 of SU(2),
    x = (q1, q2, q3): it meets the level-2 variety once, at x = 0 (U = -I)."""

    def func(x):
        r2 = float(np.dot(x, x))
        if r2 >= 1.0 - 1e-12:
            return None
        u = -np.sqrt(1.0 - r2) * np.eye(2) + 1j * sum(xi * s for xi, s in zip(x, _PAULI))
        return 1j * (np.eye(2) + u) @ np.linalg.inv(np.eye(2) - u)

    axis = np.linspace(-extent, extent, nodes)
    return MeshedFamily(2, (axis, axis, axis), W2, func=func)


def test_the_su2_jet_does_not_depend_on_the_mesh():
    # dT = -sigma_j / 2 at U = -I, so |det| = 1/8; differenced one mesh
    # spacing wide it read 0.1334 on 7 nodes and 0.1281 on 11
    dets = []
    for nodes, extent in ((7, 0.87), (11, 0.9)):
        family = _su2_centre_chart(nodes, extent)
        (x,) = locate_crossings(family)
        dets.append(operator_determinant(crossing_jet(family, x))[0])
    assert abs(dets[0] - dets[1]) < 1e-7
    assert all(abs(abs(d) - 0.125) < 1e-7 for d in dets)


def test_sampled_family_rejects_a_non_hermitian_node():
    # checked once per node at construction, not at every detector call
    from lagflow.linalg import Tolerance
    from lagflow.serialize import decode_meshed_family, encode_matrix

    axes = (np.linspace(-0.6, 0.6, 3),)
    values = np.stack([x * np.eye(2, dtype=complex) for x in axes[0]])
    values[1, 0, 1] = 0.5
    with pytest.raises(InputError, match="matrix is not Hermitian"):
        MeshedFamily(1, axes, np.eye(2), values=values)
    obj = {"k": 1, "axes": [list(axes[0])], "W_frame": encode_matrix(np.eye(2)),
           "values": [encode_matrix(v) for v in values]}
    with pytest.raises(InputError, match="matrix is not Hermitian"):
        decode_meshed_family(obj, Tolerance())


def _frame_detector(family, x):
    """The detector as first defined: sigma_min of [Z | -(0; W)] with Z the
    orthonormal switched-graph frame of T(x)."""
    frame = switched_graph(family.value_at(x)).frame
    block = np.hstack([frame, -np.vstack([np.zeros_like(family.w), family.w])])
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def _detector_corpus():
    """(k, W, T) of 900 cases: n <= 6 and 65, k <= 3, scales 1e-3 to 1e4; two
    cases in three put an eigenvalue 1e-12 to 1e-2 of T on a unit vector of W."""
    rng = np.random.default_rng(12)
    for case in range(900):
        n = 65 if case % 25 == 0 else case % 6 + 1
        k = int(rng.integers(1, min(n, 3) + 1))
        w = random_unitary(n, rng)[:, : n - k + 1]
        scale = 10.0 ** rng.uniform(-3, 4)
        if case % 3:
            c = rng.normal(size=n - k + 1) + 1j * rng.normal(size=n - k + 1)
            q, _ = np.linalg.qr(np.column_stack([w @ c, random_unitary(n, rng)[:, 1:]]))
            lam = rng.normal(size=n)
            lam[0] = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, -2)
            t = scale * (q * lam) @ q.conj().T
        else:
            t = random_hermitian(n, rng, scale)
        yield k, w, t


def test_detector_equals_the_switched_graph_frame_formula():
    for k, w, t in _detector_corpus():
        axes = tuple(np.linspace(-1.0, 1.0, 3) for _ in range(2 * k - 1))
        fam = MeshedFamily(k, axes, w, func=lambda x, t=t: t)
        x = np.zeros(2 * k - 1)
        ref = _frame_detector(fam, x)
        assert abs(_gap(fam.value_at(x), fam.w) - ref) <= (1e-15 if ref < 1e-2 else 1e-10)
    # at |T| ~ 1e9 sigma_min(TBW) rounds to 1 + 2e-16, and 1 - s^2 below 0
    t = random_hermitian(3, np.random.default_rng(7), 1e9)
    fam = MeshedFamily(1, (np.linspace(-1.0, 1.0, 3),), np.eye(3), func=lambda x: t)
    x = np.zeros(1)
    assert abs(_gap(fam.value_at(x), fam.w) - _frame_detector(fam, x)) <= 1e-8


def _node_gap(t, w):
    """The detector of one value, with 2-d eigh, products and svd."""
    vals, vecs = np.linalg.eigh(t)
    b = (vecs * (1.0 / np.sqrt(1.0 + vals**2))) @ vecs.conj().T
    s = float(np.linalg.svd(t @ b @ w, compute_uv=False)[-1])
    return s / np.sqrt(1.0 + np.sqrt(max(1.0 - s * s, 0.0)))


def test_the_stacked_detector_equals_the_per_node_detector_bit_for_bit():
    # each case's T with its own W beside the previous T of its size and no
    # values; then each size's whole stack against the W of its first case
    by_size, previous = {}, {}
    for k, w, t in _detector_corpus():
        t = symmetrize(t)
        n = t.shape[0]
        values = [None, t, previous.get(n), None]
        want = [np.inf if v is None else _node_gap(v, w) for v in values]
        assert _gaps(values, w).tobytes() == np.array(want).tobytes()
        assert [_gap(v, w) for v in values] == want
        previous[n] = t
        by_size.setdefault(n, (w, []))[1].extend([t, None])
    for w, values in by_size.values():
        want = [np.inf if v is None else _node_gap(v, w) for v in values]
        assert _gaps(values, w).tobytes() == np.array(want).tobytes()
    assert _gaps([None, None], W2).tolist() == [np.inf, np.inf]


def test_scipy_names_bind_on_first_lookup():
    # bench/tracer.py looks both names up and patches them where bound
    import scipy.optimize

    import lagflow.flow
    import lagflow.intersect

    assert lagflow.intersect.minimize is scipy.optimize.minimize
    assert lagflow.flow.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    with pytest.raises(AttributeError, match="no_such_name"):
        lagflow.intersect.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        lagflow.flow.no_such_name


def _pair(a, b):
    """[[1, a], [a*, b]]: with W = span(e2) it meets the level-2 variety where
    a = b = 0."""
    return np.array([[1.0, a], [np.conj(a), b]])


def test_newton_locates_a_crossing_to_rounding_in_few_evaluations(monkeypatch):
    calls = []
    value_at = MeshedFamily.value_at

    def counting(self, x):
        calls.append(np.array(x))
        return value_at(self, x)

    monkeypatch.setattr(MeshedFamily, "value_at", counting)
    # an affine family whose only crossing is x = (0.13, -0.05, 0.02)
    axes = tuple(np.linspace(-0.6, 0.6, 9) for _ in range(3))
    fam = MeshedFamily(2, axes, W2, func=lambda x: _pair(x[1] + 0.05 + 1j * (x[2] - 0.02),
                                                          x[0] - 0.13))
    points = locate_crossings(fam)
    assert len(points) == 1 and np.abs(points[0] - [0.13, -0.05, 0.02]).max() < 1e-14
    # 729 scan nodes; one run from (0.15, 0, 0), which starts from the scan's
    # T there: per step a central difference on each axis (6) and its end
    # (1), the second step too short to take; the detector at the end reads
    # the run's last T: 742, with one to spare
    assert len(calls) <= 743


def test_a_tie_between_neighbouring_nodes_starts_one_run(monkeypatch):
    import lagflow.intersect

    starts = []
    original = lagflow.intersect._newton

    def counting(family, x0, t0):
        starts.append(x0)
        return original(family, x0, t0)

    monkeypatch.setattr(lagflow.intersect, "_newton", counting)
    # the crossing x = 0 lies halfway between the nodes (-0.1, 0, 0) and
    # (0.1, 0, 0), whose detector values are exactly equal
    axis, other = np.array([-0.5, -0.3, -0.1, 0.1, 0.3, 0.5]), np.linspace(-0.5, 0.5, 5)
    fam = MeshedFamily(2, (axis, other, other), W2, func=lambda x: _pair(x[1] + 1j * x[2], x[0]))
    below, above = fam.value_at(np.array([-0.1, 0.0, 0.0])), fam.value_at(np.array([0.1, 0.0, 0.0]))
    assert _gap(below, fam.w) == _gap(above, fam.w)
    points = locate_crossings(fam)
    assert len(points) == 1 and np.abs(points[0]).max() < fam.spacing() / 2**6
    assert [list(x) for x in starts] == [[-0.1, 0.0, 0.0]]  # from the first node in scan order


def test_a_crossing_beyond_half_a_spacing_outside_the_box_is_not_the_familys():
    # 9 nodes on [-1, 1], spacing 0.25: a second crossing at x1 = 1.2 lies 0.2
    # outside the box and is no crossing of the family, though a run starts
    # towards it from the node x1 = 1; at 1.1 it lies in the band of half a
    # spacing around the box's edge and raises
    axes = tuple(np.linspace(-1.0, 1.0, 9) for _ in range(3))

    def family(second):
        return MeshedFamily(2, axes, W2, func=lambda x: _pair(
            x[1] + 1j * x[2], (x[0] - 0.3) * (x[0] - second)))

    points = locate_crossings(family(1.2))
    assert len(points) == 1 and np.abs(points[0] - [0.3, 0.0, 0.0]).max() < 1e-14
    with pytest.raises(PreconditionError, match="boundary crossing"):
        locate_crossings(family(1.1))


def test_a_k1_total_is_checked_against_the_axis_flow():
    import dataclasses

    # diag(x - 0.3, x - 1.2): n-(T(-1)) - n-(T(1)) = 2 - 1, one crossing +1;
    # spectral_flow_crossing checks its crossings against that count
    axes = (np.linspace(-1.0, 1.0, 9),)
    fam = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0] - 0.3, x[0] - 1.2]))
    total, detail = total_intersection_number(fam)
    assert total == 1 and [eps for _, eps in detail] == [1]
    assert [x.tobytes() for x in locate_crossings(fam)] == [x.tobytes() for x, _ in detail]
    assert abs(detail[0][0][0] - 0.3) < 1e-14
    assert total_intersection_number(dataclasses.replace(fam, orientation=-1)) == (
        -1, [(detail[0][0], -1)])
    # W a line of C^2 has codimension 1, where k = 1 needs 0: malformed
    with pytest.raises(InputError, match="codimension k-1"):
        MeshedFamily(1, axes, np.array([[1.0], [0.0]]),
                     func=lambda x: np.diag([1.0, x[0] - 0.3]))
    # T has no value at the upper end: no path
    holed = MeshedFamily(1, axes, np.eye(2), func=lambda x: (
        None if x[0] > 0.9 else np.diag([x[0] - 0.3, 1.0])))
    with pytest.raises(PreconditionError, match="boundary crossing"):
        total_intersection_number(holed)
    for end in (-1.0, 1.0):
        # a crossing within half a spacing of an end counts
        near = MeshedFamily(1, axes, np.eye(2), func=lambda x, e=end: np.diag(
            [x[0] - 0.95 * e, 1.0]))
        ((x, eps),) = total_intersection_number(near)[1]
        assert abs(x[0] - 0.95 * end) < 1e-14 and eps == 1
        # T singular at an end
        edge = MeshedFamily(1, axes, np.eye(2), func=lambda x, e=end: np.diag([x[0] - e, 1.0]))
        with pytest.raises(PreconditionError, match="degenerate endpoint"):
            total_intersection_number(edge)


def test_runs_start_from_the_local_minima_of_the_scan(monkeypatch):
    import lagflow.intersect

    starts = []
    original = lagflow.intersect._newton

    def counting(family, x0, t0):
        starts.append(tuple(x0))
        return original(family, x0, t0)

    monkeypatch.setattr(lagflow.intersect, "_newton", counting)
    # a symmetric axis ties mirrored nodes exactly; T has no value on a strip
    axis = np.array([-0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6])

    def func(x):
        if x[0] > 0.5:
            return None
        return np.array([[x @ x - 0.05, 0.3 * x[1]], [0.3 * x[1], np.cos(3.0 * x[2])]])

    fam = MeshedFamily(2, (axis, axis, axis), W2, func=func)
    try:
        locate_crossings(fam)
    except PreconditionError:
        pass
    # the reference rule, node by node: a finite local minimum whose equal
    # neighbours all come later in scan order
    shape = (7, 7, 7)
    grid = {idx: _gap(fam.value_at(axis[list(idx)]), fam.w) for idx in np.ndindex(shape)}
    expected, ties = [], 0
    for idx, val in grid.items():
        nbs = [idx[:d] + (idx[d] + s,) + idx[d + 1:] for d in range(3) for s in (-1, 1)
               if 0 <= idx[d] + s < 7]
        ties += np.isfinite(val) and any(grid[nb] == val for nb in nbs)
        if np.isfinite(val) and not any(grid[nb] < val or (grid[nb] == val and nb < idx)
                                        for nb in nbs):
            expected.append(tuple(axis[list(idx)]))
    assert ties and len(expected) > 1
    assert starts == expected


def _quadratic_pairs(seed):
    """Sampled _pair(a, b) families, W = span(e2), 9 nodes per axis on
    [-1, 1]^3, one per draw of default_rng(seed): a and b are quadratics over
    the monomials (0.3, x1, x2, x3, x1^2, x2^2, x3^2, x1x2, x1x3, x2x3), with
    coefficients standard_normal(10) + 1j standard_normal(10), then
    standard_normal(10)."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(-1.0, 1.0, 9)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    monomials = np.concatenate([np.full(x.shape[:-1] + (1,), 0.3), x, x**2,
                                x[..., [0, 0, 1]] * x[..., [1, 2, 2]]], -1)
    while True:
        a = monomials @ (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        b = monomials @ rng.standard_normal(10)
        values = np.ones(x.shape[:-1] + (2, 2), dtype=complex)
        values[..., 0, 1], values[..., 1, 0], values[..., 1, 1] = a, a.conj(), b
        yield MeshedFamily(2, (axis, axis, axis), W2, values=values)


def test_located_points_and_totals_do_not_move_with_rank_eps():
    import dataclasses

    from lagflow.linalg import Tolerance

    # draws 8 and 11 of the quadratic corpus (totals 0 and 1) and the degree
    # oracle's SU(2) chart (0, -1), with one point.  With the Newton accept
    # cut at rank_eps, 0.1 added a point to each draw (totals -1 and 0), and
    # 1e-18 dropped the point of draw 11 and of the chart
    draws = list(itertools.islice(_quadratic_pairs(0), 12))
    for family in (draws[8], draws[11], _su2_centre_chart(7, 0.87)):
        points = locate_crossings(family)
        signs = [intersection_number_operator(crossing_jet(family, x)) for x in points]
        for rank_eps in (1e-18, 1e-12, 1e-8, 1e-3, 0.1, 0.5):
            moved = dataclasses.replace(family, tol=Tolerance(rank_eps, family.tol.crossing_eps))
            located = locate_crossings(moved)
            assert [x.tobytes() for x in located] == [x.tobytes() for x in points], rank_eps
            # the jet's kernel tolerance reads rank_eps: the default's signs,
            # or a named precondition
            try:
                assert [intersection_number_operator(crossing_jet(moved, x))
                        for x in located] == signs, rank_eps
            except PreconditionError:
                pass
    assert [len(locate_crossings(f)) for f in (draws[8], draws[11])] == [0, 1]


def test_a_point_of_the_wrong_length_is_an_input_error():
    axes = tuple(np.linspace(-1.0, 1.0, 3) for _ in range(3))
    seen = []
    sampled = MeshedFamily(2, axes, W2, values=np.zeros((3, 3, 3, 2, 2)))
    func = MeshedFamily(2, axes, W2, func=lambda x: seen.append(x) or np.eye(2))
    for family in (sampled, func):
        for x in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), 0.0):
            with pytest.raises(InputError, match="a point of this family has 3 coordinates"):
                family.value_at(x)
        assert family.value_at([0.5, 0.0, -0.5]).shape == (2, 2)
    assert len(seen) == 1  # no point of the wrong length reaches func


def test_a_func_value_of_the_wrong_size_is_an_input_error():
    # W = C^2 fixes n = 2; from x = 0 on, T is 3 x 3
    axes = (np.linspace(-1.0, 1.0, 5),)
    fam = MeshedFamily(1, axes, np.eye(2), func=lambda x: (
        np.diag([x[0] - 0.3, 1.0]) if x[0] < 0 else np.diag([x[0] - 0.3, 1.0, 2.0])))
    assert fam.value_at(np.array([-0.5])).shape == (2, 2)
    with pytest.raises(InputError, match="W frame does not match the family dimension"):
        locate_crossings(fam)
    # sampled values are checked at construction
    with pytest.raises(InputError, match="W frame does not match the family dimension"):
        MeshedFamily(1, axes, np.eye(2), values=np.zeros((5, 3, 3)))


def test_the_scan_and_newton_read_each_point_once(monkeypatch):
    import lagflow.intersect

    calls, starts = [], []
    value_at, newton = MeshedFamily.value_at, lagflow.intersect._newton

    def counting(self, x):
        calls.append(tuple(x))
        return value_at(self, x)

    def run(family, x0, t0):
        starts.append(tuple(x0))
        return newton(family, x0, t0)

    monkeypatch.setattr(MeshedFamily, "value_at", counting)
    monkeypatch.setattr(lagflow.intersect, "_newton", run)
    # W = span(e1, e3): the lower block meets it at x = (0.13, 0, 0) only;
    # near x1 = +-pi/8, where cos(8 x1) + 1.2 has its minimum 0.2, two more
    # runs start and end where the detector is 0.2, with nothing
    axis, other = np.linspace(-0.6, 0.6, 13), np.linspace(-0.6, 0.6, 5)
    w = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])

    def func(x):
        a = x[1] + 1j * x[2]
        return np.array([[np.cos(8.0 * x[0]) + 1.2, 0.0, 0.0],
                         [0.0, 1.0, a], [0.0, np.conj(a), x[0] - 0.13]])

    fam = MeshedFamily(2, (axis, other, other), w, func=func)
    points = locate_crossings(fam)
    assert len(points) == 1 and np.abs(points[0] - [0.13, 0.0, 0.0]).max() < 1e-14
    assert len(starts) == 3
    # the scan reads every node once, in scan order; no run reads its start
    # again, and no accepted end is read again
    nodes = np.stack(np.meshgrid(axis, other, other, indexing="ij"), -1).reshape(-1, 3)
    assert calls[: len(nodes)] == [tuple(x) for x in nodes]
    assert all(calls.count(x0) == 1 for x0 in starts)
    assert all(calls.count(tuple(x)) == 1 for x in points)
