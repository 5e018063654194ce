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
from lagflow.intersect import _detector  # the mesh scan's private measure
from lagflow.linalg import orthonormalize
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


def test_detector_equals_the_switched_graph_frame_formula():
    # n <= 6 and 65, k <= 3, scales 1e-3 to 1e4; two cases in three put an
    # eigenvalue 1e-12 to 1e-2 of T on a unit vector of W
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
        axes = tuple(np.linspace(-1.0, 1.0, 3) for _ in range(2 * k - 1))
        fam = MeshedFamily(k, axes, w, func=lambda x, t=t: t)
        x = np.zeros(2 * k - 1)
        ref = _frame_detector(fam, x)
        assert abs(_detector(fam, x) - ref) <= (1e-15 if ref < 1e-2 else 1e-10)
    # at |T| ~ 1e9 sigma_min(TBW) rounds to 1 + 2e-16, and 1 - s^2 below 0
    t = random_hermitian(3, np.random.default_rng(7), 1e9)
    fam = MeshedFamily(1, (np.linspace(-1.0, 1.0, 3),), np.eye(3), func=lambda x: t)
    assert abs(_detector(fam, np.zeros(1)) - _frame_detector(fam, np.zeros(1))) <= 1e-8


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


def test_newton_locates_a_k1_crossing_to_rounding_in_few_evaluations(monkeypatch):
    calls = []
    value_at = MeshedFamily.value_at

    def counting(self, x):
        calls.append(np.array(x))
        return value_at(self, x)

    monkeypatch.setattr(MeshedFamily, "value_at", counting)
    # k = 1: one parameter, W = C^2, and Ker T(x) = span e1 at x = 0.13 only
    axes = (np.linspace(-0.6, 0.6, 9),)
    fam = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0] - 0.13, 1.0]))
    points = locate_crossings(fam)
    assert len(points) == 1 and abs(points[0][0] - 0.13) < 1e-14
    # 9 scan nodes; one run from 0.15: T there, then per step a central
    # difference (2) and its end (1), the second step too short to take;
    # the detector at the end: 16, with one to spare
    assert len(calls) <= 17


def test_a_tie_between_neighbouring_nodes_starts_one_run(monkeypatch):
    import lagflow.intersect

    starts = []
    original = lagflow.intersect._newton

    def counting(family, x0):
        starts.append(x0)
        return original(family, x0)

    monkeypatch.setattr(lagflow.intersect, "_newton", counting)
    # Ker T(x) = span e1 at x = 0, halfway between the nodes -0.1 and 0.1,
    # whose detector values are exactly equal
    axes = (np.array([-0.5, -0.3, -0.1, 0.1, 0.3, 0.5]),)
    fam = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0], 1.0]))
    assert _detector(fam, np.array([-0.1])) == _detector(fam, np.array([0.1]))
    points = locate_crossings(fam)
    assert len(points) == 1 and abs(points[0][0]) < fam.spacing() / 2**6
    assert [list(x) for x in starts] == [[-0.1]]  # from the first node in scan order


def test_a_crossing_beyond_half_a_spacing_outside_the_box_is_not_the_familys():
    # 9 nodes on [-1, 1], spacing 0.25: a second crossing at 1.2 lies 0.2
    # outside the box and is no crossing of the family; at 1.1 it lies in
    # the band of half a spacing around the box's edge and raises
    axes = (np.linspace(-1.0, 1.0, 9),)
    far = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0] - 0.3, x[0] - 1.2]))
    points = locate_crossings(far)
    assert len(points) == 1 and abs(points[0][0] - 0.3) < 1e-14
    near = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0] - 0.3, x[0] - 1.1]))
    with pytest.raises(PreconditionError, match="boundary crossing"):
        locate_crossings(near)


def test_a_k1_total_is_checked_against_the_axis_flow(monkeypatch):
    import dataclasses

    import lagflow.intersect

    # diag(x - 0.3, x - 1.2): n-(T(-1)) - n-(T(1)) = 2 - 1, one crossing +1
    axes = (np.linspace(-1.0, 1.0, 9),)
    fam = MeshedFamily(1, axes, np.eye(2), func=lambda x: np.diag([x[0] - 0.3, x[0] - 1.2]))
    assert total_intersection_number(fam)[0] == 1
    assert total_intersection_number(dataclasses.replace(fam, orientation=-1))[0] == -1
    # W a line of C^2 has codimension 1, where k = 1 needs 0: malformed
    line = MeshedFamily(1, axes, np.array([[1.0], [0.0]]),
                        func=lambda x: np.diag([1.0, x[0] - 0.3]))
    with pytest.raises(InputError, match="codimension k-1"):
        total_intersection_number(line)
    # T has no value at the upper end: no oracle either
    holed = MeshedFamily(1, axes, np.eye(2), func=lambda x: (
        None if x[0] > 0.9 else np.diag([x[0] - 0.3, 1.0])))
    assert total_intersection_number(holed)[0] == 1

    monkeypatch.setattr(lagflow.intersect, "locate_crossings", lambda family: [])
    with pytest.raises(PreconditionError, match="unresolved cluster"):
        total_intersection_number(fam)  # a scan that missed the crossing
    assert total_intersection_number(holed) == (0, [])
    for end in (-1.0, 1.0):  # T singular at an end, at rank_eps
        edge = MeshedFamily(1, axes, np.eye(2), func=lambda x, e=end: np.diag(
            [x[0] - e + 0.5 * fam.tol.rank_eps * e, 1.0]))
        with pytest.raises(PreconditionError, match="boundary crossing"):
            total_intersection_number(edge)


def test_runs_start_from_the_local_minima_of_the_scan(monkeypatch):
    import lagflow.intersect

    starts = []
    original = lagflow.intersect._newton

    def counting(family, x0):
        starts.append(tuple(x0))
        return original(family, x0)

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
    grid = {idx: _detector(fam, axis[list(idx)]) for idx in np.ndindex(shape)}
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
