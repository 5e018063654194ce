"""Each checker of the benchmark accepts the right answer and rejects a perturbed one.

    python -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from checks import (  # noqa: E402
    check_close,
    check_flow,
    check_mesh,
    check_value,
    incidence_profile_of,
    inertia_flow,
    spectrum_in_window,
)
from inputs import affine_path, isolated, pencil_crossings, spread_phases  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_inertia_flow_counts_eigenvalues_leaving_the_negative_side():
    assert inertia_flow(np.diag([-1.0, -2.0, 3.0]), np.diag([1.0, -2.0, 3.0])) == 1
    assert inertia_flow(np.diag([1.0, 2.0]), np.diag([-1.0, -2.0])) == -2


def test_affine_path_records_its_crossings_and_flow(rng):
    p = affine_path(rng, 3, count=2, sampled=False, a_scale=1.0, b_scale=3.0,
                    isolation=0.125)
    assert len(p.crossings) == 2
    for t in p.crossings:
        assert np.min(np.abs(np.linalg.eigvalsh(p.at(t)))) < 1e-9
        assert isolated(p.a, p.b, t, 0.125)
    assert pencil_crossings(p.a, p.b, 0.02) == p.crossings
    # two parallel branches crossing zero 0.05 apart are not isolated
    a, b = np.diag([-0.1, -0.15, 1.0]), np.diag([2.0, 2.0, 1.0])
    assert not isolated(a, b, 0.05, 0.125)


def test_check_flow_rejects_flow_off_by_one_and_a_flipped_sign():
    signs = [1, 1, -1]
    assert check_flow(1, signs, 1) is None
    assert check_flow(2, signs, 1) is not None
    assert check_flow(0, signs, 1) is not None
    assert check_flow(1, [1, -1, -1], 1) is not None


def test_flow_checker_of_library_results():
    crossings = [SimpleNamespace(t=0.3, sign=1), SimpleNamespace(t=0.6, sign=1)]
    assert workloads._flow_check(2, (2, crossings)) is None
    assert workloads._flow_check(2, (3, crossings)) is not None
    crossings[0] = SimpleNamespace(t=0.3, sign=-1)
    assert workloads._flow_check(2, (2, crossings)) is not None


def test_cli_flow_checker_rejects_a_flipped_sign():
    out = json.dumps({"flow": 1, "crossings": [{"t": 0.5, "sign": 1}]})
    assert workloads._check_cli_flow(1, out) is None
    assert workloads._check_cli_flow(0, out) is not None
    flipped = json.dumps({"flow": 1, "crossings": [{"t": 0.5, "sign": -1}]})
    assert workloads._check_cli_flow(1, flipped) is not None


def test_spectrum_checker_rejects_a_shifted_eigenvalue(rng):
    theta = spread_phases(rng, 3)
    window = workloads.SPECTRUM_WINDOW
    expected = spectrum_in_window(theta, window)
    assert expected.size >= 6  # at least two images of each phase in [-7, 7]
    out = json.dumps({"eigenvalues": expected.tolist()})
    assert workloads._check_cli_spectrum(expected, out) is None
    shifted = expected.copy()
    shifted[2] += 1e-6
    assert workloads._check_cli_spectrum(expected, json.dumps({"eigenvalues": shifted.tolist()}))
    missing = json.dumps({"eigenvalues": expected[1:].tolist()})
    assert workloads._check_cli_spectrum(expected, missing) is not None


def test_schubert_profile_of_h_plus():
    assert incidence_profile_of([1, 3], 3) == [2, 1, 1, 0]
    assert check_value([2, 1, 1, 0], incidence_profile_of([1, 3], 3)) is None
    assert check_value([2, 1, 0, 0], incidence_profile_of([1, 3], 3)) is not None


def test_jet_checker_needs_epsilon_minus_one_and_det_minus_one():
    good = json.dumps({"epsilon": -1, "p": 2, "det": -1.0})
    assert workloads._check_cli_jet(2, good) is None
    assert workloads._check_cli_jet(1, good) is not None
    assert workloads._check_cli_jet(2, json.dumps({"epsilon": 1, "p": 2, "det": -1.0}))
    assert workloads._check_cli_jet(2, json.dumps({"epsilon": -1, "p": 2, "det": -1.0 + 1e-9}))


def test_su2_checker_against_the_closed_form():
    z = 0.3 + 0.4j
    value = (1 + np.conj(z)) / (1 + z)
    out = json.dumps(workloads.encode_matrix(np.array([[value]])))
    assert workloads._check_cli_su2(z, out) is None
    off = json.dumps(workloads.encode_matrix(np.array([[value + 1e-10]])))
    assert workloads._check_cli_su2(z, off) is not None


def test_matrix_and_frame_checkers(rng):
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    frame = workloads.cayley_frame(u)
    assert np.abs(frame.conj().T @ frame - np.eye(3)).max() < 1e-12
    out = json.dumps(workloads.encode_lagrangian(frame))
    assert workloads._check_cli_frame(frame, out) is None
    assert workloads._check_cli_frame(workloads.cayley_frame(-u), out) is not None
    assert workloads._check_cli_matrix(u, 1e-10, json.dumps(workloads.encode_matrix(u))) is None
    assert workloads._check_cli_matrix(u, 1e-10, json.dumps(workloads.encode_matrix(1j * u)))


def test_total_checker_rejects_a_flipped_local_sign():
    out = json.dumps({"total": 1, "crossings": [{"point": [0.4], "epsilon": 1}]})
    assert workloads._check_cli_total(1, out) is None
    assert workloads._check_cli_total(-1, out) is not None
    flipped = json.dumps({"total": 1, "crossings": [{"point": [0.4], "epsilon": -1}]})
    assert workloads._check_cli_total(1, flipped) is not None


def test_mesh_checker():
    minus_identity = np.array([-1.0, 0.0, 0.0, 0.0])
    assert check_mesh([minus_identity], [1]) is None
    assert check_mesh([minus_identity, minus_identity + 1e-4], [1, 1]) is None
    assert check_mesh([minus_identity + [0.0, 2e-3, 0.0, 0.0]], [1]) is not None
    assert check_mesh([minus_identity], [2]) is not None
    assert check_mesh([minus_identity, -minus_identity], [1, 1]) is not None
    assert check_mesh([], []) is not None


def test_chart_checker_needs_the_crossing_on_its_own_chart_only():
    minus_identity = np.array([-1.0, 0.0, 0.0, 0.0])
    assert workloads.check_chart(True, [(minus_identity, 1)]) is None
    assert workloads.check_chart(True, []) is not None
    assert workloads.check_chart(False, []) is None
    assert workloads.check_chart(False, [(minus_identity, 1)]) is not None


def test_check_close_rejects_shape_and_value_changes():
    assert check_close(np.eye(2), np.eye(2), 0.0) is None
    assert check_close(np.eye(2), np.eye(3), 1.0) is not None
    assert check_close(np.eye(2) + 1e-8, np.eye(2), 1e-9) is not None
