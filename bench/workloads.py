"""The benchmark's four workloads, each a fixed list of timed operations.

An operation is one call into the public API of lagflow (or one CLI
invocation) together with the checker that judges its answer.  A round runs
every operation of the workload once; runs repeat whole rounds.  Only the
call is timed and traced; the checker runs outside both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import lagflow
from lagflow import cli as lagflow_cli
from lagflow.intersect import crossing_jet

from checks import (
    check_close,
    check_flow,
    check_mesh,
    check_value,
    incidence_profile_of,
    spectrum_in_window,
)
from inputs import affine_path, random_unitary, spread_phases, winding_loop


@dataclass(frozen=True)
class Op:
    """One timed call and the checker of its result."""

    route: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    label: str = ""


@dataclass(frozen=True)
class Workload:
    """Operations of one round; ``traced_ops`` replace them in a traced run."""

    ops: list[Op]
    traced_ops: list[Op]


# ---------------------------------------------------------------------------
# paths and paths_n64

PATHS_PER_DIM = 12     # per n = 1..6: crossing counts 0, 1, 2 in turn, half sampled
# Small paths keep their crossings more than one step of the 17-node Maslov
# grid apart, and at a crossing no other branch within two steps of zero:
# parallel branches that move farther than their gap in one step make
# maslov_index drop a crossing (see the FOUND lines of CHANGES.md).
PATHS_MARGIN = 0.08
PATHS_ISOLATION = 2.0 / 16.0
LOOPS_PER_DIM = 2      # per n = 1..6: one function-backed, one sampled
HERMITIAN_NODES = 9
LAGRANGIAN_NODES = 17
LOOP_NODES = 33

N64 = 64
N64_PATHS = 3          # 4 clean crossings each, the middle one sampled
N64_CROSSINGS = 4
N64_NODES = 3
N64_LOOPS = 3          # 8 of 64 branches wind +-1, the middle one sampled
N64_MOVING = 8


def hermitian_path(p, nodes: int) -> lagflow.HermitianPath:
    if p.sampled:
        grid = np.linspace(0.0, 1.0, nodes)
        return lagflow.HermitianPath(grid, tuple(p.at(t) for t in grid))
    return lagflow.HermitianPath.from_function(p.at, nodes)


def switched_graph_path(p, hpath) -> lagflow.LagrangianPath:
    """Switched graphs of a Hermitian path, as acceptance criterion 06 builds them."""
    lpath = lagflow.LagrangianPath.from_function(
        lambda t: lagflow.switched_graph(hpath.value_at(t)), LAGRANGIAN_NODES)
    if p.sampled:
        return lagflow.LagrangianPath(lpath.grid, lpath.values)
    return lpath


def unitary_loop(loop) -> lagflow.UnitaryLoop:
    if loop.sampled:
        grid = np.linspace(0.0, 1.0, LOOP_NODES)
        return lagflow.UnitaryLoop(grid, tuple(loop.at(t) for t in grid))
    return lagflow.UnitaryLoop.from_function(loop.at, LOOP_NODES)


def _flow_check(expected: int, result) -> str | None:
    flow, crossings = result
    return check_flow(flow, [c.sign for c in crossings], expected)


def _path_ops(p, nodes: int, maslov: bool) -> list[Op]:
    hpath = hermitian_path(p, nodes)
    check = partial(_flow_check, p.expected)
    ops = [Op("sf_crossing", partial(lagflow.spectral_flow_crossing, hpath), check),
           Op("sf_tracking", partial(lagflow.spectral_flow_tracking, hpath), check)]
    if maslov:
        lpath = switched_graph_path(p, hpath)
        ops.append(Op("maslov", partial(lagflow.maslov_index, lpath), check))
    return ops


def _loop_op(loop) -> Op:
    return Op("loop_flow", partial(lagflow.universal_loop_flow, unitary_loop(loop)),
              partial(check_value, expected=loop.expected))


def build_paths(rng, workdir: Path) -> Workload:
    ops: list[Op] = []
    for n in range(1, 7):
        kinds = 2 if n == 1 else 3
        for slot in range(PATHS_PER_DIM):
            p = affine_path(rng, n, count=(slot // 2) % kinds, sampled=slot % 2 == 1,
                            a_scale=1.0, b_scale=3.0, margin=PATHS_MARGIN,
                            isolation=PATHS_ISOLATION)
            ops += _path_ops(p, HERMITIAN_NODES, maslov=True)
        for slot in range(LOOPS_PER_DIM):
            ops.append(_loop_op(winding_loop(rng, n, moving=(n + 1) // 2,
                                             sampled=slot % 2 == 1)))
    return Workload(ops, ops)


def build_paths_n64(rng, workdir: Path) -> Workload:
    ops: list[Op] = []
    scale = 1.0 / np.sqrt(N64)
    for slot in range(N64_PATHS):
        # the drift moves about N64_CROSSINGS eigenvalues through zero
        p = affine_path(rng, N64, count=N64_CROSSINGS, sampled=slot % 2 == 1,
                        a_scale=scale, b_scale=scale, drift=0.3,
                        margin=0.01, end_gap=0.01)
        ops += _path_ops(p, N64_NODES, maslov=False)
    for slot in range(N64_LOOPS):
        ops.append(_loop_op(winding_loop(rng, N64, moving=N64_MOVING,
                                         sampled=slot % 2 == 1)))
    return Workload(ops, ops)


# ---------------------------------------------------------------------------
# mesh: the SU(2) identity family, k = 2, on all 8 q-charts

MESH_NODES = 7
MESH_EXTENT = 0.87
_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _chart_quaternion(coord: int, sign: int, x: np.ndarray) -> np.ndarray:
    q = np.empty(4)
    q[[d for d in range(4) if d != coord]] = x
    q[coord] = sign * np.sqrt(max(0.0, 1.0 - float(np.dot(x, x))))
    return q


def su2_chart_family(coord: int, sign: int) -> lagflow.MeshedFamily:
    """Switched-graph family T = i(1+U)(1-U)^{-1} of U = u(q) on one q-chart.

    Only U = -I has Ker T meeting W = span(e_2), so the family meets the
    level-2 Schubert variety once, at q = (-1, 0, 0, 0).
    """

    def func(x):
        if float(np.dot(x, x)) >= 1.0 - 1e-12:
            return None
        q = _chart_quaternion(coord, sign, x)
        u = q[0] * np.eye(2, dtype=complex) + 1j * sum(qi * s for qi, s in zip(q[1:], _SIGMA))
        one_minus = np.eye(2) - u
        if np.linalg.svd(one_minus, compute_uv=False)[-1] < 1e-10:
            return None
        return 1j * (np.eye(2) + u) @ np.linalg.inv(one_minus)

    axis = np.linspace(-MESH_EXTENT, MESH_EXTENT, MESH_NODES)
    w = np.array([[0.0], [1.0]], dtype=complex)
    return lagflow.MeshedFamily(2, (axis, axis, axis), w, func=func,
                                orientation=int(sign * (-1) ** coord))


def scan_chart(coord: int, sign: int, family) -> list[tuple[np.ndarray, int]]:
    """Unit quaternions and signs of the crossings located on one chart.

    locate_crossings, then crossing_jet and intersection_number_operator at
    every located point.
    """
    out = []
    for x in lagflow.locate_crossings(family):
        eps = family.orientation * lagflow.intersection_number_operator(
            crossing_jet(family, x))
        out.append((_chart_quaternion(coord, sign, x), eps))
    return out


# U = -I is q = (-1, 0, 0, 0): the centre of the chart (0, -1), outside the others
MESH_HIT = (0, -1)


def check_chart(hit: bool, result) -> str | None:
    """The chart of U = -I finds that crossing; every other chart finds none."""
    if hit:
        return check_mesh([q for q, _ in result], [eps for _, eps in result])
    if result:
        return f"{len(result)} crossings on a chart without U = -I"
    return None


def build_mesh(rng, workdir: Path) -> Workload:
    # The family does not depend on the seed.  Conjugating U by a diagonal
    # unitary fixes W and the answer, but rounding then decides which mesh
    # nodes tie as local minima, and the Nelder-Mead runs on the 8 charts move
    # between 66 and 85 (80 to 88 even for exact quarter turns diag(1, i^k)),
    # a spread in work larger than the benchmark's bound allows.
    # One operation per chart, so the reference kernel samples between them.
    ops = [Op("mesh", partial(scan_chart, coord, sign, su2_chart_family(coord, sign)),
              partial(check_chart, (coord, sign) == MESH_HIT), f"chart {coord} {sign:+d}")
           for coord in range(4) for sign in (1, -1)]
    return Workload(ops, ops)


# ---------------------------------------------------------------------------
# cli: every verb on small generated fixtures


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def encode_lagrangian(frame) -> dict:
    out = encode_matrix(frame)
    out.update(kind="lagrangian", n=frame.shape[1])
    return out


def decode_matrix(obj) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def cayley_frame(u: np.ndarray) -> np.ndarray:
    """[1+U; -i(1-U)] / 2, orthonormal for unitary U."""
    eye = np.eye(u.shape[0])
    return 0.5 * np.vstack([eye + u, -1j * (eye - u)])


def switched_graph_frame(t: np.ndarray) -> np.ndarray:
    """[T; I] (1 + T^2)^{-1/2}."""
    vals, vecs = np.linalg.eigh(t)
    inv_sqrt = (vecs / np.sqrt(1.0 + vals ** 2)) @ vecs.conj().T
    return np.vstack([t, np.eye(t.shape[0])]) @ inv_sqrt


def _frame_gap(f1: np.ndarray, f2: np.ndarray) -> float:
    return float(np.linalg.norm(f1 @ f1.conj().T - f2 @ f2.conj().T, 2))


def _lagrangian_path_fixture(p) -> tuple[dict, int]:
    """Switched graphs of p on a grid fine enough for the 0.5 sampling guard."""
    nodes = LAGRANGIAN_NODES
    while True:
        grid = np.linspace(0.0, 1.0, nodes)
        frames = [switched_graph_frame(p.at(t)) for t in grid]
        if max(_frame_gap(a, b) for a, b in zip(frames, frames[1:])) <= 0.45:
            return {"grid": grid.tolist(),
                    "values": [encode_lagrangian(f) for f in frames]}, p.expected
        nodes = 2 * nodes - 1


def _h_plus_frame(iset, n: int, rng) -> np.ndarray:
    """H_I^+ = span{f_i : i in I} + span{e_j : j not in I}, in a random basis."""
    cols = []
    for i in range(1, n + 1):
        v = np.zeros(2 * n, dtype=complex)
        v[n + i - 1 if i in iset else i - 1] = 1.0
        cols.append(v)
    return np.column_stack(cols) @ random_unitary(rng, n)


def _check_cli_flow(expected: int, out) -> str | None:
    res = json.loads(out)
    return check_flow(res["flow"], [c["sign"] for c in res["crossings"]], expected)


def _check_cli_matrix(expected: np.ndarray, tol: float, out) -> str | None:
    return check_close(decode_matrix(json.loads(out)), expected, tol)


def _check_cli_frame(expected: np.ndarray, out) -> str | None:
    res = json.loads(out)
    if res.get("kind") != "lagrangian" or res.get("n") != expected.shape[1]:
        return "not a lagrangian object of the right size"
    return check_close(decode_matrix(res), expected, 1e-9)


def _check_cli_jet(p: int, out) -> str | None:
    res = json.loads(out)
    if res["epsilon"] != -1 or res["p"] != p:
        return f"epsilon {res['epsilon']}, p {res['p']}; expected -1, {p}"
    return check_close(res["det"], -1.0, 1e-12)


def _check_cli_su2(z: complex, out) -> str | None:
    red = decode_matrix(json.loads(out))
    return check_close(red, np.array([[(1 + np.conj(z)) / (1 + z)]]), 1e-12)


def _check_cli_key(key: str, expected, out) -> str | None:
    return check_value(json.loads(out)[key], expected)


def _check_cli_spectrum(expected: np.ndarray, out) -> str | None:
    return check_close(np.array(json.loads(out)["eigenvalues"]), expected, 1e-9)


def _check_cli_total(expected: int, out) -> str | None:
    res = json.loads(out)
    return check_flow(res["total"], [c["epsilon"] for c in res["crossings"]], expected)


SPECTRUM_WINDOW = (-7.0, 7.0)


def cli_cases(rng, workdir: Path) -> list[tuple[list[str], Callable]]:
    """(argv, checker) per invocation; fixture files go to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)

    def fixture(name: str, obj) -> str:
        path = workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    cases = []
    u = random_unitary(rng, 3)
    cases.append((["arnold", "--to-lagrangian", fixture("u.json", encode_matrix(u))],
                  partial(_check_cli_frame, cayley_frame(u))))
    cases.append((["arnold", "--to-unitary",
                    fixture("l.json", encode_lagrangian(cayley_frame(u)))],
                  partial(_check_cli_matrix, u, 1e-9)))

    p = affine_path(rng, 3, count=2, sampled=True, a_scale=1.0, b_scale=3.0)
    grid = np.linspace(0.0, 1.0, HERMITIAN_NODES)
    path_obj = {"grid": grid.tolist(), "values": [encode_matrix(p.at(t)) for t in grid]}
    cases.append((["sf", fixture("path.json", path_obj), "--method", "both"],
                  partial(_check_cli_flow, p.expected)))

    q = affine_path(rng, 2, count=1, sampled=True, a_scale=1.0, b_scale=3.0,
                    isolation=PATHS_ISOLATION)
    lpath_obj, expected = _lagrangian_path_fixture(q)
    cases.append((["maslov", fixture("lpath.json", lpath_obj)],
                  partial(_check_cli_flow, expected)))

    n = 4
    iset = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    h_plus = encode_lagrangian(_h_plus_frame(iset, n, rng))
    cases.append((["schubert", fixture("h_plus.json", h_plus)],
                  partial(_check_cli_key, "profile", incidence_profile_of(iset, n))))

    z = 0.6 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-2.5, 2.5))
    w_c = np.sqrt(1 - abs(z) ** 2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    su2 = np.array([[z, -np.conj(w_c)], [w_c, np.conj(z)]])
    cases.append((["reduce", "--unitary", fixture("su2.json", encode_matrix(su2)),
                    "--w-indices", "1"],
                  partial(_check_cli_su2, z)))

    # the worked k = 2 jets of acceptance criterion 07: T0 = 0 (p = 2) or diag(1, 0) (p = 1)
    kernel_dim = int(rng.integers(1, 3))
    t0 = np.zeros((2, 2)) if kernel_dim == 2 else np.diag([1.0, 0.0])
    jet = {"k": 2, "T0": encode_matrix(t0),
           "partials": [encode_matrix(np.array([[0, 0], [0, 1.0]])),
                        encode_matrix(np.array([[0, 1.0], [1.0, 0]])),
                        encode_matrix(np.array([[0, 1j], [-1j, 0]]))],
           "W_frame": encode_matrix(np.array([[0.0], [1.0]]))}
    cases.append((["intersect", fixture("jet.json", jet)],
                  partial(_check_cli_jet, kernel_dim)))

    f = affine_path(rng, 2, count=1, sampled=True, a_scale=1.0, b_scale=3.0, margin=0.2)
    axis = np.linspace(0.0, 1.0, 17)
    family = {"k": 1, "axes": [axis.tolist()], "orientation": 1,
              "values": [encode_matrix(f.at(x)) for x in axis],
              "W_frame": encode_matrix(np.eye(2))}
    cases.append((["intersect-total", fixture("family.json", family)],
                  partial(_check_cli_total, f.expected)))

    theta = spread_phases(rng, 3)
    while np.min(np.abs(np.abs(theta[:, None] + 2 * np.pi * np.arange(-2, 3))
                        - SPECTRUM_WINDOW[1])) < 0.01:
        theta = spread_phases(rng, 3)  # keep every theta + 2 pi k off the window edges
    v = random_unitary(rng, 3)
    u_spec = (v * np.exp(1j * theta)) @ v.conj().T
    cases.append((["universal", "--spectrum", fixture("u_spec.json", encode_matrix(u_spec)),
                    "--window", str(SPECTRUM_WINDOW[0]), str(SPECTRUM_WINDOW[1])],
                  partial(_check_cli_spectrum, spectrum_in_window(theta, SPECTRUM_WINDOW))))

    loop = winding_loop(rng, 2, moving=2, sampled=True)
    loop_grid = np.linspace(0.0, 1.0, LOOP_NODES)
    loop_obj = {"grid": loop_grid.tolist(),
                "values": [encode_matrix(loop.at(t)) for t in loop_grid]}
    cases.append((["universal", "--flow", fixture("loop.json", loop_obj)],
                  partial(_check_cli_key, "flow", loop.expected)))

    # applied twice the Moebius involution returns U; the second call gets
    # the first image as computed here, and the first call is checked against it
    u_red = random_unitary(rng, 2)
    eye = np.eye(2)
    image = (eye - 3.0 * u_red) @ np.linalg.inv(3.0 * eye - u_red)
    cases.append((["universal", "--reduce", fixture("u_red.json", encode_matrix(u_red))],
                  partial(_check_cli_matrix, image, 1e-10)))
    cases.append((["universal", "--reduce", fixture("u_image.json", encode_matrix(image))],
                  partial(_check_cli_matrix, u_red, 1e-10)))
    return cases


def cli_subprocess(argv: list[str], root: Path) -> str:
    """One fresh ``python -m lagflow.cli`` process; its stdout on exit code 0."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "lagflow.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def cli_in_process(argv: list[str]) -> str:
    """lagflow.cli.main in this process, so its layers can be traced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lagflow_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def build_cli(rng, workdir: Path) -> Workload:
    root = Path(__file__).resolve().parent.parent
    cases = cli_cases(rng, workdir)
    ops = [Op("cli", partial(cli_subprocess, argv, root), check, " ".join(argv[:2]))
           for argv, check in cases]
    traced = [Op("cli", partial(cli_in_process, argv), check, " ".join(argv[:2]))
              for argv, check in cases]
    return Workload(ops, traced)


FACTORIES = {
    "paths": build_paths,
    "paths_n64": build_paths_n64,
    "mesh": build_mesh,
    "cli": build_cli,
}
