import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagflow
import lagflow.flow
import lagflow.serialize as ser
from lagflow.cli import main
from lagflow.grassmann import cayley_graph, chart_point, standard_lagrangians, switched_graph
from lagflow.linalg import subspaces_equal
from lagflow.universal import discretize_operator

from conftest import random_unitary


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arnold_roundtrip_files(tmp_path, capsys):
    u_path = write(tmp_path, "u.json", ser.encode_matrix(-np.eye(2)))
    code, out, err = run(capsys, "arnold", "--to-lagrangian", u_path)
    assert code == 0 and err == ""
    frame = ser.decode_lagrangian(json.loads(out))
    assert subspaces_equal(frame.frame, standard_lagrangians(2)[1].frame)

    l_path = write(tmp_path, "l.json", ser.encode_lagrangian(frame))
    code, out, _ = run(capsys, "arnold", "--to-unitary", l_path)
    assert code == 0
    u = ser.decode_matrix(json.loads(out))
    assert np.abs(u + np.eye(2)).max() < 1e-9


def test_sf_both_methods(tmp_path, capsys):
    path_obj = {"grid": [0.0, 1.0],
                "values": [ser.encode_matrix(np.array([[-0.5]])),
                           ser.encode_matrix(np.array([[0.5]]))]}
    p = write(tmp_path, "path.json", path_obj)
    code, out, _ = run(capsys, "sf", p, "--method", "both")
    assert code == 0
    result = json.loads(out)
    assert result["flow"] == 1
    assert abs(result["crossings"][0]["t"] - 0.5) < 1e-9


def test_sf_signs_a_crossing_next_to_a_slope_jump(tmp_path, capsys):
    # the crossing lies 7e-5 before the node at 0.5, where the slope jumps
    path_obj = {"grid": [0.0, 0.5, 1.0],
                "values": [ser.encode_matrix(np.array([[v]])) for v in (-1.0, 1.4e-4, 1000.0)]}
    p = write(tmp_path, "path.json", path_obj)
    code, out, err = run(capsys, "sf", p)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["flow"] == 1
    assert [c["sign"] for c in result["crossings"]] == [1]


@pytest.mark.parametrize("values", [(-1.0, 0.0, -0.001), (1.0, 0.0, 0.001),
                                    (-10.0, 1e-8, -0.001)])
def test_sf_counts_a_branch_turning_back_at_a_node_as_zero(tmp_path, capsys, values):
    # the branch reaches zero at the node 0.5 and turns back, or crosses
    # 5e-10 before the node and crosses back 5e-6 after it
    path_obj = {"grid": [0.0, 0.5, 1.0],
                "values": [ser.encode_matrix(np.array([[v]])) for v in values]}
    p = write(tmp_path, "path.json", path_obj)
    for method in ("crossing", "both"):
        code, out, err = run(capsys, "sf", p, "--method", method)
        assert (code, err) == (0, "")
        assert json.loads(out)["flow"] == 0


def test_sf_lists_no_event_for_a_touch_at_a_node(tmp_path, capsys):
    # the branch reaches zero at the node 0.5 and turns back: a tangency
    path_obj = {"grid": [0.0, 0.5, 1.0],
                "values": [ser.encode_matrix(np.array([[v]])) for v in (-1.0, 0.0, -0.001)]}
    p = write(tmp_path, "path.json", path_obj)
    assert run(capsys, "sf", p, "--method", "both") == (0, '{"crossings":[],"flow":0}\n', "")


def test_sf_plot_csv(tmp_path, capsys):
    path_obj = {"grid": [0.0, 1.0],
                "values": [ser.encode_matrix(np.diag([-0.5, 1.0])),
                           ser.encode_matrix(np.diag([0.5, 2.0]))]}
    p = write(tmp_path, "path.json", path_obj)
    csv_out = tmp_path / "branches.csv"
    code, out, _ = run(capsys, "sf", p, "--plot", str(csv_out))
    assert code == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "t,lambda0,lambda1"
    assert len(lines) > 8



def test_sf_plot_rows_are_the_eigenvalues_at_each_t(tmp_path, capsys):
    # 33 points on a grid whose second step holds 30 of them
    rng = np.random.default_rng(3)
    grid = np.array([0.0, 0.02, 0.95, 0.97, 1.0])
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    values = [np.diag([t - 0.5, 1.0 + t, -2.0]) + 0.1 * t * (a + a.conj().T) for t in grid]
    p = write(tmp_path, "path.json", {"grid": list(grid),
                                      "values": [ser.encode_matrix(v) for v in values]})
    csv_out = tmp_path / "branches.csv"
    code, _, _ = run(capsys, "sf", p, "--plot", str(csv_out))
    assert code == 0
    path = ser.decode_hermitian_path(json.loads(Path(p).read_text()))
    rows = csv_out.read_text().strip().splitlines()[1:]
    ts = np.linspace(0.0, 1.0, 33)
    assert rows == [",".join(format(x, ".17g") for x in [t, *np.linalg.eigvalsh(path.value_at(t))])
                    for t in ts]

def test_maslov_cli(tmp_path, capsys):
    grid = np.linspace(0, 1, 17)
    frames = [ser.encode_lagrangian(switched_graph(np.array([[t - 0.5]])))
              for t in grid]
    p = write(tmp_path, "lpath.json", {"grid": list(grid), "values": frames})
    code, out, _ = run(capsys, "maslov", p)
    assert code == 0
    assert json.loads(out)["flow"] == 1


def test_maslov_plot_stacks_its_eigenphases(tmp_path, capsys, monkeypatch):
    # 129 plotted points of a 17-node path at n = 4: one eigvals call for
    # all of them, within the entry budget, and the CSV of one call per
    # point, byte for byte
    v = random_unitary(4, np.random.default_rng(6))
    a = (v * np.array([-1.0, -0.5, 1.0, 2.0])) @ v.conj().T
    grid = np.linspace(0.0, 1.0, 17)
    p = write(tmp_path, "lpath.json", {"grid": list(grid), "values": [
        ser.encode_lagrangian(switched_graph(a + 1.5 * t * np.eye(4))) for t in grid]})
    path = ser.decode_lagrangian_path(json.loads(Path(p).read_text()))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "theta0", "theta1", "theta2", "theta3"])
    for t in np.linspace(0.0, 1.0, 129):
        theta = np.sort(np.angle(np.linalg.eigvals(path._geodesic.at(t))))
        writer.writerow([format(x, ".17g") for x in [t, *theta]])
    calls = []
    eigvals = np.linalg.eigvals

    def counting(m):
        calls.append(np.shape(m))
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    counts = []
    for extra in ([], ["--plot", str(tmp_path / "phases.csv")]):
        calls.clear()
        code, out, _ = run(capsys, "maslov", p, *extra)
        assert (code, json.loads(out)["flow"]) == (0, 2)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 1
    assert max(np.prod(shape) for shape in calls) <= lagflow.flow._STACK_ENTRIES
    assert (tmp_path / "phases.csv").read_bytes() == expected.getvalue().encode()


def test_reduce_su2(tmp_path, capsys):
    z = 0.3 + 0.4j
    w = np.sqrt(1 - abs(z) ** 2) * np.exp(0.7j)
    u = np.array([[z, -np.conj(w)], [w, np.conj(z)]])
    p = write(tmp_path, "su2.json", ser.encode_matrix(u))
    code, out, _ = run(capsys, "reduce", "--unitary", p, "--w-indices", "1")
    assert code == 0
    red = ser.decode_matrix(json.loads(out))
    assert abs(red[0, 0] - (1 + np.conj(z)) / (1 + z)) < 1e-12


def test_reduce_lagrangian_file(tmp_path, capsys):
    s = np.array([[0.4, 0.1], [0.1, -0.2]], dtype=complex)
    lag = chart_point(standard_lagrangians(2)[0], s)
    lp = write(tmp_path, "l.json", ser.encode_lagrangian(lag))
    wp = write(tmp_path, "w.json", ser.encode_matrix(np.array([[0.0], [1.0]])))
    code, out, _ = run(capsys, "reduce", "--lagrangian", lp, "--w-frame", wp)
    assert code == 0
    red = ser.decode_lagrangian(json.loads(out))
    target = chart_point(standard_lagrangians(1)[0], s[:1, :1])
    assert subspaces_equal(red.frame, target.frame)


def test_schubert_cli(tmp_path, capsys):
    p = write(tmp_path, "hm.json",
              ser.encode_lagrangian(standard_lagrangians(3)[1]))
    code, out, _ = run(capsys, "schubert", p)
    assert code == 0
    result = json.loads(out)
    assert result == {"generic": True, "index": [1, 2, 3],
                      "profile": [3, 2, 1, 0], "weight": 9}
    # a loose tolerance misreads the profile as [3, 3, 3, 0], with d_1 = 3 > 2
    code, out, err = run(capsys, "schubert", p, "--tol", "0.8")
    assert code == 2 and out == ""
    assert "non-generic profile" in err


def test_schubert_cli_rejects_a_drop_of_two(tmp_path, capsys):
    # the Cayley graph of a U(3) with eigenphases 2.546, -1.130, 0.141 misses
    # H- altogether; --tol 0.5 misreads its profile as [2, 0, 0, 0]
    rng = np.random.default_rng(3)
    for _ in range(182):
        n = int(rng.integers(2, 5))
        u = random_unitary(n, rng)
    assert n == 3 and np.allclose(np.sort(np.angle(np.linalg.eigvals(u))),
                                  [-1.130, 0.141, 2.546], atol=1e-3)
    p = write(tmp_path, "l.json", ser.encode_lagrangian(cayley_graph(u)))
    code, out, err = run(capsys, "schubert", p, "--tol", "0.5")
    assert code == 2 and out == ""
    assert "non-generic profile: [2, 0, 0, 0]" in err
    code, out, _ = run(capsys, "schubert", p)
    assert code == 0
    assert json.loads(out) == {"generic": True, "index": [], "profile": [0, 0, 0, 0],
                               "weight": 0}


def test_intersect_cli(tmp_path, capsys):
    jet = {"k": 2, "T0": ser.encode_matrix(np.zeros((2, 2))),
           "partials": [ser.encode_matrix(np.array([[0, 0], [0, 1.0]])),
                        ser.encode_matrix(np.array([[0, 1.0], [1.0, 0]])),
                        ser.encode_matrix(np.array([[0, 1j], [-1j, 0]]))],
           "W_frame": ser.encode_matrix(np.array([[0.0], [1.0]]))}
    p = write(tmp_path, "jet.json", jet)
    code, out, _ = run(capsys, "intersect", p)
    assert code == 0
    result = json.loads(out)
    assert result["epsilon"] == -1 and result["p"] == 2


def test_intersect_total_cli(tmp_path, capsys):
    axes = [list(np.linspace(-0.6, 0.6, 7))] * 3
    dirs = (np.array([[0, 0], [0, 1.0]], dtype=complex),
            np.array([[0, 1.0], [1.0, 0]], dtype=complex),
            np.array([[0, 1j], [-1j, 0]], dtype=complex))
    values = []
    for x0 in axes[0]:
        for x1 in axes[1]:
            for x2 in axes[2]:
                values.append(ser.encode_matrix(
                    x0 * dirs[0] + x1 * dirs[1] + x2 * dirs[2]))
    fam = {"k": 2, "axes": axes, "values": values,
           "W_frame": ser.encode_matrix(np.array([[0.0], [1.0]]))}
    p = write(tmp_path, "family.json", fam)
    code, out, _ = run(capsys, "intersect-total", p)
    assert code == 0
    result = json.loads(out)
    assert abs(result["total"]) == 1
    assert len(result["crossings"]) == 1


def test_intersect_total_cli_finds_a_crossing_of_a_scaled_family(tmp_path, capsys):
    # 100 diag(x - 0.3, 1): the detector reads 0.89 to 1 on every node, so
    # no threshold on the node values can single out the crossing at 0.3
    axis = np.linspace(-1.0, 1.0, 9)
    fam = {"k": 1, "axes": [list(axis)], "W_frame": ser.encode_matrix(np.eye(2)),
           "values": [ser.encode_matrix(100.0 * np.diag([x - 0.3, 1.0])) for x in axis]}
    code, out, _ = run(capsys, "intersect-total", write(tmp_path, "family.json", fam))
    assert code == 0
    result = json.loads(out)
    assert result["total"] == 1
    (crossing,) = result["crossings"]
    assert abs(crossing["point"][0] - 0.3) < 1e-14 and crossing["epsilon"] == 1


def test_intersect_total_cli_counts_a_kernel_of_dimension_two(tmp_path, capsys):
    # x I_2 with W = C^2: both eigenvalues cross at x = 0, so the flow is 2,
    # at one point whose crossing form has signature 2
    axis = np.linspace(-1.0, 1.0, 9)
    fam = {"k": 1, "axes": [list(axis)], "W_frame": ser.encode_matrix(np.eye(2)),
           "values": [ser.encode_matrix(x * np.eye(2)) for x in axis]}
    code, out, err = run(capsys, "intersect-total", write(tmp_path, "family.json", fam))
    assert code == 0 and err == ""
    assert json.loads(out) == {"total": 2, "crossings": [{"point": [0.0], "epsilon": 2}]}


def test_intersect_total_cli_counts_two_crossings_in_one_cell(tmp_path, capsys):
    # diag(x, x + 1e-3): two crossings 1e-3 apart inside one cell of width
    # 0.25, and n-(T(-1)) - n-(T(1)) = 2
    axis = np.linspace(-1.0, 1.0, 9)
    fam = {"k": 1, "axes": [list(axis)], "W_frame": ser.encode_matrix(np.eye(2)),
           "values": [ser.encode_matrix(np.diag([x, x + 1e-3])) for x in axis]}
    code, out, err = run(capsys, "intersect-total", write(tmp_path, "family.json", fam))
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["total"] == 2
    assert [c["epsilon"] for c in result["crossings"]] == [1, 1]
    assert [c["point"][0] for c in result["crossings"]] == pytest.approx([-1e-3, 0.0], abs=1e-14)


@pytest.mark.parametrize("line", [[1.0, 0.0], [0.0, 1.0]])
def test_intersect_total_cli_rejects_a_w_of_the_wrong_codimension(tmp_path, capsys, line):
    # k = 1 needs W = C^2; a line is malformed whether or not the kernel of
    # diag(1, x - 0.3) at its crossing lies in it
    axis = np.linspace(-1.0, 1.0, 9)
    fam = {"k": 1, "axes": [list(axis)], "W_frame": ser.encode_matrix(np.array([line]).T),
           "values": [ser.encode_matrix(np.diag([1.0, x - 0.3])) for x in axis]}
    code, out, err = run(capsys, "intersect-total", write(tmp_path, "family.json", fam))
    assert code == 3 and out == "" and "W must have codimension k-1 in C^n" in err


def test_sf_cli_rejects_per_node_derivatives(tmp_path, capsys):
    # values -1, 1, -1 on [0, 0.5, 1]: the interpolant crosses upwards at
    # 1/4 and downwards at 3/4; derivatives -1, 0, 1 once signed them the
    # other way round, so a file that carries them is refused
    grid = [0.0, 0.5, 1.0]
    obj = {"grid": grid, "values": [ser.encode_matrix(np.array([[v]])) for v in (-1.0, 1.0, -1.0)]}
    code, out, err = run(capsys, "sf", write(tmp_path, "path.json", obj), "--method", "both")
    assert code == 0 and err == ""
    assert [(c["t"], c["sign"]) for c in json.loads(out)["crossings"]] == [(0.25, 1), (0.75, -1)]
    obj["derivatives"] = [ser.encode_matrix(np.array([[d]])) for d in (-1.0, 0.0, 1.0)]
    code, out, err = run(capsys, "sf", write(tmp_path, "path.json", obj), "--method", "both")
    assert code == 3 and out == "" and "path derivatives are not accepted" in err


def test_intersect_total_cli_rejects_a_non_hermitian_node(tmp_path, capsys):
    axes = [list(np.linspace(-0.6, 0.6, 3))]
    values = [ser.encode_matrix(x * np.eye(2)) for x in axes[0]]
    values[1] = ser.encode_matrix(np.array([[0.0, 0.5], [0.0, 0.0]]))
    fam = {"k": 1, "axes": axes, "values": values,
           "W_frame": ser.encode_matrix(np.eye(2))}
    code, out, err = run(capsys, "intersect-total", write(tmp_path, "family.json", fam))
    assert code == 3 and out == "" and "matrix is not Hermitian" in err


@pytest.mark.parametrize("values", [[[[-1.0, 5.0], [0.0, 1.0]], [[1.0, 5.0], [0.0, 1.0]]],
                                    [[[1.0]], [[1.0 + 0.5j]]]])
def test_sf_cli_rejects_a_non_hermitian_value(tmp_path, capsys, values):
    # sf answered for the Hermitian part, {"crossings":[],"flow":0}, with exit 0
    path = {"grid": [0.0, 1.0], "values": [ser.encode_matrix(np.array(v)) for v in values]}
    code, out, err = run(capsys, "sf", write(tmp_path, "path.json", path))
    assert code == 3 and out == "" and "matrix is not Hermitian" in err


@pytest.mark.parametrize("bad", [float("nan"), 2.0**1023])
@pytest.mark.parametrize("verb", ["sf", "intersect-total"])
def test_a_node_past_the_finite_range_exits_3(tmp_path, capsys, verb, bad):
    grid = list(np.linspace(0.0, 1.0, 3))
    values = [ser.encode_matrix(np.diag([t - 0.5, 1.0])) for t in grid]
    values[1]["data"][3] = [bad, 0.0]
    if verb == "sf":
        obj = {"grid": grid, "values": values}
    else:
        obj = {"k": 1, "axes": [grid], "values": values, "W_frame": ser.encode_matrix(np.eye(2))}
    code, out, err = run(capsys, verb, write(tmp_path, "in.json", obj))
    assert code == 3 and out == ""
    assert "matrix entries must be finite and below 2**1023" in err


@pytest.mark.parametrize("verb", ["sf", "maslov", "universal"])
def test_zero_dimension_path_exits_3(tmp_path, capsys, verb):
    empty = ser.encode_matrix(np.zeros((0, 0)))
    if verb == "maslov":
        empty = {**empty, "kind": "lagrangian", "n": 0}
    p = write(tmp_path, "path.json", {"grid": [0.0, 1.0], "values": [empty, empty]})
    argv = ["universal", "--flow", p] if verb == "universal" else [verb, p]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "dimension must be >= 1" in err


def test_universal_cli(tmp_path, capsys):
    up = write(tmp_path, "u.json", ser.encode_matrix(np.eye(1)))
    code, out, _ = run(capsys, "universal", "--spectrum", up,
                       "--window", "-7", "7")
    assert code == 0
    vals = json.loads(out)["eigenvalues"]
    assert np.allclose(vals, [-2 * np.pi, 0.0, 2 * np.pi])

    grid = np.linspace(0, 1, 17)
    loop = {"grid": list(grid),
            "values": [ser.encode_matrix(
                np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]])) for t in grid]}
    lp = write(tmp_path, "loop.json", loop)
    code, out, _ = run(capsys, "universal", "--flow", lp)
    assert code == 0 and json.loads(out)["flow"] == 1

    code, out, _ = run(capsys, "universal", "--reduce", up)
    assert code == 0
    assert np.abs(ser.decode_matrix(json.loads(out)) + np.eye(1)).max() < 1e-12


def test_universal_flow_plot_rows_are_the_low_ladder_at_each_t(tmp_path, capsys):
    # 2 (nodes - 1) + 1 points; each row the 8 eigenvalues of least modulus
    # of the m = 16 discretization at U(t), in ascending order
    grid = np.linspace(0.0, 1.0, 9)
    obj = {"grid": list(grid), "values": [ser.encode_matrix(
        np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]])) for t in grid]}
    lp = write(tmp_path, "loop.json", obj)
    csv_out = tmp_path / "ladder.csv"
    plain = run(capsys, "universal", "--flow", lp)
    assert run(capsys, "universal", "--flow", lp, "--m", "16", "--plot", str(csv_out)) == plain
    assert plain[0] == 0 and json.loads(plain[1]) == {"flow": 1}
    loop = ser.decode_unitary_loop(obj)
    header, *rows = list(csv.reader(io.StringIO(csv_out.read_text())))
    assert header == ["t"] + [f"lambda{i}" for i in range(8)]
    ts = np.linspace(0.0, 1.0, 2 * (grid.size - 1) + 1)
    assert len(rows) == ts.size
    for t, row in zip(ts, rows):
        ev = np.linalg.eigvalsh(discretize_operator(loop.value_at(t), 16))
        assert [float(x) for x in row] == [t] + sorted(sorted(ev, key=abs)[:8])


@pytest.mark.parametrize("argv, message", [
    (["sf", "{path}", "--method", "sideways"], "invalid choice"),
    (["reduce", "--unitary", "{u}"], "--unitary requires --w-indices"),
    (["reduce", "--lagrangian", "{lag}"], "--lagrangian requires --w-frame"),
    (["reduce", "--lagrangian", "{lag}", "--w-frame", "{w3}"],
     "W frame must be n x p, its H- coordinates, with n = 2"),
    (["reduce", "--lagrangian", "{lag}", "--w-frame", "{w4}"],
     "W frame must be n x p, its H- coordinates, with n = 2"),
    (["universal", "--spectrum", "{u}"], "--spectrum requires --window A B"),
    (["sf", "{path}", "--tol", "1e-6"], "unrecognized arguments: --tol"),
    (["intersect", "{jet}"], "a jet's tol is not accepted"),
    # an option that the chosen branch never reads, given before a missing file
    (["reduce", "--lagrangian", "{lag}", "--w-frame", "{w2}", "--lam", "0", "1"],
     "--lam is not read with --lagrangian"),
    (["reduce", "--lagrangian", "{lag}", "--w-frame", "{w2}", "--w-indices", "2"],
     "--w-indices is not read with --lagrangian"),
    (["reduce", "--unitary", "{u}", "--w-indices", "1", "--w-frame", "{missing}"],
     "--w-frame is not read with --unitary"),
    (["universal", "--reduce", "{u}", "--m", "3"], "--m is not read with --reduce"),
    (["universal", "--reduce", "{u}", "--plot", "{csv}"], "--plot is not read with --reduce"),
    (["universal", "--reduce", "{u}", "--window", "1", "2"],
     "--window is not read with --reduce"),
    (["universal", "--spectrum", "{u}", "--window", "-7", "7", "--m", "3"],
     "--m is not read with --spectrum"),
    (["universal", "--spectrum", "{u}", "--window", "-7", "7", "--plot", "{csv}"],
     "--plot is not read with --spectrum"),
    (["universal", "--flow", "{loop}", "--m", "-3"],
     "--m is not read with --flow without --plot"),
    (["universal", "--flow", "{loop}", "--window", "1", "2"], "--window is not read with --flow"),
], ids=["usage", "unitary-without-w", "lagrangian-without-w", "w-frame-rows",
        "w-frame-2n-rows", "spectrum-without-window", "sf-tol", "jet-tol",
        "lagrangian-lam", "lagrangian-w-indices", "unitary-w-frame", "reduce-m", "reduce-plot",
        "reduce-window", "spectrum-m", "spectrum-plot", "flow-m-without-plot", "flow-window"])
def test_input_errors_exit_3_with_the_message_on_stderr(tmp_path, capsys, argv, message):
    w4 = np.zeros((4, 1))
    w4[3, 0] = 1.0  # f_2 as a 2n x p frame, a form --w-frame does not take
    files = {"path": write(tmp_path, "path.json", {"grid": [0.0, 1.0], "values": [
                 ser.encode_matrix(np.array([[v]])) for v in (-0.5, 0.5)]}),
             "u": write(tmp_path, "u.json", ser.encode_matrix(np.eye(2))),
             "lag": write(tmp_path, "l.json", ser.encode_lagrangian(standard_lagrangians(2)[0])),
             "w3": write(tmp_path, "w.json", ser.encode_matrix(np.ones((3, 1)))),
             "w4": write(tmp_path, "w4.json", ser.encode_matrix(w4)),
             "w2": write(tmp_path, "w2.json", ser.encode_matrix(np.array([[0.0], [1.0]]))),
             "loop": write(tmp_path, "loop.json", {"grid": [0.0, 0.5, 1.0], "values": [
                 ser.encode_matrix(np.eye(1) * np.exp(2j * np.pi * t)) for t in (0.0, 0.5, 1.0)]}),
             "missing": str(tmp_path / "missing.json"),
             "csv": str(tmp_path / "p.csv"),
             "jet": write(tmp_path, "jet.json", {
                 "k": 1, "T0": ser.encode_matrix(np.array([[1e-7]])), "tol": 1e-6,
                 "partials": [ser.encode_matrix(np.eye(1))],
                 "W_frame": ser.encode_matrix(np.eye(1))})}
    try:
        code = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:  # argparse reports a usage error by exiting
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "") and message in captured.err
    assert not (tmp_path / "p.csv").exists()


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"rows": 2, "cols": 2, "data": [[1, 0]]})
    code, out, err = run(capsys, "arnold", "--to-lagrangian", bad)
    assert code == 3 and out == "" and err != ""

    u = write(tmp_path, "u.json", ser.encode_matrix(np.diag([-1.0 + 0j, 1j])))
    code, out, err = run(capsys, "reduce", "--unitary", u, "--w-indices", "1")
    assert code == 2 and "not clean" in err

    missing = str(tmp_path / "missing.json")
    code, _, _ = run(capsys, "schubert", missing)
    assert code == 3

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "schubert", str(binary))
    assert code == 3 and out == "" and "not valid JSON" in err


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    p = write(tmp_path, "hm.json",
              ser.encode_lagrangian(standard_lagrangians(2)[1]))
    monkeypatch.setenv("LAGFLOW_TOL", "bogus")
    code, _, err = run(capsys, "schubert", p)
    assert code == 3 and "LAGFLOW_TOL" in err
    # sf reads only crossing_eps, so LAGFLOW_TOL is not its setting
    path = write(tmp_path, "path.json", {"grid": [0.0, 1.0], "values": [
        ser.encode_matrix(np.array([[v]])) for v in (-0.5, 0.5)]})
    assert run(capsys, "sf", path, "--method", "both") == (
        0, '{"crossings":[{"sign":1,"t":0.5}],"flow":1}\n', "")
    for bad in ("inf", "1"):
        monkeypatch.setenv("LAGFLOW_TOL", bad)
        code, out, _ = run(capsys, "schubert", p)
        assert code == 3 and out == ""
    monkeypatch.setenv("LAGFLOW_TOL", "1e-9")
    code, out, _ = run(capsys, "schubert", p)
    assert code == 0 and json.loads(out)["generic"]
    code, out, _ = run(capsys, "schubert", p, "--tol", "10")
    assert code == 3 and out == ""


def test_deterministic_output(tmp_path, capsys):
    p = write(tmp_path, "hm.json",
              ser.encode_lagrangian(standard_lagrangians(2)[1]))
    _, out1, _ = run(capsys, "schubert", p)
    _, out2, _ = run(capsys, "schubert", p)
    assert out1 == out2


def test_emitted_json_revalidates(tmp_path, capsys):
    # round-trip: every emitted lagrangian re-parses and re-validates
    u_path = write(tmp_path, "u.json", ser.encode_matrix(np.eye(3) * 1j))
    code, out, _ = run(capsys, "arnold", "--to-lagrangian", u_path)
    assert code == 0
    lag = ser.decode_lagrangian(json.loads(out))
    l_path = write(tmp_path, "l.json", ser.encode_lagrangian(lag))
    code, out, _ = run(capsys, "arnold", "--to-unitary", l_path)
    assert code == 0
    back = ser.decode_matrix(json.loads(out))
    assert np.abs(back - np.eye(3) * 1j).max() < 1e-9


# a fresh interpreter imports lagflow, runs each verb through main and
# prints the scipy modules loaded after the import and after the verbs
_SCIPY_PROBE = """
import contextlib, io, json, sys
import lagflow, lagflow.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(lagflow.cli.main(argv))
print(json.dumps({"import": after_import, "codes": codes, "verbs": scipy_modules()}))
"""


def test_imports_and_every_verb_load_no_scipy(tmp_path):
    u2 = np.array([[0.3 + 0.4j, -np.sqrt(0.75)], [np.sqrt(0.75), 0.3 - 0.4j]])
    u = write(tmp_path, "u.json", ser.encode_matrix(u2))
    lag = write(tmp_path, "l.json", ser.encode_lagrangian(standard_lagrangians(2)[1]))
    chart = write(tmp_path, "chart.json", ser.encode_lagrangian(chart_point(
        standard_lagrangians(2)[0], np.array([[0.4, 0.1], [0.1, -0.2]], dtype=complex))))
    path = write(tmp_path, "path.json",
                 {"grid": [0.0, 1.0], "values": [ser.encode_matrix(np.diag([-0.5, 1.0])),
                                                 ser.encode_matrix(np.diag([0.5, 2.0]))]})
    w = write(tmp_path, "w.json", ser.encode_matrix(np.array([[0.0], [1.0]])))
    axis = np.linspace(0.0, 1.0, 5)
    family = write(tmp_path, "family.json",
                   {"k": 1, "axes": [list(axis)], "W_frame": ser.encode_matrix(np.eye(2)),
                    "values": [ser.encode_matrix(np.diag([x - 0.4, 1.0])) for x in axis]})
    jet = write(tmp_path, "jet.json",
                {"k": 2, "T0": ser.encode_matrix(np.zeros((2, 2))),
                 "partials": [ser.encode_matrix(np.array([[0, 0], [0, 1.0]])),
                              ser.encode_matrix(np.array([[0, 1.0], [1.0, 0]])),
                              ser.encode_matrix(np.array([[0, 1j], [-1j, 0]]))],
                 "W_frame": ser.encode_matrix(np.array([[0.0], [1.0]]))})
    grid = np.linspace(0.0, 1.0, 17)
    lpath = write(tmp_path, "lpath.json", {"grid": list(grid), "values": [
        ser.encode_lagrangian(switched_graph(np.array([[t - 0.5]]))) for t in grid]})
    loop = write(tmp_path, "loop.json", {"grid": list(grid), "values": [
        ser.encode_matrix(np.array([[np.exp(1j * (2 * np.pi * t + np.pi))]])) for t in grid]})
    csv_out = str(tmp_path / "plot.csv")
    verbs = [["arnold", "--to-lagrangian", u], ["arnold", "--to-unitary", lag],
             ["sf", path, "--method", "both"], ["schubert", lag],
             ["reduce", "--unitary", u, "--w-indices", "1"],
             ["reduce", "--lagrangian", chart, "--w-frame", w], ["intersect", jet],
             ["intersect-total", family],
             ["universal", "--spectrum", u, "--window", "-7", "7"],
             ["universal", "--reduce", u],
             ["maslov", lpath], ["maslov", lpath, "--plot", csv_out],
             ["universal", "--flow", loop], ["universal", "--flow", loop, "--m", "16",
                                              "--plot", csv_out]]
    src = str(Path(lagflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(verbs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result == {"import": [], "codes": [0] * len(verbs), "verbs": []}
