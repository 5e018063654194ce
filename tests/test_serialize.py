import numpy as np
import pytest

from lagflow.errors import InputError, PreconditionError
from lagflow.grassmann import cayley_graph
from lagflow.intersect import intersection_number_operator
from lagflow.linalg import Tolerance
from lagflow.serialize import (
    decode_family_jet,
    decode_hermitian_path,
    decode_lagrangian,
    decode_lagrangian_path,
    decode_matrix,
    decode_meshed_family,
    decode_unitary_loop,
    dumps_canonical,
    encode_lagrangian,
    encode_matrix,
)

from conftest import random_unitary


def test_matrix_roundtrip(rng):
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    back = decode_matrix(encode_matrix(m))
    assert np.abs(back - m).max() < 1e-15


def test_matrix_roundtrip_through_text(rng):
    import json

    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    text = dumps_canonical(encode_matrix(m))
    back = decode_matrix(json.loads(text))
    assert np.abs(back - m).max() == 0.0  # 17 significant digits are lossless


def test_lagrangian_roundtrip(rng):
    lag = cayley_graph(random_unitary(3, rng))
    obj = encode_lagrangian(lag)
    assert obj["kind"] == "lagrangian" and obj["n"] == 3
    back = decode_lagrangian(obj)
    assert np.abs(back.frame - lag.frame).max() < 1e-15


def test_decode_matrix_validation():
    with pytest.raises(InputError):
        decode_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(InputError):
        decode_matrix({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
    with pytest.raises(InputError):
        decode_matrix([1, 2, 3])


def test_canonical_dump_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5e-17], "c": {"x": True, "y": None}}
    assert dumps_canonical(obj) == dumps_canonical(obj)
    assert dumps_canonical(obj).startswith('{"a":')


def test_decode_path():
    path = decode_hermitian_path({
        "grid": [0, 0.5, 1],
        "values": [encode_matrix(np.eye(1) * v) for v in (-1.0, 0.1, 1.0)],
    })
    assert path.dim == 1
    assert abs(path.value_at(0.25)[0, 0] - (-0.45)) < 1e-12


def test_decode_jet_and_family():
    jet_obj = {
        "k": 1,
        "T0": encode_matrix(np.zeros((1, 1))),
        "partials": [encode_matrix(np.eye(1))],
        "W_frame": encode_matrix(np.eye(1)),
    }
    jet = decode_family_jet(jet_obj, Tolerance())
    assert jet.k == 1

    axes = [list(np.linspace(-1, 1, 3))]
    values = [encode_matrix(np.array([[x]])) for x in np.linspace(-1, 1, 3)]
    fam = decode_meshed_family(
        {"k": 1, "axes": axes, "values": values,
         "W_frame": encode_matrix(np.eye(1))}, Tolerance())
    assert fam.dims == 1
    assert abs(fam.value_at(np.array([0.5]))[0, 0] - 0.5) < 1e-12


def test_a_jet_tol_is_rejected_and_the_given_tolerance_decides():
    # T0 = 1e-7 is singular at rank_eps 1e-6 and regular at the default 1e-8;
    # a "tol" key would be a third source of rank_eps beside --tol and LAGFLOW_TOL
    obj = {"k": 1, "T0": encode_matrix(np.array([[1e-7]])),
           "partials": [encode_matrix(np.eye(1))], "W_frame": encode_matrix(np.eye(1))}
    for tol in (1e-6, 1e-8, None):
        with pytest.raises(InputError, match="a jet's tol is not accepted"):
            decode_family_jet({**obj, "tol": tol}, Tolerance(crossing_eps=1e-5))
    jet = decode_family_jet(obj, Tolerance(rank_eps=1e-6, crossing_eps=1e-5))
    assert jet.tol == Tolerance(rank_eps=1e-6, crossing_eps=1e-5)
    assert intersection_number_operator(jet) == 1
    with pytest.raises(PreconditionError, match="not localized"):
        intersection_number_operator(decode_family_jet(obj, Tolerance(crossing_eps=1e-5)))


def _family(**change):
    axes = [list(np.linspace(-1, 1, 3))]
    obj = {"k": 1, "axes": axes, "W_frame": encode_matrix(np.eye(1)),
           "values": [encode_matrix(np.array([[x]])) for x in axes[0]]}
    return decode_meshed_family({**obj, **change}, Tolerance())


def _jet(**change):
    obj = {"k": 1, "T0": encode_matrix(np.zeros((1, 1))),
           "partials": [encode_matrix(np.eye(1))], "W_frame": encode_matrix(np.eye(1))}
    return decode_family_jet({**obj, **change}, Tolerance())


ONE = encode_matrix(np.eye(1))
LAG = encode_lagrangian(cayley_graph(np.eye(1)))


@pytest.mark.parametrize("decode", [
    lambda: _family(axes=[[]], values=[]),
    lambda: _family(orientation="x"),
    lambda: _jet(tol="x"),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": 5}),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": [["x", 0]]}),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": [[None, 0]]}),
    lambda: decode_lagrangian({**encode_lagrangian(cayley_graph(np.eye(1))), "n": "x"}),
    lambda: decode_hermitian_path({"grid": [0, 1], "values": 5}),
    lambda: decode_hermitian_path({"grid": [0, 1], "values": [ONE, ONE], "derivatives": 5}),
    lambda: decode_lagrangian_path({"grid": [0, 1], "values": 5}),
    lambda: decode_unitary_loop({"grid": [0, 1], "values": 5}),
    lambda: decode_matrix({"rows": 1.9, "cols": 1, "data": [[2, 0]]}),
    lambda: decode_matrix({"rows": 1, "cols": float("inf"), "data": [[2, 0]]}),
    lambda: _family(k=1.7),
    lambda: _family(orientation=-1.5),
    lambda: _jet(k=1.7),
    lambda: decode_matrix({"rows": True, "cols": "1", "data": [["2", False]]}),
    lambda: decode_matrix({"rows": True, "cols": 1, "data": [[2, 0]]}),
    lambda: decode_matrix({"rows": 1, "cols": "1", "data": [[2, 0]]}),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": [["2", 0]]}),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": [[2, False]]}),
    lambda: decode_matrix({"rows": 1, "cols": 1, "data": [[2, 10 ** 400]]}),
    lambda: decode_lagrangian({**LAG, "n": True}),
    lambda: _jet(k=True),
    lambda: _family(k=True),
    lambda: _family(orientation=True),
    lambda: decode_hermitian_path({"grid": ["0", True], "values": [ONE, ONE]}),
    lambda: decode_lagrangian_path({"grid": [0, True], "values": [LAG, LAG]}),
    lambda: decode_unitary_loop({"grid": ["0", 1], "values": [ONE, ONE]}),
    lambda: _family(axes=[[-1, "0", 1]]),
    lambda: _family(axes=[[-1, False, 1]]),
], ids=["family-empty-axis", "family-orientation", "jet-tol", "matrix-data", "matrix-entry-str",
        "matrix-entry-null", "lagrangian-n", "path-values", "path-derivatives",
        "lagrangian-path-values", "loop-values", "matrix-rows-fraction", "matrix-cols-inf",
        "family-k-fraction", "family-orientation-fraction", "jet-k-fraction",
        "matrix-all-not-numbers", "matrix-rows-bool", "matrix-cols-str",
        "matrix-entry-numeric-str", "matrix-entry-bool", "matrix-entry-past-float",
        "lagrangian-n-bool", "jet-k-bool", "family-k-bool", "family-orientation-bool",
        "path-grid-not-numbers", "lagrangian-path-grid-bool", "loop-grid-str",
        "family-axis-str", "family-axis-bool"])
def test_malformed_input_raises_input_error(decode):
    # the first eleven escaped as TypeError, ValueError or IndexError (CLI
    # exit 1); the fractional counts were truncated (rows 1.9 read as 1); the
    # booleans decoded as 0 and 1 and the numeric strings as numbers, and an
    # integer past the float range escaped as OverflowError
    with pytest.raises(InputError):
        decode()


def test_integral_float_counts_decode():
    assert decode_matrix({"rows": 1.0, "cols": 2.0, "data": [[1, 0], [2, 0]]}).shape == (1, 2)
    assert _family(k=1.0, orientation=-1.0).orientation == -1
    assert _jet(k=1.0).k == 1
