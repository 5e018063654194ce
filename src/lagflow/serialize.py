"""JSON encodings shared by the CLI and any file-based user of the library.

Matrices travel as  {"rows": r, "cols": c, "data": [[re, im], ...]}  with
the data row-major; lagrangian frames additionally carry
{"kind": "lagrangian", "n": n}.  All floats are emitted with 17
significant digits so a decode/encode cycle is lossless for doubles and
stdout is byte-reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .flow import HermitianPath, LagrangianPath
from .grassmann import LagrangianFrame
from .intersect import FamilyJet, MeshedFamily
from .linalg import Tolerance, as_complex_matrix
from .universal import UnitaryLoop

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "encode_lagrangian",
    "decode_lagrangian",
    "decode_hermitian_path",
    "decode_lagrangian_path",
    "decode_unitary_loop",
    "decode_family_jet",
    "decode_meshed_family",
    "dumps_canonical",
]


def _fmt(x: float) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not np.isfinite(v):
        raise InputError("cannot serialize non-finite number")
    out = format(v, ".17g")
    return out


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):  # bool is an int subclass; keep JSON booleans
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{dumps_canonical(str(k))}:{dumps_canonical(v)}"
                              for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def encode_matrix(m, kind: str | None = None) -> dict:
    m = as_complex_matrix(m)
    out = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }
    if kind is not None:
        out["kind"] = kind
    return out


def _number(value, message: str) -> float:
    """A JSON number as a float; a boolean, a string or any other value is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(message)
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise InputError(message) from exc


def _count(value, message: str) -> int:
    """A JSON count as an int; a non-integral number is malformed, not truncated."""
    value = _number(value, message)
    if not value.is_integer():
        raise InputError(message)
    return int(value)


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("matrix object must be a JSON object")
    message = "matrix object needs whole-number rows, cols and a data list"
    try:
        rows, cols = _count(obj["rows"], message), _count(obj["cols"], message)
        data = list(obj["data"])
    except (KeyError, TypeError) as exc:
        raise InputError(message) from exc
    if rows < 0 or cols < 0 or len(data) != rows * cols:
        raise InputError("matrix data length does not match rows*cols")
    flat = np.empty(rows * cols, dtype=np.complex128)
    message = "matrix entries must be [re, im] pairs of numbers"
    for i, entry in enumerate(data):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InputError(message)
        flat[i] = complex(_number(entry[0], message), _number(entry[1], message))
    return flat.reshape(rows, cols)


def encode_lagrangian(lag: LagrangianFrame) -> dict:
    out = encode_matrix(lag.frame, kind="lagrangian")
    out["n"] = int(lag.n)
    return out


def decode_lagrangian(obj) -> LagrangianFrame:
    m = decode_matrix(obj)  # obj is a dict from here on
    if obj.get("kind") not in (None, "lagrangian"):
        raise InputError("expected a lagrangian object")
    frame = LagrangianFrame(m)
    if _count(obj.get("n", frame.n), "lagrangian n must be a whole number") != frame.n:
        raise InputError("declared n does not match the frame shape")
    return frame


def _decode_grid(obj) -> np.ndarray:
    message = "path object needs a numeric grid"
    try:
        return np.asarray([_number(t, message) for t in obj["grid"]])
    except (KeyError, TypeError) as exc:
        raise InputError(message) from exc


def _decode_list(obj, key: str, decode, message: str) -> tuple:
    try:
        raw = list(obj[key])
    except (KeyError, TypeError) as exc:
        raise InputError(message) from exc
    return tuple(decode(v) for v in raw)


def decode_hermitian_path(obj) -> HermitianPath:
    grid = _decode_grid(obj)
    values = _decode_list(obj, "values", decode_matrix, "path object needs values")
    if "derivatives" in obj:
        raise InputError("path derivatives are not accepted: a sampled path is signed "
                         "by its interpolant's slope")
    return HermitianPath(grid, values)


def decode_lagrangian_path(obj) -> LagrangianPath:
    grid = _decode_grid(obj)
    return LagrangianPath(grid, _decode_list(obj, "values", decode_lagrangian,
                                             "path object needs values"))


def decode_unitary_loop(obj) -> UnitaryLoop:
    grid = _decode_grid(obj)
    return UnitaryLoop(grid, _decode_list(obj, "values", decode_matrix,
                                          "loop object needs values"))


def decode_family_jet(obj, tol: Tolerance) -> FamilyJet:
    try:
        k = _count(obj["k"], "jet k must be a whole number")
        t0 = decode_matrix(obj["T0"])
        partials = tuple(decode_matrix(p) for p in obj["partials"])
        w = decode_matrix(obj["W_frame"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("jet object needs k, T0, partials and W_frame") from exc
    if "tol" in obj:
        raise InputError("a jet's tol is not accepted: --tol or LAGFLOW_TOL sets rank_eps")
    return FamilyJet(k, t0, partials, w, tol)


def decode_meshed_family(obj, tol: Tolerance) -> MeshedFamily:
    try:
        k = _count(obj["k"], "family k must be a whole number")
        axes = tuple(np.asarray([_number(x, "family axes must hold numbers") for x in ax])
                     for ax in obj["axes"])
        w = decode_matrix(obj["W_frame"])
        raw_values = list(obj["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("family object needs k, axes, values and W_frame") from exc
    orientation = _count(obj.get("orientation", 1), "orientation must be +1 or -1")
    shape = tuple(ax.size for ax in axes)
    count = int(np.prod(shape))
    if count == 0 or len(raw_values) != count:
        raise InputError("family values must cover the mesh row-major")
    mats = [decode_matrix(v) for v in raw_values]
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise InputError("family values must be square of one dimension")
    values = np.stack(mats).reshape(shape + (dim, dim))
    return MeshedFamily(k, axes, w, values=values, orientation=orientation, tol=tol)
