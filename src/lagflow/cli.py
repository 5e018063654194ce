"""Command-line front end: JSON in, JSON out, machine-readable exit codes.

Exit codes: 0 success, 2 mathematical precondition failure (messages name
the violated precondition verbatim, e.g. "not clean"), 3 malformed input.
Result JSON goes to stdout with deterministic formatting; diagnostics go
to stderr only.  The environment variable LAGFLOW_TOL, and above it
--tol, overrides the default rank_eps; it must lie in (0, 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import serialize
from .errors import InputError, PreconditionError
from .flow import (_STACK, _node_phases, _stacked_eigs, maslov_index, spectral_flow_crossing,
                   spectral_flow_tracking)
from .grassmann import cayley_graph, lagrangian_to_unitary
from .intersect import _transversal_sign, operator_determinant, total_intersection_number
from .linalg import Tolerance, require_unitary
from .reduction import IsotropicSubspace, reduce_lagrangian, reduce_unitary
from .schubert import Flag, _drop_nodes
from .universal import (
    discretize_operator,
    exact_spectrum,
    universal_loop_flow,
    universal_reduction,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MALFORMED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; malformed input is exit 3 here
    def error(self, message):
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for non-UTF-8 bytes
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _tolerance(args) -> Tolerance:
    rank_eps = None
    env = os.environ.get("LAGFLOW_TOL")
    if env:
        try:
            rank_eps = float(env)
        except ValueError as exc:
            raise InputError("LAGFLOW_TOL must be a number") from exc
    if getattr(args, "tol", None) is not None:
        rank_eps = args.tol
    if rank_eps is None:
        return Tolerance()
    return Tolerance(rank_eps=rank_eps)


def _emit(obj):
    sys.stdout.write(serialize.dumps_canonical(obj) + "\n")


def _emit_flow(flow: int, crossings):
    _emit({"flow": flow, "crossings": [{"t": c.t, "sign": c.sign} for c in crossings]})


def _write_branch_csv(path: str, grid: np.ndarray, per_step: int, label: str, width: int,
                      branches):
    """CSV of each t and its ``width`` values, per_step points per grid step;
    ``branches(ts)`` gives the values of each t of ts, in order."""
    ts = np.linspace(0.0, 1.0, per_step * (grid.size - 1) + 1)
    rows = [[t] + list(vals) for t, vals in zip(ts, branches(ts))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{label}{i}" for i in range(width)])
        for row in rows:
            writer.writerow([format(x, ".17g") for x in row])


def _cmd_arnold(args) -> int:
    if args.to_lagrangian:
        u = serialize.decode_matrix(_load_json(args.to_lagrangian))
        _emit(serialize.encode_lagrangian(cayley_graph(u)))
    else:
        lag = serialize.decode_lagrangian(_load_json(args.to_unitary))
        _emit(serialize.encode_matrix(lagrangian_to_unitary(lag), kind="unitary"))
    return EXIT_OK


def _cmd_sf(args) -> int:
    tol = _tolerance(args)
    path = serialize.decode_hermitian_path(_load_json(args.path))
    results = {}
    if args.method in ("crossing", "both"):
        results["crossing"] = spectral_flow_crossing(path, tol)
    if args.method in ("tracking", "both"):
        results["tracking"] = spectral_flow_tracking(path, tol)
    if args.method == "both":
        if results["crossing"][0] != results["tracking"][0]:
            raise PreconditionError(
                "method disagreement: crossing "
                f"{results['crossing'][0]} vs tracking {results['tracking'][0]}")
    if args.plot:
        _write_branch_csv(args.plot, path.grid, 8, "lambda", path.dim,
                          lambda ts: _stacked_eigs(path, ts))
    _emit_flow(*results.get("crossing", results.get("tracking")))
    return EXIT_OK


def _cmd_maslov(args) -> int:
    tol = _tolerance(args)
    path = serialize.decode_lagrangian_path(_load_json(args.path))
    result = maslov_index(path, tol)
    if args.plot:
        _write_branch_csv(args.plot, path.grid, 8, "theta", path.n, lambda ts: (
            np.sort(theta) for k in range(0, len(ts), _STACK)
            for theta in _node_phases([path._geodesic.at(t) for t in ts[k:k + _STACK]])))
    _emit_flow(*result)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    tol = _tolerance(args)
    if args.unitary is not None:
        u = require_unitary(serialize.decode_matrix(_load_json(args.unitary)))
        if not args.w_indices:
            raise InputError("--unitary requires --w-indices")
        n = u.shape[0]
        w = IsotropicSubspace.from_flag_indices(n, args.w_indices)
        lam = complex(args.lam[0], args.lam[1])
        red = reduce_unitary(u, w.h_part, lam=lam, tol=tol)
        _emit(serialize.encode_matrix(red, kind="unitary"))
    else:
        lag = serialize.decode_lagrangian(_load_json(args.lagrangian))
        if not args.w_frame:
            raise InputError("--lagrangian requires --w-frame")
        wm = serialize.decode_matrix(_load_json(args.w_frame))
        if wm.shape[0] == 2 * lag.n:
            w = IsotropicSubspace(lag.n, wm)
        elif wm.shape[0] == lag.n:
            w = IsotropicSubspace.from_h_minus_vectors(lag.n, wm)
        else:
            raise InputError("W frame shape matches neither 2n x p nor n x p")
        red = reduce_lagrangian(lag, w, tol)
        _emit(serialize.encode_lagrangian(red))
    return EXIT_OK


def _cmd_schubert(args) -> int:
    tol = _tolerance(args)
    lag = serialize.decode_lagrangian(_load_json(args.lagrangian))
    profile, nodes, weight = _drop_nodes(lag, Flag(lag.n), tol)
    # "generic" is kept in the output shape; a non-generic profile exits 2
    _emit({"profile": profile, "index": nodes, "weight": weight, "generic": True})
    return EXIT_OK


def _cmd_intersect(args) -> int:
    tol = _tolerance(args)
    jet = serialize.decode_family_jet(_load_json(args.jet), tol)
    det, p = operator_determinant(jet)
    _emit({"epsilon": _transversal_sign(det, jet.tol), "p": p, "det": det})
    return EXIT_OK


def _cmd_intersect_total(args) -> int:
    tol = _tolerance(args)
    family = serialize.decode_meshed_family(_load_json(args.family), tol)
    total, detail = total_intersection_number(family)
    _emit({"total": total,
           "crossings": [{"point": [float(v) for v in x], "epsilon": eps} for x, eps in detail]})
    return EXIT_OK


def _cmd_universal(args) -> int:
    if args.spectrum is not None:
        if args.window is None:
            raise InputError("--spectrum requires --window A B")
        u = serialize.decode_matrix(_load_json(args.spectrum))
        vals = exact_spectrum(u, (args.window[0], args.window[1]))
        _emit({"eigenvalues": [float(v) for v in vals]})
    elif args.flow is not None:
        loop = serialize.decode_unitary_loop(_load_json(args.flow))
        flow = universal_loop_flow(loop)
        if args.plot:
            # low part of the discretized eigenvalue ladder along the loop
            branches = min(8, args.m * loop.dim)

            def low_ladder(t):
                ev = np.linalg.eigvalsh(discretize_operator(loop.value_at(t), args.m))
                return np.sort(ev[np.argsort(np.abs(ev))[:branches]])

            _write_branch_csv(args.plot, loop.grid, 2, "lambda", branches,
                              lambda ts: map(low_ladder, ts))
        _emit({"flow": flow})
    else:
        u = serialize.decode_matrix(_load_json(args.reduce))
        _emit(serialize.encode_matrix(universal_reduction(u), kind="unitary"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lagflow",
                     description="Lagrangian-Grassmannian calculations: Arnold "
                                 "correspondence, reduction, Schubert cells, "
                                 "spectral flow, intersection numbers")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("arnold", help="convert between unitaries and lagrangians")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-lagrangian", metavar="U_JSON")
    group.add_argument("--to-unitary", metavar="L_JSON")
    p.set_defaults(run=_cmd_arnold)

    p = sub.add_parser("sf", help="spectral flow of a Hermitian path")
    p.add_argument("path", metavar="PATH_JSON")
    p.add_argument("--method", choices=["crossing", "tracking", "both"],
                   default="crossing")
    p.add_argument("--tol", type=float)
    p.add_argument("--plot", metavar="CSV")
    p.set_defaults(run=_cmd_sf)

    p = sub.add_parser("maslov", help="Maslov index of a lagrangian path")
    p.add_argument("path", metavar="LPATH_JSON")
    p.add_argument("--tol", type=float)
    p.add_argument("--plot", metavar="CSV")
    p.set_defaults(run=_cmd_maslov)

    p = sub.add_parser("reduce", help="symplectic reduction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--unitary", metavar="U_JSON")
    p.add_argument("--w-indices", type=int, nargs="+", metavar="I")
    p.add_argument("--lam", type=float, nargs=2, default=[1.0, 0.0],
                   metavar=("RE", "IM"))
    group.add_argument("--lagrangian", metavar="L_JSON")
    p.add_argument("--w-frame", metavar="W_JSON")
    p.add_argument("--tol", type=float)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("schubert", help="Schubert profile and index of a lagrangian")
    p.add_argument("lagrangian", metavar="L_JSON")
    p.add_argument("--tol", type=float)
    p.set_defaults(run=_cmd_schubert)

    p = sub.add_parser("intersect", help="local intersection number of a jet")
    p.add_argument("jet", metavar="JET_JSON")
    p.add_argument("--tol", type=float)
    p.set_defaults(run=_cmd_intersect)

    p = sub.add_parser("intersect-total",
                       help="total intersection number of a meshed family")
    p.add_argument("family", metavar="FAMILY_JSON")
    p.add_argument("--tol", type=float)
    p.set_defaults(run=_cmd_intersect_total)

    p = sub.add_parser("universal", help="universal boundary family operations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", metavar="U_JSON")
    p.add_argument("--window", type=float, nargs=2, metavar=("A", "B"))
    group.add_argument("--flow", metavar="LOOP_JSON")
    p.add_argument("--m", type=int, default=256)
    group.add_argument("--reduce", metavar="U_JSON")
    p.add_argument("--plot", metavar="CSV")
    p.set_defaults(run=_cmd_universal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except PreconditionError as exc:
        print(f"lagflow: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InputError as exc:
        print(f"lagflow: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
