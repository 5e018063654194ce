"""Local intersection numbers with the Schubert variety of level k.

A (2k-1)-parameter family of lagrangians meeting {dim(L ∩ W) = 1}
transversally at an isolated point carries a sign there: the determinant
of Def-style rows over the oriented parameter directions, with columns

    <. v, v>,  Re<. g_1, v>, Im<. g_1, v>, ..., Im<. g_{k-1}, v>,

where v spans L ∩ W and (g_j) is an orthonormal basis of the orthogonal
complement of L ∩ W inside L ∩ W^omega.  The sign is invariant under
v -> e^{i theta} v and under any invertible complex recombination of the
g_j (the induced real column transformation has determinant |det C|^2),
and flips with the parity of a parameter permutation.

Three equivalent entry conventions are provided: chart tangents in
Sym(L), projection derivatives dP/dt through <-J dP v, v>, and operator
partials d T/dt on the switched-graph side with

    phi  in Ker T0 ∩ W,    phi_j in Ker T0 (-) phi,
    psi_j spanning the (Ker T0)-perp preimages of W-perp ∩ Ran T0.

Note the preimage space: the vectors psi solve T0 psi = e with e
orthogonal to W (for k = 2 this is the textbook pair phi, psi with
T0 psi = e, <phi, psi> = 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, PreconditionError
from .flow import HermitianPath, _bracket, _chunks, _lerp, spectral_flow_crossing
from .grassmann import J_matrix, LagrangianFrame, _inv_sqrt_eye_plus_sq, _switched_graph
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _eigh,
    inner,
    numeric_kernel,
    orthocomplement_basis,
    orthonormalize,
    require_hermitian,
    subspace_intersection_basis,
    symmetrize,
)
from .reduction import IsotropicSubspace, _annihilator

__all__ = [
    "LagrangianJet",
    "ProjectionJet",
    "FamilyJet",
    "MeshedFamily",
    "intersection_number_lagrangian",
    "intersection_number_projection",
    "intersection_number_operator",
    "operator_determinant",
    "operator_jet_to_lagrangian",
    "locate_crossings",
    "total_intersection_number",
]


def __getattr__(name: str):
    # lagflow uses no scipy; only bench/tracer.py reads ``minimize`` here,
    # so that lookup binds it (PEP 562) from the scipy of the ``test`` extra
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize

    globals()["minimize"] = minimize
    return minimize


def _check_parameter_count(k: int, count: int):
    if k < 1:
        raise InputError("level k must be >= 1")
    if count != 2 * k - 1:
        raise InputError(f"a level-{k} jet needs {2 * k - 1} parameter directions")


def _check_jet(jet: LagrangianJet | ProjectionJet, mats, size: int,
               shape_msg: str) -> tuple[np.ndarray, ...]:
    # shared by the chart- and projection-level jets: 2k-1 Hermitian size x size
    # matrices, and a W of codimension k-1 in the H- of the jet's lagrangian
    _check_parameter_count(jet.k, len(mats))
    mats = tuple(require_hermitian(m) for m in mats)
    if any(m.shape[0] != size for m in mats):
        raise InputError(shape_msg)
    if jet.w.ambient_n != jet.lagrangian.n:
        raise InputError("W lives in a different ambient space")
    if jet.w.codim_in_hminus != jet.k - 1:
        raise InputError("W must have codimension k-1 in H-")
    return mats


@dataclass(frozen=True)
class LagrangianJet:
    """Chart-level jet: base lagrangian, Sym(L) tangents, localizing W."""

    k: int
    lagrangian: LagrangianFrame
    tangents: tuple[np.ndarray, ...]
    w: IsotropicSubspace
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        tangents = _check_jet(self, self.tangents, self.lagrangian.n,
                              "tangents must be n x n in the frame basis")
        object.__setattr__(self, "tangents", tangents)


@dataclass(frozen=True)
class ProjectionJet:
    """Projection-level jet: tangents are derivatives of frame projections."""

    k: int
    lagrangian: LagrangianFrame
    pdots: tuple[np.ndarray, ...]
    w: IsotropicSubspace
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        pdots = _check_jet(self, self.pdots, 2 * self.lagrangian.n,
                           "projection derivatives must be 2n x 2n")
        object.__setattr__(self, "pdots", pdots)


@dataclass(frozen=True)
class FamilyJet:
    """Operator-level jet: base Hermitian T0, partials, localizing W in C^n."""

    k: int
    t0: np.ndarray
    partials: tuple[np.ndarray, ...]
    w: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        _check_parameter_count(self.k, len(self.partials))
        t0 = require_hermitian(self.t0)
        n = t0.shape[0]
        partials = tuple(require_hermitian(p) for p in self.partials)
        if any(p.shape[0] != n for p in partials):
            raise InputError("partials must match the base operator dimension")
        w = orthonormalize(self.w)
        if w.shape[0] != n:
            raise InputError("W frame does not match the operator dimension")
        if w.shape[1] != n - (self.k - 1):
            raise InputError("W must have codimension k-1 in C^n")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "partials", partials)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.t0.shape[0]


def _localizing_vectors(lag: LagrangianFrame, w: IsotropicSubspace, k: int,
                        tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(v, g-frame): unit vector of L ∩ W and basis of its complement in L ∩ W^omega."""
    v_frame = subspace_intersection_basis(lag.frame, w.frame, tol)
    if v_frame.shape[1] != 1:
        raise PreconditionError("not localized")
    v = v_frame[:, 0]
    cap = subspace_intersection_basis(lag.frame, _annihilator(w), tol)
    resid = cap - np.outer(v, v.conj() @ cap)
    g = orthonormalize(resid, drop_eps=1e-7)
    if g.shape[1] != k - 1:
        raise PreconditionError("reduced-space dimension mismatch")
    return v, g


def _transversal_sign(det: float, tol: Tolerance) -> int:
    """Sign of an intersection determinant; "not transversal" within crossing_eps."""
    if abs(det) <= tol.crossing_eps:
        raise PreconditionError("not transversal")
    return 1 if det > 0 else -1


def _determinant(apply_entry, directions: int, v, gs) -> float:
    rows = []
    for i in range(directions):
        row = [float(np.real(apply_entry(i, v, v)))]
        for j in range(gs.shape[1]):
            z = apply_entry(i, gs[:, j], v)
            row.extend([float(np.real(z)), float(np.imag(z))])
        rows.append(row)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def _lagrangian_side_sign(jet: LagrangianJet | ProjectionJet, apply_entry) -> int:
    # localize at L ∩ W, fill the rows with apply_entry, sign the determinant
    v, g = _localizing_vectors(jet.lagrangian, jet.w, jet.k, jet.tol)
    return _transversal_sign(_determinant(apply_entry, 2 * jet.k - 1, v, g), jet.tol)


def intersection_number_lagrangian(jet: LagrangianJet) -> int:
    """Sign of the chart-level intersection determinant."""
    z = jet.lagrangian.frame

    def entry(i, x, y):
        # x, y arrive as ambient columns of (v | g); use their coordinates
        return inner(jet.tangents[i] @ (z.conj().T @ x), z.conj().T @ y)

    return _lagrangian_side_sign(jet, entry)


def intersection_number_projection(jet: ProjectionJet) -> int:
    """Sign of the determinant with entries <-J dP_i x, v> (ambient form)."""
    jmat = J_matrix(jet.lagrangian.n)

    def entry(i, x, y):
        return inner(-jmat @ (jet.pdots[i] @ x), y)

    return _lagrangian_side_sign(jet, entry)


def _operator_vectors(jet: FamilyJet) -> tuple[np.ndarray, np.ndarray, int]:
    """(phi, pair-column vectors, p) for the operator determinant."""
    t0, w, tol, k = jet.t0, jet.w, jet.tol, jet.k
    kernel = numeric_kernel(t0, tol)
    p = kernel.shape[1]
    if p == 0:
        raise PreconditionError("not localized")
    if p > k:
        raise PreconditionError("kernel too large")
    phi_frame = subspace_intersection_basis(kernel, w, tol)
    if phi_frame.shape[1] != 1:
        raise PreconditionError("not localized")
    phi = phi_frame[:, 0]

    resid = kernel - np.outer(phi, phi.conj() @ kernel)
    phi_perp = orthonormalize(resid, drop_eps=1e-7)
    if phi_perp.shape[1] != p - 1:
        raise PreconditionError("not localized")

    vals, vecs = _eigh(t0)
    thresh = tol.rank_eps * max(1.0, float(np.abs(vals).max(initial=0.0)))
    ran = vecs[:, np.abs(vals) > thresh]
    w_perp = orthocomplement_basis(w)
    target = subspace_intersection_basis(w_perp, ran, tol)
    if target.shape[1] != k - p:
        raise PreconditionError("W_T dimension mismatch")
    if target.shape[1]:
        inv_vals = np.where(np.abs(vals) > thresh, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
        pinv = (vecs * inv_vals) @ vecs.conj().T
        psi = orthonormalize(pinv @ target, drop_eps=1e-10)
        if psi.shape[1] != k - p:
            raise PreconditionError("W_T dimension mismatch")
    else:
        psi = np.zeros((jet.n, 0), dtype=np.complex128)
    return phi, np.hstack([phi_perp, psi]), p


def operator_determinant(jet: FamilyJet) -> tuple[float, int]:
    """(determinant value, kernel dimension p) of the operator-level formula."""
    phi, pairs, p = _operator_vectors(jet)

    def entry(i, x, y):
        return inner(jet.partials[i] @ x, y)

    return _determinant(entry, 2 * jet.k - 1, phi, pairs), p


def intersection_number_operator(jet: FamilyJet) -> int:
    """Sign of the operator-level intersection determinant.

    Agrees with :func:`intersection_number_lagrangian` on the converted
    jet (switched graph, tangents B dT B with B = (1+T0^2)^{-1/2}); for
    k = 1 it is the local spectral-flow sign.
    """
    return _transversal_sign(operator_determinant(jet)[0], jet.tol)


def operator_jet_to_lagrangian(jet: FamilyJet) -> LagrangianJet:
    """Push an operator jet through the switched-graph chart.

    The operator partial dT corresponds to the Hermitian chart tangent
    B dT B, B = (1+T0^2)^{-1/2}, in the orthonormal frame [T0; I] B of the
    switched graph.
    """
    lag, b = _switched_graph(jet.t0)
    tangents = tuple(symmetrize(b @ dp @ b) for dp in jet.partials)
    w_iso = IsotropicSubspace.from_h_minus_vectors(jet.n, jet.w)
    return LagrangianJet(jet.k, lag, tangents, w_iso, jet.tol)


# ---------------------------------------------------------------------------
# crossing location over parameter meshes


_W_SIZE = "W frame does not match the family dimension"


@dataclass(frozen=True)
class MeshedFamily:
    """Hermitian family over a rectangular (2k-1)-dimensional parameter mesh.

    Either ``func`` maps a parameter point to a Hermitian matrix (returning
    None outside the valid domain; each value is symmetrized as it comes
    back), or ``values`` holds Hermitian node samples, checked here and
    interpolated multilinearly: the 2^d nodes of a point's cell are
    interpolated along one axis at a time by the path kernel
    :func:`flow._lerp`.  ``orientation`` is the sign of the
    parameter frame against the ambient orientation of the family's
    manifold; it multiplies every local intersection number.  W must have
    codimension k-1 in C^n, with n its number of rows, and every value must
    be n x n: sampled values are checked here, ``func`` values as they come
    back.  ``value_at`` takes a point of ``dims`` coordinates (else an
    input error).  For k = 1 the family is a Hermitian path on its axis,
    t = (x - lo)/(hi - lo), and its crossings are the spectral flow's.
    """

    k: int
    axes: tuple[np.ndarray, ...]
    w: np.ndarray
    func: Callable[[np.ndarray], np.ndarray | None] | None = field(default=None, compare=False)
    values: np.ndarray | None = None
    orientation: int = 1
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        if self.k < 1 or len(self.axes) != 2 * self.k - 1:
            raise InputError("mesh must have 2k-1 axes")
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if any(a.ndim != 1 or a.size < 3 or not np.all(np.diff(a) > 0) for a in axes):
            raise InputError("each axis needs at least 3 strictly increasing nodes")
        if self.orientation not in (1, -1):
            raise InputError("orientation must be +1 or -1")
        w = orthonormalize(self.w)
        if (self.func is None) == (self.values is None):
            raise InputError("exactly one of func/values must be given")
        if w.shape[1] != w.shape[0] - (self.k - 1):
            raise InputError("W must have codimension k-1 in C^n")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.complex128)
            shape = tuple(a.size for a in axes)
            if vals.shape[: len(shape)] != shape or vals.ndim != len(shape) + 2:
                raise InputError("sampled values do not match the mesh shape")
            if vals.shape[-1] != w.shape[0]:
                raise InputError(_W_SIZE)
            nodes = [require_hermitian(v) for v in vals.reshape((-1,) + vals.shape[-2:])]
            object.__setattr__(self, "values", np.stack(nodes).reshape(vals.shape))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "w", w)

    @property
    def dims(self) -> int:
        return len(self.axes)

    def spacing(self) -> float:
        return min(float(np.min(np.diff(a))) for a in self.axes)

    def value_at(self, x: np.ndarray) -> np.ndarray | None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dims,):
            raise InputError(f"a point of this family has {self.dims} coordinates")
        if self.func is not None:
            val = self.func(x)
            if val is None:
                return None
            val = symmetrize(val)
            if val.shape[0] != self.w.shape[0]:
                raise InputError(_W_SIZE)
            return val
        if any(xi < a[0] - 1e-12 or xi > a[-1] + 1e-12 for a, xi in zip(self.axes, x)):
            return None
        cell = [_bracket(a, min(max(xi, a[0]), a[-1])) for a, xi in zip(self.axes, x)]
        out = self.values[tuple(slice(i, i + 2) for i, _ in cell)]
        for _, s in cell:
            out = _lerp(out, 0, s)
        return out


def _gaps(values: list[np.ndarray | None], w: np.ndarray) -> np.ndarray:
    """The detector of each value T, inf where T has none: sigma_min of
    [Z | -(0; W)] for the switched graph Z = [T; 1]B of T, B = (1 + T^2)^(-1/2).
    Its Gram matrix is [[1, -BW], [-(BW)*, 1]], so the square is
    1 - sigma_max(BW); |BWc|^2 + |TBWc|^2 = |c|^2 turns that into
    s / sqrt(1 + sqrt(1 - s^2)), s = sigma_min(TBW), which keeps its digits
    near 0 where sqrt(1 - sigma_max(BW)) does not.  The values are read in
    stacks of :func:`flow._chunks` runs, one stacked eigh and svd each;
    LAPACK treats each matrix of a stack alone, so every entry is bit for
    bit the detector of its value alone."""
    out = np.full(len(values), np.inf)
    have = [i for i, t in enumerate(values) if t is not None]
    for run in _chunks(len(have), w.shape[0]):
        t = np.stack([values[i] for i in have[run]])
        s = np.linalg.svd(t @ _inv_sqrt_eye_plus_sq(t) @ w, compute_uv=False)[:, -1]
        # s rounds above 1 for large T
        out[have[run]] = s / np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - s * s, 0.0)))
    return out


def _gap(t: np.ndarray | None, w: np.ndarray) -> float:
    return float(_gaps([t], w)[0])


def locate_crossings(family: MeshedFamily) -> list[np.ndarray]:
    """Mesh scan plus Newton refinement of kernel-meets-W points.

    For k = 1 the points are the crossings of the axis path
    (:func:`total_intersection_number`).  For k >= 2 a Newton run on
    T(x) W c = 0 starts from each mesh node that is a local minimum of the
    detector.  Its end is kept where the detector is below _ACCEPT_GAP (the
    jet checks dim(Ker T ∩ W)); ends within spacing/8 merge, and the points
    return in mesh index order.  Runs stay in the box widened by spacing/2,
    so a crossing further out is none of the family's; one within spacing/2
    of the box's edge, inside or out, raises "boundary crossing", and two
    closer than the spacing raise "unresolved cluster".
    """
    if family.k == 1:
        return [x for x, _ in _axis_crossings(family)[1]]
    shape = tuple(a.size for a in family.axes)
    nodes = np.stack(np.meshgrid(*family.axes, indexing="ij"), axis=-1).reshape(-1, family.dims)
    values = [family.value_at(x) for x in nodes]
    grid = _gaps(values, family.w).reshape(shape)
    # local minima; a tie with a neighbour earlier in scan order leaves the
    # run to that neighbour
    starts = np.isfinite(grid)
    for d in range(family.dims):
        g, start = np.moveaxis(grid, d, 0), np.moveaxis(starts, d, 0)
        start[:-1] &= g[1:] >= g[:-1]
        start[1:] &= g[:-1] > g[1:]

    spacing = family.spacing()
    merged: list[np.ndarray] = []
    for i in np.flatnonzero(starts):
        end = _newton(family, nodes[i], values[i])
        if end is not None and _gap(end[1], family.w) < _ACCEPT_GAP and all(
                np.linalg.norm(end[0] - m) > spacing / 8.0 for m in merged):
            merged.append(end[0])
    for a, b in itertools.combinations(merged, 2):
        if np.linalg.norm(a - b) < spacing:
            raise PreconditionError("unresolved cluster")
    lo, hi = _box(family)
    if any(np.any((x - lo < spacing / 2.0) | (hi - x < spacing / 2.0)) for x in merged):
        raise PreconditionError("boundary crossing")
    return merged


def _axis_crossings(family: MeshedFamily) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """A k = 1 family's total and crossings: :func:`flow.spectral_flow_crossing`
    on its axis path, t = (x - lo)/(hi - lo), with epsilon = orientation x sign.
    A ``func`` family raises "boundary crossing" where it has no value."""
    (axis,) = family.axes
    lo, width = axis[0], axis[-1] - axis[0]
    grid = (axis - lo) / width
    if family.func is None:
        path = HermitianPath(grid, tuple(family.values))
    else:
        def at(t):
            val = family.value_at(np.array([lo + t * width]))
            if val is None:
                raise PreconditionError("boundary crossing")
            return val

        path = HermitianPath(grid, tuple(at(t) for t in grid), func=at)
    flow, crossings = spectral_flow_crossing(path, family.tol)
    o = family.orientation
    return o * flow, [(np.array([lo + c.t * width]), o * c.sign) for c in crossings]


def _box(family: MeshedFamily) -> tuple[np.ndarray, np.ndarray]:
    return np.array([a[0] for a in family.axes]), np.array([a[-1] for a in family.axes])


# a Newton end is a crossing below this detector value, fixed as no total may
# move with rank_eps; it is the default rank_eps, so default answers stay
_ACCEPT_GAP = 1e-8
# a run towards the crossing of U^2 B on its chart (1, -1) (the degree
# oracle's family in tests/) creeps along the unit-ball edge for 15 steps
_NEWTON_STEPS = 16
_NEWTON_HALVINGS = 8
_DIFF_STEP = 2**-10  # the difference step of Newton and of a jet, in mesh spacings


def _differences(family: MeshedFamily, x: np.ndarray, t: np.ndarray, h: float
                 ) -> list[tuple[np.ndarray, float]] | None:
    """(T(x + h e_i) - T(x - h e_i), 2h) for each axis i, given t = T(x).

    With a value on one side only, the difference with t, of width h; with
    none on either side of some axis, None.  On a sampled family it gives the
    slope of the multilinear interpolant in the cell that holds x.
    """
    out = []
    for e in h * np.eye(len(x)):
        tp, tm = family.value_at(x + e), family.value_at(x - e)
        if tp is None and tm is None:
            return None
        width = 2.0 * h if tp is not None and tm is not None else h
        out.append(((t if tp is None else tp) - (t if tm is None else tm), width))
    return out


def _newton(family: MeshedFamily, x: np.ndarray, t: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray] | None:
    """Gauss-Newton on T(x) W c = 0, |c| = 1, from a node x where T has the value t.

    c starts as the right singular vector of T(x) W for its least singular
    value.  A step solves in least squares the real and imaginary parts of
    [J_x | TW | iTW] (dx, Re dc, Im dc) = -TWc and c* dc = 0, (2n + 2) x
    (2n + 1) and of full rank at a transversal crossing; J_x is
    :func:`_differences` of T, applied to Wc.  A step is halved while its end
    leaves the box widened by spacing/2 or T has no value there; a run that
    cannot move ends in None, any other in its end x and T(x).
    """
    spacing, (lo, hi) = family.spacing(), _box(family)
    lo, hi = lo - spacing / 2.0, hi + spacing / 2.0
    h = spacing * _DIFF_STEP
    c = np.linalg.svd(t @ family.w)[2][-1].conj()
    n, d, m = t.shape[0], x.size, c.size
    # the complex rows above, and their real and imaginary parts stacked
    rows = np.zeros((n + 1, d + 2 * m), dtype=np.complex128)
    system, rhs = np.empty((2, n + 1, d + 2 * m)), np.zeros((2, n + 1))
    for _ in range(_NEWTON_STEPS):
        tw, wc = t @ family.w, family.w @ c
        diffs = _differences(family, x, t, h)
        if diffs is None:
            return None
        for i, (diff, width) in enumerate(diffs):
            rows[:n, i] = diff @ wc / width
        rows[:n, d:d + m], rows[:n, d + m:] = tw, 1j * tw
        rows[n, d:d + m], rows[n, d + m:] = c.conj(), 1j * c.conj()
        system[0], system[1] = rows.real, rows.imag
        residual = -(tw @ c)
        rhs[0, :n], rhs[1, :n] = residual.real, residual.imag
        step = np.linalg.lstsq(system.reshape(2 * n + 2, -1), rhs.reshape(-1), rcond=None)[0]
        dx, dc = step[:d], step[d:d + m] + 1j * step[d + m:]
        if np.linalg.norm(dx) <= 1e-15 * max(1.0, float(np.linalg.norm(x))):
            break
        for _ in range(_NEWTON_HALVINGS + 1):
            end = x + dx
            t_end = family.value_at(end) if (lo <= end).all() and (end <= hi).all() else None
            if t_end is not None:
                break
            dx, dc = dx / 2.0, dc / 2.0
        else:
            return None
        x, t, c = end, t_end, (c + dc) / np.linalg.norm(c + dc)
    return x, t


def crossing_jet(family: MeshedFamily, x: np.ndarray) -> FamilyJet:
    """The operator jet at a located crossing point: T(x), and partials by
    Newton's :func:`_differences`."""
    t0 = family.value_at(x)
    diffs = None if t0 is None else _differences(family, x, t0, family.spacing() * _DIFF_STEP)
    if diffs is None:
        raise PreconditionError("boundary crossing")
    # rank tolerance: 1e3 x the detector, at least rank_eps, and below 1
    rank_eps = max(1e3 * max(_gap(t0, family.w), 1e-16), family.tol.rank_eps)
    kern_tol = Tolerance(min(rank_eps, np.nextafter(1.0, 0.0)), family.tol.crossing_eps)
    return FamilyJet(family.k, t0, tuple(d / width for d, width in diffs), family.w, kern_tol)


def total_intersection_number(family: MeshedFamily
                              ) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """Sum of local intersection numbers over all located crossings.

    For k = 1 (so W = C^n) it is orientation x the spectral flow of the axis
    path, which its route checks against n-(T(lo)) - n-(T(hi)).  k >= 2 has
    no such oracle.
    """
    if family.k == 1:
        return _axis_crossings(family)
    points = locate_crossings(family)
    total = 0
    detail: list[tuple[np.ndarray, int]] = []
    for x in points:
        eps = family.orientation * intersection_number_operator(crossing_jet(family, x))
        detail.append((x, eps))
        total += eps
    return total, detail
