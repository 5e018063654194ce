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
from .flow import HermitianPath, _checked_stack, _chunks, _multilinear, spectral_flow_crossing
from .grassmann import J_matrix, LagrangianFrame, _inv_sqrt_eye_plus_sq, _switched_graph
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _eigh,
    _hermitian_stack,
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

    Either ``func``, assumed pure, maps a parameter point to a Hermitian
    matrix (returning None outside the valid domain), or ``values`` holds
    Hermitian node samples, checked here all at once and interpolated
    multilinearly: a stack of points is read at once, each point's 2^d cell
    corners reduced one axis at a time by the path kernel
    :func:`flow._lerp` (:func:`flow._multilinear`).  ``orientation`` is the
    sign of the parameter frame against the ambient orientation of the
    family's manifold; it multiplies every local intersection number.  W
    must have codimension k-1 in C^n, with n its number of rows, and every
    value must be n x n: sampled values are checked here, ``func`` values
    as they come back, and symmetrized.  :func:`locate_crossings` calls
    ``func`` in stacks of points, scan order first, then round by round,
    and checks each stack's values at once.  ``value_at`` takes a point of
    ``dims`` coordinates (else an input error).  For k = 1 the family is a
    Hermitian path on its axis, t = (x - lo)/(hi - lo), and its crossings
    are the spectral flow's.
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
            nodes = _hermitian_stack(vals.reshape((-1,) + vals.shape[-2:]))
            object.__setattr__(self, "values", nodes.reshape(vals.shape))
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
        return self._values(x[None])[0]

    def _checked(self, value) -> np.ndarray:
        """A ``func`` value, symmetrized; an input error when it is not n x n."""
        val = symmetrize(value)
        if val.shape[0] != self.w.shape[0]:
            raise InputError(_W_SIZE)
        return val

    def _values(self, points: np.ndarray) -> list[np.ndarray | None]:
        """The value at each row of a (count, dims) float array; value_at is
        its one-row case.  A sampled family has no value at a point more than
        1e-12 outside the box, and reads the others with
        :func:`flow._multilinear`, in stacks of :func:`flow._chunks` runs.  A
        ``func`` family calls func once per point, in order, then checks and
        symmetrizes the values it got in such stacks, as
        :meth:`flow.HermitianPath._stack` does."""
        n = self.w.shape[0]
        if self.func is None:
            lo, hi = _box(self)
            out: list[np.ndarray | None] = [None] * len(points)
            inside = np.flatnonzero(~((points < lo - 1e-12) | (points > hi + 1e-12)).any(axis=1))
            for run in _chunks(inside.size, n):
                idx = inside[run]
                for r, val in zip(idx, _multilinear(self.values, self.axes, points[idx])):
                    out[r] = val
            return out
        out = [self.func(x) for x in points]
        have = [i for i, val in enumerate(out) if val is not None]
        for run in _chunks(len(have), n):
            idx = have[run]
            for i, val in zip(idx, _checked_stack([out[i] for i in idx], n, self._checked)):
                out[i] = val
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
    detector, and all runs go in lockstep (:func:`_newton_runs`).  An end is
    kept where the detector is below _ACCEPT_GAP (the jet checks
    dim(Ker T ∩ W)); ends within spacing/8 merge, and the points return in
    mesh index order.  Runs stay in the box widened by spacing/2, so a
    crossing further out is none of the family's; one within spacing/2 of
    the box's edge, inside or out, raises "boundary crossing", and two
    closer than the spacing raise "unresolved cluster".  ``func`` is called
    on the mesh nodes in scan order first, then round by round; each stack
    of values is checked as it comes back.
    """
    if family.k == 1:
        return [x for x, _ in _axis_crossings(family)[1]]
    shape = tuple(a.size for a in family.axes)
    nodes = np.stack(np.meshgrid(*family.axes, indexing="ij"), axis=-1).reshape(-1, family.dims)
    values = family._values(nodes)
    grid = _gaps(values, family.w).reshape(shape)
    # local minima; a tie with a neighbour earlier in scan order leaves the
    # run to that neighbour
    starts = np.isfinite(grid)
    for d in range(family.dims):
        g, start = np.moveaxis(grid, d, 0), np.moveaxis(starts, d, 0)
        start[:-1] &= g[1:] >= g[:-1]
        start[1:] &= g[:-1] > g[1:]

    starts = np.flatnonzero(starts)
    ends = _newton_runs(family, nodes[starts], [values[i] for i in starts])
    gaps = _gaps([None if end is None else end[1] for end in ends], family.w)
    spacing = family.spacing()
    merged: list[np.ndarray] = []
    for end, gap in zip(ends, gaps):
        if gap < _ACCEPT_GAP and all(np.linalg.norm(end[0] - m) > spacing / 8.0 for m in merged):
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


def _difference_points(x: np.ndarray, h: float) -> np.ndarray:
    """x + h e_i and x - h e_i for each row x of x and each axis i, in that
    order: the 2d points that :func:`_differences` reads for each row."""
    e = h * np.eye(x.shape[1])
    return np.stack([x[:, None] + e, x[:, None] - e], axis=2).reshape(-1, x.shape[1])


def _differences(t: np.ndarray, values: list[np.ndarray | None], h: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T(x + h e_i) - T(x - h e_i), its width 2h, dead) for each point x and
    axis i, given the stack t of T(x) and the values read at the points'
    :func:`_difference_points`.

    With a value on one side only, the difference with t, of width h; a point
    with no value on either side of some axis is dead.  On a sampled family
    it gives the slope of the multilinear interpolant in the cell that holds x.
    """
    have = np.array([val is not None for val in values]).reshape(len(t), -1, 2)
    per = have[0].size
    sides = np.stack([t[j // per] if val is None else val for j, val in enumerate(values)])
    sides = sides.reshape(have.shape + t.shape[1:])
    width = np.where(have.all(axis=2), 2.0 * h, h)
    return sides[:, :, 0] - sides[:, :, 1], width, (~have.any(axis=2)).any(axis=1)


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of v, bit for bit: the same dot products,
    one stacked matmul per real part."""
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return np.sqrt(sum((p[:, None] @ p[:, :, None])[:, 0, 0] for p in parts))


def _newton_runs(family: MeshedFamily, x0: np.ndarray, t0: list[np.ndarray]
                 ) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Gauss-Newton on T(x) W c = 0, |c| = 1, from each row x of x0 where T
    has the value t0[r], all runs in lockstep.

    c starts as the right singular vector of T(x) W for its least singular
    value.  A step solves in least squares the real and imaginary parts of
    [J_x | TW | iTW] (dx, Re dc, Im dc) = -TWc and c* dc = 0, (2n + 2) x
    (2n + 1) and of full rank at a transversal crossing; J_x is
    :func:`_differences` of T, applied to Wc.  A step is halved while its end
    leaves the box widened by spacing/2 or T has no value there; a run that
    cannot move ends in None, any other in its end x and T(x).

    Each round reads the difference points of all active runs in one stacked
    read, builds their systems as one array and solves each alone (gelsd),
    then halves level by level the steps that need it, reading each level's
    ends at once.  Every run does the float operations of a run alone.  A
    round advances at most max(1, _STACK_ENTRIES // (2dn)^2) runs at a time
    (the :func:`flow._chunks` runs of (2dn) x (2dn) matrices), so the 2d
    n x n values that each reads stay within one stack bound.
    """
    if not len(x0):
        return []
    spacing, (lo, hi) = family.spacing(), _box(family)
    lo, hi = lo - spacing / 2.0, hi + spacing / 2.0
    h = spacing * _DIFF_STEP
    w = family.w
    (n, m), d = w.shape, x0.shape[1]
    x, t = np.array(x0, dtype=float), np.stack(t0)
    c = np.concatenate([np.linalg.svd(t[run] @ w)[2][:, -1].conj()
                        for run in _chunks(len(x), n)])
    ends: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(x)
    active = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        active = np.sort(np.concatenate([_newton_step(family, x, t, c, active[run], h, lo, hi, ends)
                                         for run in _chunks(active.size, 2 * d * n)]))
    for r in active:
        ends[r] = (x[r].copy(), t[r])
    return ends


def _newton_step(family: MeshedFamily, x: np.ndarray, t: np.ndarray, c: np.ndarray,
                 runs: np.ndarray, h: float, lo: np.ndarray, hi: np.ndarray,
                 ends: list) -> np.ndarray:
    """One step of :func:`_newton_runs` for the runs given: moves their rows
    of x, t and c in place, records the end of each run that stops, and
    returns the runs that moved."""
    w = family.w
    (n, m), d = w.shape, x.shape[1]
    xs, ts, cs = x[runs], t[runs], c[runs]
    diff, width, dead = _differences(ts, family._values(_difference_points(xs, h)), h)
    live = ~dead
    xs, ts, cs, diff, width, runs = (a[live] for a in (xs, ts, cs, diff, width, runs))
    if not runs.size:
        return runs
    tw, wc = ts @ w, w @ cs[:, :, None]
    # the complex rows of each system, then their real and imaginary parts
    rows = np.zeros((len(runs), n + 1, d + 2 * m), dtype=np.complex128)
    rows[:, :n, :d] = ((diff @ wc[:, None])[..., 0] / width[..., None]).transpose(0, 2, 1)
    rows[:, :n, d:d + m], rows[:, :n, d + m:] = tw, 1j * tw
    rows[:, n, d:d + m], rows[:, n, d + m:] = cs.conj(), 1j * cs.conj()
    system = np.concatenate([rows.real, rows.imag], axis=1)
    residual = -(tw @ cs[:, :, None])[..., 0]
    rhs = np.zeros((len(runs), 2, n + 1))
    rhs[:, 0, :n], rhs[:, 1, :n] = residual.real, residual.imag
    rhs = rhs.reshape(len(runs), -1)
    step = np.stack([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(system, rhs)])
    dx, dc = step[:, :d], step[:, d:d + m] + 1j * step[:, d + m:]
    done = _norms(dx) <= 1e-15 * np.maximum(1.0, _norms(xs))
    for r in runs[done]:
        ends[r] = (x[r].copy(), t[r])
    go = ~done
    xs, cs, dx, dc, runs = (a[go] for a in (xs, cs, dx, dc, runs))
    moved = []
    for _ in range(_NEWTON_HALVINGS + 1):
        end = xs + dx
        inside = np.flatnonzero((lo <= end).all(axis=1) & (end <= hi).all(axis=1))
        values = family._values(end[inside])
        got = np.zeros(len(runs), dtype=bool)
        got[inside[[val is not None for val in values]]] = True
        if got.any():
            x[runs[got]], t[runs[got]] = end[got], [val for val in values if val is not None]
            step_c = cs[got] + dc[got]
            c[runs[got]] = step_c / _norms(step_c)[:, None]
            moved.append(runs[got])
        keep = ~got
        xs, cs, dx, dc, runs = xs[keep], cs[keep], dx[keep] / 2.0, dc[keep] / 2.0, runs[keep]
        if not runs.size:
            break
    return np.concatenate(moved) if moved else runs[:0]


def crossing_jet(family: MeshedFamily, x: np.ndarray) -> FamilyJet:
    """The operator jet at a located crossing point: T(x), and partials by
    Newton's :func:`_differences`."""
    t0 = family.value_at(x)
    if t0 is None:
        raise PreconditionError("boundary crossing")
    h = family.spacing() * _DIFF_STEP
    x = np.asarray(x, dtype=float)[None]
    diff, width, dead = _differences(t0[None], family._values(_difference_points(x, h)), h)
    if dead[0]:
        raise PreconditionError("boundary crossing")
    # rank tolerance: 1e3 x the detector, at least rank_eps, and below 1
    rank_eps = max(1e3 * max(_gap(t0, family.w), 1e-16), family.tol.rank_eps)
    kern_tol = Tolerance(min(rank_eps, np.nextafter(1.0, 0.0)), family.tol.crossing_eps)
    return FamilyJet(family.k, t0, tuple(diff[0] / width[0, :, None, None]), family.w, kern_tol)


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
