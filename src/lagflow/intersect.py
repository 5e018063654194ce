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
from .grassmann import J_matrix, LagrangianFrame, _inv_sqrt_eye_plus_sq, switched_graph
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    hermitian_eig,
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
    # scipy.optimize loads on the first use of ``minimize`` (PEP 562), so
    # importing lagflow loads no scipy; from then on ``minimize`` is an
    # ordinary module global, which bench/tracer.py replaces to count runs
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
        w = orthonormalize(as_complex_matrix(self.w))
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

    vals, vecs = hermitian_eig(t0)
    thresh = tol.rank_eps * max(1.0, float(np.abs(vals).max(initial=0.0)))
    ran = vecs[:, np.abs(vals) > thresh]
    w_perp = orthocomplement_basis(w, dim_ambient=jet.n)
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
    b = _inv_sqrt_eye_plus_sq(jet.t0)
    lag = switched_graph(jet.t0)
    tangents = tuple(symmetrize(b @ dp @ b) for dp in jet.partials)
    w_iso = IsotropicSubspace.from_h_minus_vectors(jet.n, jet.w)
    return LagrangianJet(jet.k, lag, tangents, w_iso, jet.tol)


# ---------------------------------------------------------------------------
# crossing location over parameter meshes


@dataclass(frozen=True)
class MeshedFamily:
    """Hermitian family over a rectangular (2k-1)-dimensional parameter mesh.

    Either ``func`` maps a parameter point to a Hermitian matrix (returning
    None outside the valid domain), or ``values`` holds node samples that
    are interpolated multilinearly.  ``orientation`` is the sign of the
    parameter frame against the ambient orientation of the family's
    manifold; it multiplies every local intersection number.
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
        w = orthonormalize(as_complex_matrix(self.w))
        if (self.func is None) == (self.values is None):
            raise InputError("exactly one of func/values must be given")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.complex128)
            shape = tuple(a.size for a in axes)
            if vals.shape[: len(shape)] != shape or vals.ndim != len(shape) + 2:
                raise InputError("sampled values do not match the mesh shape")
            if w.shape[0] != vals.shape[-1]:
                raise InputError("W frame does not match the family dimension")
            object.__setattr__(self, "values", vals)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "w", w)

    @property
    def dims(self) -> int:
        return len(self.axes)

    def spacing(self) -> float:
        return min(float(np.min(np.diff(a))) for a in self.axes)

    def value_at(self, x: np.ndarray) -> np.ndarray | None:
        if self.func is not None:
            val = self.func(np.asarray(x, dtype=float))
            return None if val is None else symmetrize(val)
        idx = []
        weights = []
        for a, xi in zip(self.axes, x):
            if xi < a[0] - 1e-12 or xi > a[-1] + 1e-12:
                return None
            i = int(np.clip(np.searchsorted(a, xi, side="right") - 1, 0, a.size - 2))
            s = (xi - a[i]) / (a[i + 1] - a[i])
            idx.append(i)
            weights.append(np.clip(s, 0.0, 1.0))
        out = None
        for corner in itertools.product((0, 1), repeat=self.dims):
            wgt = 1.0
            for c, s in zip(corner, weights):
                wgt *= s if c else (1.0 - s)
            if wgt == 0.0:
                continue
            entry = self.values[tuple(i + c for i, c in zip(idx, corner))]
            out = wgt * entry if out is None else out + wgt * entry
        return out

    def partials_at(self, x: np.ndarray) -> list[np.ndarray]:
        """Central-difference partials with the mesh step along each axis."""
        out = []
        for i, a in enumerate(self.axes):
            h = float(np.min(np.diff(a)))
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp[i] += h
            xm[i] -= h
            vp, vm = self.value_at(xp), self.value_at(xm)
            if vp is None or vm is None:
                # fall back to a one-sided difference at the domain edge
                v0 = self.value_at(x)
                if vp is not None:
                    out.append(symmetrize((vp - v0) / h))
                    continue
                if vm is not None:
                    out.append(symmetrize((v0 - vm) / h))
                    continue
                raise PreconditionError("boundary crossing")
            out.append(symmetrize((vp - vm) / (2.0 * h)))
        return out


def _w_extension(w: np.ndarray) -> np.ndarray:
    return np.vstack([np.zeros_like(w), w])


def _detector(family: MeshedFamily, x: np.ndarray) -> float:
    """sigma_min of [frame(switched graph of T(x)) | -W-extension]."""
    t = family.value_at(x)
    if t is None:
        return np.inf
    frame = switched_graph(t).frame
    block = np.hstack([frame, -_w_extension(family.w)])
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def locate_crossings(family: MeshedFamily) -> list[np.ndarray]:
    """Mesh scan plus Nelder-Mead refinement of kernel-meets-W points.

    Returns refined parameter points, deterministic in mesh index order.
    Raises "boundary crossing" when a crossing sits at the mesh boundary
    and "unresolved cluster" when two refined candidates stay closer than
    the mesh spacing without merging.
    """
    shape = tuple(a.size for a in family.axes)
    grid = np.empty(shape, dtype=float)
    for idx in np.ndindex(shape):
        grid[idx] = _detector(family, _mesh_node(family, idx))

    finite = np.isfinite(grid)
    if not finite.any():
        return []
    safe = np.where(finite, grid, np.nan)
    max_jump = 0.0
    with np.errstate(invalid="ignore"):
        for d in range(family.dims):
            j = np.abs(np.diff(safe, axis=d))
            if np.any(np.isfinite(j)):
                max_jump = max(max_jump, float(np.nanmax(j)))
    if max_jump == 0.0:
        return []
    trigger = 4.0 * max_jump

    def neighbors(idx):
        for d in range(family.dims):
            for step in (-1, 1):
                j = list(idx)
                j[d] += step
                if 0 <= j[d] < shape[d]:
                    yield tuple(j)

    spacing = family.spacing()
    accept = family.tol.rank_eps
    minimize = globals().get("minimize") or __getattr__("minimize")
    candidates: list[np.ndarray] = []
    for idx in sorted(np.ndindex(shape)):
        val = grid[idx]
        if not np.isfinite(val) or val >= trigger:
            continue
        if any(np.isfinite(grid[nb]) and grid[nb] < val for nb in neighbors(idx)):
            continue
        x0 = _mesh_node(family, idx)
        res = minimize(
            lambda x: min(_detector(family, x), 1e6),
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": 200,
                "xatol": spacing / 2**8,
                "fatol": 1e-15,
                "initial_simplex": _initial_simplex(x0, spacing / 2.0),
            },
        )
        if not np.isfinite(res.fun) or res.fun >= accept:
            continue
        x_star = np.asarray(res.x, dtype=float)
        t_star = family.value_at(x_star)
        if t_star is None:
            continue
        kern_tol = _kernel_tolerance(family.tol, res.fun)
        kernel = numeric_kernel(t_star, kern_tol)
        if kernel.shape[1] == 0:
            continue
        meet = subspace_intersection_basis(kernel, family.w, kern_tol)
        if meet.shape[1] != 1:
            continue
        candidates.append(x_star)

    merged: list[np.ndarray] = []
    for x in candidates:
        for m in merged:
            if np.linalg.norm(x - m) <= spacing / 8.0:
                break
        else:
            merged.append(x)
    for a, b in itertools.combinations(merged, 2):
        if np.linalg.norm(a - b) < spacing:
            raise PreconditionError("unresolved cluster")
    for x in merged:
        for d, axis in enumerate(family.axes):
            if x[d] - axis[0] < spacing / 2.0 or axis[-1] - x[d] < spacing / 2.0:
                raise PreconditionError("boundary crossing")
    return merged


def _mesh_node(family: MeshedFamily, idx: tuple[int, ...]) -> np.ndarray:
    return np.array([family.axes[d][i] for d, i in enumerate(idx)])


def _kernel_tolerance(tol: Tolerance, detector: float) -> Tolerance:
    """Rank tolerance at a located crossing: 1e3 x the detector value, at
    least tol.rank_eps, and below 1, the bound Tolerance enforces."""
    rank_eps = max(1e3 * max(detector, 1e-16), tol.rank_eps)
    return Tolerance(min(rank_eps, np.nextafter(1.0, 0.0)), tol.crossing_eps)


def _initial_simplex(x0: np.ndarray, size: float) -> np.ndarray:
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for i in range(d):
        simplex[i + 1, i] += size
    return simplex


def crossing_jet(family: MeshedFamily, x: np.ndarray) -> FamilyJet:
    """Assemble the operator jet at a located crossing point."""
    t0 = family.value_at(x)
    if t0 is None:
        raise PreconditionError("boundary crossing")
    kern_tol = _kernel_tolerance(family.tol, _detector(family, x))
    return FamilyJet(family.k, t0, tuple(family.partials_at(x)), family.w, kern_tol)


def total_intersection_number(family: MeshedFamily
                              ) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """Sum of local intersection numbers over all located crossings."""
    points = locate_crossings(family)
    total = 0
    detail: list[tuple[np.ndarray, int]] = []
    for x in points:
        eps = family.orientation * intersection_number_operator(crossing_jet(family, x))
        detail.append((x, eps))
        total += eps
    return total, detail
