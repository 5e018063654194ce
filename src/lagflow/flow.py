"""Spectral flow of Hermitian paths and Maslov index of lagrangian paths.

Two independent spectral-flow algorithms are provided:

* :func:`spectral_flow_crossing` locates each zero crossing of the sorted
  eigenvalue branches by bisection and adds the signature of the crossing
  form  v |-> <dA/dt v, v>  on the numerical kernel (for a simple crossing
  this is sign<dA v, v>, the classical local flow),
* :func:`spectral_flow_tracking` counts negative eigenvalues n-(t) on the
  x4 refined grid; each interval adds n-(t_i) - n-(t_i+1) crossings at its
  midpoint.  It uses no derivatives, and its total is the endpoint inertia
  difference n-(A(0)) - n-(A(1)).

The Maslov index of a path of lagrangians counts crossings with the train
{dim(L ∩ H-) = 1}: passages of the eigenphases of the Arnold unitary U(t)
through pi (Arnold, Funct. Anal. Appl. 1, 1967).  It is read off det U,
with no eigenphase matched or lifted: a geodesic step between samples
turns arg det U by a known angle, and that turn less the change of the
summed principal eigenphases is 2 pi times the step's net passages
(Cappell, Lee & Miller, CPAM 47, 1994; Phillips, Canad. Math. Bull. 39,
1996).  Crossings are located by halving steps on that count and signed by
sgn<-J dP/dt v, v> on a unit vector v of L ∩ H-.  On switched graphs of a
Hermitian path the two notions agree crossing by crossing.

Crossings are only counted in the open interior (0, 1); paths whose
endpoints are degenerate are rejected rather than half-counted, which
makes concatenation additivity exact for admissible subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .grassmann import J_matrix, LagrangianFrame, cayley_graph, lagrangian_to_unitary
from .linalg import DEFAULT_TOL, Tolerance, numeric_kernel, symmetrize

__all__ = [
    "HermitianPath",
    "LagrangianPath",
    "Crossing",
    "spectral_flow_crossing",
    "spectral_flow_tracking",
    "maslov_index",
]


def __getattr__(name: str):
    # flow.py uses no scipy.optimize; bench/tracer.py still looks up
    # ``linear_sum_assignment`` here, so that lookup binds it (PEP 562)
    if name != "linear_sum_assignment":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linear_sum_assignment

    globals()["linear_sum_assignment"] = linear_sum_assignment
    return linear_sum_assignment


_MAX_DEPTH = 40
_MAX_SPLITS = 14
_NODE_SHIFT = 1e-7
_FD_STEP = 1e-4


@dataclass(frozen=True)
class Crossing:
    """A located crossing with its local signed contribution."""

    t: float
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "sign", int(self.sign))


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InputError("grid needs at least two nodes")
    if not np.all(np.diff(g) > 0):
        raise InputError("grid must be strictly increasing")
    if abs(g[0]) > 1e-12 or abs(g[-1] - 1.0) > 1e-12:
        raise InputError("grid must run from 0 to 1")
    g[0], g[-1] = 0.0, 1.0
    return g


def _bracket(grid: np.ndarray, t: float) -> tuple[int, float]:
    """Interval i of the grid that holds t, and t's offset s in it (0 to 1)."""
    i = int(np.searchsorted(grid, t, side="right") - 1)
    i = min(max(i, 0), grid.size - 2)
    a, b = grid[i], grid[i + 1]
    return i, (t - a) / (b - a)


@dataclass(frozen=True)
class HermitianPath:
    """One-parameter family of Hermitian matrices on [0, 1].

    Sampled values are interpolated linearly between nodes; when ``func``
    is supplied it is used instead (the samples then only seed crossing
    detection).  Analytic derivatives may be supplied per node or as
    ``dfunc``; otherwise derivatives come from Richardson-extrapolated
    central differences.
    """

    grid: np.ndarray
    values: tuple[np.ndarray, ...]
    derivatives: tuple[np.ndarray, ...] | None = None
    func: Callable[[float], np.ndarray] | None = field(default=None, compare=False)
    dfunc: Callable[[float], np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        g = _check_grid(self.grid)
        vals = tuple(symmetrize(v) for v in self.values)
        if len(vals) != g.size:
            raise InputError("one value per grid node required")
        dim = vals[0].shape[0]
        if any(v.shape[0] != dim for v in vals):
            raise InputError("all path values must share one dimension")
        derivs = self.derivatives
        if derivs is not None:
            derivs = tuple(symmetrize(d) for d in derivs)
            if len(derivs) != g.size or any(d.shape[0] != dim for d in derivs):
                raise InputError("derivative samples must match the grid and dimension")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "derivatives", derivs)

    @classmethod
    def from_function(cls, func, nodes: int = 9, dfunc=None) -> "HermitianPath":
        grid = np.linspace(0.0, 1.0, max(int(nodes), 2))
        vals = [symmetrize(func(t)) for t in grid]
        return cls(grid, tuple(vals), None, func, dfunc)

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        t = min(max(float(t), 0.0), 1.0)
        if self.func is not None:
            return symmetrize(self.func(t))
        i, s = _bracket(self.grid, t)
        return (1.0 - s) * self.values[i] + s * self.values[i + 1]

    def derivative_at(self, t: float) -> np.ndarray:
        t = min(max(float(t), 0.0), 1.0)
        if self.dfunc is not None:
            return symmetrize(self.dfunc(t))
        if self.derivatives is not None:
            i, s = _bracket(self.grid, t)
            return (1.0 - s) * self.derivatives[i] + s * self.derivatives[i + 1]
        return _richardson_derivative(self.value_at, t, self._fd_step(t))

    def _fd_step(self, t: float) -> float:
        spacing = float(np.min(np.diff(self.grid)))
        h = min(spacing, _FD_STEP)
        if 0.0 < t < 1.0:
            h = min(h, t / 2.0, (1.0 - t) / 2.0)
        return max(h, 1e-12)

    def restricted(self, a: float, b: float) -> "HermitianPath":
        """Sub-path over [a, b], reparametrized to [0, 1]."""
        if not (0.0 <= a < b <= 1.0):
            raise InputError("invalid restriction interval")
        inner = [t for t in self.grid if a < t < b]
        new_grid = np.array([a] + inner + [b])
        scaled = (new_grid - a) / (b - a)
        scaled[0], scaled[-1] = 0.0, 1.0
        vals = tuple(self.value_at(t) for t in new_grid)
        func = None
        if self.func is not None:
            base = self.func
            func = lambda s, _a=a, _b=b: base(_a + (_b - _a) * s)  # noqa: E731
        dfunc = None
        if self.dfunc is not None:
            dbase = self.dfunc
            dfunc = lambda s, _a=a, _b=b: (_b - _a) * dbase(_a + (_b - _a) * s)  # noqa: E731
        path = HermitianPath(scaled, vals, None, func, dfunc)
        if func is None and self.dfunc is None and self.derivatives is not None:
            derivs = tuple((b - a) * self.derivative_at(t) for t in new_grid)
            path = HermitianPath(scaled, vals, derivs, None, None)
        return path


def _richardson_derivative(f, t: float, h: float) -> np.ndarray:
    def central(step):
        return (f(t + step) - f(t - step)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return symmetrize((4.0 * d2 - d1) / 3.0)


def _sorted_eigs(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(symmetrize(m))


def _refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    out = []
    for a, b in zip(grid[:-1], grid[1:]):
        out.extend(np.linspace(a, b, factor + 1)[:-1])
    out.append(grid[-1])
    return np.array(out)


def _shift_interior_zeros(ts: np.ndarray, eig_at, eps: float
                          ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Nudge interior nodes sitting on (near-)zero eigenvalues off the zero.

    Returns the nodes, the sorted eigenvalues at them (one row per node)
    and the touch candidates: nodes whose smallest eigenvalue magnitude
    stays below eps even after nudging (the branch is flat there).
    """
    ts = ts.copy()
    spacing = float(np.min(np.diff(ts)))
    delta = _NODE_SHIFT * spacing
    evs = [eig_at(ts[0])]
    stuck = []
    for i in range(1, ts.size - 1):
        vals = eig_at(ts[i])
        orig = ts[i]
        for _ in range(3):
            if np.min(np.abs(vals)) > eps:
                break
            ts[i] = min(ts[i] + delta, ts[i + 1] - delta)
            vals = eig_at(ts[i])
        else:
            stuck.append(float(orig))
        evs.append(vals)
    evs.append(eig_at(ts[-1]))
    return ts, np.array(evs), stuck


def _endpoint_check(eig_at, tol: Tolerance):
    for t in (0.0, 1.0):
        if np.min(np.abs(eig_at(t))) <= tol.crossing_eps:
            raise PreconditionError("degenerate endpoint")


def _bisect(g, lo: float, hi: float, glo: float, width: float) -> float:
    """A sign change of g on [lo, hi], given glo = g(lo), to the given width."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or hi - lo < width:
            return mid
        if glo * gm < 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def _branch_crossings(branch, a, b, fa, fb, touch_eps, out, depth=0):
    """Collect zeros of a continuous scalar branch on [a, b].

    Sign changes are bisected (kind "cross"); dips that keep deepening are
    resolved recursively so a branch crossing twice between nodes is still
    found, and dips below touch_eps without a sign change are reported as
    kind "touch" for the caller's kernel analysis.
    """
    if depth > _MAX_DEPTH:
        raise PreconditionError("grid too coarse")
    if fa == 0.0 or fb == 0.0:
        raise PreconditionError("grid too coarse")
    if fa * fb < 0.0:
        out.append((_bisect(branch, a, b, fa, 1e-15), "cross"))
        return
    mid = 0.5 * (a + b)
    fm = branch(mid)
    if fm * fa < 0.0:
        _branch_crossings(branch, a, mid, fa, fm, touch_eps, out, depth + 1)
        _branch_crossings(branch, mid, b, fm, fb, touch_eps, out, depth + 1)
        return
    if abs(fm) <= touch_eps:
        out.append((mid, "touch"))
        return
    if abs(fm) < 0.5 * min(abs(fa), abs(fb)):
        _branch_crossings(branch, a, mid, fa, fm, touch_eps, out, depth + 1)
        _branch_crossings(branch, mid, b, fm, fb, touch_eps, out, depth + 1)


def _refine_to_minimum(fun, t0: float, halfwidth: float) -> float:
    """Golden-section refinement of a local minimum of |fun| near t0."""
    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    lo = max(t0 - halfwidth, 0.0)
    hi = min(t0 + halfwidth, 1.0)
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(90):
        if hi - lo < 1e-14:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def _merge_events(events: Sequence[tuple[float, str]], radius: float
                  ) -> list[tuple[float, bool]]:
    """Merge (time, kind) events; a group is a touch when no member crossed."""
    merged: list[tuple[list[float], bool]] = []
    for t, kind in sorted(events):
        if merged and t - merged[-1][0][-1] <= radius:
            merged[-1][0].append(t)
            merged[-1] = (merged[-1][0], merged[-1][1] or kind == "cross")
        else:
            merged.append(([t], kind == "cross"))
    return [(float(np.mean(group)), not crossed) for group, crossed in merged]


def _crossing_signature(kernel: np.ndarray, rate: np.ndarray, tol: Tolerance) -> int:
    """Signature of the crossing form on the kernel; error when singular."""
    form = kernel.conj().T @ rate @ kernel
    q = np.linalg.eigvalsh(symmetrize(form))
    if np.min(np.abs(q)) <= tol.crossing_eps:
        raise PreconditionError("degenerate crossing")
    return int(np.sum(q > 0) - np.sum(q < 0))


def spectral_flow_crossing(path: HermitianPath, tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[int, list[Crossing]]:
    """Spectral flow by crossing-form evaluation at located crossings.

    Returns (flow, crossings).  Preconditions: invertible endpoints; every
    crossing must carry a nondegenerate crossing form (for a simple
    crossing this is the classical |<dA v, v>| > crossing_eps condition).
    """
    eig_at = lambda t: _sorted_eigs(path.value_at(t))  # noqa: E731
    _endpoint_check(eig_at, tol)
    scale = max(1.0, max(float(np.abs(v).max(initial=0.0)) for v in path.values))
    node_eps = max(tol.crossing_eps, 1e-12 * scale)
    ts, evs, stuck = _shift_interior_zeros(_refine_grid(path.grid, 8), eig_at, node_eps)
    n = path.dim
    sub_spacing = float(np.min(np.diff(ts)))

    events: list[tuple[float, str]] = [(t, "touch") for t in stuck]
    touch_eps = max(tol.crossing_eps * 1e-3, 1e-13 * scale)
    for j in range(n):
        branch = lambda t, _j=j: float(eig_at(t)[_j])  # noqa: E731
        for i in range(ts.size - 1):
            _branch_crossings(branch, ts[i], ts[i + 1],
                              float(evs[i, j]), float(evs[i + 1, j]),
                              touch_eps, events)

    min_abs = lambda t: float(np.min(np.abs(eig_at(t))))  # noqa: E731
    flow = 0
    crossings: list[Crossing] = []
    for t_star, is_touch in _merge_events(events, 1e-9):
        if is_touch:
            # center tangential candidates on the actual minimum so the
            # crossing form is evaluated at the touch point
            t_star = _refine_to_minimum(min_abs, t_star, sub_spacing)
            if min_abs(t_star) > node_eps:
                continue
        if not (0.0 < t_star < 1.0):
            raise PreconditionError("degenerate endpoint")
        a = path.value_at(t_star)
        vals, vecs = np.linalg.eigh(symmetrize(a))
        kmask = np.abs(vals) <= max(100.0 * np.min(np.abs(vals)), node_eps)
        kernel = vecs[:, kmask]
        if kernel.shape[1] == 0:
            continue
        rate = path.derivative_at(t_star)
        sgn = _crossing_signature(kernel, rate, tol)
        crossings.append(Crossing(t_star, sgn))
        flow += sgn
    return flow, crossings


def spectral_flow_tracking(path: HermitianPath, tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[int, list[Crossing]]:
    """Spectral flow by inertia counts on the x4 refined grid.

    Independent of the crossing-form route: no derivatives are used.  With
    n-(t) the number of negative eigenvalues, interior nodes nudged off
    zero as in the crossing route, each grid interval [t_i, t_i+1] adds
    |n-(t_i) - n-(t_i+1)| crossings of that sign at its midpoint, and the
    flow is n-(A(0)) - n-(A(1)).
    """
    eig_at = lambda t: _sorted_eigs(path.value_at(t))  # noqa: E731
    _endpoint_check(eig_at, tol)
    scale = max(1.0, max(float(np.abs(v).max(initial=0.0)) for v in path.values))
    node_eps = max(tol.crossing_eps, 1e-12 * scale)
    ts, evs, _ = _shift_interior_zeros(_refine_grid(path.grid, 4), eig_at, node_eps)
    negative = np.sum(evs < 0.0, axis=1)
    detail: list[Crossing] = []
    for i, d in enumerate(negative[:-1] - negative[1:]):
        detail += [Crossing(0.5 * (ts[i] + ts[i + 1]), np.sign(d))] * abs(int(d))
    return int(negative[0] - negative[-1]), detail


# ---------------------------------------------------------------------------
# lagrangian paths and the Maslov index


@dataclass(frozen=True)
class LagrangianPath:
    """One-parameter family of lagrangian frames on [0, 1].

    Consecutive samples must stay within subspace distance 0.5 (spectral
    norm of the projection difference), a sampling adequacy guard.  When
    ``func`` is given it supplies frames at arbitrary parameters;
    otherwise frames between nodes come from the unitary geodesic of the
    Arnold correspondents.
    """

    grid: np.ndarray
    values: tuple[LagrangianFrame, ...]
    func: Callable[[float], LagrangianFrame] | None = field(default=None, compare=False)

    def __post_init__(self):
        g = _check_grid(self.grid)
        vals = tuple(self.values)
        if len(vals) != g.size:
            raise InputError("one frame per grid node required")
        if any(not isinstance(v, LagrangianFrame) for v in vals):
            raise InputError("path values must be LagrangianFrame instances")
        n = vals[0].n
        if any(v.n != n for v in vals):
            raise InputError("all frames must share one half-dimension")
        for a, b in zip(vals[:-1], vals[1:]):
            gap = np.linalg.norm(a.projection() - b.projection(), 2)
            if gap > 0.5 + 1e-9:
                raise InputError("consecutive frames exceed subspace distance 0.5")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, func, nodes: int = 17) -> "LagrangianPath":
        """Sample a frame-valued function, refining until the 0.5 guard holds."""
        count = max(int(nodes), 2)
        for _ in range(8):
            grid = np.linspace(0.0, 1.0, count)
            vals = tuple(func(t) for t in grid)
            gaps = [np.linalg.norm(a.projection() - b.projection(), 2)
                    for a, b in zip(vals[:-1], vals[1:])]
            if max(gaps) <= 0.5:
                return cls(grid, vals, func)
            count = 2 * count - 1
        raise InputError("consecutive frames exceed subspace distance 0.5")

    @property
    def n(self) -> int:
        return self.values[0].n

    def frame_at(self, t: float) -> LagrangianFrame:
        t = min(max(float(t), 0.0), 1.0)
        if self.func is not None:
            return self.func(t)
        i, s = _bracket(self.grid, t)
        if s <= 0.0:
            return self.values[i]
        if s >= 1.0:
            return self.values[i + 1]
        ua = lagrangian_to_unitary(self.values[i])
        ub = lagrangian_to_unitary(self.values[i + 1])
        return cayley_graph(_unitary_geodesic(ua, ub, s))


def _step_angles(ua: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases phi of R = Ua* Ub, and R's orthonormal eigenvectors.

    The step from Ua to Ub is the geodesic Ua exp(s log R), 0 <= s <= 1,
    along which arg det U moves by exactly sum(phi).  It needs the
    principal log, so a step with some |phi| > pi - 1e-6 is too coarse.
    """
    from scipy.linalg import schur

    tri, vecs = schur(ua.conj().T @ ub, output="complex")  # diagonal: R is normal
    phi = np.angle(np.diag(tri))
    if np.max(np.abs(phi)) > np.pi - 1e-6:
        raise PreconditionError("grid too coarse")
    return phi, vecs


def _unitary_geodesic(ua: np.ndarray, ub: np.ndarray, s: float) -> np.ndarray:
    phi, vecs = _step_angles(ua, ub)
    return ua @ ((vecs * np.exp(1j * s * phi)) @ vecs.conj().T)


def _geodesic_at(grid: np.ndarray, nodes: Sequence[np.ndarray], t: float) -> np.ndarray:
    """U(t) on the unitary geodesic between the nodes that bracket t."""
    i, s = _bracket(grid, t)
    if s <= 0.0:
        return nodes[i]
    if s >= 1.0:
        return nodes[i + 1]
    return _unitary_geodesic(nodes[i], nodes[i + 1], s)


def _whole(x: float) -> int:
    """A determinant count, rounded; off by more than rounding, a step was too coarse."""
    k = round(x)
    if abs(x - k) > 1e-6:
        raise PreconditionError("grid too coarse")
    return int(k)


def _det_steps(u_at, grid: np.ndarray, exact: bool):
    """Steps for a determinant count along u_at (cached), and turn(a, b).

    turn(a, b) = sum(phi) of :func:`_step_angles` is the change of arg det
    U along the geodesic step [a, b], exact when u_at is the geodesic
    interpolant of the grid.  Otherwise steps with max|phi| > pi/2 are
    halved, and one more halving must leave every step's turn unchanged.
    """
    angles = cache(lambda a, b: _step_angles(u_at(a), u_at(b))[0])
    turn = lambda a, b: float(np.sum(angles(a, b)))  # noqa: E731
    ts = list(grid)
    if exact:
        return ts, turn

    def wide(a, b):
        try:
            return np.max(np.abs(angles(a, b))) > 0.5 * np.pi
        except PreconditionError:  # past the guard, so wider still
            return True

    for _ in range(_MAX_SPLITS):
        inserts = [0.5 * (a + b) for a, b in zip(ts[:-1], ts[1:]) if wide(a, b)]
        if not inserts:
            break
        ts = sorted(ts + inserts)
    else:
        raise PreconditionError("grid too coarse")
    for a, b in zip(ts[:-1], ts[1:]):
        m = 0.5 * (a + b)
        if _whole((turn(a, m) + turn(m, b) - turn(a, b)) / (2.0 * np.pi)) != 0:
            raise PreconditionError("grid too coarse")
    return ts, turn


def maslov_index(path: LagrangianPath, tol: Tolerance = DEFAULT_TOL
                 ) -> tuple[int, list[Crossing]]:
    """Maslov index: signed crossings with the train {dim(L ∩ H-) = 1}.

    The index is the net number of passages of the eigenphases of U(t)
    through pi, read off det U (Arnold 1967; Cappell, Lee & Miller 1994;
    Phillips 1996; see the module docstring).  On a geodesic step from U_a to U_b, with
    phi the eigenphases of U_a* U_b and theta in (-pi, pi] those of U,

        c = (sum(phi) + sum(theta(U_a)) - sum(theta(U_b))) / 2 pi

    passages happen, and the index is sum(c).  Steps with c != 0 are
    halved on their count to width 1e-14, and each crossing found is
    signed by the form <-J dP/dt v, v> on L ∩ H- (Richardson differences
    of the frame projections).  Signs that do not sum to the index raise
    "degenerate crossing"; a +1 and a -1 inside one step cancel in c and
    are not listed.  The count is exact for the geodesic interpolant of a
    sampled path; for a ``func`` path see :func:`_det_steps`, and a path
    that winds a full turn between two samples is beyond any sampler.
    Endpoints must be transversal to H-.
    """
    n = path.n
    if path.func is None:
        nodes = [lagrangian_to_unitary(v) for v in path.values]
        u_at = cache(lambda t: _geodesic_at(path.grid, nodes, t))
    else:
        u_at = cache(lambda t: lagrangian_to_unitary(path.func(t)))
    for t in (0.0, 1.0):
        phases = np.angle(np.linalg.eigvals(u_at(t)))
        if np.min(np.abs(np.abs(phases) - np.pi)) <= 1e-12:
            raise PreconditionError("degenerate endpoint")
        top = path.frame_at(t).frame[:n]
        if np.linalg.svd(top, compute_uv=False)[-1] <= tol.rank_eps:
            raise PreconditionError("degenerate endpoint")

    ts, turn = _det_steps(u_at, path.grid, path.func is None)
    theta = cache(lambda t: float(np.sum(np.angle(np.linalg.eigvals(u_at(t))))))
    passages = lambda a, b: _whole((turn(a, b) + theta(a) - theta(b)) / (2.0 * np.pi))  # noqa: E731
    events: list[tuple[float, str]] = []

    def locate(a, b, c):  # halve [a, b], holding c passages, to 1e-14 wide pieces
        m = 0.5 * (a + b)
        if c and b - a < 1e-14:
            events.append((m, "cross"))
        elif c:
            left = passages(a, m)
            locate(a, m, left)
            locate(m, b, c - left)

    total = 0
    for a, b in zip(ts[:-1], ts[1:]):
        c = passages(a, b)
        total += c
        locate(a, b, c)

    jmat = J_matrix(n)
    crossings: list[Crossing] = []
    for t_star, _ in _merge_events(events, 1e-9):
        frame = path.frame_at(t_star).frame
        kern_coords = numeric_kernel(frame[:n], Tolerance(max(tol.rank_eps, 1e-7),
                                                          tol.crossing_eps))
        if kern_coords.shape[1] == 0:
            raise PreconditionError("degenerate crossing")
        kernel = frame @ kern_coords

        spacing_loc = min(t_star / 2.0, (1.0 - t_star) / 2.0, _FD_STEP)
        p_of = lambda t: path.frame_at(t).projection()  # noqa: E731
        pdot = _richardson_derivative(p_of, t_star, max(spacing_loc, 1e-12))
        crossings.append(Crossing(t_star, _crossing_signature(kernel, -jmat @ pdot, tol)))
    if sum(c.sign for c in crossings) != total:
        raise PreconditionError("degenerate crossing")
    return total, crossings
