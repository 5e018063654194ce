"""Spectral flow of Hermitian paths and Maslov index of lagrangian paths.

Two independent spectral-flow algorithms are provided:

* :func:`spectral_flow_crossing` locates each sign change of the sorted
  eigenvalue branches with the bracketed root finder :func:`_root` and adds
  the signature of the crossing form  v |-> <dA/dt v, v>  on the numerical
  kernel (for a simple crossing this is sign<dA v, v>, the classical local
  flow).  A branch that touches zero and keeps its sign is no event: a
  tangency adds nothing to the flow (Robbin & Salamon, Topology 32, 1993),
* :func:`spectral_flow_tracking` counts negative eigenvalues n-(t) on the
  x4 refined grid; each interval adds n-(t_i) - n-(t_i+1) crossings at its
  midpoint.  It uses no derivatives, and its total is the endpoint inertia
  difference n-(A(0)) - n-(A(1)).

Both routes that locate crossings share :func:`_root`: ITP (Oliveira &
Takahashi, ACM TOMS 47, 2021) with Chandrupatla's inverse-quadratic step
(Adv. Eng. Softw. 28, 1997) through the bracket's ends and the end last
dropped as its estimate where his test admits it, and the truncated regula
falsi otherwise.  ITP's projection around the midpoint keeps the bound of
bisection's count plus one; on a smooth branch a root takes about 5
evaluations.

The Maslov index of a path of lagrangians counts crossings with the train
{dim(L ∩ H-) >= 1}: passages of the eigenphases of the Arnold unitary U(t)
through pi (Arnold, Funct. Anal. Appl. 1, 1967).  It is read off det U,
with no eigenphase matched or lifted: a geodesic step between samples
turns arg det U by a known angle, and that turn less the change of the
summed principal eigenphases is 2 pi times the step's net passages
(Cappell, Lee & Miller, CPAM 47, 1994; Phillips, Canad. Math. Bull. 39,
1996).  A piece of a step that holds one passage is handed to :func:`_root`
on arg(-lambda), lambda the eigenvalue of U nearest -1, and its final
bracket is counted again; the count alone decides, and pieces that hold
more passages, or whose root the recount rejects, are halved on it.
Each crossing is signed by the net passages it was located with, which is
Phillips' local number, and the signature of the crossing form
<-J dP/dt v, v> on L ∩ H- wherever that form is nondegenerate (Robbin &
Salamon, Topology 32, 1993).  On switched graphs of a Hermitian path the
two routes agree crossing by crossing.

A sampled Hermitian path is signed with its interpolant's exact slope; a
``func`` path without a ``dfunc`` takes a Richardson difference.  At a
node, where the interpolant kinks, an event counts half the signature on
each side.

LAPACK is called on stacks, and a stack is bounded by an entry budget, not
by the grid: :func:`_chunks` cuts a run into max(1, _STACK_ENTRIES // n^2)
n x n matrices a call: 910 at n = 6, 8 at n = 64 and one at n >= 129.  The
CLI's plots and the mesh detector of :mod:`intersect` stack by it too.
Both spectral-flow routes evaluate each parameter value once per call:
the node scan and every branch's midpoints and root-finder steps read
the sorted eigenvalues of A(t) from one memo.  The
values known in advance, the endpoints, the refined nodes and each level
of midpoints the branch search probes, are filled in such stacks across
grid steps: a sampled path interpolates a stack in one array expression,
a ``func`` path's stack is checked and symmetrized at once, and each
stack takes one stacked eigvalsh; the root finders' steps are read one by
one.  :func:`_branch_events` searches every interval and branch at once,
level by level, and halves only the intervals where some branch needs it.
Only the kernel at a located crossing needs A(t) again, for its
eigenvectors.  The geodesic steps of a path or loop are decomposed in
stacks too (:func:`_steps_angles`): all grid steps at once, and each
halving level of a ``func`` path's check.  The Maslov index reads the
eigenphases of its node unitaries with stacked eigvals, counts every
step's passages at once, and walks only the steps that hold some.

Crossings are only counted in the open interior (0, 1); paths whose
endpoints are degenerate are rejected rather than half-counted, which
makes concatenation additivity exact for admissible subdivisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .grassmann import LagrangianFrame, cayley_graph, lagrangian_to_unitary
from .linalg import DEFAULT_TOL, Tolerance, _finite_parts, symmetrize

__all__ = [
    "HermitianPath",
    "LagrangianPath",
    "Crossing",
    "spectral_flow_crossing",
    "spectral_flow_tracking",
    "maslov_index",
]


def __getattr__(name: str):
    # lagflow uses no scipy; bench/tracer.py still looks up
    # ``linear_sum_assignment`` here, so that lookup binds it (PEP 562) from
    # the scipy of the ``test`` extra
    if name != "linear_sum_assignment":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linear_sum_assignment

    globals()["linear_sum_assignment"] = linear_sum_assignment
    return linear_sum_assignment


_MAX_DEPTH = 40
_MAX_SPLITS = 14
_NODE_SHIFT = 1e-7
_FD_STEP = 1e-4
_STACK_ENTRIES = 8 * 64 * 64


@dataclass(frozen=True)
class Crossing:
    """A located crossing with its local signed contribution."""

    t: float
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "sign", int(self.sign))


def _check_grid(grid) -> np.ndarray:
    """A read-only copy of the grid, its endpoints snapped to 0 and 1."""
    g = np.array(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InputError("grid needs at least two nodes")
    if not np.all(np.diff(g) > 0):
        raise InputError("grid must be strictly increasing")
    if abs(g[0]) > 1e-12 or abs(g[-1] - 1.0) > 1e-12:
        raise InputError("grid must run from 0 to 1")
    g[0], g[-1] = 0.0, 1.0
    g.flags.writeable = False
    return g


def _bracket(grid: np.ndarray, t: float) -> tuple[int, float]:
    """Interval i of the grid that holds t, and t's offset s in it (0 to 1)."""
    i = int(grid.searchsorted(t, side="right")) - 1
    i = min(max(i, 0), grid.size - 2)
    return i, _offset(grid, i, t)


def _offset(grid: np.ndarray, i, t):
    """(t - t_i) / (t_i+1 - t_i): the offset of t in grid step i, or of an
    array of t, each in its own step of an array i."""
    a, b = grid[i], grid[i + 1]
    return (t - a) / (b - a)


def _lerp(nodes: Sequence[np.ndarray], i, s):
    """(1 - s) nodes[i] + s nodes[i+1]: the path interpolation, at one offset s
    in step i, or at a (k, 1, 1) array of them in the steps of an array i of
    a stacked ``nodes``.  A sampled :class:`intersect.MeshedFamily` applies
    it to its cell once per axis, with i = 0 on the cell's leading axis."""
    return (1.0 - s) * nodes[i] + s * nodes[i + 1]


def _chunks(count: int, n: int) -> list[slice]:
    """Runs of range(count) that one stacked LAPACK call takes:
    max(1, _STACK_ENTRIES // n^2) n x n matrices each, so a call holds at
    most _STACK_ENTRIES entries, or one matrix, whatever the count."""
    size = max(1, _STACK_ENTRIES // (n * n))
    return [slice(k, k + size) for k in range(0, count, size)]


def _checked_stack(raw: Sequence, n: int, checked: Callable) -> np.ndarray:
    """``func`` values, stacked and symmetrized with the float operations of
    :func:`linalg.symmetrize`: one check of the whole stack for n x n finite
    entries, and where that fails, ``checked`` value by value, in order, for
    the error the value alone gets."""
    try:
        m = np.array(raw, dtype=np.complex128)
    except (TypeError, ValueError):  # not numbers, or ragged
        m = None
    if m is None or m.shape[1:] != (n, n) or not _finite_parts(m):
        return np.stack([checked(v) for v in raw])
    return 0.5 * (m + m.conj().transpose(0, 2, 1))


def _sides(grid: np.ndarray, t: float) -> list[int]:
    """Grid steps whose interpolant signs an event at t: both neighbours of an
    interior node that t meets to the events' localisation width, 1e-14, else
    the step that holds t."""
    k = int(np.argmin(np.abs(grid - t)))
    if 0 < k < grid.size - 1 and abs(grid[k] - t) <= 1e-14:
        return [k - 1, k]
    return [_bracket(grid, t)[0]]


@dataclass(frozen=True)
class HermitianPath:
    """One-parameter family of Hermitian matrices on [0, 1].

    Sampled values are interpolated linearly between nodes, and a sampled
    path is signed by its interpolant's slope.  When ``func`` is supplied it
    is used instead (the samples then only seed crossing detection), with
    its derivative ``dfunc`` if given, else a Richardson-extrapolated central
    difference; a ``dfunc`` needs a ``func``.  Both are keyword-only.
    """

    grid: np.ndarray
    values: tuple[np.ndarray, ...]
    func: Callable[[float], np.ndarray] | None = field(default=None, compare=False, kw_only=True)
    dfunc: Callable[[float], np.ndarray] | None = field(default=None, compare=False, kw_only=True)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _check_grid(self.grid)
        vals = tuple(symmetrize(v) for v in self.values)
        if len(vals) != g.size:
            raise InputError("one value per grid node required")
        dim = vals[0].shape[0]
        if dim == 0:
            raise InputError("path dimension must be >= 1")
        if any(v.shape[0] != dim for v in vals):
            raise InputError("all path values must share one dimension")
        if self.dfunc is not None and self.func is None:
            raise InputError("dfunc needs func: a sampled path is signed by its interpolant")
        nodes = np.stack(vals)  # the values are its rows
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", tuple(nodes))
        object.__setattr__(self, "_nodes", nodes)

    @classmethod
    def from_function(cls, func, nodes: int = 9, dfunc=None) -> "HermitianPath":
        grid = np.linspace(0.0, 1.0, max(int(nodes), 2))
        return cls(grid, tuple(func(t) for t in grid), func=func, dfunc=dfunc)

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        t = min(max(float(t), 0.0), 1.0)
        if self.func is not None:
            return self._checked(self.func(t))
        i, s = _bracket(self.grid, t)
        return _lerp(self.values, i, s)

    def _stack(self, ts: Sequence[float]) -> np.ndarray:
        """value_at of each t, stacked, with value_at's float operations: a
        sampled path interpolates each t in its own grid step, all in one
        array expression, and a ``func`` path calls func once per t, in
        order, then checks and symmetrizes the stack at once.  A stack that
        fails the check is checked value by value, for value_at's error."""
        if self.func is None:
            ts = np.clip(np.array(ts, dtype=float), 0.0, 1.0)
            i = np.clip(self.grid.searchsorted(ts, side="right") - 1, 0, self.grid.size - 2)
            return _lerp(self._nodes, i, _offset(self.grid, i, ts)[:, None, None])
        return _checked_stack([self.func(min(max(float(t), 0.0), 1.0)) for t in ts],
                              self.dim, self._checked)

    def _checked(self, value) -> np.ndarray:
        """A ``func`` or ``dfunc`` value, symmetrized; an input error when its
        size is not the path's."""
        m = symmetrize(value)
        if m.shape[0] != self.values[0].shape[0]:
            raise InputError("all path values must share one dimension")
        return m

    def derivative_at(self, t: float) -> np.ndarray:
        t = min(max(float(t), 0.0), 1.0)
        if self.dfunc is not None:
            return self._checked(self.dfunc(t))
        if self.func is not None:
            return _richardson_derivative(self.value_at, t, self.grid)
        return self._slope(_bracket(self.grid, t)[0])

    def _slope(self, i: int) -> np.ndarray:
        return (self.values[i + 1] - self.values[i]) / (self.grid[i + 1] - self.grid[i])

    def _rates(self, t: float) -> list[np.ndarray]:
        """The rates that sign an event at t: a sampled path takes the slope
        of each step of :func:`_sides`."""
        if self.func is None:
            return [self._slope(i) for i in _sides(self.grid, t)]
        return [self.derivative_at(t)]

    def restricted(self, a: float, b: float) -> "HermitianPath":
        """Sub-path over [a, b], reparametrized to [0, 1]."""
        if not (0.0 <= a < b <= 1.0):
            raise InputError("invalid restriction interval")
        new_grid = np.array([a] + [t for t in self.grid if a < t < b] + [b])
        vals = tuple(self._stack(new_grid))
        func = None if self.func is None else lambda s, f=self.func: f(a + (b - a) * s)
        dfunc = None if self.dfunc is None else lambda s, f=self.dfunc: (b - a) * f(a + (b - a) * s)
        return HermitianPath((new_grid - a) / (b - a), vals, func=func, dfunc=dfunc)


def _richardson_derivative(f, t: float, grid: np.ndarray) -> np.ndarray:
    """(4 d(h/2) - d(h)) / 3 for central differences d of f at t; h = min(grid
    spacing, _FD_STEP), at most t/2 and (1 - t)/2 inside (0, 1), at least 1e-12."""
    h = min(float(np.min(np.diff(grid))), _FD_STEP)
    if 0.0 < t < 1.0:
        h = min(h, t / 2.0, (1.0 - t) / 2.0)
    h = max(h, 1e-12)

    def central(step):
        return (f(t + step) - f(t - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """Each grid step cut into factor equal parts, in one array operation:
    a + k (b - a) / factor, the floats of linspace(a, b, factor + 1)."""
    a = grid[:-1, None]
    return np.append((np.arange(factor) * ((grid[1:, None] - a) / factor) + a).ravel(), grid[-1])


def _shift_interior_zeros(ts: np.ndarray, eig_at, eig_rows, eps: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Nudge interior nodes sitting on (near-)zero eigenvalues off the zero,
    at most three times each; a node still near zero after that stays where
    the last nudge left it.

    Returns the nodes and the sorted eigenvalues at them (one row per node).
    The rows come from one eig_rows; only the nodes it finds near a zero are
    read again, one by one, as they move.
    """
    ts = ts.copy()
    delta = _NODE_SHIFT * float(np.min(np.diff(ts)))
    evs = eig_rows(ts)
    for i in np.flatnonzero(np.min(np.abs(evs[1:-1]), axis=1) <= eps) + 1:
        for _ in range(3):
            if np.min(np.abs(evs[i])) > eps:
                break
            ts[i] = min(ts[i] + delta, ts[i + 1] - delta)
            evs[i] = eig_at(ts[i])
    return ts, evs


def _stacked_eigs(path: HermitianPath, ts: Sequence[float]) -> Iterator[np.ndarray]:
    """The sorted eigenvalues of A(t) for each t in [0, 1], in order and
    read-only: one stacked eigvalsh per :func:`_chunks` run of consecutive
    t, across grid steps, so no call holds more than _STACK_ENTRIES entries
    (or one matrix) whatever the path's size."""
    for run in _chunks(len(ts), path.dim):
        vals = np.linalg.eigvalsh(path._stack(ts[run]))
        vals.flags.writeable = False
        yield from vals


def _path_eigs(path: HermitianPath, tol: Tolerance):
    """(eig_at, eig_rows, scale, node_eps): the sorted eigenvalues of A(t) as
    a function of t, the same as one array of rows for a sequence of t, the
    largest node entry (at least 1) and the zero threshold at nodes.  Raises
    "degenerate endpoint" when A(0) or A(1) is singular.

    Both read one memo, which holds each distinct t evaluated once, for as
    long as the caller holds them; its arrays are read-only, since every
    caller shares them.  eig_at evaluates a t it lacks alone; eig_rows fills
    those it lacks with :func:`_stacked_eigs`, so the memory a fill takes is
    bounded by _STACK_ENTRIES entries (or one matrix), not by the count of t.
    """
    memo: dict[float, np.ndarray] = {}

    def eig_at(t: float) -> np.ndarray:
        vals = memo.get(t)
        if vals is None:
            vals = memo[t] = np.linalg.eigvalsh(path.value_at(t))
            vals.flags.writeable = False
        return vals

    def eig_rows(ts: Sequence[float]) -> np.ndarray:
        todo = [t for t in ts if t not in memo]
        memo.update(zip(todo, _stacked_eigs(path, todo)))
        return np.array([memo[t] for t in ts]).reshape(len(ts), path.dim)

    if np.min(np.abs(eig_rows([0.0, 1.0]))) <= tol.crossing_eps:
        raise PreconditionError("degenerate endpoint")
    scale = max(1.0, float(np.abs(path._nodes).max()))
    return eig_at, eig_rows, scale, max(tol.crossing_eps, 1e-12 * scale)


def _root(g, lo: float, hi: float, glo: float, ghi: float, width: float
          ) -> tuple[float, float, float]:
    """A sign change of g on [lo, hi], given glo = g(lo) and ghi = g(hi) of
    opposite signs: ITP (Oliveira & Takahashi, ACM TOMS 47, 2021) with
    kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1, its estimate taken
    by Chandrupatla's rule (Adv. Eng. Softw. 28, 1997).

    Each step evaluates g once.  The estimate is the inverse-quadratic
    interpolant's zero through the last point a, the other end b and the
    end c that a replaced, where Chandrupatla's test admits it
    (Phi^2 < xi and (1 - Phi)^2 < 1 - xi, with xi = (a - b) / (c - b) and
    Phi = (g(a) - g(b)) / (g(c) - g(b))), kept width / 2 inside the
    bracket; otherwise, and on the first step, the regula falsi point moved
    by kappa1 (hi - lo)^2 towards the midpoint.  The estimate is then
    projected into the radius around the midpoint that keeps bisection's
    step count plus one.  The bracket shrinks superlinearly on a smooth g,
    and never takes more than ceil(log2((hi - lo) / width)) + 1
    evaluations to reach width (up to the rounding of its ends).  Returns
    (t, lo, hi): the final bracket, and t, an exact zero or the end of the
    final bracket with the smaller |g|, so always a point where g is known.
    """
    k1 = 0.2 / (hi - lo)
    steps = max(int(np.ceil(np.log2((hi - lo) / width))), 0) + 1
    c = gc = None  # the end the last step replaced, beyond the last point
    for j in range(steps):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        radius = 0.5 * width * 2.0 ** (steps - j) - 0.5 * (hi - lo)
        falsi = lo + (hi - lo) * glo / (glo - ghi)
        delta = k1 * (hi - lo) ** 2
        x = falsi + np.sign(mid - falsi) * delta if delta <= abs(mid - falsi) else mid
        if c is not None:
            (a, ga), (b, gb) = ((lo, glo), (hi, ghi)) if c < lo else ((hi, ghi), (lo, glo))
            xi, phi = (a - b) / (c - b), (ga - gb) / (gc - gb)
            if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                s = (ga / (gb - ga) * gc / (gb - gc)
                     + (c - a) / (b - a) * ga / (gc - ga) * gb / (gc - gb))
                x = min(max(a + s * (b - a), lo + 0.5 * width), hi - 0.5 * width)
        if abs(x - mid) > radius:
            x = mid - np.sign(mid - x) * radius
        if not lo < x < hi:
            x = mid
        gx = g(x)
        if gx == 0.0:
            return x, lo, hi
        if (gx < 0.0) == (glo < 0.0):
            c, gc, lo, glo = lo, glo, x, gx
        else:
            c, gc, hi, ghi = hi, ghi, x, gx
    return (lo if abs(glo) <= abs(ghi) else hi), lo, hi


def _branch_events(eig_at, eig_rows, ts: np.ndarray, evs: np.ndarray, touch_eps: float
                   ) -> list[tuple[float, int]]:
    """The sign changes of the sorted eigenvalue branches on the nodes ts,
    whose rows are evs, as events (t, k): k = +1 where a branch rises
    through zero, -1 where it falls.

    The search goes level by level over its intervals, each with a mask of
    the branches still searched on it (all of them at the first level).  A
    searched branch with a zero end, or a level past _MAX_DEPTH, is "grid
    too coarse".  The midpoints of the intervals where some searched branch
    keeps its sign are probed in one eig_rows; each searched branch that
    changes sign goes to :func:`_root`.  The halves of an interval are
    searched again for each branch whose probe changes sign, or falls above
    touch_eps and below half its smaller end, so a branch crossing twice
    between nodes is still found; a probe within touch_eps of zero that
    keeps the ends' sign is a tangency, and adds nothing.
    """
    lo, hi, fa, fb = ts[:-1], ts[1:], evs[:-1], evs[1:]
    live = np.ones(fa.shape, dtype=bool)
    events: list[tuple[float, int]] = []
    depth = 0
    while live.any():
        if depth > _MAX_DEPTH or np.any(live & ((fa == 0.0) | (fb == 0.0))):
            raise PreconditionError("grid too coarse")
        keeps = live & (fa * fb > 0.0)
        mid = 0.5 * (lo + hi)
        probed = keeps.any(axis=1)
        fm = np.zeros_like(fa)
        fm[probed] = eig_rows(mid[probed])
        for i, j in zip(*np.nonzero(live & (fa * fb < 0.0))):
            branch = lambda t, _j=j: float(eig_at(t)[_j])  # noqa: E731
            ends = float(lo[i]), float(hi[i]), float(fa[i, j]), float(fb[i, j])
            events.append((_root(branch, *ends, 1e-15)[0], 1 if fa[i, j] < 0.0 else -1))
        small = (np.abs(fm) > touch_eps) & (np.abs(fm) < 0.5 * np.minimum(np.abs(fa), np.abs(fb)))
        split = keeps & ((fm * fa < 0.0) | small)
        rows = split.any(axis=1)
        lo, hi = np.concatenate([lo[rows], mid[rows]]), np.concatenate([mid[rows], hi[rows]])
        fa, fb = np.concatenate([fa[rows], fm[rows]]), np.concatenate([fm[rows], fb[rows]])
        live = np.concatenate([split[rows], split[rows]])
        depth += 1
    return events


def _merge_events(events: Sequence[tuple[float, int]], radius: float
                  ) -> list[tuple[float, int]]:
    """Events (t, k), sorted by t, each run within radius of its predecessor
    merged into its mean t and the sum of its k."""
    groups: list[list[tuple[float, int]]] = []
    for event in sorted(events):
        if groups and event[0] - groups[-1][-1][0] <= radius:
            groups[-1].append(event)
        else:
            groups.append([event])
    return [(float(np.mean([t for t, _ in group])), sum(k for _, k in group))
            for group in groups]


def _crossing_signature(kernel: np.ndarray, rates: Sequence[np.ndarray],
                        tol: Tolerance) -> int:
    """Signature of the crossing form on the kernel; error when singular.  At a
    kink, given both one-sided rates, (sig Q- + sig Q+) / 2 (Robbin & Salamon,
    Topology 32, 1993): whole, as both have the parity of dim Ker."""
    sigs = []
    for rate in rates:
        q = np.linalg.eigvalsh(symmetrize(kernel.conj().T @ rate @ kernel))
        if np.min(np.abs(q)) <= tol.crossing_eps:
            raise PreconditionError("degenerate crossing")
        sigs.append(int(np.sum(q > 0) - np.sum(q < 0)))
    return sum(sigs) // len(sigs)


def spectral_flow_crossing(path: HermitianPath, tol: Tolerance = DEFAULT_TOL
                           ) -> tuple[int, list[Crossing]]:
    """Spectral flow by crossing-form evaluation at located crossings.

    Returns (flow, crossings).  The events are the sign changes of the
    sorted eigenvalue branches; a branch that touches zero and keeps its
    sign adds nothing and is not listed, wherever it lies.  Preconditions:
    invertible endpoints; every crossing must carry a nondegenerate
    crossing form (for a simple crossing this is the classical
    |<dA v, v>| > crossing_eps condition).  Signs that do not sum to
    n-(A(0)) - n-(A(1)) raise "unresolved cluster": the grid left crossings
    unseen between two nodes.
    """
    eig_at, eig_rows, scale, node_eps = _path_eigs(path, tol)
    ts, evs = _shift_interior_zeros(_refine_grid(path.grid, 8), eig_at, eig_rows, node_eps)
    touch_eps = max(tol.crossing_eps * 1e-3, 1e-13 * scale)
    events = _branch_events(eig_at, eig_rows, ts, evs, touch_eps)

    flow = 0
    crossings: list[Crossing] = []
    for t_star, _ in _merge_events(events, 1e-9):
        if not (0.0 < t_star < 1.0):
            raise PreconditionError("degenerate endpoint")
        vals, vecs = np.linalg.eigh(path.value_at(t_star))
        # never empty: it holds the eigenvalue of least modulus
        kmask = np.abs(vals) <= max(100.0 * np.min(np.abs(vals)), node_eps)
        sgn = _crossing_signature(vecs[:, kmask], path._rates(t_star), tol)
        crossings.append(Crossing(t_star, sgn))
        flow += sgn
    if flow != np.sum(eig_at(0.0) < 0.0) - np.sum(eig_at(1.0) < 0.0):
        raise PreconditionError("unresolved cluster")
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
    eig_at, eig_rows, _, node_eps = _path_eigs(path, tol)
    ts, evs = _shift_interior_zeros(_refine_grid(path.grid, 4), eig_at, eig_rows, node_eps)
    negative = np.sum(evs < 0.0, axis=1)
    detail: list[Crossing] = []
    for i, d in enumerate(negative[:-1] - negative[1:]):
        detail += [Crossing(0.5 * (ts[i] + ts[i + 1]), np.sign(d))] * abs(int(d))
    return int(negative[0] - negative[-1]), detail


# ---------------------------------------------------------------------------
# lagrangian paths and the Maslov index


class _WideStep(InputError):
    """Consecutive frames farther apart than the 0.5 sampling guard."""


@dataclass(frozen=True)
class LagrangianPath:
    """One-parameter family of lagrangian frames on [0, 1].

    Consecutive samples must stay within subspace distance 0.5, a sampling
    adequacy guard: max|sin(phi/2)| <= 0.5 over the eigenphases phi of
    Ua* Ub for their Arnold unitaries.  When ``func`` is given it supplies
    frames at arbitrary parameters; otherwise frames between nodes come
    from the unitary geodesic of the Arnold correspondents.
    """

    grid: np.ndarray
    values: tuple[LagrangianFrame, ...]
    func: Callable[[float], LagrangianFrame] | None = field(default=None, compare=False)
    _geodesic: _Geodesic = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _check_grid(self.grid)
        vals = tuple(self.values)
        if len(vals) != g.size:
            raise InputError("one frame per grid node required")
        if any(not isinstance(v, LagrangianFrame) for v in vals):
            raise InputError("path values must be LagrangianFrame instances")
        n = vals[0].n
        if n == 0:
            raise InputError("path half-dimension must be >= 1")
        if any(v.n != n for v in vals):
            raise InputError("all frames must share one half-dimension")
        between = None if self.func is None else (
            lambda t, func=self.func: lagrangian_to_unitary(_frame_of(func, t, n)))
        geodesic = _Geodesic(g, [lagrangian_to_unitary(v) for v in vals], between)
        steps = geodesic.steps()
        # a step past the principal log's reach is wider still
        if (any(step is None for step in steps)
                or np.max(np.abs(np.sin(0.5 * np.array([phi for phi, _ in steps])))) > 0.5 + 1e-9):
            raise _WideStep("consecutive frames exceed subspace distance 0.5")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_geodesic", geodesic)

    @classmethod
    def from_function(cls, func, nodes: int = 17) -> "LagrangianPath":
        """Sample a frame-valued function, refining until the 0.5 guard holds."""
        count = max(int(nodes), 2)
        for _ in range(8):
            grid = np.linspace(0.0, 1.0, count)
            try:
                return cls(grid, tuple(func(t) for t in grid), func)
            except _WideStep:
                count = 2 * count - 1
        raise InputError("consecutive frames exceed subspace distance 0.5")

    @property
    def n(self) -> int:
        return self.values[0].n

    def frame_at(self, t: float) -> LagrangianFrame:
        t = min(max(float(t), 0.0), 1.0)
        if self.func is not None:
            return _frame_of(self.func, t, self.n)
        i, s = _bracket(self.grid, t)
        if 0.0 < s < 1.0:
            return cayley_graph(self._geodesic.at(t))
        return self.values[i + (s >= 1.0)]


def _frame_of(func, t: float, n: int) -> LagrangianFrame:
    """func(t), a ``func`` path's frame; an input error unless a frame of half-dimension n."""
    frame = func(t)
    if not isinstance(frame, LagrangianFrame):
        raise InputError("path values must be LagrangianFrame instances")
    if frame.n != n:
        raise InputError("all frames must share one half-dimension")
    return frame


def _step_angles(ua: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases phi of R = Ua* Ub, and R's orthonormal eigenvectors.

    The step from Ua to Ub is the geodesic Ua exp(s log R), 0 <= s <= 1,
    along which arg det U moves by exactly sum(phi).  It needs the
    principal log, so a step with some |phi| > pi - 1e-6 is too coarse.

    With R' = e^{-i alpha} R, the Cayley transform K = i (1 - R')(1 + R')^-1
    is Hermitian, and eigh(K) = (mu, V) gives phi = alpha + 2 arctan(mu).
    alpha = 0 is accurate while every |phi| <= pi/2, where cond(1 + R) <=
    sqrt(2); a step past that is solved again with the pole -e^{i alpha} in
    the middle of the widest gap of the first pass's phases (near the pole
    they are off by about 1e-9, far inside any gap).  R's eigenvalue
    -(1 - d), d of rounding, gives K the eigenvalue i (2 - d) / d, which
    eigh's symmetric part reads as phi = 0: so a first pass with max|K - K*|
    > 1 + max|mu| is skewed, and the pole goes in the widest gap of
    np.angle(eigvals(R)).  1 + R exactly singular is a phase of pi: too coarse.
    """
    return _principal(ua.conj().T @ ub)


def _principal(r: np.ndarray, first=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_step_angles` of the step R, from ``first``, its alpha = 0 pass,
    when given."""
    try:
        phi, vecs, skewed = _cayley_angles(r, 0.0) if first is None else first
    except np.linalg.LinAlgError:  # R has the eigenvalue -1
        raise PreconditionError("grid too coarse") from None
    if skewed or np.max(np.abs(phi)) > 0.5 * np.pi:
        theta = np.sort(np.angle(np.linalg.eigvals(r)) if skewed else phi)
        gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
        j = int(np.argmax(gaps))
        phi, vecs, _ = _cayley_angles(r, theta[j] + 0.5 * gaps[j] - np.pi)
        phi -= 2.0 * np.pi * np.round(phi / (2.0 * np.pi))
    if np.max(np.abs(phi)) > np.pi - 1e-6:
        raise PreconditionError("grid too coarse")
    return phi, vecs


def _steps_angles(uas: Sequence[np.ndarray], ubs: Sequence[np.ndarray]
                  ) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
    """:func:`_step_angles` of each step Ua -> Ub, in order, None where it
    raises "grid too coarse".  The alpha = 0 pass runs on :func:`_chunks`
    stacks (stacked @, solve and eigh, which treat each matrix alone); only a
    step with some |phi| > pi/2 takes a second pass, and a stack whose solve
    meets an exactly singular 1 + R is solved again step by step.  Steps
    come a stack at a time, so a caller that keeps only phi holds one
    stack's V."""
    for run in _chunks(len(uas), uas[0].shape[0]):
        rs = np.stack(uas[run]).conj().transpose(0, 2, 1) @ np.stack(ubs[run])
        try:
            firsts = list(zip(*_cayley_angles(rs, 0.0)))
        except np.linalg.LinAlgError:
            firsts = [None] * len(rs)
        for r, first in zip(rs, firsts):
            try:
                yield _principal(r, first)
            except PreconditionError:
                yield None


def _cayley_angles(r: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha + 2 arctan(mu), V, skewed) for eigh(K + K*) / 2 = (mu, V) of the
    Cayley transform K of e^{-i alpha} R, or of each R of a stack, not
    wrapped; skewed is max|K - K*| > 1 + max|mu|, K far from Hermitian.
    LinAlgError when -1 is an eigenvalue."""
    eye = np.eye(r.shape[-1])
    rot = np.exp(-1j * alpha) * r
    k = 1j * np.linalg.solve(eye + rot, eye - rot)
    k_star = np.swapaxes(k.conj(), -1, -2)
    mu, vecs = np.linalg.eigh(0.5 * (k + k_star))
    skewed = np.abs(k - k_star).max(axis=(-2, -1)) > 1.0 + np.abs(mu).max(axis=-1)
    return alpha + 2.0 * np.arctan(mu), vecs, skewed


class _Geodesic:
    """U(t) of a path or loop: its node unitaries on the grid, and between the
    nodes ``between(t)`` for a ``func`` path, else the unitary geodesics; the
    one place that tells the two apart.

    All grid steps are decomposed together when the first is read: (phi, V)
    of :func:`_steps_angles` for each U_i* U_i+1, None for a step that is
    too coarse; a ``func`` path keeps (phi, None), as its U(t) comes from
    ``between``.  At s = (t - t_i) / h on step i, of length h, the geodesic
    is U(t) = U_i V diag(e^{i s phi}) V*, and arg det U has turned by
    s sum(phi).  The owner keeps the nodes
    unchanged; concurrent readers may decompose the steps, or count, twice.
    """

    def __init__(self, grid: np.ndarray, nodes: Sequence[np.ndarray], between=None):
        self.grid = grid
        self.nodes = tuple(nodes)
        self.between = between
        self._steps = None
        self._counted = None

    def steps(self) -> list[tuple[np.ndarray, np.ndarray | None] | None]:
        steps = self._steps
        if steps is None:
            steps = self._steps = [
                step if step is None or self.between is None else (step[0], None)
                for step in _steps_angles(self.nodes[:-1], self.nodes[1:])]
        return steps

    def step(self, i: int) -> tuple[np.ndarray, np.ndarray | None]:
        step = self.steps()[i]
        if step is None:
            raise PreconditionError("grid too coarse")
        return step

    def at(self, t: float) -> np.ndarray:
        i, s = _bracket(self.grid, t)
        if not 0.0 < s < 1.0:
            return self.nodes[i + (s >= 1.0)]
        if self.between is not None:
            return self.between(t)
        phi, vecs = self.step(i)
        return self.nodes[i] @ ((vecs * np.exp(1j * s * phi)) @ vecs.conj().T)

    def counted(self, u_at) -> tuple[np.ndarray, tuple[float, ...]]:
        """(ts, turns): the steps [ts_j, ts_j+1] a determinant count reads, the
        grid's or :func:`_checked_steps`, and sum(phi) on each, kept from the
        first count; u_at is the call's cached :meth:`at`."""
        counted = self._counted
        if counted is None:
            g = self.grid
            steps = ([(g[i], g[i + 1], self.step(i)[0]) for i in range(g.size - 1)]
                     if self.between is None else _checked_steps(self, u_at))
            counted = self._counted = (np.array([a for a, _, _ in steps] + [1.0]),
                                       tuple(float(np.sum(phi)) for _, _, phi in steps))
        return counted

    def turn(self, a: float, b: float, u_at) -> float:
        """The turn of arg det U over [a, b] in a counted step: its share of the
        step's on a sampled path, that of the geodesic U(a)-U(b) on a ``func``
        path (whole steps are counted from :meth:`counted`'s turns)."""
        if self.between is not None:
            return _turn(u_at, a, b)
        ts, turns = self.counted(u_at)
        j, _ = _bracket(ts, 0.5 * (a + b))
        return (b - a) / (ts[j + 1] - ts[j]) * turns[j]


def _checked_steps(geodesic: _Geodesic, u_at) -> list[tuple[float, float, np.ndarray]]:
    """(a, b, phi) of a ``func`` path's counted steps: grid steps halved while
    some |phi| > pi/2, and checked: one more halving must leave every turn.
    Each halving level, and the check's halves, are decomposed together."""

    def halved(steps):  # (a, b, phi) of both halves of each step, phi None past reach
        pairs = [pair for a, b, _ in steps for m in [0.5 * (a + b)] for pair in ((a, m), (m, b))]
        ends = [(u_at(a), u_at(b)) for a, b in pairs]
        found = _steps_angles([ua for ua, _ in ends], [ub for _, ub in ends])
        return [(a, b, None if step is None else step[0]) for (a, b), step in zip(pairs, found)]

    g = geodesic.grid
    steps = [(g[i], g[i + 1], None if step is None else step[0])
             for i, step in enumerate(geodesic.steps())]
    for _ in range(_MAX_SPLITS):
        wide = [phi is None or np.max(np.abs(phi)) > 0.5 * np.pi for _, _, phi in steps]
        if not any(wide):
            break
        halves = iter(halved([step for step, w in zip(steps, wide) if w]))
        steps = [piece for step, w in zip(steps, wide)
                 for piece in ((next(halves), next(halves)) if w else (step,))]
    else:
        raise PreconditionError("grid too coarse")
    halves = halved(steps)
    for (_, _, phi), (_, _, left), (_, _, right) in zip(steps, halves[::2], halves[1::2]):
        if left is None or right is None or _whole(
                (float(np.sum(left)) + float(np.sum(right)) - float(np.sum(phi))) / (2.0 * np.pi)):
            raise PreconditionError("grid too coarse")
    return steps


def _turn(u_at, a: float, b: float) -> float:
    """sum(phi) of :func:`_step_angles`: the turn of arg det U along the geodesic U(a)-U(b)."""
    return float(np.sum(_step_angles(u_at(a), u_at(b))[0]))


def _whole(x: float) -> int:
    """A determinant count, rounded; off by more than rounding, a step was too coarse."""
    k = round(x)
    if abs(x - k) > 1e-6:
        raise PreconditionError("grid too coarse")
    return int(k)


def _node_phases(nodes: Sequence[np.ndarray]) -> np.ndarray:
    """np.angle(np.linalg.eigvals(U)) of each U, one row per U: one stacked
    eigvals per :func:`_chunks` run."""
    return np.concatenate([np.angle(np.linalg.eigvals(np.stack(nodes[run])))
                           for run in _chunks(len(nodes), nodes[0].shape[0])])


def maslov_index(path: LagrangianPath, tol: Tolerance = DEFAULT_TOL
                 ) -> tuple[int, list[Crossing]]:
    """Maslov index: signed crossings with the train {dim(L ∩ H-) >= 1}.

    The index is the net number of passages of the eigenphases of U(t)
    through pi, read off det U (Arnold 1967; Cappell, Lee & Miller 1994;
    Phillips 1996; see the module docstring).  On a geodesic step from U_a to U_b, with
    phi the eigenphases of U_a* U_b and theta in (-pi, pi] those of U,

        c = (sum(phi) + sum(theta(U_a)) - sum(theta(U_b))) / 2 pi

    passages happen, and the index is sum(c).  Steps with c != 0 are
    located to width 1e-14: a piece with c = +-1 whose ends bracket a sign
    change c of arg(-lambda), lambda the eigenvalue of U nearest -1, by
    :func:`_root`, kept when the final bracket counts c again (the nearest
    eigenvalue can change between the ends, and arg(-lambda) jump across
    0 with no passage), and every other piece by halving on the count.
    Each crossing is listed with the passages it was located with, events
    within 1e-9 merged into their mean t and summed, so the signs sum to
    the index (module docstring).  A +1 and a -1 inside one step cancel in
    c and are not listed, and neither is an event whose passages sum to 0.
    Such is a touch of -1, on a node or within a step, which the count sees
    as a passage and one back: a tangency, no event, as in
    :func:`spectral_flow_crossing`.  The count is
    exact for the geodesic interpolant of a sampled path; for a ``func``
    path see :func:`_checked_steps`, and a path that winds a full turn between
    two samples is beyond any sampler.  Endpoints must be transversal to H-.
    """
    geodesic = path._geodesic
    u_at = cache(geodesic.at)
    memo = dict(zip(geodesic.grid, _node_phases(geodesic.nodes)))

    def phases(t):  # theta(U(t)), in (-pi, pi]
        p = memo.get(t)
        if p is None:
            p = memo[t] = np.angle(np.linalg.eigvals(u_at(t)))
        return p

    for t in (0.0, 1.0):  # |cos(theta/2)| are the singular values of the top block
        # X = (1 + U)(X + iY)/2 of an orthonormal frame [X; Y], as X + iY is unitary
        if (np.min(np.abs(np.abs(phases(t)) - np.pi)) <= 1e-12
                or np.min(np.abs(np.cos(0.5 * phases(t)))) <= tol.rank_eps):
            raise PreconditionError("degenerate endpoint")

    ts, turns = geodesic.counted(u_at)
    theta = lambda t: float(np.sum(phases(t)))  # noqa: E731
    passages = lambda a, b: _whole(  # noqa: E731
        (geodesic.turn(a, b, u_at) + theta(a) - theta(b)) / (2.0 * np.pi))
    # passages(a, b) of every counted step at once, a whole step turning by
    # its turn; |count| <= 1e-6 is _whole's 0, so only the other steps are
    # walked: those with passages, or with a count off a whole number
    sums = np.array([theta(t) for t in ts])
    counts = (np.array(turns) + sums[:-1] - sums[1:]) / (2.0 * np.pi)

    def near(t):  # arg(-lambda) for the eigenvalue lambda of U(t) nearest -1
        phase = phases(t)[np.argmax(np.abs(phases(t)))]
        return float(phase - np.pi if phase > 0.0 else phase + np.pi)

    events: list[tuple[float, int]] = []
    total = 0
    for j in np.flatnonzero(np.abs(counts) > 1e-6):
        a, b, c = ts[j], ts[j + 1], _whole(float(counts[j]))
        total += c
        pending = [(a, b, c, True)]
        while pending:  # pieces [lo, hi] holding k passages, located to 1e-14
            lo, hi, k, seek = pending.pop()
            if not k:
                continue
            if hi - lo < 1e-14:
                events.append((0.5 * (lo + hi), k))
                continue
            glo, ghi = near(lo), near(hi)
            if seek and glo * ghi < 0.0 and np.sign(ghi) == k:
                t, left, right = _root(near, lo, hi, glo, ghi, 1e-14)
                if passages(left, right) == k:
                    events.append((t, k))
                    continue
                seek = False  # a jump of near, not the passage: halve from here on
            mid = 0.5 * (lo + hi)
            left = passages(lo, mid)
            pending += [(mid, hi, k - left, seek), (lo, mid, left, seek)]

    return total, [Crossing(t, k) for t, k in _merge_events(events, 1e-9) if k]
