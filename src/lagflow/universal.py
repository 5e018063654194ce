"""The universal family -i d/dt on [0, 1] with boundary condition f(1) = U f(0).

Separation of variables gives the exact spectrum: f(t) = e^{i lam t} f(0)
satisfies the boundary condition iff e^{i lam} is an eigenvalue of U, so
the eigenvalues are theta_j + 2 pi k with e^{i theta_j} the eigenvalues
of U and theta_j in (-pi, pi].  A centered-difference discretization with
the U-twisted wrap block is Hermitian by construction and reproduces the
low modes at second order in 1/m.

Along a loop in U(N) the boundary operators have an integer spectral
flow: an eigenvalue theta_j + 2 pi k crosses zero whenever an eigenphase
passes through 0.  Its total is the winding number of det U, the pull-back
of the first generator of the odd K-theory of the unitary group (Phillips,
"Self-adjoint Fredholm operators and spectral flow", Canad. Math. Bull. 39,
1996; the Maslov index of the Cayley graphs gives the same integer,
Cappell, Lee & Miller, CPAM 47, 1994, after Arnold, Funct. Anal. Appl. 1,
1967).  The symplectic reduction of the family by the complement of the
constant functions lands back in U(N) as the Moebius involution

    U |-> (1 - 3U)(3 - U)^{-1},

whose Cayley graph equals the directly reduced boundary lagrangian
{(i(1-U)b, (1+U)b/2)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .errors import InputError, PreconditionError
from .flow import HermitianPath, _check_grid, _Geodesic, _whole
from .grassmann import LagrangianFrame
from .linalg import orthonormalize, require_unitary

__all__ = [
    "UnitaryLoop",
    "exact_spectrum",
    "discretize_operator",
    "universal_loop_flow",
    "universal_reduction",
    "reduced_boundary_frame",
    "discretized_path",
]

_MIN_NODES = 16


def exact_spectrum(u, window: tuple[float, float]) -> np.ndarray:
    """Sorted eigenvalues theta_j + 2 pi k of the boundary operator in [a, b].

    Every unitary eigenphase contributes one entry per admissible k, so
    multiplicities of e^{i theta} are reflected verbatim.
    """
    u = require_unitary(u)
    a, b = float(window[0]), float(window[1])
    if not (np.isfinite(a) and np.isfinite(b) and a <= b):
        raise InputError("window must be a finite interval")
    phases = np.angle(np.linalg.eigvals(u))
    out = []
    for theta in phases:
        k_lo = int(np.ceil((a - theta) / (2 * np.pi) - 1e-15))
        k_hi = int(np.floor((b - theta) / (2 * np.pi) + 1e-15))
        out.extend(theta + 2 * np.pi * k for k in range(k_lo, k_hi + 1))
    return np.sort(np.array(out))


def discretize_operator(u, m: int) -> np.ndarray:
    """Centered-difference model of -i d/dt with the U-twisted wrap.

    m nodes t_l = l/m; the shift couples node m-1 back to node 0 through
    U, so  D = (-i/2h) (S - S*)  is Hermitian exactly and its low
    eigenvalues are m sin((theta + 2 pi k)/m), an O(1/m^2) approximation
    of the exact spectrum.
    """
    u = require_unitary(u)
    if m < _MIN_NODES:
        raise InputError("discretization needs at least 16 nodes")
    n = u.shape[0]
    h = 1.0 / m
    shift = np.zeros((m * n, m * n), dtype=np.complex128)
    eye = np.eye(n)
    for l in range(m - 1):
        shift[l * n:(l + 1) * n, (l + 1) * n:(l + 2) * n] = eye
    shift[(m - 1) * n:, :n] = u
    return (-1j / (2.0 * h)) * (shift - shift.conj().T)


@dataclass(frozen=True)
class UnitaryLoop:
    """Closed sampled path in U(N) on [0, 1] with matching endpoints."""

    grid: np.ndarray
    values: tuple[np.ndarray, ...]
    func: Callable[[float], np.ndarray] | None = field(default=None, compare=False)
    _geodesic: _Geodesic = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = _check_grid(self.grid)
        vals = tuple(np.array(require_unitary(v)) for v in self.values)
        if len(vals) != g.size:
            raise InputError("one unitary per grid node required")
        dim = vals[0].shape[0]
        if dim == 0:
            raise InputError("loop dimension must be >= 1")
        if any(v.shape[0] != dim for v in vals):
            raise InputError("all loop values must share one dimension")
        if np.abs(vals[0] - vals[-1]).max() > 1e-9:
            raise InputError("loop endpoints do not match")
        for v in vals:  # read-only copies: a later edit of the caller's reaches no cached step
            v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", vals)
        between = None if self.func is None else (
            lambda t, func=self.func: _loop_value(func, t, dim))
        object.__setattr__(self, "_geodesic", _Geodesic(g, vals, between))

    @classmethod
    def from_function(cls, func, nodes: int = 33) -> "UnitaryLoop":
        grid = np.linspace(0.0, 1.0, max(int(nodes), 2))
        return cls(grid, tuple(func(t) for t in grid), func)

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        return self._geodesic.at(min(max(float(t), 0.0), 1.0))


def _loop_value(func, t: float, dim: int) -> np.ndarray:
    """func(t), a ``func`` loop's unitary; an input error when its size is not dim."""
    u = require_unitary(func(t))
    if u.shape[0] != dim:
        raise InputError("all loop values must share one dimension")
    return u


def universal_loop_flow(loop: UnitaryLoop) -> int:
    """Spectral flow of the boundary operators along a loop of unitaries.

    The flow is the winding number of det U (Phillips 1996; Cappell, Lee &
    Miller 1994; Arnold 1967; see the module docstring).  On the geodesic
    step from U_a to U_b, arg det U turns by sum(phi), phi the eigenphases
    of U_a* U_b, and the flow is the sum of these turns over the loop
    divided by 2 pi.  No eigenphase is matched or lifted.  The count is exact for
    the geodesic interpolant of a sampled loop; a ``func`` loop is counted on
    steps refined and checked once per loop (``flow._checked_steps``), else
    "grid too coarse".  A loop that winds a full turn between two samples
    is beyond any sampler.
    """
    phases0 = np.angle(np.linalg.eigvals(loop.value_at(0.0)))
    if np.min(np.abs(phases0)) <= 1e-12:
        raise PreconditionError("degenerate endpoint")
    _, turns = loop._geodesic.counted(cache(loop._geodesic.at))
    return _whole(sum(turns) / (2.0 * np.pi))


def universal_reduction(u) -> np.ndarray:
    """The Moebius involution (1 - 3U)(3 - U)^{-1} of the unitary group."""
    u = require_unitary(u)
    n = u.shape[0]
    return (np.eye(n) - 3.0 * u) @ np.linalg.inv(3.0 * np.eye(n) - u)


def reduced_boundary_frame(u) -> LagrangianFrame:
    """Frame of the reduced boundary lagrangian {(i(1-U)b, (1+U)b/2)}.

    Equals the Cayley graph of universal_reduction(u) as a subspace.
    """
    u = require_unitary(u)
    n = u.shape[0]
    raw = np.vstack([1j * (np.eye(n) - u), 0.5 * (np.eye(n) + u)])
    return LagrangianFrame(orthonormalize(raw))


def discretized_path(loop: UnitaryLoop, m: int = 256):
    """Hermitian path of discretized boundary operators along a loop."""
    return HermitianPath.from_function(
        lambda t: discretize_operator(loop.value_at(t), m),
        nodes=max(loop.grid.size, 9),
    )
