"""Lagrangian subspaces of C^n + C^n and the unitary correspondence.

The ambient space carries the complex structure

    J = [[0, I], [-I, 0]]

in the H+ (+) H- block split, and a subspace L of dimension n is lagrangian
when JL is its orthocomplement.  Lagrangians are stored as orthonormal
2n x n frames.  The Cayley graph map

    U  |->  span{ ((1+U)v, -i(1-U)v) : v in C^n }

is a bijection onto the lagrangians.  For an orthonormal lagrangian frame
Z = [X; Y] the matrices X + iY and X - iY are unitary (Z*Z = 1 and
Z*JZ = 0), and the inverse is

    L = span Z  |->  U = (X - iY)(X + iY)*,

since the Cayley frame of this U is Z (X + iY)*, a change of basis of Z.

The -i in the second Cayley component is a sign convention: it makes the
scalar chart map  lam |-> i(1+lam)/(1-lam)  orientation preserving, which
every downstream sign (Maslov, intersection numbers) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _eigh,
    as_complex_matrix,
    require_hermitian,
    require_unitary,
)

__all__ = [
    "LagrangianFrame",
    "J_matrix",
    "standard_lagrangians",
    "cayley_graph",
    "lagrangian_to_unitary",
    "reflection_of",
    "graph_projection",
    "chart_point",
    "chart_coordinates",
    "switched_graph",
    "unitary_of_operator",
]

_FRAME_TOL = 1e-10


def J_matrix(n: int) -> np.ndarray:
    """The 2n x 2n complex structure [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@dataclass(frozen=True)
class LagrangianFrame:
    """Orthonormal 2n x n frame spanning a lagrangian subspace."""

    frame: np.ndarray

    def __post_init__(self):
        z = np.array(as_complex_matrix(self.frame))
        if z.shape[0] != 2 * z.shape[1]:
            raise InputError("lagrangian frame must be 2n x n")
        n = z.shape[1]
        gram = z.conj().T @ z
        if np.abs(gram - np.eye(n)).max(initial=0.0) > _FRAME_TOL:
            raise InputError("frame columns are not orthonormal")
        form = z[:n].conj().T @ z[n:] - z[n:].conj().T @ z[:n]  # Z*JZ, as JZ = [Y; -X]
        if np.abs(form).max(initial=0.0) > _FRAME_TOL:
            raise InputError("frame does not span a lagrangian subspace")
        z.flags.writeable = False  # a read-only copy: a later edit of the caller's reaches no path
        object.__setattr__(self, "frame", z)

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    def projection(self) -> np.ndarray:
        """Orthogonal projection Z Z* onto the subspace."""
        return self.frame @ self.frame.conj().T


def standard_lagrangians(n: int) -> tuple[LagrangianFrame, LagrangianFrame]:
    """The horizontal and vertical coordinate lagrangians ([I;0], [0;I])."""
    if n < 1:
        raise InputError("dimension must be >= 1")
    top = np.vstack([np.eye(n), np.zeros((n, n))]).astype(np.complex128)
    bot = np.vstack([np.zeros((n, n)), np.eye(n)]).astype(np.complex128)
    return LagrangianFrame(top), LagrangianFrame(bot)


def cayley_graph(u) -> LagrangianFrame:
    """Lagrangian spanned by ((1+U)v, -i(1-U)v).

    The raw column block M = [1+U; -i(1-U)] satisfies M*M = 4I for unitary
    U, so M/2 is already an orthonormal frame; no re-orthonormalization is
    performed.
    """
    u = require_unitary(u)
    n = u.shape[0]
    eye = np.eye(n)
    m = np.vstack([eye + u, -1j * (eye - u)])
    return LagrangianFrame(0.5 * m)


def lagrangian_to_unitary(lag: LagrangianFrame) -> np.ndarray:
    """Inverse of the Cayley graph map: U = (X - iY)(X + iY)* for Z = [X; Y].

    Independent of the orthonormal frame chosen for L; exact inverse of
    :func:`cayley_graph` up to rounding.
    """
    n = lag.n
    x, y = lag.frame[:n], lag.frame[n:]
    return (x - 1j * y) @ (x + 1j * y).conj().T


def reflection_of(lag: LagrangianFrame) -> np.ndarray:
    """Orthogonal reflection R = 2ZZ* - I; R^2 = I, R = R*, RJ = -JR."""
    z = lag.frame
    return 2.0 * (z @ z.conj().T) - np.eye(2 * lag.n)


def _inv_sqrt_eye_plus_sq(s: np.ndarray) -> np.ndarray:
    # (1 + S^2)^(-1/2) for a checked Hermitian S, or for each of a stack of them,
    # via eigendecomposition
    vals, vecs = _eigh(s)
    return (vecs * (1.0 / np.sqrt(1.0 + vals**2))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _switched_graph(t: np.ndarray) -> tuple[LagrangianFrame, np.ndarray]:
    # frame [T; I] B of a checked Hermitian T's switched graph, B = (1 + T^2)^(-1/2)
    b = _inv_sqrt_eye_plus_sq(t)
    return LagrangianFrame(np.vstack([t, np.eye(t.shape[0])]) @ b), b


def _chart_frames(base: LagrangianFrame, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # validated chart coordinate S, the base frame Z0 and J Z0
    s = require_hermitian(s)
    if s.shape[0] != base.n:
        raise InputError("chart coordinate size does not match the base frame")
    return s, base.frame, J_matrix(base.n) @ base.frame


def chart_point(base: LagrangianFrame, s) -> LagrangianFrame:
    """Lagrangian {v + JSv : v in L0}, the Arnold-chart point of S.

    S is the Hermitian chart coordinate in the basis of ``base``'s frame.
    The raw frame Z0 + (J Z0) S has Gram matrix 1 + S^2, so the
    orthonormalized frame is (Z0 + J Z0 S)(1+S^2)^(-1/2).
    """
    s, z0, jz0 = _chart_frames(base, s)
    raw = z0 + jz0 @ s
    return LagrangianFrame(raw @ _inv_sqrt_eye_plus_sq(s))


def graph_projection(base: LagrangianFrame, s) -> np.ndarray:
    """Orthogonal projection onto chart_point(base, S), by the block formula.

    In the L0 (+) L0-perp split (frames Z0 and J Z0, in which J: L0 ->
    L0-perp is the identity matrix) the projection has blocks

        [ (1+S^2)^-1      (1+S^2)^-1 S   ]
        [ (1+S^2)^-1 S    (1+S^2)^-1 S^2 ]

    assembled back to a 2n x 2n ambient matrix.
    """
    s, z0, jz0 = _chart_frames(base, s)
    inv = np.linalg.inv(np.eye(base.n) + s @ s)
    basis = np.hstack([z0, jz0])
    blocks = np.block([[inv, inv @ s], [s @ inv, s @ inv @ s]])
    return basis @ blocks @ basis.conj().T


def chart_coordinates(lag: LagrangianFrame, base: LagrangianFrame,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian S with chart_point(base, S) = lag, when lag is in the chart.

    The chart condition is invertibility of R_L + R_L0; numerically its
    smallest singular value must exceed rank_eps.
    """
    if lag.n != base.n:
        raise InputError("frames live in different ambient dimensions")
    r_sum = reflection_of(lag) + reflection_of(base)
    smin = np.linalg.svd(r_sum, compute_uv=False)[-1]
    if smin <= tol.rank_eps:
        raise PreconditionError("not in chart")
    z0 = base.frame
    jz0 = J_matrix(base.n) @ z0
    a = z0.conj().T @ lag.frame       # P_L0 restricted to L, in coordinates
    b = jz0.conj().T @ lag.frame      # P_L0perp restricted to L
    s = b @ np.linalg.inv(a)
    herm_defect = np.abs(s - s.conj().T).max()
    if herm_defect > 1e-6 * max(1.0, np.abs(s).max()):
        raise PreconditionError("not in chart")
    return 0.5 * (s + s.conj().T)


def switched_graph(t) -> LagrangianFrame:
    """Lagrangian {(Tw, w)} encoding a Hermitian operator T."""
    return _switched_graph(require_hermitian(t))[0]


def unitary_of_operator(t) -> np.ndarray:
    """Unitary U = 1 - 2i (T + i)^{-1} whose Cayley graph is switched_graph(T)."""
    t = require_hermitian(t)
    n = t.shape[0]
    return np.eye(n) - 2j * np.linalg.inv(t + 1j * np.eye(n))
