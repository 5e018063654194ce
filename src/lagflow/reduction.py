"""Symplectic reduction of lagrangians and unitaries.

An isotropic subspace here is always a subspace W of the vertical space
H-; its annihilator is W^omega = (JW)-perp and the reduced space
H_W = (W (+) JW)-perp is J-invariant of dimension 2q, q = n - dim W.
Clean lagrangians (L ∩ W = 0) reduce by

    L  |->  P_{H_W} (L ∩ W^omega),

a lagrangian of H_W.  On the unitary side the same operation is the
Schur complement

    R(U) = T - Z (lam + X)^{-1} Y,       U = [[X, Y], [Z, T]]

in the W (+) W-perp split of C^n, with lam = 1 by default; it preserves
dim Ker(lam + U).

Reduced-space convention: H_W is identified with C^q (+) C^q through the
frame (a_1..a_q, b_1..b_q) where b_i = (0, v_i), a_i = (v_i, 0) and
(v_i) is a deterministic, index-ordered orthonormal basis of the
orthocomplement of W inside H-.  When W is spanned by trailing flag
vectors f_{p+1}, ..., f_n this reproduces the leading e/f basis vectors in
index order, and it makes lagrangian and unitary reduction directly
comparable:  reduce of C(U)  =  C of reduce(U)  in these coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .grassmann import J_matrix, LagrangianFrame
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_complex_matrix,
    orthocomplement_basis,
    orthonormalize,
    require_unitary,
    subspace_intersection_basis,
    subspace_intersection_dim,
)

__all__ = [
    "IsotropicSubspace",
    "annihilator_and_reduced",
    "reduce_lagrangian",
    "reduce_unitary",
    "generalized_reduce",
]

_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class IsotropicSubspace:
    """Orthonormal frame of a subspace W of the vertical space H-.

    The frame is 2n x p with vanishing H+ components, and n is read from
    its rows.  p = 0 (trivial W) and p = n (W lagrangian) are both allowed.
    """

    frame: np.ndarray

    def __post_init__(self):
        frame = as_complex_matrix(self.frame)
        rows, p = frame.shape
        if rows < 2 or rows % 2 or p > rows // 2:
            raise InputError("isotropic frame must be 2n x p with n >= 1 and p <= n")
        n = rows // 2
        if p and np.abs(frame[:n]).max(initial=0.0) > _BLOCK_TOL:
            raise InputError("isotropic frame must be supported in the H- block")
        gram = frame.conj().T @ frame
        if np.abs(gram - np.eye(p)).max(initial=0.0) > 1e-10:
            raise InputError("isotropic frame columns are not orthonormal")
        object.__setattr__(self, "frame", frame)

    @property
    def ambient_n(self) -> int:
        return self.frame.shape[0] // 2

    @property
    def p(self) -> int:
        return self.frame.shape[1]

    @property
    def codim_in_hminus(self) -> int:
        return self.ambient_n - self.p

    @property
    def h_part(self) -> np.ndarray:
        """n x p coordinates of W inside H (the H- block rows)."""
        return self.frame[self.ambient_n:]

    @classmethod
    def from_h_minus_vectors(cls, n: int, vectors) -> "IsotropicSubspace":
        """Build from an n x p array of H- coordinates (orthonormalized)."""
        v = orthonormalize(vectors)
        if v.shape[0] != n:
            raise InputError(f"W frame must be n x p, its H- coordinates, with n = {n}")
        return cls(np.vstack([np.zeros((n, v.shape[1])), v]))

    @classmethod
    def from_flag_indices(cls, n: int, indices) -> "IsotropicSubspace":
        """Span of the listed standard H- basis vectors f_i (1-based)."""
        idx = sorted(set(int(i) for i in indices))
        if any(i < 1 or i > n for i in idx):
            raise InputError("flag indices must lie in 1..n")
        v = np.zeros((n, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            v[i - 1, col] = 1.0
        return cls.from_h_minus_vectors(n, v)


def _reduced_space_frame(w: IsotropicSubspace) -> np.ndarray:
    """Canonical H_W frame [a_1..a_q, b_1..b_q] built from the n x q basis v."""
    n = w.ambient_n
    v = orthocomplement_basis(w.h_part)
    q = v.shape[1]
    c = np.zeros((2 * n, 2 * q), dtype=np.complex128)
    c[:n, :q] = v
    c[n:, q:] = v
    return c


def _annihilator(w: IsotropicSubspace) -> np.ndarray:
    """Orthonormal frame of W^omega = (JW)-perp, 2n x (2n - p)."""
    n = w.ambient_n
    return orthocomplement_basis(J_matrix(n) @ w.frame)


def annihilator_and_reduced(w: IsotropicSubspace) -> tuple[np.ndarray, np.ndarray]:
    """Frames of the annihilator W^omega = (JW)-perp and the reduced space H_W.

    H_W comes back in the canonical split frame [a_1..a_q | b_1..b_q]; its
    span is J-invariant and the coordinate map x -> C*x intertwines J with
    the standard complex structure of C^q (+) C^q.
    """
    return _annihilator(w), _reduced_space_frame(w)


def reduce_lagrangian(lag: LagrangianFrame, w: IsotropicSubspace,
                      tol: Tolerance = DEFAULT_TOL) -> LagrangianFrame:
    """Symplectic reduction P_{H_W}(L ∩ W^omega) of a clean lagrangian.

    The result is a lagrangian frame in the reduced coordinates C^q (+) C^q
    fixed by the module convention.  Raises "not clean" when dim(L ∩ W) > 0
    at the given tolerance.
    """
    if lag.n != w.ambient_n:
        raise InputError("lagrangian and isotropic space have different ambient dimensions")
    if subspace_intersection_dim(lag.frame, w.frame, tol) > 0:
        raise PreconditionError("not clean")
    ell, _ = generalized_reduce(lag, w, tol)
    return ell


def generalized_reduce(lag: LagrangianFrame, w: IsotropicSubspace,
                       tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[LagrangianFrame, np.ndarray]:
    """Generalized reduction (P_{H_W}(L ∩ W^omega), L ∩ W) for k-clean L.

    Returns the reduced lagrangian in the canonical C^q (+) C^q coordinates
    together with an ambient orthonormal frame of V = L ∩ W (2n x k, k may
    be zero).
    """
    if lag.n != w.ambient_n:
        raise InputError("lagrangian and isotropic space have different ambient dimensions")
    v_frame = subspace_intersection_basis(lag.frame, w.frame, tol)
    cap = subspace_intersection_basis(lag.frame, _annihilator(w), tol)
    c = _reduced_space_frame(w)
    q = c.shape[1] // 2
    coords = c.conj().T @ cap
    # the k vectors of L ∩ W die under the projection; keep the rank-q range
    if coords.shape[1] == 0 or q == 0:
        ell = np.zeros((2 * q, q), dtype=np.complex128)
    else:
        u_, s_, _ = np.linalg.svd(coords, full_matrices=False)
        keep = s_ > tol.rank_eps * max(1.0, float(s_[0]))
        ell = u_[:, keep]
    if ell.shape[1] != q:
        raise PreconditionError("reduced-space dimension mismatch")
    return LagrangianFrame(ell), v_frame


def reduce_unitary(u, w_basis, lam: complex = 1.0,
                   tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Schur-complement reduction T - Z (lam + X)^{-1} Y of a unitary.

    ``w_basis`` is an n x p matrix whose orthonormalized columns span the
    subspace W of C^n being reduced out; the result acts on the
    deterministic index-ordered complement basis of W-perp.  Requires
    Ker(lam + U) ∩ W = 0, detected as invertibility of lam + X.
    """
    u = require_unitary(u)
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-10:
        raise InputError("lambda must be a unit complex number")
    if abs(lam + 1.0) <= 1e-10:
        raise InputError("lambda = -1 is rejected: 1 + U(-U*) degenerates, no reduction meaning")
    n = u.shape[0]
    wb = orthonormalize(w_basis)
    if wb.shape[0] != n:
        raise InputError("W basis does not match the unitary dimension")
    p = wb.shape[1]
    vb = orthocomplement_basis(wb)
    x = wb.conj().T @ u @ wb
    y = wb.conj().T @ u @ vb
    z = vb.conj().T @ u @ wb
    t = vb.conj().T @ u @ vb
    if p == 0:
        return t
    lam_x = lam * np.eye(p) + x
    smin = np.linalg.svd(lam_x, compute_uv=False)[-1]
    if smin <= tol.rank_eps:
        raise PreconditionError("not clean")
    return t - z @ np.linalg.solve(lam_x, y)
