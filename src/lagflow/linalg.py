"""Dense complex linear-algebra substrate.

Hermitian eigendecomposition, numerical kernels and subspace intersections
with explicit, scale-invariant tolerances.  Everything downstream (charts,
reductions, flows, intersection numbers) sits on these few primitives, so
their contracts are deliberately narrow:

* eigenvalues come back ascending, eigenvectors as a unitary frame,
* rank decisions use a relative threshold ``rank_eps * max(1, sigma_max)``,
* frames are 2-d complex arrays whose *columns* are the basis vectors.

The complex inner product is linear in the first argument and conjugate
linear in the second, matching the usual mathematical convention; see
:func:`inner`.

Validation contract: a matrix is checked once, where it enters.  The
boundaries are public constructors, the decoders of lagflow.serialize,
the raw-array arguments of public functions, and the return value of a
user ``func``/``dfunc`` callback, checked on every call.  Private helpers
(:func:`_eigh` is :func:`hermitian_eig` without the symmetrize) trust
checked values; only a built frame is checked again, by its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError

__all__ = [
    "Tolerance",
    "inner",
    "as_complex_matrix",
    "symmetrize",
    "require_hermitian",
    "require_unitary",
    "hermitian_eig",
    "numeric_kernel",
    "numeric_rank",
    "orthonormalize",
    "orthocomplement_basis",
    "subspace_intersection_dim",
    "subspace_intersection_basis",
    "subspaces_equal",
]

_HERM_TOL = 1e-12
_MAX_PART = 2.0**1023
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by rank and crossing decisions.

    rank_eps decides ranks and invertibility, relative to the largest
    singular value floored at 1: kernels and subspace intersections (the
    jets' and crossing_jet's among them), reductions, the chart test, the
    Schubert cell equations and the Maslov endpoint test.  crossing_eps
    decides nondegeneracy: the spectral flow's endpoints and crossing forms,
    and a jet's transversality.  Which points a family's scan locates reads
    neither (lagflow.intersect._ACCEPT_GAP).  rank_eps must lie in (0, 1):
    at 1 or above the threshold reaches sigma_max and every direction
    counts as kernel.
    """

    rank_eps: float = 1e-8
    crossing_eps: float = 1e-9

    def __post_init__(self):
        if not (0 < self.rank_eps < np.inf and 0 < self.crossing_eps < np.inf):
            raise InputError("tolerances must be positive and finite")
        if self.rank_eps >= 1:
            raise InputError("rank_eps must be below 1")


DEFAULT_TOL = Tolerance()


def inner(u, v):
    """Complex inner product <u, v>, linear in u, conjugate linear in v."""
    return complex(np.vdot(np.asarray(v), np.asarray(u)))


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array with finite parts below 2**1023,
    so that sums such as M + M* stay finite behind the check."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:  # not numbers, or ragged
        raise InputError(f"expected a matrix, got {type(a).__name__}") from exc
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {m.ndim}")
    if not _finite_parts(m):
        raise InputError("matrix entries must be finite and below 2**1023")
    return m


def _finite_parts(m: np.ndarray) -> bool:
    """Whether every real and imaginary part of a complex128 array is finite
    and below 2**1023: one pass over them, and a NaN fails the comparison."""
    return bool(np.abs(m.ravel().view(np.float64)).max(initial=0.0) < _MAX_PART)


def symmetrize(m) -> np.ndarray:
    """Return the Hermitian part (M + M*)/2."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError("cannot symmetrize a non-square matrix")
    return 0.5 * (m + m.conj().T)


def require_hermitian(m) -> np.ndarray:
    """Validate the Hermitian defect and return the symmetrized matrix.

    The defect ||M - M*||_max must stay below 1e-12 * max(1, ||M||_max).
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InputError("Hermitian matrix must be square")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    defect = float(np.abs(m - m.conj().T).max(initial=0.0))
    if defect > _HERM_TOL * scale:
        raise InputError(f"matrix is not Hermitian (defect {defect:.3e})")
    return 0.5 * (m + m.conj().T)


def require_unitary(u) -> np.ndarray:
    """Validate U*U = I up to 1e-10 and return U as complex128."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise InputError("unitary matrix must be square")
    n = u.shape[0]
    res = float(np.abs(u.conj().T @ u - np.eye(n)).max(initial=0.0))
    if res > _UNITARY_TOL:
        raise InputError(f"matrix is not unitary (residual {res:.3e})")
    return u


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with unitary
    columns) such that ``M v_j = lam_j v_j``.
    """
    return _eigh(symmetrize(m))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hermitian_eig of an already checked Hermitian matrix
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("eig failure") from exc
    return vals, vecs


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank at the relative threshold rank_eps * max(1, sigma_max)."""
    m = as_complex_matrix(m)
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    thresh = tol.rank_eps * max(1.0, float(s[0]))
    return int(np.sum(s > thresh))


def numeric_kernel(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal frame of the approximate kernel of M.

    A direction counts as kernel when its singular value satisfies
    ``sigma <= rank_eps * max(1, sigma_max)``.  The result is a
    cols x k array; k may be zero.
    """
    m = as_complex_matrix(m)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    thresh = tol.rank_eps * max(1.0, float(s[0]) if s.size else 0.0)
    # singular values below the threshold, padded for a wide/rank-deficient m
    nkeep = int(np.sum(s > thresh))
    return vh[nkeep:].conj().T.copy()


def orthonormalize(a, drop_eps: float = 1e-12) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Columns whose remainder falls below ``drop_eps`` times the original
    column scale are dropped, so the result always has orthonormal columns
    spanning the numerical range of ``a`` (in column order).
    """
    a = as_complex_matrix(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    cols = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for _ in range(2):  # re-orthogonalization pass
            for q in cols:
                v -= np.vdot(q, v) * q
        nrm = np.linalg.norm(v)
        if nrm > drop_eps * scale:
            cols.append(v / nrm)
    if not cols:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    return np.column_stack(cols)


def orthocomplement_basis(frame) -> np.ndarray:
    """Deterministic orthonormal basis of the orthocomplement of a frame.

    Projects the standard basis vectors onto the complement and keeps a
    maximal independent set greedily in index order, so that when ``frame``
    spans standard basis vectors the complement comes out as the remaining
    standard basis vectors, in index order.
    """
    q = orthonormalize(frame)
    n = q.shape[0]
    if q.shape[1] == 0:
        return np.eye(n, dtype=np.complex128)
    # the residual projector has scale 1, so drop_eps is an absolute cut
    comp = orthonormalize(np.eye(n, dtype=np.complex128) - q @ q.conj().T, drop_eps=1e-7)
    if comp.shape[1] != n - q.shape[1]:
        raise PreconditionError("orthocomplement extraction failed")
    return comp


def _check_frames_compatible(f1, f2):
    f1 = as_complex_matrix(f1)
    f2 = as_complex_matrix(f2)
    if f1.shape[0] != f2.shape[0]:
        raise InputError("frames live in different ambient dimensions")
    return f1, f2


def subspace_intersection_dim(f1, f2, tol: Tolerance = DEFAULT_TOL) -> int:
    """dim(span F1 ∩ span F2) via the kernel of the block [F1 | -F2]."""
    f1, f2 = _check_frames_compatible(f1, f2)
    if f1.shape[1] == 0 or f2.shape[1] == 0:
        return 0
    block = np.hstack([f1, -f2])
    return numeric_kernel(block, tol).shape[1]


def subspace_intersection_basis(f1, f2, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal ambient basis of span F1 ∩ span F2."""
    f1, f2 = _check_frames_compatible(f1, f2)
    if f1.shape[1] == 0 or f2.shape[1] == 0:
        return np.zeros((f1.shape[0], 0), dtype=np.complex128)
    ker = numeric_kernel(np.hstack([f1, -f2]), tol)
    if ker.shape[1] == 0:
        return np.zeros((f1.shape[0], 0), dtype=np.complex128)
    vecs = f1 @ ker[: f1.shape[1]]
    return orthonormalize(vecs)


def subspaces_equal(f1, f2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two orthonormal frames span the same subspace."""
    f1, f2 = _check_frames_compatible(f1, f2)
    if f1.shape[1] != f2.shape[1]:
        return False
    return subspace_intersection_dim(f1, f2, tol) == f1.shape[1]
