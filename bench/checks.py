"""Independent checkers for the benchmark's answers.

Every function here uses numpy only, never lagflow, so an answer is
compared against a computation made apart from the program.  A checker
returns None when the answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np


def n_minus(m: np.ndarray) -> int:
    """Number of negative eigenvalues of a Hermitian matrix."""
    return int(np.sum(np.linalg.eigvalsh(m) < 0.0))


def inertia_flow(a0: np.ndarray, a1: np.ndarray) -> int:
    """Spectral flow of any path from A(0) to A(1): n_-(A(0)) - n_-(A(1))."""
    return n_minus(a0) - n_minus(a1)


def check_flow(flow, signs, expected: int) -> str | None:
    """The flow equals the expected integer and the crossing signs sum to it."""
    if flow != expected:
        return f"flow {flow} != {expected}"
    total = sum(int(s) for s in signs)
    if total != flow:
        return f"crossing signs sum to {total}, flow is {flow}"
    return None


def check_value(value, expected) -> str | None:
    """Exact equality of two integers (or other comparable results)."""
    return None if value == expected else f"{value!r} != {expected!r}"


def check_close(actual, expected, tol: float) -> str | None:
    """Entrywise max distance of two arrays within tol."""
    a = np.asarray(actual)
    e = np.asarray(expected)
    if a.shape != e.shape:
        return f"shape {a.shape} != {e.shape}"
    err = float(np.abs(a - e).max(initial=0.0))
    return None if err <= tol else f"max error {err:.3e} > {tol:.1e}"


def spectrum_in_window(phases, window: tuple[float, float]) -> np.ndarray:
    """Sorted theta_j + 2 pi k that fall inside the window."""
    a, b = window
    out = []
    for theta in phases:
        k_lo = int(np.ceil((a - theta) / (2 * np.pi)))
        k_hi = int(np.floor((b - theta) / (2 * np.pi)))
        out.extend(theta + 2 * np.pi * k for k in range(k_lo, k_hi + 1))
    return np.sort(np.array(out))


def incidence_profile_of(iset, n: int) -> list[int]:
    """d_j = #{i in I : i > j}, j = 0..n, the profile of H_I^+."""
    return [sum(1 for i in iset if i > j) for j in range(n + 1)]


def check_mesh(points, eps_values) -> str | None:
    """SU(2) family: one distinct crossing, at U = -I within 1e-3, |eps| = (k-1)! = 1.

    ``points`` are unit quaternions q of the located crossings, one per chart
    hit; hits closer than 0.05 are the same crossing seen from two charts.
    """
    unique: list[tuple[np.ndarray, int]] = []
    for q, eps in zip(points, eps_values):
        if not any(np.linalg.norm(q - q2) < 0.05 for q2, _ in unique):
            unique.append((q, eps))
    if len(unique) != 1:
        return f"{len(unique)} distinct crossings, expected 1"
    q, eps = unique[0]
    dist = float(np.linalg.norm(q - np.array([-1.0, 0.0, 0.0, 0.0])))
    if dist >= 1e-3:
        return f"crossing {dist:.2e} away from U = -I"
    if abs(eps) != 1:
        return f"|epsilon| = {abs(eps)}, expected (k-1)! = 1"
    return None
