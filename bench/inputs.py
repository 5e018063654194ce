"""Seeded inputs for the benchmark, made with numpy alone.

Every generator takes a numpy Generator built from ``--seed``, so the same
seed gives the same inputs.  Paths and loops are screened for conditions
every route must handle (well-separated, transversal crossings and
invertible endpoints), and each one records the answer the checkers expect,
computed here apart from the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import inertia_flow


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class AffinePath:
    """A(t) = a + t b with its crossing times and expected spectral flow."""

    a: np.ndarray
    b: np.ndarray
    crossings: tuple[float, ...]
    expected: int
    sampled: bool

    def at(self, t: float) -> np.ndarray:
        return self.a + t * self.b


def pencil_crossings(a: np.ndarray, b: np.ndarray, margin: float
                     ) -> tuple[float, ...] | None:
    """Times t in (0, 1) where a + t b is singular, or None when unsuitable.

    The times are the eigenvalues -mu of b^{-1} a.  The path is unsuitable
    when a crossing lies within ``margin`` of an end or of another crossing,
    or when a complex pair sits within ``margin`` of [0, 1] (a near tangency,
    where two branches almost touch zero without crossing).
    """
    ts = -np.linalg.eigvals(np.linalg.solve(b, a))
    real = np.abs(ts.imag) <= 1e-9 * (1.0 + np.abs(ts))
    near = (~real & (np.abs(ts.imag) < margin)
            & (ts.real > -margin) & (ts.real < 1.0 + margin))
    if near.any():
        return None
    cross = np.sort(ts.real[real & (ts.real > 0.0) & (ts.real < 1.0)])
    if cross.size and (cross[0] < margin or cross[-1] > 1.0 - margin):
        return None
    if cross.size > 1 and np.min(np.diff(cross)) < margin:
        return None
    return tuple(float(t) for t in cross)


def isolated(a: np.ndarray, b: np.ndarray, t: float, isolation: float) -> bool:
    """At a crossing t, every other eigenvalue of a + t b keeps |lambda| at least
    ``isolation`` times the fastest eigenvalue speed |<b v, v>|, so no other
    branch can reach zero within a parameter step of ``isolation``."""
    vals, vecs = np.linalg.eigh(a + t * b)
    speeds = np.abs(np.einsum("ij,ik,kj->j", vecs.conj(), b, vecs).real)
    others = np.delete(np.abs(vals), np.argmin(np.abs(vals)))
    return others.size == 0 or others.min() >= isolation * speeds.max()


def affine_path(rng, n: int, count: int, sampled: bool, a_scale: float,
                b_scale: float, drift: float = 0.0, margin: float = 0.02,
                end_gap: float = 0.05, isolation: float = 0.0) -> AffinePath:
    """Random affine Hermitian path with exactly ``count`` clean crossings.

    Endpoints keep every eigenvalue at least ``end_gap`` away from zero, and
    every crossing is ``isolated`` by ``isolation``.
    """
    while True:
        a = random_hermitian(rng, n, a_scale)
        b = random_hermitian(rng, n, b_scale) + drift * np.eye(n)
        cross = pencil_crossings(a, b, margin)
        if cross is None or len(cross) != count:
            continue
        if min(np.abs(np.linalg.eigvalsh(a)).min(),
               np.abs(np.linalg.eigvalsh(a + b)).min()) < end_gap:
            continue
        if not all(isolated(a, b, t, isolation) for t in cross):
            continue
        return AffinePath(a, b, cross, inertia_flow(a, a + b), sampled)


@dataclass(frozen=True)
class WindingLoop:
    """U(t) = V diag(exp(i(theta + 2 pi w t))) V*; its flow is sum(w)."""

    v: np.ndarray
    theta: np.ndarray
    windings: np.ndarray
    sampled: bool

    @property
    def expected(self) -> int:
        return int(self.windings.sum())

    def at(self, t: float) -> np.ndarray:
        phases = np.exp(1j * (self.theta + 2.0 * np.pi * self.windings * t))
        return (self.v * phases) @ self.v.conj().T


def spread_phases(rng, n: int) -> np.ndarray:
    """n phases in (-pi, pi), one per equal sector, jittered inside it.

    Neighbours stay at least a quarter sector apart, and no phase sits
    within an eighth of a sector of 0 (an eigenvalue 1 at the loop start
    is a degenerate endpoint).
    """
    width = 2.0 * np.pi / n
    theta = -np.pi + (np.arange(n) + 0.25 + 0.5 * rng.uniform(size=n)) * width
    theta[np.abs(theta) < width / 8.0] += width / 4.0
    return theta


def winding_loop(rng, n: int, moving: int, sampled: bool) -> WindingLoop:
    """Loop in U(n) with a random eigenbasis and ``moving`` branches of winding +-1."""
    windings = np.zeros(n, dtype=int)
    idx = rng.choice(n, size=moving, replace=False)
    windings[idx] = rng.choice([-1, 1], size=moving)
    return WindingLoop(random_unitary(rng, n), spread_phases(rng, n), windings, sampled)
