import numpy as np
import pytest

import lagflow.flow


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def unitary_with_phases(phases, rng):
    """Unitary with prescribed eigenphases and a random eigenbasis."""
    n = len(phases)
    v = random_unitary(n, rng)
    return (v * np.exp(1j * np.asarray(phases))) @ v.conj().T


def evenly_winding(n, endpoint):
    """t |-> diag(e^{i(theta_j + 2 pi t)}) with evenly spaced theta.

    Every phase winds once; for large n one step of a coarse grid moves
    each phase past several of its neighbours.  With endpoint=True the
    first and last phase coincide.
    """
    theta = np.linspace(-np.pi, np.pi, n, endpoint=endpoint) + 0.013
    return lambda t: np.diag(np.exp(1j * (theta + 2 * np.pi * t)))


def count_steps(monkeypatch):
    """The list of (Ua, Ub) of every geodesic step decomposed from now on,
    whether in a stack of the kernel or alone."""
    pairs = []
    stacked, single = lagflow.flow._steps_angles, lagflow.flow._step_angles

    def spy_stacked(uas, ubs):
        pairs.extend(zip(uas, ubs))
        return stacked(uas, ubs)

    def spy_single(ua, ub):
        pairs.append((ua, ub))
        return single(ua, ub)

    monkeypatch.setattr(lagflow.flow, "_steps_angles", spy_stacked)
    monkeypatch.setattr(lagflow.flow, "_step_angles", spy_single)
    return pairs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
