"""An independent oracle for level-2 totals: the degree of f: S^3 -> SU(2).

The level-2 Schubert cycle is Poincare dual to the pulled-back generator,
so the total intersection number of a family f over the 8 q-charts is a
fixed sign eps0 times

    deg f = (1/24 pi^2) int_{S^3} tr((f^-1 df)^3),

integrated here with numpy alone.  eps0 is fixed by the identity family,
whose one crossing, U = -I, is the centre of the chart (0, -1).  The
families are linear in the quaternion q, so df = f(dq).
"""

from functools import cache

import numpy as np
import pytest

from lagflow.errors import PreconditionError
from lagflow.intersect import (
    MeshedFamily,
    crossing_jet,
    intersection_number_operator,
    locate_crossings,
)

# the bench's mesh: 7 nodes per axis on [-0.87, 0.87]
AXIS = np.linspace(-0.87, 0.87, 7)
_UNITS = np.array([np.eye(2),
                   1j * np.array([[0, 1], [1, 0]]),
                   1j * np.array([[0, -1j], [1j, 0]]),
                   1j * np.array([[1, 0], [0, -1]])], dtype=complex)


def su2(q):
    """q0 + i(q1 sx + q2 sy + q3 sz), over the trailing axis of q."""
    return np.einsum("...j,jab->...ab", q, _UNITS)


def degree(f, m=24):
    """(1/24 pi^2) int tr((f^-1 df)^3) in Hopf coordinates
    q = (cos e cos a, sin e cos b, sin e sin b, cos e sin a), oriented
    (e, b, a); Gauss-Legendre in e, trapezoid in the periodic a and b."""
    e, w_e = np.polynomial.legendre.leggauss(m)
    e, w_e = np.pi / 4 * (e + 1), np.pi / 4 * w_e
    ang = np.arange(2 * m) * np.pi / m
    e, a, b = np.meshgrid(e, ang, ang, indexing="ij")
    ce, se, ca, sa, cb, sb = np.cos(e), np.sin(e), np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    zero = np.zeros_like(e)
    q = np.stack([ce * ca, se * cb, se * sb, ce * sa], -1)
    tangents = (np.stack([-se * ca, ce * cb, ce * sb, -se * sa], -1),
                np.stack([zero, -se * sb, se * cb, zero], -1),
                np.stack([-ce * sa, zero, zero, ce * ca], -1))
    f_inv = np.conj(np.swapaxes(f(q), -1, -2))
    a1, a2, a3 = (f_inv @ f(t) for t in tangents)
    # the 3-form on (d_e, d_b, d_a): sum over permutations = 3 tr(A1 [A2, A3])
    density = 3.0 * np.trace(a1 @ (a2 @ a3 - a3 @ a2), axis1=-2, axis2=-1).real
    return float(np.sum(density * w_e[:, None, None])) * (np.pi / m) ** 2 / (24 * np.pi**2)


def chart_quaternion(coord, sign, x):
    q = np.empty(4)
    q[[d for d in range(4) if d != coord]] = x
    q[coord] = sign * np.sqrt(max(0.0, 1.0 - float(np.dot(x, x))))
    return q


def chart_family(f, coord, sign):
    """Switched graphs T = i(1+U)(1-U)^-1 of U = f(q) on one q-chart, W = span(e2)."""

    def func(x):
        if float(np.dot(x, x)) >= 1.0 - 1e-12:
            return None
        u = f(chart_quaternion(coord, sign, x))
        one_minus = np.eye(2) - u
        if np.linalg.svd(one_minus, compute_uv=False)[-1] < 1e-10:
            return None
        return 1j * (np.eye(2) + u) @ np.linalg.inv(one_minus)

    w = np.array([[0.0], [1.0]], dtype=complex)
    return MeshedFamily(2, (AXIS, AXIS, AXIS), w, func=func,
                        orientation=int(sign * (-1) ** coord))


def chart_points(f, coord, sign):
    """(q, eps) of every crossing the chart locates."""
    family = chart_family(f, coord, sign)
    return [(chart_quaternion(coord, sign, x),
             family.orientation * intersection_number_operator(crossing_jet(family, x)))
            for x in locate_crossings(family)]


@cache
def eps0():
    assert degree(su2) == pytest.approx(1.0, abs=1e-9)
    (_, eps), = chart_points(su2, 0, -1)
    return eps


_RNG = np.random.default_rng(3)
_A, _B = (su2(q / np.linalg.norm(q)) for q in _RNG.normal(size=(2, 4)))
FAMILIES = {"adjoint": lambda q: np.conj(np.swapaxes(su2(q), -1, -2)),
            "off-centre": lambda q: _A @ su2(q) @ _B}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_total_over_the_charts_is_eps0_times_the_degree(name):
    f = FAMILIES[name]
    deg = degree(f)
    assert abs(deg - round(deg)) < 1e-9
    found, edge = [], []
    for coord in range(4):
        for sign in (1, -1):
            try:
                found += chart_points(f, coord, sign)
            except PreconditionError as exc:
                if str(exc) != "boundary crossing":
                    raise
                edge.append((coord, sign))
    unique = []
    for q, eps in found:
        same = [eps2 for q2, eps2 in unique if np.linalg.norm(q - q2) < 0.05]
        assert same in ([], [eps])  # charts that share a point agree on its sign
        if not same:
            unique.append((q, eps))
    # deg = +-1: one point, where f = -I
    assert len(unique) == 1
    q_star, total = unique[0]
    assert np.abs(f(q_star) + np.eye(2)).max() < 1e-9
    assert total == eps0() * round(deg)
    # a chart may stop at a point on its edge that another chart located inside
    for coord, sign in edge:
        x = np.delete(q_star, coord)
        to_edge = min(1.0 - np.linalg.norm(x), AXIS[-1] - np.abs(x).max())
        assert to_edge < AXIS[1] - AXIS[0]
