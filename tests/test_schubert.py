import numpy as np
import pytest

from lagflow.errors import InputError, PreconditionError
from lagflow.grassmann import cayley_graph, chart_point, standard_lagrangians
from lagflow.linalg import orthonormalize
from lagflow.reduction import IsotropicSubspace, reduce_lagrangian
from lagflow.schubert import (
    Flag,
    SchubertIndex,
    cell_codimension,
    chart_lagrangian,
    chart_membership_equations,
    incidence_profile,
    schubert_index_of,
    special_lagrangian,
    variety_membership,
)

from conftest import random_hermitian, unitary_with_phases


def impose_cell_equations(a, index, n):
    """Zero out the chart entries listed by the cell equations (in place)."""
    iset = list(index.I)
    icomp = [j for j in range(1, n + 1) if j not in set(iset)]
    pos = {("f", i): c for c, i in enumerate(iset)}
    pos.update({("e", j): len(iset) + c for c, j in enumerate(icomp)})
    for i in iset:
        for j in iset:
            if j <= i:
                a[pos[("f", j)], pos[("f", i)]] = 0.0
                a[pos[("f", i)], pos[("f", j)]] = 0.0
        for j in icomp:
            if j <= i:
                a[pos[("e", j)], pos[("f", i)]] = 0.0
                a[pos[("f", i)], pos[("e", j)]] = 0.0
    return a


def test_schubert_index_weights():
    assert SchubertIndex((1,)).weight == 1
    assert SchubertIndex((2,)).weight == 3
    assert SchubertIndex((1, 2)).weight == 4
    assert cell_codimension(SchubertIndex((2, 4))) == 3 + 7
    with pytest.raises(InputError):
        SchubertIndex((2, 2))
    # the weight is derived from I, never given or stored
    with pytest.raises(TypeError):
        SchubertIndex((1, 3), weight=99)
    index = SchubertIndex((3,))
    with pytest.raises(AttributeError):
        index.weight = 99
    assert index.weight == 5 and repr(index) == "SchubertIndex(I=(3,))"


def test_incidence_profile_extremes():
    flag = Flag(4)
    hp, hm = standard_lagrangians(4)
    assert incidence_profile(hp, flag) == [0, 0, 0, 0, 0]
    assert incidence_profile(hm, flag) == [4, 3, 2, 1, 0]
    assert schubert_index_of(hm, flag).I == (1, 2, 3, 4)


def test_special_lagrangian_drops_at_nodes():
    flag = Flag(4)
    idx = SchubertIndex((2,))
    special = special_lagrangian(idx, flag)
    assert incidence_profile(special, flag) == [1, 1, 0, 0, 0]
    assert schubert_index_of(special, flag).I == (2,)


def test_generic_graph_has_empty_index(rng):
    flag = Flag(4)
    hp = standard_lagrangians(4)[0]
    a = random_hermitian(4, rng) + 2.0 * np.eye(4)
    assert schubert_index_of(chart_point(hp, a), flag).I == ()


def test_cayley_with_engineered_kernel(rng):
    # Ker(1+U) = span f3 puts C(U) in the cell {3}
    flag = Flag(4)
    phases = np.array([0.3, 1.1, np.pi, -0.8])
    u = (np.eye(4) * np.exp(1j * phases))
    lag = cayley_graph(u)
    assert schubert_index_of(lag, flag).I == (3,)


def test_two_minus_one_phases_drop_at_two_nodes(rng):
    # a 2-dim vertical intersection still drops one node at a time: complete
    # flags have 1-dim consecutive quotients, so drops exceeding one cannot
    # occur for exact geometry
    flag = Flag(3)
    mix = np.zeros((3, 3), dtype=complex)
    mix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mix[2, 2] = 1.0
    u2 = mix @ np.diag(np.exp(1j * np.array([np.pi, np.pi, 0.4]))) @ mix.conj().T
    lag2 = cayley_graph(u2)
    assert incidence_profile(lag2, flag)[0] == 2
    assert schubert_index_of(lag2, flag).I == (1, 2)


def test_nongeneric_profile_raises():
    # inconsistent dimension measurements (a mis-set tolerance) are reported
    # instead of silently classified
    flag = Flag(3)
    hm = standard_lagrangians(3)[1]
    from lagflow.linalg import Tolerance

    bad_tol = Tolerance(rank_eps=0.8)
    with pytest.raises(PreconditionError, match="non-generic profile"):
        schubert_index_of(hm, flag, bad_tol)


def test_chart_equations_trivial_cases():
    flag = Flag(4)
    idx = SchubertIndex((2,))
    ok, resid = chart_membership_equations(np.zeros((4, 4)), idx, flag)
    assert ok and resid == 0.0
    a = np.zeros((4, 4))
    a[0, 0] = 0.5  # <A f_2, f_2> entry in the chart basis
    ok, resid = chart_membership_equations(a, idx, flag)
    assert not ok and resid == 0.5


@pytest.mark.parametrize("index", [(1,), (2,), (4,), (1, 3), (2, 5), (1, 2, 4)])
def test_chart_equations_match_incidence(index, rng):
    n = 5
    flag = Flag(n)
    idx = SchubertIndex(index)
    hits = 0
    for trial in range(60):
        a = random_hermitian(n, rng)
        if trial % 2 == 0:
            impose_cell_equations(a, idx, n)
        member, _ = chart_membership_equations(a, idx, flag)
        lag = chart_lagrangian(a, idx, flag)
        try:
            by_incidence = schubert_index_of(lag, flag).I == idx.I
        except PreconditionError:
            by_incidence = False
        assert member == by_incidence
        hits += member
    assert hits >= 25  # the imposed half lands in the cell


def test_profile_drops_sum_to_vertical_intersection(rng):
    n = 5
    flag = Flag(n)
    idx = SchubertIndex((2, 4))
    a = impose_cell_equations(random_hermitian(n, rng), idx, n)
    lag = chart_lagrangian(a, idx, flag)
    prof = incidence_profile(lag, flag)
    drops = [prof[j - 1] - prof[j] for j in range(1, n + 1)]
    assert sum(drops) == prof[0] == 2


def test_variety_membership():
    flag = Flag(5)
    l13 = special_lagrangian(SchubertIndex((1, 3)), flag)
    assert variety_membership(l13, SchubertIndex((3,)), flag)
    assert variety_membership(l13, SchubertIndex((1, 3)), flag)
    assert not variety_membership(l13, SchubertIndex((4,)), flag)
    hm = standard_lagrangians(5)[1]
    assert variety_membership(hm, SchubertIndex((1, 2, 3)), flag)
    hp = standard_lagrangians(5)[0]
    assert not variety_membership(hp, SchubertIndex((1,)), flag)
    # fundamental variety: membership in Zbar_{k} is dim(L ∩ W_{k-1}) >= 1
    l2 = special_lagrangian(SchubertIndex((2,)), flag)
    assert variety_membership(l2, SchubertIndex((2,)), flag)


def test_reduction_compatibility(rng):
    # the Schubert index survives reduction by a trailing flag space
    n, m = 5, 3
    flag_n, flag_m = Flag(n), Flag(m)
    w = IsotropicSubspace.from_flag_indices(n, range(m + 1, n + 1))
    for index in [(1,), (2,), (1, 3)]:
        idx = SchubertIndex(index)
        a = impose_cell_equations(random_hermitian(n, rng), idx, n)
        lag = chart_lagrangian(a, idx, flag_n)
        red = reduce_lagrangian(lag, w)
        assert schubert_index_of(red, flag_m).I == idx.I
