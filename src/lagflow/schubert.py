"""Schubert cells of the Lagrangian Grassmannian, by incidence with a flag.

The flag is the standard decreasing one on H-:

    W_0 = H-  ⊃  W_1  ⊃ ... ⊃  W_n = 0,      W_j = span{f_{j+1}, ..., f_n},

with f_i the standard H- basis vectors and e_i = J f_i the H+ ones.  A
lagrangian L determines its incidence profile d_j = dim(L ∩ W_j); when
every consecutive drop is by one, the drop positions form the Schubert
index I and L lies in the cell Z_I, of codimension N_I = sum(2i - 1).

The same cells are cut out of the Arnold chart around H_I^+ = F_I (+) J F_{I^c}
by linear equations on the chart coordinate A (basis f_i, i in I, then
e_j, j in I^c):

    <A f_i, f_j> = 0   for j <= i,  i, j in I,
    <A f_i, e_j> = 0   for j <= i,  i in I, j in I^c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError
from .grassmann import LagrangianFrame, chart_point
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    require_hermitian,
    subspace_intersection_dim,
)

__all__ = [
    "Flag",
    "SchubertIndex",
    "incidence_profile",
    "schubert_index_of",
    "chart_membership_equations",
    "cell_codimension",
    "variety_membership",
    "special_lagrangian",
    "chart_lagrangian",
]


@dataclass(frozen=True)
class Flag:
    """Standard decreasing flag of H- in ambient half-dimension n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("flag dimension must be >= 1")

    def subspace_frame(self, j: int) -> np.ndarray:
        """2n x (n - j) frame of W_j = span{f_{j+1}, ..., f_n}."""
        if not 0 <= j <= self.n:
            raise InputError("flag level out of range")
        n = self.n
        frame = np.zeros((2 * n, n - j), dtype=np.complex128)
        for col, i in enumerate(range(j, n)):
            frame[n + i, col] = 1.0
        return frame


@dataclass(frozen=True)
class SchubertIndex:
    """Strictly increasing tuple of positive integers with its weight."""

    I: tuple[int, ...]
    weight: int = field(default=-1)

    def __post_init__(self):
        ints = tuple(int(i) for i in self.I)
        if any(i < 1 for i in ints) or any(a >= b for a, b in zip(ints, ints[1:])):
            raise InputError("Schubert index must be strictly increasing positive integers")
        object.__setattr__(self, "I", ints)
        w = _weight(ints)
        if self.weight == -1:
            object.__setattr__(self, "weight", w)
        elif self.weight != w:
            raise InputError("stored weight disagrees with recomputed N_I")

    def __len__(self) -> int:
        return len(self.I)


def _weight(nodes) -> int:
    return sum(2 * i - 1 for i in nodes)


def _index_and_complement(index: SchubertIndex, flag: Flag) -> tuple[list[int], list[int]]:
    # I and I^c inside 1..n, once I is checked against the flag dimension
    iset = list(index.I)
    if any(i > flag.n for i in iset):
        raise InputError("Schubert index exceeds the flag dimension")
    return iset, [j for j in range(1, flag.n + 1) if j not in set(iset)]


def cell_codimension(index: SchubertIndex) -> int:
    """Codimension N_I = sum over I of (2i - 1)."""
    return index.weight


def incidence_profile(lag: LagrangianFrame, flag: Flag,
                      tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Vector of intersection dimensions d_j = dim(L ∩ W_j), j = 0..n."""
    if lag.n != flag.n:
        raise InputError("lagrangian and flag have different ambient dimensions")
    return [subspace_intersection_dim(lag.frame, flag.subspace_frame(j), tol)
            for j in range(flag.n + 1)]


def _drop_nodes(lag: LagrangianFrame, flag: Flag, tol: Tolerance
                ) -> tuple[list[int], list[int], int]:
    """(profile d_0..d_n, its drop nodes j with d_{j-1} - d_j = 1, their
    weight sum(2j - 1)).

    W_j has codimension 1 in W_{j-1} and d_n = 0, so every drop of a
    dimension count is 0 or 1 (which also gives d_j <= n - j).  Any other
    drop is a tolerance misreading and raises "non-generic profile".
    """
    profile = incidence_profile(lag, flag, tol)
    drops = [a - b for a, b in zip(profile, profile[1:])]
    if any(d not in (0, 1) for d in drops):
        raise PreconditionError(f"non-generic profile: {profile} drops by other than 0 or 1")
    nodes = [j for j, d in enumerate(drops, start=1) if d == 1]
    return profile, nodes, _weight(nodes)


def schubert_index_of(lag: LagrangianFrame, flag: Flag,
                      tol: Tolerance = DEFAULT_TOL) -> SchubertIndex:
    """Schubert index of the cell containing L: the profile's drop nodes.

    Raises "non-generic profile" when some drop is not 0 or 1.
    """
    return SchubertIndex(tuple(_drop_nodes(lag, flag, tol)[1]))


def chart_membership_equations(a, index: SchubertIndex, flag: Flag,
                               tol: Tolerance = DEFAULT_TOL
                               ) -> tuple[bool, float]:
    """Test the linear cell equations on a chart coordinate around H_I^+.

    ``a`` is Hermitian of size n in the ordered basis (f_i, i in I;
    e_j, j in I^c).  Returns (all equations vanish at rank_eps, max
    violated magnitude).
    """
    a = require_hermitian(a)
    if a.shape[0] != flag.n:
        raise InputError("chart coordinate size does not match the flag")
    iset, icomp = _index_and_complement(index, flag)
    pos = {("f", i): c for c, i in enumerate(iset)}
    pos.update({("e", j): len(iset) + c for c, j in enumerate(icomp)})
    residual = 0.0
    for i in iset:
        for j in iset:
            if j <= i:
                residual = max(residual, abs(a[pos[("f", j)], pos[("f", i)]]))
        for j in icomp:
            if j <= i:
                residual = max(residual, abs(a[pos[("e", j)], pos[("f", i)]]))
    return residual <= tol.rank_eps, float(residual)


def special_lagrangian(index: SchubertIndex, flag: Flag) -> LagrangianFrame:
    """The lagrangian H_I^+ = F_I (+) J F_{I^c}, the center of the cell's chart.

    Columns are ordered as the chart basis: f_i for i in I, then e_j for
    j in I^c.
    """
    n = flag.n
    iset, icomp = _index_and_complement(index, flag)
    cols = []
    for i in iset:
        v = np.zeros(2 * n, dtype=np.complex128)
        v[n + i - 1] = 1.0
        cols.append(v)
    for j in icomp:
        v = np.zeros(2 * n, dtype=np.complex128)
        v[j - 1] = 1.0
        cols.append(v)
    return LagrangianFrame(np.column_stack(cols))


def chart_lagrangian(a, index: SchubertIndex, flag: Flag) -> LagrangianFrame:
    """Chart point of the coordinate ``a`` around H_I^+."""
    return chart_point(special_lagrangian(index, flag), a)


def variety_membership(lag: LagrangianFrame, index: SchubertIndex, flag: Flag,
                       tol: Tolerance = DEFAULT_TOL) -> bool:
    """Closure incidences: dim(L ∩ W_j) >= #{i in I : i > j} for all j."""
    _index_and_complement(index, flag)
    profile = incidence_profile(lag, flag, tol)
    for j in range(flag.n + 1):
        required = sum(1 for i in index.I if i > j)
        if profile[j] < required:
            return False
    return True
