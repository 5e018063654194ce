"""Property tests of the Cayley correspondence and the Schubert index it induces.

The examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflow.grassmann import cayley_graph, lagrangian_to_unitary
from lagflow.schubert import Flag, schubert_index_of

from conftest import random_unitary, unitary_with_phases

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@PROPERTY
@given(n=st.integers(1, 70), seed=SEEDS)
def test_cayley_round_trip(n, seed):
    # the sizes cross n = 64
    u = random_unitary(n, np.random.default_rng(seed))
    assert np.abs(lagrangian_to_unitary(cayley_graph(u)) - u).max() < 1e-10


@PROPERTY
@given(data=st.data())
def test_minus_one_eigenspace_gives_the_leading_index(data):
    # L ∩ H- = Ker(1 + U) is a generic m-plane, so d_j = max(m - j, 0)
    n = data.draw(st.integers(1, 8), label="n")
    m = data.draw(st.integers(0, n), label="m")
    others = data.draw(st.lists(st.floats(-2.8, 2.8), min_size=n - m, max_size=n - m),
                       label="other phases")
    seed = data.draw(SEEDS, label="seed")
    u = unitary_with_phases([np.pi] * m + others, np.random.default_rng(seed))
    index = schubert_index_of(cayley_graph(u), Flag(n))
    assert index.I == tuple(range(1, m + 1))
    assert index.weight == m * m
