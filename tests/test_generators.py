import pytest

from sparse_outbranch.digraph import is_connected
from sparse_outbranch.generators import gen_planar

from conftest import euler_bound_holds


@pytest.mark.parametrize("n, seed, both_prob, keep_prob", [
    (1, 0, 0.25, 1.0), (2, 1, 0.25, 1.0), (7, 2, 0.5, 1.0), (49, 3, 0.1, 0.25),
    (50, 4, 0.3, 0.6), (150, 5, 0.15, 0.95), (400, 6, 0.1, 0.25),
])
def test_planar_lives_on_a_grid_triangulation(n, seed, both_prob, keep_prob):
    # every edge joins row-major grid neighbours, each cell has at most one
    # diagonal, and the spanning overlay makes every vertex reachable
    g = gen_planar(n, seed, both_prob=both_prob, keep_prob=keep_prob)
    side = next(s for s in range(1, n + 1) if s * s >= n)  # row length
    diagonals: dict[tuple[int, int], int] = {}
    for u, v in {(min(a), max(a)) for a in g.arcs()}:
        (ur, uc), (vr, vc) = divmod(u, side), divmod(v, side)
        dr, dc = abs(ur - vr), abs(uc - vc)
        assert (dr, dc) in ((0, 1), (1, 0), (1, 1)), (u, v)
        if (dr, dc) == (1, 1):
            cell = (min(ur, vr), min(uc, vc))
            diagonals[cell] = diagonals.get(cell, 0) + 1
    assert all(count == 1 for count in diagonals.values())
    assert euler_bound_holds(g)
    assert is_connected(g)
