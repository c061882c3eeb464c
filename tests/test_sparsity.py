import random

from sparse_outbranch.digraph import RootedDigraph, underlying_adjacency
from sparse_outbranch.generators import FAMILIES, generate, gen_planar
from sparse_outbranch.sparsity import (
    class_count_bound_ok,
    classify_by_modulator,
    degeneracy,
    heavy_count_bound_ok,
    heavy_degree_sum_check,
)


def brute_degeneracy(adj):
    n = len(adj)
    alive = set(range(n))
    live = [set(a) for a in adj]
    d = 0
    while alive:
        v = min(alive, key=lambda x: len(live[x]))
        d = max(d, len(live[v]))
        alive.discard(v)
        for w in live[v]:
            live[w].discard(v)
        live[v] = set()
    return d


class TestDegeneracy:
    def test_tree(self):
        d = RootedDigraph(5, 0, [(0, 1), (0, 2), (1, 3), (1, 4)])
        assert degeneracy(d).d == 1

    def test_bidirected_k4(self):
        k4 = RootedDigraph(4, 0, [(u, v) for u in range(4) for v in range(4)
                                  if u != v and v != 0])
        assert degeneracy(k4).d == 3

    def test_planar_samples_at_most_five(self):
        for seed in range(6):
            g = gen_planar(80, seed=seed, both_prob=0.5, keep_prob=1.0)
            assert degeneracy(g).d <= 5

    def test_matches_naive_removal(self, rng):
        for _ in range(150):
            n = rng.randint(1, 25)
            adj = [set() for _ in range(n)]
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
            assert degeneracy(adj).d == brute_degeneracy(adj)

    def test_ordering_witness_and_edge_bound(self, rng):
        for _ in range(60):
            n = rng.randint(1, 25)
            adj = [set() for _ in range(n)]
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
            res = degeneracy(adj)
            pos = {v: i for i, v in enumerate(res.order)}
            for v in range(n):
                assert sum(1 for w in adj[v] if pos[w] > pos[v]) <= res.d
            m = sum(len(a) for a in adj) // 2
            assert m <= max(1, res.d) * n


def _assert_peel_matches_set_reference(g):
    """The peel of the merged in- and out-lists gives the d of the peel of
    ``underlying_adjacency``'s sets, the set-based reference, and a valid
    ordering: every vertex once, each with at most d neighbors after it
    and some vertex with exactly d. Returns whether g has an anti-parallel
    pair."""
    got = degeneracy(g)
    adj = underlying_adjacency(g)
    assert got.d == degeneracy(adj).d
    assert sorted(got.order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(got.order)}
    later = [sum(1 for w in adj[v] if pos[w] > pos[v]) for v in range(g.n)]
    assert max(later) == got.d
    return any(g.has_arc(v, u) for u, v in g.arcs())


def _with_reverse_arcs(rng, g, share):
    """g plus the reverse of about `share` of its arcs, none into the root."""
    extra = [(v, u) for u, v in g.arcs() if u != g.root and rng.random() < share]
    return RootedDigraph(g.n, g.root, set(g.arcs()) | set(extra))


class TestListPeel:
    """``degeneracy`` of a ``RootedDigraph`` peels its in-list plus out-list
    per vertex and deduplicates only the vertices with an anti-parallel
    pair; ``degeneracy(underlying_adjacency(g))`` stays the reference."""

    def test_every_family_with_and_without_reverse_arcs(self, rng):
        anti = 0
        for family in sorted(FAMILIES):
            for _ in range(8):
                n, k = rng.randint(2, 150), rng.randint(2, 12)
                if family == "bipath-chain":
                    n = max(n, 3)  # below 3 the family built the graph of 3
                # iob-twins sizes itself from k and refuses an n
                g = generate(family, None if family == "iob-twins" else n, k,
                             rng.randrange(1 << 30))
                for h in (g, _with_reverse_arcs(rng, g, rng.uniform(0.1, 1.0))):
                    anti += _assert_peel_matches_set_reference(h)
        assert anti >= 8 * len(FAMILIES)

    def test_planar_with_anti_parallel_pairs(self, rng):
        anti = 0
        for both_prob in (0.0, 0.1, 0.3, 0.6, 1.0):
            for _ in range(6):
                g = gen_planar(rng.randint(20, 300), rng.randrange(1 << 30),
                               both_prob=both_prob, keep_prob=rng.uniform(0.4, 1.0))
                anti += _assert_peel_matches_set_reference(g)
        assert anti >= 20

    def test_every_arc_anti_parallel(self):
        # no arc enters the root, so its out-arcs aside every arc has its
        # reverse: the lists of every other vertex hold each non-root
        # neighbor twice
        for n in (2, 3, 5, 12, 40):
            arcs = [(u, v) for u in range(n) for v in range(1, n)
                    if u != v and (u == 0 or abs(u - v) <= 2)]
            g = RootedDigraph(n, 0, arcs)
            assert all(g.has_arc(v, u) for u, v in arcs if u != 0)
            _assert_peel_matches_set_reference(g)
        grid = gen_planar(200, seed=4, both_prob=1.0)
        assert _assert_peel_matches_set_reference(grid)
        assert degeneracy(grid).d == 3


class TestArboricityRelation:
    def test_sampled_subgraph_density_below_degeneracy(self, rng):
        # density of any subgraph lower-bounds the arboricity, which
        # lower-bounds the degeneracy; spot-check on random subgraphs
        for _ in range(20):
            n = rng.randint(5, 60)
            g = gen_planar(n, seed=rng.randrange(1 << 30),
                           keep_prob=rng.uniform(0.4, 1.0),
                           both_prob=rng.uniform(0, 0.6))
            adj = underlying_adjacency(g)
            d = degeneracy(adj).d
            for _ in range(5):
                keep = set(rng.sample(range(n), rng.randint(2, n)))
                m_s = sum(1 for u in keep for v in adj[u] if v in keep and u < v)
                if len(keep) >= 2 and m_s:
                    density_ceil = -(-m_s // (len(keep) - 1))
                    assert density_ceil <= max(d, 1)


class TestClassify:
    def test_modulator_everything(self):
        d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
        cl = classify_by_modulator(d, range(4), threshold=2)
        assert cl.classes == {} and cl.heavy == []

    def test_keys_are_realized_traces(self, rng):
        for _ in range(30):
            g = gen_planar(40, seed=rng.randrange(1 << 30),
                           keep_prob=0.8, both_prob=0.3)
            adj = underlying_adjacency(g)
            x = set(rng.sample(range(40), 10))
            cl = classify_by_modulator(g, x, threshold=6)
            for key, members in cl.classes.items():
                for v in members:
                    assert tuple(sorted(adj[v] & x)) == key
            for v in cl.heavy:
                assert len(adj[v] & x) >= 6

    def test_planar_bounds_p3(self, rng):
        for _ in range(25):
            n = rng.randint(30, 120)
            g = gen_planar(n, seed=rng.randrange(1 << 30),
                           keep_prob=rng.uniform(0.4, 1.0),
                           both_prob=rng.uniform(0, 0.5))
            x = set(rng.sample(range(n), rng.randint(3, n // 2)))
            cl = classify_by_modulator(g, x, threshold=6)
            assert heavy_count_bound_ok(cl)
            assert class_count_bound_ok(cl, 3)


class TestHeavyDegreeSum:
    def test_star(self):
        assert heavy_degree_sum_check(1, [1, 1, 1], 1)

    def test_empty_y(self):
        assert heavy_degree_sum_check(5, [], 2)

    def test_random_degenerate_bipartite(self, rng):
        for _ in range(40):
            nx, ny = rng.randint(1, 15), rng.randint(0, 25)
            # bipartite graph built by the degeneracy construction: each y
            # picks at most d neighbors in x
            d_target = rng.randint(1, 3)
            degs = []
            adj = [set() for _ in range(nx + ny)]
            for yi in range(ny):
                picks = rng.sample(range(nx), min(d_target, nx))
                for xv in picks:
                    adj[nx + yi].add(xv)
                    adj[xv].add(nx + yi)
                degs.append(len(picks))
            d_true = degeneracy(adj).d
            assert heavy_degree_sum_check(nx, degs, d_true)
