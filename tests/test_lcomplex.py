import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest

from linkforms import (
    CapExceeded,
    InputError,
    LComplex,
    QZValue,
    build_l_complex,
    are_adjacent,
    are_isomorphic,
    cancellation_check,
    count_w_morphisms,
    direct_sum,
    edge_swap_automorphism,
    find_short_path,
    first_w_morphism,
    identity_morphism,
    images_intersect_trivially,
    images_orthogonal,
    standard_w,
    transitivity_witness,
    verify_link_iso,
    w_power_vertex_count,
)
from linkforms._kernels import fits_int64
from linkforms.corpus import scramble_form
from linkforms.lcomplex import _orthogonal_rows


def w_power(k, g):
    form = standard_w(k)
    for _ in range(g - 1):
        form = direct_sum(form, standard_w(k))
    return form


@pytest.fixture(scope="module")
def L2():
    return build_l_complex(w_power(3, 2), 3)


# ---------------------------------------------------------------------------
# vertex counts
# ---------------------------------------------------------------------------


FROZEN_POWER_COUNTS = [(1, 24), (2, 2160), (3, 176904), (4, 14346720)]


@pytest.mark.parametrize("g,expected", FROZEN_POWER_COUNTS)
def test_closed_form_vertex_count(g, expected):
    assert w_power_vertex_count(3, g) == expected


@pytest.mark.parametrize("g", [1, 2])
def test_closed_form_matches_enumeration(g):
    assert w_power_vertex_count(3, g) == count_w_morphisms(w_power(3, g), 3)
    assert w_power_vertex_count(2, g) == count_w_morphisms(w_power(2, g), 2)


def test_closed_form_composite_level():
    # 24 primitive pairs in (Z/6)^2 times 36 translates / 6
    assert w_power_vertex_count(6, 1) == 144
    assert count_w_morphisms(standard_w(6), 6) == 144


# ---------------------------------------------------------------------------
# materialized structure
# ---------------------------------------------------------------------------


def test_level_one_complex_is_discrete():
    L = build_l_complex(standard_w(3), 3)
    assert L.materialized
    assert L.vertex_count == 24
    assert L.edge_count() == 0
    assert len(L.components()) == 24


def test_w3_squared_skeleton(L2):
    assert L2.materialized
    assert L2.vertex_count == 2160
    assert L2.edge_count() == 25920
    comps = L2.components()
    assert len(comps) == 45
    assert all(len(c) == 48 for c in comps)
    degrees = L2.flag.adj.sum(axis=1)
    assert degrees.min() == degrees.max() == 24


def test_w3_squared_components_are_complete_bipartite(L2):
    comps = L2.components()
    for comp in random.Random(7).sample(comps, 3):
        labels = sorted(comp)
        sub = L2.flag.induced(labels)
        G = nx.Graph()
        G.add_nodes_from(sub.vertices)
        G.add_edges_from(sub.faces_of_dim(1))
        assert nx.is_bipartite(G)
        left, right = nx.bipartite.sets(G)
        assert len(left) == len(right) == 24
        assert G.number_of_edges() == 24 * 24


def test_adjacency_predicates(L2):
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    a, b = L2.vertex(i), L2.vertex(j)
    assert are_adjacent(a, b)
    assert images_orthogonal(a, b)
    assert images_intersect_trivially(a, b)
    assert not are_adjacent(a, a)
    # some non-neighbour of i
    k = int(np.nonzero(~L2.flag.adj[i])[0][1])
    if k != i:
        assert not are_adjacent(a, L2.vertex(k))


def test_vertex_index_round_trip(L2):
    for i in (0, 17, 2159):
        m = L2.vertex(i)
        assert L2.index_of(m) == i
    assert L2.vertex(L2.vertex(5)) is L2.vertex(5)
    with pytest.raises(InputError):
        L2.vertex(2160)
    with pytest.raises(InputError):
        L2.vertex(-1)
    foreign = first_w_morphism(w_power(3, 3), 3)
    with pytest.raises(InputError):
        L2.index_of(foreign)


# ---------------------------------------------------------------------------
# lazy handles and caps
# ---------------------------------------------------------------------------


def test_complex_outside_int64_gate():
    """W_{2p}^2 at k = 2, p = 1048583: D = 2p is past the int64 gate, so the
    adjacency kernel runs on Python ints; it must equal pairwise exact
    orthogonality."""
    form = w_power(2 * 1048583, 2)
    assert not fits_int64(form.denominator, 2 * 1048583, 4)
    L = build_l_complex(form, 2)
    assert L.vertex_count == 120
    assert L.edge_count() == 360
    assert len(L.components()) == 10
    morphs = [L.vertex(i) for i in range(L.vertex_count)]
    for i, j in itertools.combinations(range(len(morphs)), 2):
        assert L.flag.adj[i, j] == images_orthogonal(morphs[i], morphs[j])
    assert not L.flag.adj.diagonal().any()


def test_lazy_below_forced_cap():
    L = build_l_complex(w_power(3, 2), 3, materialize_cap=100)
    assert not L.materialized
    assert L.vertex_count == 2160
    m = L.vertex(0)
    assert m.key() == first_w_morphism(w_power(3, 2), 3).key()
    with pytest.raises(CapExceeded):
        L.edge_count()
    with pytest.raises(CapExceeded):
        L.components()
    with pytest.raises(CapExceeded):
        L.index_of(m)


def test_force_materialize_over_cap():
    with pytest.raises(CapExceeded):
        build_l_complex(w_power(3, 2), 3, materialize_cap=100, force_materialize=True)


def test_edge_cap():
    with pytest.raises(CapExceeded):
        build_l_complex(w_power(3, 2), 3, edge_cap=100)


def test_lazy_large_power():
    L = build_l_complex(w_power(3, 4), 3)
    assert not L.materialized
    assert L.vertex_count == 14346720
    assert L.vertex(14346719) is not None
    with pytest.raises(InputError):
        L.vertex(14346720)


# ---------------------------------------------------------------------------
# link identification
# ---------------------------------------------------------------------------


def test_link_iso_empty_simplex():
    # link of the empty simplex is the whole complex; exact edge-for-edge
    # comparison is feasible on the discrete level-one complex
    L = build_l_complex(standard_w(3), 3)
    assert verify_link_iso(L, [])


def test_link_iso_level_not_dividing_denominator():
    # W_2 has no element pairing to 1/3: both sides of the link are empty
    assert verify_link_iso(build_l_complex(standard_w(2), 3), [])


def test_link_iso_pair_cap(L2):
    # on 2160 vertices the empty simplex needs ~2.3M pairwise checks,
    # beyond the default cap; the comparison refuses rather than sampling
    with pytest.raises(CapExceeded):
        verify_link_iso(L2, [])


def test_link_iso_vertices(L2):
    rng = random.Random(11)
    for i in rng.sample(range(2160), 4):
        assert verify_link_iso(L2, [i])


def test_link_iso_edge(L2):
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    assert verify_link_iso(L2, [i, j])  # empty link on both sides


def test_link_iso_rejects_non_simplex(L2):
    i = 0
    j = int(np.nonzero(~L2.flag.adj[i])[0][1])
    with pytest.raises(InputError):
        verify_link_iso(L2, [i, j])


# ---------------------------------------------------------------------------
# constructive paths
# ---------------------------------------------------------------------------


def test_path_shortcuts():
    L = build_l_complex(w_power(3, 4), 3)
    res = find_short_path(L, 0, 0)
    assert res and res.path == [L.vertex(0)] and res.stats["shortcut"] == "equal"
    comp = L.complement_of(L.vertex(0))
    neighbour = comp.embed_morphism(first_w_morphism(comp.form, 3))
    res = find_short_path(L, 0, neighbour)
    assert res and len(res.path) == 2 and res.stats["shortcut"] == "adjacent"


def test_path_through_hub_without_materializing():
    L = build_l_complex(w_power(3, 4), 3)
    res = find_short_path(L, 0, 7_000_001)
    assert res.status == "ok"
    assert len(res.path) - 1 <= 4
    assert res.path[0].key() == L.vertex(0).key()
    assert res.path[-1].key() == L.vertex(7_000_001).key()
    for a, b in zip(res.path, res.path[1:]):
        assert are_adjacent(a, b)
    assert not L.materialized


def test_lazy_paths_on_w3_fifth_power():
    """Hub paths on W_3^5 (1,162,241,784 vertices) at seeded index pairs.

    The form is nondegenerate on (Z/3)^10, so each nonzero x has 3^9
    partners y and vertex i has x = the (1 + i // 3^9)-th torsion row.
    """
    form = w_power(3, 5)
    L = build_l_complex(form, 3)
    assert not L.materialized
    third = QZValue(1, 3)

    def digits(n):
        return tuple(n // 3**e % 3 for e in range(9, -1, -1))

    rng = random.Random(5)
    for _ in range(20):
        i, j = rng.randrange(L.vertex_count), rng.randrange(L.vertex_count)
        res = find_short_path(L, i, j)
        assert res and len(res.path) - 1 <= 4
        assert res.path[0].x.coeffs == digits(1 + i // 3**9)
        assert res.path[-1].x.coeffs == digits(1 + j // 3**9)
        for v in res.path:
            assert v.x.scale(3).is_zero() and v.y.scale(3).is_zero()
            assert form.evaluate(v.x, v.y) == third
        for a, b in zip(res.path, res.path[1:]):
            assert all(
                form.evaluate(u, w).is_zero() for u in (a.x, a.y) for w in (b.x, b.y)
            )


def test_orthogonal_rows_at_int64_gate_edge():
    """The link mask at the largest odd modulus and rank the gate admits,
    with entries next to 2**20, against Python integers.  The unreduced
    product x . (N img) exceeds int64 here."""
    r, D = 64, (1 << 20) - 1
    assert fits_int64(D, 1 << 20, r)
    rng = np.random.default_rng(7)
    N = rng.integers(D - 64, D, size=(r, r))
    img = rng.integers((1 << 20) - 64, 1 << 20, size=r)
    X = rng.integers((1 << 20) - 64, 1 << 20, size=(8, r))
    w = [sum(int(N[a, b]) * int(img[b]) for b in range(r)) for a in range(r)]
    t = next(a for a in range(r) if math.gcd(w[a], D) == 1)
    for row in X[:4]:  # make these rows orthogonal to img: solve for entry t
        rest = sum(int(row[a]) * w[a] for a in range(r) if a != t)
        row[t] = -rest * pow(w[t], -1, D) % D
    exact = [sum(int(x[a]) * w[a] for a in range(r)) for x in X]
    assert max(exact) >= 1 << 63
    want = [v % D == 0 for v in exact]
    assert want == [True] * 4 + [False] * 4
    assert _orthogonal_rows(X, N, D, [img]).tolist() == want


def test_path_needs_rank_three_hub(L2):
    # no vertex of the two-block power has a complement of block rank 3,
    # so the hub construction reports its absence instead of guessing
    res = find_short_path(L2, 0, 777)
    assert res.status == "no-f0"
    assert not res
    assert res.stats["reason"] == "absent-at-cap"


# ---------------------------------------------------------------------------
# transitivity witnesses
# ---------------------------------------------------------------------------


def test_edge_swap_is_isometry(L2):
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    a, b = L2.vertex(i), L2.vertex(j)
    h = edge_swap_automorphism(a, b)
    assert h(a.x) == b.x and h(a.y) == b.y
    form = L2.form
    rng = random.Random(5)
    facs = form.group.orders
    for _ in range(30):
        u = form.group.element([rng.randrange(n) for n in facs])
        v = form.group.element([rng.randrange(n) for n in facs])
        assert form.evaluate(h(u), h(v)) == form.evaluate(u, v)


def test_edge_swap_requires_adjacency(L2):
    i = 0
    j = int(np.nonzero(~L2.flag.adj[i])[0][1])
    with pytest.raises(InputError):
        edge_swap_automorphism(L2.vertex(i), L2.vertex(j))


def test_witness_identity_and_edge(L2):
    res = transitivity_witness(L2, 3, 3)
    assert res and res.stats["length"] == 0
    ident = identity_morphism(L2.form)
    gens = [L2.form.group.generator(t) for t in range(L2.form.group.rank)]
    assert all(res.automorphism(g) == ident(g) for g in gens)
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    res = transitivity_witness(L2, i, j)
    assert res and res.stats["length"] == 1


def test_witness_by_bfs_same_component(L2):
    comp = sorted(L2.components()[0])
    i = comp[0]
    j = next(v for v in comp if not L2.flag.adj[i, v] and v != i)
    res = transitivity_witness(L2, i, j)
    assert res.status == "ok"
    m0, m1 = L2.vertex(i), L2.vertex(j)
    h = res.automorphism
    assert h(m0.x) == m1.x and h(m0.y) == m1.y


def test_witness_cross_component_fails(L2):
    comps = L2.components()
    i = sorted(comps[0])[0]
    j = sorted(comps[1])[0]
    res = transitivity_witness(L2, i, j)
    assert res.status == "path-not-found"
    assert not res
    assert res.automorphism is None


def test_witness_lazy_through_hub():
    L = build_l_complex(w_power(3, 4), 3)
    res = transitivity_witness(L, 1, 9_999_999)
    assert res.status == "ok"
    m0, m1 = L.vertex(1), L.vertex(9_999_999)
    h = res.automorphism
    assert h(m0.x) == m1.x and h(m0.y) == m1.y
    assert res.stats["length"] <= 4


def test_witness_explicit_path(L2):
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    res = transitivity_witness(L2, i, j, path=[i, j])
    assert res and res.stats["length"] == 1


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_cancellation_isomorphic_pair():
    rng = random.Random(23)
    M = standard_w(3)
    N, _ = scramble_form(M, rng)
    rep = cancellation_check(M, N, 3)
    assert rep.with_block and rep.direct and rep.consistent
    assert bool(rep)
    assert rep.hypothesis["stable_rank_lower"] == 2
    assert rep.hypothesis["certified"]
    assert not rep.hypothesis["sufficient"]


def test_cancellation_distinct_pair():
    rep = cancellation_check(standard_w(3), standard_w(9), 3)
    assert not rep.with_block and not rep.direct and rep.consistent
    assert not bool(rep)


def test_cancellation_direct_sum_pair():
    M = w_power(3, 2)
    rng = random.Random(4)
    N, _ = scramble_form(M, rng)
    rep = cancellation_check(M, N, 3)
    assert rep.with_block and rep.direct and rep.consistent
    # stabilized form is the cube: ranks 3,4,5 against g = 0,1,2
    assert rep.hypothesis["stable_rank_lower"] == 3
