import functools
import itertools
import math
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from linkforms import (
    CapExceeded,
    FinAbGroup,
    FormMorphism,
    GroupHom,
    InputError,
    InvariantError,
    LinkingForm,
    QZValue,
    Subgroup,
    are_isomorphic,
    build_l_complex,
    count_w_morphisms,
    direct_sum,
    edge_swap_automorphism,
    find_short_path,
    first_w_morphism,
    identity_morphism,
    images_orthogonal,
    kernel_form,
    stable_k_rank,
    standard_w,
    transitivity_witness,
    verify_link_iso,
    w_morphism,
    w_power_vertex_count,
)
from linkforms._kernels import fits_int64
from linkforms.corpus import scramble_form
from linkforms.forms import _w_pairs
from linkforms import lcomplex
from linkforms.lcomplex import _ambient_link_keys, _bfs_path, _orthogonal_rows
from test_kernels import largest_odd_modulus, largest_odd_order

# D = 2 * P is past the int64 gate already at rank 2 (2 * D**2 > 2**63).
P = (1 << 31) - 1


def w_power(k, g):
    form = standard_w(k)
    for _ in range(g - 1):
        form = direct_sum(form, standard_w(k))
    return form


def images_intersect_trivially(f, g):
    """SNF oracle for the lemma of the lcomplex docstring: the images of two
    W_k blocks meet only in 0 when together they generate k^4 elements."""
    joint = Subgroup(f.target.group, list(f.images) + list(g.images))
    return joint.order == f.block_k ** 4


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
        G.add_edges_from(sub.edges())
        assert nx.is_bipartite(G)
        left, right = nx.bipartite.sets(G)
        assert len(left) == len(right) == 24
        assert G.number_of_edges() == 24 * 24


def test_adjacency_predicates(L2):
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    a, b = L2.vertex(i), L2.vertex(j)
    assert images_orthogonal(a, b) and images_orthogonal(b, a)
    assert images_intersect_trivially(a, b)
    assert not images_orthogonal(a, a)
    assert not images_intersect_trivially(a, a)
    # some non-neighbour of i
    k = next(int(k) for k in np.nonzero(~L2.flag.adj[i])[0] if k != i)
    assert not images_orthogonal(a, L2.vertex(k))


def _materialized_edges(form, k):
    L = build_l_complex(form, k)
    vertices = [L.vertex(i) for i in range(L.vertex_count)]
    return [(vertices[i], vertices[j]) for i, j in np.argwhere(np.triu(L.flag.adj, 1)).tolist()]


def _lazy_path_edges(g):
    """Consecutive vertices of 50 find_short_path and 10
    transitivity_witness paths between seeded vertex indices of the lazy
    complex of W_3^g: the pairs that lazy queries take as edges."""
    L = build_l_complex(w_power(3, g), 3)
    assert not L.materialized
    rng = random.Random(g)
    pairs = []
    for query, n in ((find_short_path, 50), (transitivity_witness, 10)):
        for _ in range(n):
            res = query(L, rng.randrange(L.vertex_count), rng.randrange(L.vertex_count))
            assert res
            pairs += zip(res.path, res.path[1:])
    return pairs


LEMMA_CASES = {
    "W_3^2 k=3": lambda: _materialized_edges(w_power(3, 2), 3),
    "W_6^2 k=2": lambda: _materialized_edges(w_power(6, 2), 2),
    "W_6^2 k=3": lambda: _materialized_edges(w_power(6, 2), 3),
    "scrambled W_3^2 k=3": lambda: _materialized_edges(
        scramble_form(w_power(3, 2), random.Random(3))[0], 3
    ),
    "W_{2p}^2 k=2": lambda: _materialized_edges(w_power(2 * 1048583, 2), 2),
    "W_3^4 lazy paths": lambda: _lazy_path_edges(4),
    "W_3^5 lazy paths": lambda: _lazy_path_edges(5),
}


@pytest.mark.parametrize("case", LEMMA_CASES)
def test_orthogonal_edges_intersect_trivially(case):
    """The lemma behind the one edge relation of lazy and materialized
    complexes, against the SNF oracle: orthogonal images of two W_k blocks
    meet only in 0."""
    edges = LEMMA_CASES[case]()
    assert len(edges) > 0
    for a, b in edges:
        assert images_orthogonal(a, b)
        assert images_intersect_trivially(a, b)


def test_vertex_index_round_trip(L2):
    for i in (0, 17, 2159):
        m = L2.vertex(i)
        assert L2.index_of(m) == i
    m = L2.vertex(5)
    assert L2.vertex(m) is m
    with pytest.raises(InputError):
        L2.vertex(2160)
    with pytest.raises(InputError):
        L2.vertex(-1)
    foreign = first_w_morphism(w_power(3, 3), 3)
    with pytest.raises(InputError):
        L2.index_of(foreign)
    # W_3 (+) W_3 with the second block negated: a morphism inside the first
    # block has the key of a vertex of L2 but maps into another form
    flipped = LinkingForm._from_numerators(
        L2.form.group, 3, [[-n if i >= 2 else n for n in row] for i, row in enumerate(L2.form.numerators)]
    )
    e = L2.form.group.generator
    assert w_morphism(L2.form, 3, e(0), e(1)).key() == w_morphism(flipped, 3, e(0), e(1)).key()
    with pytest.raises(InputError):
        L2.index_of(w_morphism(flipped, 3, e(0), e(1)))


@pytest.mark.parametrize("materialize_cap", [None, 10])
def test_index_of_checks_the_range(materialize_cap, monkeypatch):
    """An integer index is a vertex only inside [0, vertex_count), as for
    ``vertex``; a lazy complex answers without building a morphism."""
    kwargs = {} if materialize_cap is None else {"materialize_cap": materialize_cap}
    L = build_l_complex(standard_w(3), 3, **kwargs)
    assert L.vertex_count == 24 and L.materialized == (materialize_cap is None)
    monkeypatch.setattr(lcomplex, "w_morphism_by_index", None)
    assert [L.index_of(i) for i in (0, 23, np.int64(5))] == [0, 23, 5]
    for bad in (10**9, -5, 24, np.int64(-1)):
        with pytest.raises(InputError, match="out of range"):
            L.index_of(bad)
    for bad in (2.7, "5", np.float64(3.0)):
        for query in (L.index_of, L.vertex):
            with pytest.raises(InputError, match="not an integer"):
                query(bad)


@pytest.mark.parametrize("materialize_cap", [None, 100], ids=["materialized", "lazy"])
def test_every_vertex_keeps_its_number(materialize_cap):
    """On L(W_3^2) at k = 3, materialized and lazy, vertex i is the i-th
    pair of the scan that numbers the adjacency, and ``index_of`` inverts
    ``vertex`` on every index."""
    kwargs = {} if materialize_cap is None else {"materialize_cap": materialize_cap}
    L = build_l_complex(w_power(3, 2), 3, **kwargs)
    assert L.materialized == (materialize_cap is None)
    for i, key in enumerate(_w_pairs(L.form, 3, cap=2160)):
        m = L.vertex(i)
        assert m.key() == key
        assert L.index_of(m) == i
    if L.materialized:
        assert np.array_equal(L.flag.adj, _key_route_adjacency(L.form, 3))


def _singular_restriction():
    """W_3^2 restricted to the kernel of a map onto Z/3: a singular form."""
    M = w_power(3, 2)
    C = FinAbGroup.of(3)
    phi = GroupHom(M.group, C, [C.element((c,)) for c in (1, 0, 2, 1)])
    return kernel_form(M, phi).form


ROUND_TRIP_CASES = {
    "W_3^4 k=3": (lambda: w_power(3, 4), 3),
    "W_2p^2 k=2": (lambda: w_power(2 * P, 2), 2),
    "W_6^2 k=2": (lambda: scramble_form(w_power(6, 2), random.Random(6))[0], 2),
    "W_6^2 k=3": (lambda: scramble_form(w_power(6, 2), random.Random(6))[0], 3),
    "W_6^2 k=6": (lambda: scramble_form(w_power(6, 2), random.Random(6))[0], 6),
    "ker W_3^2 k=3": (_singular_restriction, 3),
    # W_6^2 at k = 6 has 259,200 vertices; this composite level materializes
    "W_6+W_2 k=6": (lambda: scramble_form(direct_sum(standard_w(6), standard_w(2)),
                                          random.Random(6))[0], 6),
}


@functools.cache
def _round_trip_complex(case):
    make, k = ROUND_TRIP_CASES[case]
    L = build_l_complex(make(), k)
    return L, L.form.torsion_matrix(k)


def _key_route_adjacency(form, k):
    """Oracle for the materialized adjacency, by the route that keys every
    vertex: the (x, y) coefficient tuples of the pair scan, one kernel row
    per distinct tuple (``_orthogonality``), loops removed."""
    adj = lcomplex._orthogonality(form, k, _w_pairs(form, k, cap=count_w_morphisms(form, k)))
    np.fill_diagonal(adj, False)
    return adj


def test_round_trip_cases_cover_both_flavours_and_paths():
    """The round-trip cases hold lazy and materialized complexes, an exact
    (past the int64 gate) form and a singular one.  Each materialized
    adjacency, built from the row indices of the pair scan, equals the
    key-route oracle, on int64 and exact forms alike."""
    complexes = [_round_trip_complex(case)[0] for case in ROUND_TRIP_CASES]
    assert {L.materialized for L in complexes} == {True, False}
    assert any(L.form._np_numerators is None for L in complexes)
    assert not _round_trip_complex("ker W_3^2 k=3")[0].form.is_nonsingular()
    exact = set()
    for L in complexes:
        if L.materialized:
            assert np.array_equal(L.flag.adj, _key_route_adjacency(L.form, L.k))
            exact.add(L.form._np_numerators is None)
    assert exact == {True, False}
    assert {L.k for L in complexes if L.materialized} == {2, 3, 6}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ROUND_TRIP_CASES)), st.data())
def test_index_round_trip(case, data):
    """``index_of(vertex(i)) == i`` on a drawn index, and conversely
    ``vertex(index_of(f)) == f`` for a vertex f built from a pair found by
    scanning M[k]: its offset is y's place among the partners of x."""
    L, X = _round_trip_complex(case)
    i = data.draw(st.integers(0, L.vertex_count - 1))
    assert L.index_of(L.vertex(i)) == i
    D, N = L.form.denominator, L.form._numerator_array
    x = data.draw(st.integers(0, len(X) - 1))
    partners = np.flatnonzero(X @ ((X[x] @ N) % D) % D == D // L.k)
    assume(len(partners))
    offset = data.draw(st.integers(0, len(partners) - 1))
    element = L.form.group.element
    f = w_morphism(L.form, L.k, element(X[x].tolist()), element(X[partners[offset]].tolist()))
    j = L.index_of(f)
    assert j % len(partners) == offset
    assert L.vertex(j) == f


def _foreign_vertices(form, k):
    """Block morphisms that are not vertices of the complex of ``form`` at
    k: one into 2b on the same group, one into W_k^5, and one into
    ``form`` itself from the zero form on (Z/k)^2 instead of W_k."""
    twice = LinkingForm._from_numerators(
        form.group, form.denominator, [[2 * n for n in row] for row in form.numerators]
    )
    zero = LinkingForm(FinAbGroup.of(k, k), [[QZValue(0, 1)] * 2] * 2)
    return {
        "other form, same group": first_w_morphism(twice, k),
        "other group": first_w_morphism(w_power(k, 5), k),
        "other source": FormMorphism(zero, form, [form.group.element((0,) * form.group.rank)] * 2),
    }


@pytest.mark.parametrize("case", ["other form, same group", "other group", "other source"])
def test_vertex_rejects_foreign_morphisms(case):
    """A morphism passed as a vertex must be a morphism from W_k into the
    complex's form; anything else is bad input, not a broken invariant."""
    L = build_l_complex(w_power(3, 4), 3)
    foreign = _foreign_vertices(L.form, 3)[case]
    with pytest.raises(InputError):
        L.vertex(foreign)
    for query in (find_short_path, transitivity_witness):
        with pytest.raises(InputError):
            query(L, foreign, 0)
        with pytest.raises(InputError):
            query(L, 0, foreign)
    with pytest.raises(InputError):
        verify_link_iso(L, [foreign])


def test_orthogonality_needs_one_target():
    """images_orthogonal compares images in one form only, which guards
    edge_swap_automorphism too."""
    form = w_power(3, 4)
    f = first_w_morphism(form, 3)
    g = _foreign_vertices(form, 3)["other form, same group"]
    assert f.target.group == g.target.group
    for a, b in ((f, g), (g, f)):
        with pytest.raises(InputError, match="different forms"):
            images_orthogonal(a, b)
        with pytest.raises(InputError, match="different forms"):
            edge_swap_automorphism(a, b)


# ---------------------------------------------------------------------------
# lazy handles and caps
# ---------------------------------------------------------------------------


def test_complex_outside_int64_gate():
    """W_{2p}^2 at k = 2, p = 2^31 - 1: D = 2p is past the int64 gate, so the
    adjacency kernel runs on Python ints; it must equal pairwise exact
    orthogonality."""
    form = w_power(2 * P, 2)
    assert not fits_int64(form.denominator, 2 * P, 4)
    assert form._np_numerators is None
    L = build_l_complex(form, 2)
    assert L.vertex_count == 120
    assert L.edge_count() == 360
    assert len(L.components()) == 10
    morphs = [L.vertex(i) for i in range(L.vertex_count)]
    for i, j in itertools.combinations(range(len(morphs)), 2):
        assert L.flag.adj[i, j] == images_orthogonal(morphs[i], morphs[j])
    assert not L.flag.adj.diagonal().any()


def test_exact_adjacency_equals_int64():
    """The 2-torsion of W_{2p}^3, p = 2^31 - 1, is W_2^3 with every
    coefficient scaled by p, in the same lexicographic order: the exact-path
    adjacency must equal the int64-path adjacency of W_2^3."""
    exact_form, int_form = w_power(2 * P, 3), w_power(2, 3)
    assert exact_form._np_numerators is None and int_form._np_numerators is not None
    exact, ints = build_l_complex(exact_form, 2), build_l_complex(int_form, 2)
    assert exact.vertex_count == ints.vertex_count == 2016
    assert np.array_equal(exact.flag.adj, ints.flag.adj)
    assert exact.edge_count() == 120960
    assert len(exact.components()) == 1


def test_materialized_build_memory():
    """Building W_3^2 at k = 3 holds the V x V adjacency plus blocks of fixed
    size; four V x V pairing products would read about 17 V^2 bytes."""
    form = w_power(3, 2)
    tracemalloc.start()
    try:
        L = build_l_complex(form, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.vertex_count == 2160
    assert peak < 3 * L.vertex_count ** 2


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
    assert L.index_of(m) == 0


def test_force_materialize_over_cap():
    with pytest.raises(CapExceeded):
        build_l_complex(w_power(3, 2), 3, materialize_cap=100, force_materialize=True)


def test_adjacency_cap_refuses_before_allocating(monkeypatch):
    """ADJACENCY_BYTE_CAP is read at call time: W_3^2 at k = 3 builds with
    its 2160^2 bytes of adjacency exactly at the cap, and one byte below it
    the build is refused before the pair scan, so before any V x V array."""
    monkeypatch.setattr(lcomplex, "ADJACENCY_BYTE_CAP", 2160**2)
    assert build_l_complex(w_power(3, 2), 3, materialize_cap=10**6).materialized
    monkeypatch.setattr(lcomplex, "ADJACENCY_BYTE_CAP", 2160**2 - 1)

    def allocating(*args):
        raise AssertionError("adjacency work ran before the cap check")

    monkeypatch.setattr(lcomplex._kernels, "pairs_hitting", allocating)
    monkeypatch.setattr(lcomplex._kernels, "orth_adjacency", allocating)
    for force in (False, True):
        with pytest.raises(CapExceeded) as exc:
            build_l_complex(w_power(3, 2), 3, materialize_cap=10**6, force_materialize=force)
        assert (exc.value.needed, exc.value.cap) == (2160**2, 2160**2 - 1)
    assert not build_l_complex(w_power(3, 2), 3, materialize_cap=2159).materialized


def test_edge_cap(monkeypatch):
    monkeypatch.setattr(lcomplex, "DEFAULT_EDGE_CAP", 100)
    with pytest.raises(CapExceeded):
        build_l_complex(w_power(3, 2), 3)


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


@pytest.fixture(scope="module")
def L2cube():
    return build_l_complex(w_power(2, 3), 2)


def test_link_iso_vertex_links_with_edges(L2cube):
    """Each vertex link of W_2^3 at k = 2 is the W_2^2 complex, which has
    edges, so the edge comparison runs on a nonempty relation."""
    L = L2cube
    assert L.materialized and L.vertex_count == 2016
    for i in random.Random(13).sample(range(L.vertex_count), 3):
        link = np.nonzero(L.flag.adj[i])[0]
        assert len(link) == 120
        assert L.flag.adj[np.ix_(link, link)].sum() == 2 * 360
        assert verify_link_iso(L, [i])


def test_link_iso_lazy_outside_int64_gate():
    """The same links on W_{2p}^3 at k = 2, p = 2^31 - 1, lazily and on
    Python-int arrays."""
    form = w_power(2 * P, 3)
    assert form._np_numerators is None
    L = build_l_complex(form, 2, materialize_cap=100)
    assert not L.materialized and L.vertex_count == 2016
    for i in random.Random(13).sample(range(L.vertex_count), 2):
        assert len(_ambient_link_keys(L, [L.vertex(i)], 120)) == 120
        assert verify_link_iso(L, [i])


def test_link_iso_detects_edge_mismatch(L2cube, monkeypatch):
    """A link whose complement side has one edge too many is refused."""
    i = 0
    assert verify_link_iso(L2cube, [i])
    true_orthogonality = lcomplex._orthogonality

    def patched(form, k, morphs):
        out = true_orthogonality(form, k, morphs)
        if form is not L2cube.form:  # the complement side
            j = int(np.nonzero(~out[0])[0][1])
            out[0, j] = out[j, 0] = True
        return out

    monkeypatch.setattr(lcomplex, "_orthogonality", patched)
    assert not verify_link_iso(L2cube, [i])


def test_link_cap_refuses_before_listing(monkeypatch):
    """Vertex 5 of the lazy W_3^4 complex has 176,904 link vertices, so
    15,647,424,156 pairs: the count is refused before any complement
    morphism or ambient key is listed."""
    L = build_l_complex(w_power(3, 4), 3)

    def listing(*args, **kwargs):
        raise AssertionError("link listed before the cap check")

    monkeypatch.setattr(lcomplex, "morphisms_from_w", listing)
    monkeypatch.setattr(lcomplex, "_ambient_link_keys", listing)
    with pytest.raises(CapExceeded) as info:
        verify_link_iso(L, [5])
    assert (info.value.needed, info.value.cap) == (15_647_424_156, lcomplex.LINK_EDGE_PAIR_CAP)


@pytest.mark.parametrize("change", ["more", "fewer"])
def test_link_iso_ambient_total_other_than_n(L2cube, monkeypatch, change):
    """An ambient link with more, or fewer, candidate pairs than the n
    complement morphisms is refused, not raised on: more rows than the
    orthogonal ones give more than n pairs, half of them fewer."""
    true_rows = lcomplex._orthogonal_rows

    def patched(X, N, D, images):
        mask = true_rows(X, N, D, images)
        if change == "more":
            return np.ones_like(mask)
        kept = np.flatnonzero(mask)
        mask[kept[len(kept) // 2:]] = False
        return mask

    monkeypatch.setattr(lcomplex, "_orthogonal_rows", patched)
    assert not verify_link_iso(L2cube, [0])


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
        assert images_orthogonal(a, b)
    assert not L.materialized


def test_hub_complement_is_computed_once(monkeypatch):
    """Repeated hub paths on one lazy complex reuse the hub's orthogonal
    complement, computed once when the hub is selected."""
    calls = []
    real = lcomplex.orthogonal_complement

    def spy(form, sub):
        calls.append(tuple(g.coeffs for g in sub.generators))
        return real(form, sub)

    monkeypatch.setattr(lcomplex, "orthogonal_complement", spy)
    L = build_l_complex(w_power(3, 4), 3)
    rng = random.Random(3)
    hub_queries = 0
    for _ in range(4):
        res = find_short_path(L, rng.randrange(L.vertex_count), rng.randrange(L.vertex_count))
        assert res
        hub_queries += "f0_index" in res.stats
    f0 = L.hub[0]
    assert hub_queries == 4
    assert calls.count(tuple(img.coeffs for img in f0.images)) == 1


def _zero_form(k, rank):
    """The zero form on (Z/k)^rank: every element lies in the radical."""
    return LinkingForm._from_numerators(FinAbGroup.of(*[k] * rank), 1, [[0] * rank] * rank)


@pytest.mark.parametrize("form, reason", [
    (w_power(3, 3), "absent-at-cap"),
    (direct_sum(w_power(3, 3), _zero_form(3, 2)), "budget"),
], ids=["W_3^3", "W_3^3+zero^2"])
def test_hubless_complex_searches_for_a_hub_once(monkeypatch, form, reason):
    """A lazy complex without a hub pays for the hub search on its first
    path query only: later paths and witnesses run no ``k_rank`` and answer
    with the first query's stats, key for key and in the same order.  Each
    complement of a vertex of W_3^3 has block rank 2; with the zero form
    added, the complements' rank searches stop uncertified."""
    calls = []
    real = lcomplex.k_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lcomplex, "k_rank", counting)
    monkeypatch.setattr(lcomplex, "F0_SCAN", 3)
    L = build_l_complex(form, 3)
    assert not L.materialized
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 7:
        i, j = rng.randrange(L.vertex_count), rng.randrange(L.vertex_count)
        if i != j and not images_orthogonal(L.vertex(i), L.vertex(j)):
            pairs.append((i, j))
    first = find_short_path(L, *pairs[0])
    assert first.status == "no-f0"
    assert list(first.stats.items()) == [("scanned", 3), ("reason", reason)]
    assert len(calls) == 3
    for n, (i, j) in enumerate(pairs[1:]):
        res = (find_short_path, transitivity_witness)[n % 2](L, i, j)
        assert not res
        assert list(res.stats.items()) == list(first.stats.items())
    assert len(calls) == 3


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
    """The link mask of ``_ambient_link_keys`` at ranks 8 to 12, with odd D
    next to sqrt(2**63 / r) and the largest odd order dmax the gate admits,
    entries next to dmax and D, against Python integers: on int64 arrays,
    and with the next odd order, past the gate, on the dtype=object arrays
    it gets.  The unreduced product x . (N img) exceeds int64 every time."""
    for r in (8, 10, 12):
        D = largest_odd_modulus(r)
        dmax = largest_odd_order(D, r)
        for order, want in ((dmax, np.int64), (dmax + 2, object)):
            assert (np.int64 if fits_int64(D, order, r) else object) is want
            rng = np.random.default_rng(order)
            N = rng.integers(D - 64, D, size=(r, r))
            img = rng.integers(order - 64, order, size=r)
            X = rng.integers(order - 64, order, size=(8, r))
            w = [sum(int(N[a, b]) * int(img[b]) for b in range(r)) for a in range(r)]
            t = next(a for a in range(r) if math.gcd(w[a], D) == 1)
            for row in X[:4]:  # make these rows orthogonal to img: solve for entry t
                rest = sum(int(row[a]) * w[a] for a in range(r) if a != t)
                row[t] = -rest * pow(w[t], -1, D) % D
            exact = [sum(int(x[a]) * w[a] for a in range(r)) for x in X]
            assert max(exact) >= 1 << 63
            expected = [v % D == 0 for v in exact]
            assert expected == [True] * 4 + [False] * 4
            got = _orthogonal_rows(X.astype(want), N.astype(want), D, [img.tolist()])
            assert got.tolist() == expected


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


def _level_order_path(adj, i0, i1):
    """Shortest path from i0 to i1 by a level-by-level search that expands
    each level in discovery order and neighbours in ascending order: the
    oracle for ``_bfs_path``."""
    prev = {i0: None}
    level = [i0]
    while level:
        nxt = []
        for u in level:
            for v in map(int, np.nonzero(adj[u])[0]):
                if v not in prev:
                    prev[v] = u
                    if v == i1:
                        path = [v]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        level = nxt
    return None


def test_bfs_path_matches_level_order_oracle(L2):
    rng = random.Random(4)
    comps = [sorted(c) for c in L2.components()]
    pairs = [tuple(rng.sample(rng.choice(comps), 2)) for _ in range(40)]
    pairs += [(sorted(comps[0])[0], sorted(comps[1])[0])]
    for i, j in pairs:
        assert _bfs_path(L2, i, j) == _level_order_path(L2.flag.adj, i, j)


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


def _witness_before_one_route(L, f0, f1):
    """``transitivity_witness`` as it was with its own equal and adjacent
    shortcuts ahead of the BFS and hub routes: the oracle for the one
    route."""
    m0 = L.vertex(f0)
    m1 = L.vertex(f1)
    if m0.key() == m1.key():
        h = identity_morphism(L.form)
        return lcomplex.WitnessResult("ok", h, [m0], {"length": 0})
    if images_orthogonal(m0, m1):
        path = [m0, m1]
    elif L.materialized:
        idx = _bfs_path(L, L.index_of(f0), L.index_of(f1))
        if idx is None:
            return lcomplex.WitnessResult("path-not-found", None, None, {})
        path = [L.vertex(i) for i in idx]
    else:
        res = find_short_path(L, m0, m1)
        if not res:
            return lcomplex.WitnessResult("path-not-found", None, None, res.stats)
        path = res.path
    h = identity_morphism(L.form)
    for a, b in zip(path, path[1:]):
        h = edge_swap_automorphism(a, b).compose(h)
    if h(m0.x) != m1.x or h(m0.y) != m1.y:
        raise InvariantError("witness fails to carry f0 to f1")
    return lcomplex.WitnessResult("ok", h, path, {"length": len(path) - 1})


def _witness_pairs(L):
    """An equal, an adjacent and a hub (lazy) or BFS (materialized) pair
    of vertex indices, the last at distance at least 2."""
    comp = L.complement_of(L.vertex(1))
    neighbour = L.index_of(comp.embed_morphism(first_w_morphism(comp.form, L.k)))
    if not L.materialized:
        return [(5, 5), (1, neighbour), (1, 9_999_999)]
    comp = next(c for c in L.components() if 1 in c)
    return [(5, 5), (1, neighbour), (1, min(v for v in comp if v != 1 and not L.flag.adj[1, v]))]


def test_witness_route_matches_the_shortcut_oracle(L2):
    """Equal, adjacent and farther pairs on lazy W_3^4 and materialized
    W_3^2 get the oracle's path, automorphism and stats."""
    for L in (build_l_complex(w_power(3, 4), 3), L2):
        lengths = []
        for i, j in _witness_pairs(L):
            got = transitivity_witness(L, i, j)
            want = _witness_before_one_route(L, i, j)
            assert got.status == want.status == "ok"
            assert [m.key() for m in got.path] == [m.key() for m in want.path]
            assert got.automorphism.images == want.automorphism.images
            assert got.stats == want.stats
            lengths.append(got.stats["length"])
        assert lengths[:2] == [0, 1] and lengths[2] >= 2


def test_witness_explicit_path(L2):
    """An adjacent pair takes the orthogonal shortcut: the path is the edge
    itself, of length 1."""
    i, j = map(int, np.argwhere(np.triu(L2.flag.adj, 1))[0])
    res = transitivity_witness(L2, i, j)
    assert res and res.stats["length"] == 1
    assert [m.key() for m in res.path] == [L2.vertex(i).key(), L2.vertex(j).key()]


# ---------------------------------------------------------------------------
# cancellation: adding a W_k block to both sides neither creates nor
# destroys isomorphism; the stabilized form's rank stays below 4, the
# threshold past which the block-morphism complex is path connected
# ---------------------------------------------------------------------------


def stabilized_iso(M, N, k):
    """(M + W_k ~ N + W_k, M ~ N, stabilized M + W_k)"""
    MW = direct_sum(M, standard_w(k))
    NW = direct_sum(N, standard_w(k))
    return are_isomorphic(MW, NW), are_isomorphic(M, N), MW


def test_cancellation_isomorphic_pair():
    M = standard_w(3)
    N, _ = scramble_form(M, random.Random(23))
    with_block, direct, MW = stabilized_iso(M, N, 3)
    assert with_block and direct
    sr = stable_k_rank(MW, 3, g_max=2)
    assert sr.value == 2
    assert sr.certified
    assert sr.value < 4


def test_cancellation_distinct_pair():
    with_block, direct, _ = stabilized_iso(standard_w(3), standard_w(9), 3)
    assert not with_block and not direct


def test_cancellation_direct_sum_pair():
    M = w_power(3, 2)
    N, _ = scramble_form(M, random.Random(4))
    with_block, direct, MW = stabilized_iso(M, N, 3)
    assert with_block and direct
    # stabilized form is the cube: ranks 3,4,5 against g = 0,1,2
    assert stable_k_rank(MW, 3, g_max=2).value == 3
