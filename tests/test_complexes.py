import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linkforms import (
    AbGroupDescriptor,
    BudgetExhausted,
    CapExceeded,
    FAIL,
    FinAbGroup,
    INCONCLUSIVE,
    FlagComplex,
    GeneralComplex,
    InputError,
    PASS,
    SimplicialMap,
    SymRelation,
    action_transitivity,
    check_link_lifting,
    full_subgroup,
    homological_connectivity,
    homology,
    inclusion_connectivity_harness,
    invariant_chain,
    lcm_check,
    preserves_links,
    relative_homology,
)
from linkforms import _kernels, complexes
from linkforms.corpus import disjoint_double, random_action_instance, random_flag_complex
from linkforms.snf import prime_factorization
from linkforms.verify import RP2_FACES


def cycle_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return FlagComplex(range(n), adj)


def complete_graph(n):
    adj = ~np.eye(n, dtype=bool)
    return FlagComplex(range(n), adj)


def octahedron():
    """S^2 as a flag complex: K_{2,2,2}, antipodes non-adjacent."""
    adj = np.ones((6, 6), dtype=bool)
    np.fill_diagonal(adj, False)
    for i in (0, 2, 4):
        adj[i, i + 1] = adj[i + 1, i] = False
    return FlagComplex(range(6), adj)


def faces_of_dim(K, d):
    """The d-simplices of K, lexicographic: level d of its face walk."""
    return next(itertools.islice(K.face_levels(), d, None), [])


def recursive_faces_of_dim(K, d):
    """Oracle: the d-simplices as the per-dimension listing found them, a
    recursive clique search over boolean rows for a flag complex, a filter
    of the stored faces by size otherwise."""
    if isinstance(K, GeneralComplex):
        position = K._index.__getitem__
        found = [tuple(sorted(f, key=position)) for f in K.faces if len(f) == d + 1]
        return sorted(found, key=lambda t: tuple(map(position, t)))
    out = []

    def grow(clique, candidates):
        if len(clique) == d + 1:
            out.append(tuple(K.labels[i] for i in clique))
            return
        for i in np.nonzero(candidates)[0]:
            nxt = candidates & K.adj[i]
            nxt[: i + 1] = False
            grow(clique + [int(i)], nxt)

    grow([], np.ones(K.n_vertices, dtype=bool))
    return out


def recursive_levels(K):
    """Oracle: the nonempty dimensions' faces, one recursive listing each."""
    levels = []
    while level := recursive_faces_of_dim(K, len(levels)):
        levels.append(level)
    return levels


def mod_p_betti(faces_by_dim, p):
    """Independent Betti numbers over F_p via Gaussian elimination."""

    def rank_mod_p(rows, ncols):
        rows = [r[:] for r in rows]
        rank = 0
        col = 0
        for col in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            for i in range(len(rows)):
                if i != rank and rows[i][col] % p:
                    c = (rows[i][col] * inv) % p
                    rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    betti = {}
    ranks = {}
    for d in sorted(faces_by_dim):
        if d == 0:
            continue
        lower = {f: i for i, f in enumerate(faces_by_dim[d - 1])}
        rows = []
        for face in faces_by_dim[d]:
            row = [0] * len(lower)
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                row[lower[sub]] = (-1) ** i
            rows.append(row)
        ranks[d] = rank_mod_p(rows, len(lower)) if rows and lower else 0
    for d in sorted(faces_by_dim):
        n_d = len(faces_by_dim[d])
        betti[d] = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return betti


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_flag_complex_validation():
    with pytest.raises(InputError):
        FlagComplex([0, 0], np.zeros((2, 2), dtype=bool))  # repeated label
    bad = np.zeros((2, 2), dtype=bool)
    bad[0, 1] = True  # not symmetric
    with pytest.raises(InputError):
        FlagComplex([0, 1], bad)
    refl = np.ones((2, 2), dtype=bool)
    with pytest.raises(InputError):
        FlagComplex([0, 1], refl)  # self-adjacency


def test_flag_complex_symmetry_check_in_tiles(monkeypatch):
    """With 4 x 4 tiles on an 11-vertex graph (partial tiles at the edges),
    breaking the symmetry at any one off-diagonal cell is refused."""
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 16)
    n = 11
    upper = np.triu(np.random.default_rng(8).random((n, n)) < 0.5, 1)
    adj = upper | upper.T
    FlagComplex(range(n), adj)
    for i, j in itertools.permutations(range(n), 2):
        bad = adj.copy()
        bad[i, j] = not bad[i, j]
        with pytest.raises(InputError, match="symmetric"):
            FlagComplex(range(n), bad)


def test_flag_faces_are_cliques():
    K = complete_graph(4)
    assert len(faces_of_dim(K, 0)) == 4
    assert len(faces_of_dim(K, 1)) == 6
    assert len(faces_of_dim(K, 2)) == 4
    assert len(faces_of_dim(K, 3)) == 1
    assert faces_of_dim(K, 4) == []
    assert K.has_face((0, 1, 2))
    assert not cycle_graph(4).has_face((0, 1, 2))


def test_general_complex_downward_closure():
    K = GeneralComplex([(1, 2, 3), (3, 4)])
    assert K.has_face((1, 2))
    assert K.has_face((4,))
    assert not K.has_face((1, 4))
    assert sorted(faces_of_dim(K, 1)) == [(1, 2), (1, 3), (2, 3), (3, 4)]


def test_faces_budget(monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 100)
    K = complete_graph(16)
    with pytest.raises(CapExceeded):
        faces_of_dim(K, 7)


def general_fixtures():
    return [
        GeneralComplex(RP2_FACES),
        GeneralComplex(moore_space_z3()),
        GeneralComplex(RP2_FACES + moore_space_z3() + [(1, 10)]),
        GeneralComplex([(1, 2, 3), (3, 4)]),
        GeneralComplex(itertools.combinations(range(5), 4)),
        GeneralComplex([(0, 1, 2, 3), (4,)]),
        GeneralComplex([("b", "a"), ("c",)]),
        GeneralComplex([]),
    ]


def random_complex(seed):
    """A random flag complex (any edge density, up to 11 vertices) or one
    of the GeneralComplex fixtures, chosen by the seed."""
    rng = random.Random(seed)
    if rng.random() < 0.2:
        return rng.choice(general_fixtures())
    return random_flag_complex(rng, n_min=0, n_max=11, p=rng.random())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_face_walk_matches_recursive_listing(seed):
    """face_levels() lists the same faces in the same order as one
    recursive listing per dimension, and edges() is its level 1."""
    K = random_complex(seed)
    levels = recursive_levels(K)
    assert list(K.face_levels()) == levels
    assert K.edges() == recursive_faces_of_dim(K, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_face_walk_budget_edge(seed):
    """The budget counts the simplices of all dimensions of one walk: a
    budget equal to the total lists every level, and one less raises
    CapExceeded only after every complete lower level was yielded."""
    K = random_complex(seed)
    levels = recursive_levels(K)
    total = sum(map(len, levels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", total)
        assert list(K.face_levels()) == levels
        if not total:
            return
        mp.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", total - 1)
        walked = []
        with pytest.raises(CapExceeded) as info:
            for level in K.face_levels():
                walked.append(level)
        assert walked == levels[:-1]
        assert info.value.cap == total - 1


def test_link_of_vertex_in_octahedron():
    K = octahedron()
    link = K.link_of((0,))
    assert link.n_vertices == 4
    assert link.edge_count() == 4  # a 4-cycle
    with pytest.raises(InputError):
        K.link_of((0, 1, 99))


def test_link_excludes_simplex_itself():
    K = complete_graph(5)
    link = K.link_of((0, 1))
    assert set(link.vertices) == {2, 3, 4}


def test_induced_commutes_with_link():
    rng = random.Random(31)
    for _ in range(25):
        K = random_flag_complex(rng)
        vs = list(K.vertices)
        v = rng.choice(vs)
        sub_labels = [u for u in vs if rng.random() < 0.7 or u == v]
        sub = K.induced(sub_labels)
        link_then_induce = K.link_of((v,)).induced(
            [u for u in K.link_of((v,)).vertices if u in sub_labels]
        )
        induce_then_link = sub.link_of((v,))
        assert set(link_then_induce.vertices) == set(induce_then_link.vertices)
        assert sorted(faces_of_dim(link_then_induce, 1)) == sorted(
            faces_of_dim(induce_then_link, 1)
        )


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_of_simplex_is_sphere(n):
    K = GeneralComplex(itertools.combinations(range(n + 1), n))
    H = homology(K)
    for d, h in H.degrees.items():
        if d == 0 or d == n - 1:
            assert (h.betti, h.torsion) == (1, ())
        else:
            assert h.is_trivial()
    assert H.euler_from_betti() == H.euler_from_faces()


def test_flag_spheres():
    H1 = homology(cycle_graph(6))
    assert H1.degrees[0].betti == 1 and H1.degrees[1].betti == 1
    H2 = homology(octahedron())
    assert H2.degrees[0].betti == 1
    assert H2.degrees[1].is_trivial()
    assert H2.degrees[2].betti == 1
    assert H2.euler_from_faces() == 2


def test_complete_graphs_are_contractible():
    for m in range(1, 9):
        H = homology(complete_graph(m))
        assert H.degrees[0].betti == 1
        assert all(h.is_trivial() for d, h in H.degrees.items() if d > 0)


def test_projective_plane_fixture():
    """Six-vertex triangulation: H_0 = Z, H_1 = Z/2, H_2 = 0."""
    K = GeneralComplex(RP2_FACES)
    assert len(faces_of_dim(K, 0)) == 6
    assert len(faces_of_dim(K, 1)) == 15
    assert len(faces_of_dim(K, 2)) == 10
    H = homology(K)
    assert (H.degrees[0].betti, H.degrees[0].torsion) == (1, ())
    assert (H.degrees[1].betti, H.degrees[1].torsion) == (0, (2,))
    assert H.degrees[2].is_trivial()
    assert H.euler_from_faces() == 1
    # cross-check with mod-p Betti numbers: torsion Z/2 shows up over F_2
    faces = {d: sorted(faces_of_dim(K, d)) for d in range(3)}
    assert mod_p_betti(faces, 2) == {0: 1, 1: 1, 2: 1}
    assert mod_p_betti(faces, 3) == {0: 1, 1: 0, 2: 0}
    assert mod_p_betti(faces, 5) == {0: 1, 1: 0, 2: 0}


def moore_space_z3():
    """A 9-gon whose boundary winds three times round the 3-cycle 10, 11,
    12, filled by an inner ring 20..28 and the centre 30: H_1 = Z/3."""
    rim = [10 + i % 3 for i in range(10)]
    faces = []
    for i in range(9):
        ring, nxt = 20 + i, 20 + (i + 1) % 9
        faces += [(rim[i], rim[i + 1], ring), (rim[i + 1], ring, nxt), (ring, nxt, 30)]
    return faces


def test_torsion_is_one_chain_across_components():
    """RP^2 and the mod-3 Moore space give Z/6 in H_1 whether they are
    disjoint or joined by an edge, as one invariant factor either way."""
    moore = homology(GeneralComplex(moore_space_z3()))
    assert (moore.degrees[1].betti, moore.degrees[1].torsion) == (0, (3,))
    disjoint = GeneralComplex(RP2_FACES + moore_space_z3())
    joined = GeneralComplex(RP2_FACES + moore_space_z3() + [(1, 10)])
    assert len(disjoint.components()) == 2 and joined.is_connected()
    apart, together = homology(disjoint).degrees, homology(joined).degrees
    assert apart[1] == together[1] == AbGroupDescriptor(0, (6,))
    assert (apart[0].betti, together[0].betti) == (2, 1)
    # relative homology rel nothing runs one SNF over both components
    assert relative_homology(disjoint, [], max_dim=1)[1].torsion == (6,)


def _prime_power_chain(factors) -> tuple[int, ...]:
    """Oracle: split each factor into prime powers; the i-th largest factor
    of the chain is the product over primes p of the i-th largest power."""
    powers: dict[int, list[int]] = {}
    for t in factors:
        for p, e in prime_factorization(t):
            powers.setdefault(p, []).append(p**e)
    chain = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            chain[i] *= q
    return tuple(reversed(chain))


# Orders built from few primes, so that primes repeat and factors coincide.
chain_orders = st.lists(
    st.one_of(
        st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36, 5, 25, 7]),
        st.integers(1, 10**4),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(chain_orders)
@example([])
@example([6, 6, 6])
@example([4, 2, 8, 2])
def test_invariant_chain_matches_prime_power_oracle(orders):
    assert invariant_chain(orders) == _prime_power_chain(orders)


def test_invariant_chain_past_trial_division():
    mersenne = 2**61 - 1
    assert invariant_chain((mersenne, 6)) == (6 * mersenne,)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), chain_orders, st.integers(0, 3), chain_orders)
def test_descriptor_sum_is_the_direct_sum(ra, ta, rb, tb):
    """The torsion of A + B is the invariant-factor chain that the
    subgroup-lattice SNF gives for Z/t_1 + ... + Z/t_m."""
    A = AbGroupDescriptor(ra, invariant_chain(ta))
    B = AbGroupDescriptor(rb, invariant_chain(tb))
    S = A + B
    whole = FinAbGroup(tuple(t for t in ta + tb if t > 1))
    assert S == AbGroupDescriptor(ra + rb, full_subgroup(whole).invariant_factors)
    assert S == B + A and A + AbGroupDescriptor.trivial() == A


def test_degree_homology_rendering():
    """Homology degrees are AbGroupDescriptor values and render as such."""
    assert str(AbGroupDescriptor(0, ())) == "0"
    assert str(AbGroupDescriptor(1, ())) == "Z"
    assert str(AbGroupDescriptor(2, (2,))) == "Z^2 + Z/2"
    assert str(AbGroupDescriptor(0, (2, 2, 4))) == "(Z/2)^2 + Z/4"
    degrees = homology(GeneralComplex(RP2_FACES)).degrees
    assert [str(degrees[d]) for d in (0, 1, 2)] == ["Z", "Z/2", "0"]


def test_top_dim_is_none_when_any_component_is_cut_off():
    """max_dim = 0 cuts off the solid tetrahedron's enumeration, so its top
    dimension is unknown, alone or next to an isolated point."""
    tetra = GeneralComplex([(0, 1, 2, 3)])
    with_point = GeneralComplex([(0, 1, 2, 3), (4,)])
    assert homology(tetra, max_dim=0).top_dim is None
    assert homology(with_point, max_dim=0).top_dim is None
    assert homology(with_point).top_dim == 3
    points = GeneralComplex([(0,), (1,)])
    assert homology(points, max_dim=0).top_dim == 0


def test_homology_refuses_max_dim_past_simplex_budget():
    """Each degree up to max_dim is listed, so a max_dim past the simplex
    budget is refused before any face is enumerated, on one component or
    several."""
    budget = complexes.DEFAULT_SIMPLEX_BUDGET
    for K in (cycle_graph(5), disjoint_double(cycle_graph(5))[0]):
        with pytest.raises(CapExceeded) as info:
            homology(K, max_dim=2**70)
        assert (info.value.needed, info.value.cap) == (2**70, budget)
        with pytest.raises(CapExceeded):
            homology(K, max_dim=budget + 1)
        assert sorted(homology(K, max_dim=3).degrees) == [0, 1, 2, 3]


def per_dimension_homology(K, max_dim, budget):
    """Oracle: homology of a connected K as the per-dimension loop computed
    it, dimension d listed with the budget the lower dimensions left."""
    faces, used, top, d = {}, 0, None, 0
    while max_dim is None or d <= max_dim + 1:
        level = recursive_faces_of_dim(K, d)
        if not level:
            top = d - 1
            break
        if len(level) > budget - used:
            return complexes._assemble(faces, complete=False, top=None, max_dim=max_dim)
        faces[d] = level
        used += len(level)
        d += 1
    return complexes._assemble(faces, complete=True, top=top, max_dim=max_dim)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
@example(-1)  # RP^2
def test_homology_at_the_budget_edge_matches_per_dimension_loop(seed):
    """complete, top_dim, degrees and face counts of each component agree
    with the per-dimension loop at every budget from 12 below the face
    total to one above it, for max_dim None, 0, 1 and 2."""
    if seed < 0:
        comps = [GeneralComplex(RP2_FACES)]
    else:
        K = random_flag_complex(random.Random(seed), n_min=1, n_max=8, p=0.6)
        comps = [K.induced(sorted(c)) for c in K.components()]
    fields = ("complete", "top_dim", "degrees", "face_counts")
    with pytest.MonkeyPatch.context() as mp:
        for C in comps:
            total = sum(map(len, recursive_levels(C)))
            for max_dim, budget in itertools.product((None, 0, 1, 2),
                                                     range(max(total - 12, 0), total + 2)):
                mp.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", budget)
                if max_dim is not None and max_dim > budget:
                    with pytest.raises(CapExceeded):
                        homology(C, max_dim)
                    continue
                got, want = homology(C, max_dim), per_dimension_homology(C, max_dim, budget)
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def disjoint_union(A, B):
    """A and B side by side, their labels tagged "a" and "b"."""
    adj = np.zeros((A.n_vertices + B.n_vertices,) * 2, dtype=bool)
    adj[: A.n_vertices, : A.n_vertices] = A.adj
    adj[A.n_vertices :, A.n_vertices :] = B.adj
    return FlagComplex([("a", v) for v in A.labels] + [("b", v) for v in B.labels], adj)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cut_homology_lists_only_degrees_every_component_finished(seed):
    """Past the simplex budget, homology lists degree d only when every
    component listed its (d+1)-faces inside the budget, and each listed
    degree is the full answer.  A finished walk also lists its trivial
    degrees up to max_dim."""
    K = disjoint_union(random_flag_complex(random.Random(seed), n_min=1, n_max=7, p=0.6),
                       complete_graph(5))
    comps = [recursive_levels(K.induced(sorted(c, key=repr))) for c in K.components()]
    full = {max_dim: homology(K, max_dim) for max_dim in (None, 0, 1, 2)}
    total = max(sum(map(len, levels)) for levels in comps)
    with pytest.MonkeyPatch.context() as mp:
        for max_dim, budget in itertools.product((0, 1, 2), range(2, total + 2)):
            mp.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", budget)
            got = homology(K, max_dim)
            finished = [
                d for d in range(max_dim + 1)
                if all(sum(map(len, levels[: d + 2])) <= budget for levels in comps)
            ]
            assert sorted(got.degrees) == finished
            assert got.complete == (len(finished) == max_dim + 1)
            assert got.degrees == {d: full[max_dim].degrees[d] for d in finished}
        # a cut component walk with max_dim=None lists no degree, so it
        # eliminates no boundary either
        snfs, walks = [], []
        snf, single = complexes.smith_normal_form, complexes._homology_single

        def counted_walk(C, max_dim):
            before = len(snfs)
            res = single(C, max_dim)
            walks.append((res.complete, len(snfs) - before))
            return res

        mp.setattr(complexes, "smith_normal_form", lambda A: snfs.append(A) or snf(A))
        mp.setattr(complexes, "_homology_single", counted_walk)
        for budget in range(2, total + 2):
            mp.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", budget)
            walks.clear()
            got = homology(K)
            assert got.degrees == (full[None].degrees if got.complete else {})
            assert len(walks) == len(comps)
            assert all(n == 0 for complete, n in walks if not complete)
            assert got.complete or not all(complete for complete, _ in walks)


def test_homology_additive_over_components():
    K = cycle_graph(5)
    D, _ = disjoint_double(K)
    H = homology(D)
    assert H.degrees[0].betti == 2
    assert H.degrees[1].betti == 2


def test_torus_flag_complex():
    """Flag triangulation of the torus on a 4x4 grid.

    A 3x3 grid would not do: mod-3 wraparound makes each row a complete
    triangle, and the flag construction fills those in.
    """
    n = 16
    adj = np.zeros((n, n), dtype=bool)

    def idx(r, c):
        return (r % 4) * 4 + (c % 4)

    for r in range(4):
        for c in range(4):
            a = idx(r, c)
            for br, bc in ((0, 1), (1, 0), (1, 1)):
                b = idx(r + br, c + bc)
                adj[a, b] = adj[b, a] = True
    K = FlagComplex(range(n), adj)
    assert K.edge_count() == 48
    assert len(faces_of_dim(K, 2)) == 32
    H = homology(K)
    assert H.degrees[0].betti == 1
    assert H.degrees[1].betti == 2 and H.degrees[1].torsion == ()
    assert H.degrees[2].betti == 1
    assert H.euler_from_faces() == 0


# ---------------------------------------------------------------------------
# connectivity and the link condition
# ---------------------------------------------------------------------------


def test_connectivity_ladder():
    K = octahedron()
    assert homological_connectivity(K, -5)
    assert homological_connectivity(K, -1)
    assert homological_connectivity(K, 0)
    assert homological_connectivity(K, 1)
    assert not homological_connectivity(K, 2)  # H_2 = Z


def test_connectivity_empty_and_disconnected():
    empty = FlagComplex([], np.zeros((0, 0), dtype=bool))
    assert homological_connectivity(empty, -2)
    assert not homological_connectivity(empty, -1)
    two_edges = FlagComplex.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
    # nonempty but disconnected: (-1)-connected, not 0-connected
    assert homological_connectivity(two_edges, -1)
    assert not homological_connectivity(two_edges, 0)


def test_circle_is_not_1_connected():
    assert homological_connectivity(cycle_graph(6), 0)
    assert not homological_connectivity(cycle_graph(6), 1)


def test_lcm_check_octahedron():
    assert lcm_check(octahedron(), 2).status == PASS
    # the vertex link is a 4-cycle, which is not simply connected
    verdict = lcm_check(octahedron(), 3)
    assert verdict.status == FAIL
    assert verdict.witness is not None


def test_lcm_check_small_cases():
    assert lcm_check(complete_graph(5), 2).status == PASS
    assert lcm_check(cycle_graph(6), 1).status == PASS
    two_edges = FlagComplex.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert lcm_check(two_edges, 1).status == PASS


def test_lcm_check_budget_counts_every_dimension(monkeypatch):
    """The link check lists a dimension whole before checking its links,
    and the budget covers dimensions 0..p together: two disjoint edges
    have 4 vertices and 2 edges, and the first edge's empty link fails the
    check only when the budget admits all 6 faces."""
    K = FlagComplex.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 6)
    verdict = lcm_check(K, 2)
    assert (verdict.status, verdict.witness) == (FAIL, (0, 1))
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 5)
    verdict = lcm_check(K, 2)
    assert verdict.status == INCONCLUSIVE
    assert verdict.stats == {"checked": 4}


def test_limits_are_read_at_call_time(monkeypatch):
    """The simplex and lifting budgets are module constants that a check
    reads when it runs; past them the verdict is INCONCLUSIVE."""
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 4)
    assert lcm_check(complete_graph(5), 2).status == INCONCLUSIVE
    K = octahedron()
    f = SimplicialMap(K, K, {v: v for v in K.vertices})
    monkeypatch.setattr(complexes, "LIFT_CHECK_BUDGET", 3)
    assert check_link_lifting(f, SymRelation.complete(K)).status == INCONCLUSIVE


# ---------------------------------------------------------------------------
# simplicial maps and lifting
# ---------------------------------------------------------------------------


def test_map_validation():
    P3 = FlagComplex.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    SimplicialMap(P3, P3, {0: 0, 1: 1, 2: 2})
    SimplicialMap(P3, P3, {0: 0, 1: 1, 2: 1})  # collapsing an edge is fine
    with pytest.raises(InputError):
        SimplicialMap(P3, P3, {0: 0, 2: 2})  # vertex 1 unmapped
    with pytest.raises(InputError):
        SimplicialMap(P3, P3, {0: 0, 1: 1, 2: 5})
    with pytest.raises(InputError):
        SimplicialMap(P3, P3, {0: 0, 1: 2, 2: 0})  # edge (0,1) -> non-edge


def test_map_into_general_complex_checks_every_face():
    """Edges suffice only when the target is flag: the identity from the
    solid triangle onto the hollow one maps every edge to an edge but the
    2-simplex to a non-face."""
    solid = complete_graph(3)
    hollow = GeneralComplex([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InputError, match="does not map to a simplex"):
        SimplicialMap(solid, hollow, {v: v for v in solid.vertices})
    SimplicialMap(hollow, solid, {v: v for v in hollow.vertices})
    SimplicialMap(solid, GeneralComplex([(0, 1, 2)]), {v: v for v in solid.vertices})


def test_identity_lifting_passes():
    K = octahedron()
    f = SimplicialMap(K, K, {v: v for v in K.vertices})
    assert check_link_lifting(f).status == PASS
    assert check_link_lifting(f, SymRelation.complete(K)).status == PASS
    assert preserves_links(f)


def test_disjoint_double_fails_but_preserves_links():
    """The candidate set over a target vertex draws from the whole source,
    so for a two-sheeted disjoint cover it mixes both sheets and no single
    fiber vertex dominates it.  Link preservation still holds."""
    K = complete_graph(3)
    D, proj = disjoint_double(K)
    verdict = check_link_lifting(proj)
    assert verdict.status == FAIL
    assert len(verdict.witness["A"]) == 4  # two sheets' worth of neighbors
    assert preserves_links(proj)


def test_vertex_collapse_lifting_passes():
    # lifting and link preservation are independent: the collapse has rich
    # fibers (lifting passes) but sends 3 in lk(0) onto f(0) itself, which
    # the target link excludes
    X = complete_graph(4)
    Y = complete_graph(3)
    f = SimplicialMap(X, Y, {0: 0, 1: 1, 2: 2, 3: 0})
    assert check_link_lifting(f).status == PASS
    assert not preserves_links(f)


def test_lifting_fails_with_witness():
    # two isolated source vertices over an edge: nothing lifts adjacency
    X = FlagComplex([0, 1], np.zeros((2, 2), dtype=bool))
    Y = complete_graph(2)
    f = SimplicialMap(X, Y, {0: 0, 1: 1})
    verdict = check_link_lifting(f)
    assert verdict.status == FAIL
    assert verdict.witness is not None


def test_constant_map_does_not_preserve_links():
    K = complete_graph(3)
    f = SimplicialMap(K, K, {v: 0 for v in K.vertices})
    assert not preserves_links(f)


def test_relation_restricts_lifts():
    """With an irreflexive relation the lift must relate to every vertex,
    including itself, so the identity on a path fails; the complete
    relation (which includes self-pairs) passes."""
    P3 = FlagComplex.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    ident = SimplicialMap(P3, P3, {v: v for v in P3.vertices})
    edges_only = SymRelation(P3, faces_of_dim(P3, 1))
    assert check_link_lifting(ident, edges_only).status == FAIL
    assert check_link_lifting(ident, SymRelation.complete(P3)).status == PASS


def test_sym_relation():
    K = complete_graph(3)
    rel = SymRelation(K, [(0, 1)])
    assert rel.holds(1, 0)
    assert not rel.holds(0, 2)
    assert not rel.is_edge_compatible()
    assert SymRelation.complete(K).is_edge_compatible()
    with pytest.raises(InputError):
        SymRelation(K, [(0, 9)])


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


def test_rotation_of_cycle_is_transitive():
    K = cycle_graph(4)
    rot = {i: (i + 1) % 4 for i in range(4)}
    rep = action_transitivity(K, [rot])
    assert rep.hypotheses_hold
    assert rep.single_orbit
    assert rep.consistent
    assert len(rep.orbits) == 1


def test_identity_action_fails_hypotheses():
    K = FlagComplex.from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
    rep = action_transitivity(K, [{v: v for v in K.vertices}])
    assert not rep.edge_hypothesis
    assert not rep.hypotheses_hold
    assert not rep.single_orbit
    assert rep.consistent  # hypotheses fail, so no claim is made


def test_action_must_preserve_adjacency():
    P3 = FlagComplex.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    swap_ends = {0: 2, 1: 0, 2: 1}
    with pytest.raises(InputError):
        action_transitivity(P3, [swap_ends])


def test_reflection_orbits_merge_with_rotation():
    # reflections of a 4-cycle generate two vertex orbits; adding the
    # rotation merges them
    K = cycle_graph(4)
    refl = {0: 0, 1: 3, 2: 2, 3: 1}
    rep = action_transitivity(K, [refl])
    assert not rep.single_orbit
    rot = {i: (i + 1) % 4 for i in range(4)}
    rep2 = action_transitivity(K, [refl, rot])
    assert rep2.single_orbit


def test_breadth_first_from_the_goal_lists_no_neighbours():
    """A search whose start is its goal returns at once, without walking
    the start's component."""
    calls = []

    def neighbours(v):  # the path 0 - 1 - 2 - 3
        calls.append(v)
        return [u for u in (v - 1, v + 1) if 0 <= u < 4]

    assert complexes.breadth_first(0, neighbours, goal=0) == {0: None}
    assert calls == []
    assert complexes.breadth_first(0, neighbours, goal=2) == {0: None, 1: 0, 2: 1}
    assert calls == [0, 1]


def _nx_components(vertices, edges):
    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from(edges)
    return list(nx.connected_components(G))


def test_components_and_orbits_match_networkx(monkeypatch):
    """Components and orbits are networkx's connected components, listed
    in order of their first vertex.  Components close neighbour bitsets, so
    the graphs run past one 64-bit word, to vertex counts that are not
    multiples of 8, with isolated vertices and the empty graph, on both
    flavours; the labels are shuffled, so the first vertex is not the
    smallest label.  With 64-cell blocks the second time round, the flag
    complex packs its rows a few at a time, or one at a time past 64
    vertices."""
    rng = random.Random(11)
    sizes = [0, 1, 2, 7, 8, 9, 63, 64, 65, 127, 129, 200]
    isolated_past_a_word = False
    for block_cells in (_kernels._BLOCK_CELLS, 64):
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
        for n in sizes + [rng.randint(1, 14) for _ in range(40)]:
            labels = rng.sample(range(10 * n), n)
            p = 0.2 if n <= 14 else 1.5 / n  # past 14, large trees and isolated vertices
            edges = [(labels[i], labels[j])
                     for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            want = _nx_components(labels, edges)
            assert FlagComplex.from_edges(labels, edges).components() == want
            G = GeneralComplex(edges + [(v,) for v in labels])
            assert G.components() == _nx_components(G.vertices, edges)
            isolated_past_a_word |= n > 64 and min(map(len, want)) == 1 < max(map(len, want))
    assert isolated_past_a_word
    for _ in range(40):
        K, gens = random_action_instance(rng)
        moves = [(v, g[v]) for g in gens for v in K.vertices]
        assert action_transitivity(K, gens).orbits == _nx_components(K.vertices, moves)


# ---------------------------------------------------------------------------
# relative homology and the inclusion harness
# ---------------------------------------------------------------------------


def test_relative_homology_of_path_rel_endpoints():
    P3 = FlagComplex.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    rel = relative_homology(P3, [0, 2], max_dim=1)
    assert rel[0].is_trivial()
    assert rel[1].betti == 1  # H_1(interval, boundary) = Z


def test_relative_homology_refuses_max_dim_past_simplex_budget():
    """Each degree up to max_dim is listed, so relative homology refuses a
    max_dim past the simplex budget, as homology does."""
    X = cycle_graph(5)
    with pytest.raises(CapExceeded) as info:
        relative_homology(X, [0], max_dim=2**70)
    assert (info.value.needed, info.value.cap) == (2**70, complexes.DEFAULT_SIMPLEX_BUDGET)
    rel = relative_homology(X, [0], max_dim=3)
    assert sorted(rel) == [0, 1, 2, 3] and rel[1].betti == 1


def test_relative_homology_vanishes_for_equal_pair():
    K = octahedron()
    rel = relative_homology(K, list(K.vertices), max_dim=2)
    assert all(h.is_trivial() for h in rel.values())


def test_relative_homology_of_disk_rel_point():
    K = complete_graph(3)  # solid triangle
    rel = relative_homology(K, [0], max_dim=2)
    assert all(h.is_trivial() for h in rel.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_relative_homology_rel_empty_is_homology(seed, d):
    """H_*(X, empty) = H_*(X) on seeded random flag complexes."""
    K = random_flag_complex(random.Random(seed), n_min=3, n_max=9)
    assert relative_homology(K, [], max_dim=d) == homology(K, max_dim=d).degrees


def test_inclusion_harness_full_subcomplex_passes():
    X = complete_graph(3)
    for n in (0, 1):
        rep = inclusion_connectivity_harness(X, list(X.vertices), n)
        assert rep.hypothesis_holds
        assert rep.conclusion_holds


def test_inclusion_harness_cone_point():
    """For Y a single vertex the hypothesis fails at sigma = that vertex
    (Y meets its own link in nothing), even though the inclusion of a
    point into a solid simplex is as connected as it gets."""
    X = complete_graph(3)
    rep = inclusion_connectivity_harness(X, [0], 0)
    assert not rep.hypothesis_holds
    assert rep.first_violation is not None
    # the conclusion itself holds regardless, checked directly:
    rel = relative_homology(X, [0], max_dim=1)
    assert all(h.is_trivial() for h in rel.values())


def test_inclusion_harness_detects_bad_pair():
    # Y = two antipodal vertices of a 4-cycle.  H_1(X, Y) = Z^2 / im = Z,
    # nonzero, so if the harness is sound the hypothesis must fail at
    # n = 1 -- and indeed Y meets lk(1) in two isolated points, which is
    # not 0-connected.
    X = cycle_graph(4)
    rep1 = inclusion_connectivity_harness(X, [0, 2], 1)
    assert not rep1.hypothesis_holds
    assert rep1.first_violation is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_inclusion_harness_never_contradicts(seed):
    """Randomized spot check of the actual improvement statement."""
    rng = random.Random(seed)
    K = random_flag_complex(rng, n_min=4, n_max=8)
    labels = rng.sample(list(K.vertices), rng.randint(1, K.n_vertices))
    for n in (0, 1):
        rep = inclusion_connectivity_harness(K, labels, n)
        if rep.hypothesis_holds:
            assert rep.conclusion_holds


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 50)
    K = complete_graph(12)
    with pytest.raises(BudgetExhausted):
        homological_connectivity(K, 5)
