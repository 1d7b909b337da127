import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkforms import (
    FinAbGroup,
    GroupHom,
    InputError,
    Subgroup,
    column_lattice_index,
    integer_kernel_basis,
    solve_congruence_system,
)
import linkforms.corpus as corpus
from linkforms import w_power
from linkforms.corpus import random_unit, scramble_form


def brute_subgroup(group, generators):
    """Orbit closure under addition, as a set of coefficient tuples."""
    zero = group.element((0,) * group.rank)
    seen = {zero.coeffs}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = x + g
            if y.coeffs not in seen:
                seen.add(y.coeffs)
                frontier.append(y)
    return seen


def test_element_arithmetic():
    G = FinAbGroup.of(4, 6)
    a = G.element((3, 5))
    b = G.element((2, 2))
    assert (a + b).coeffs == (1, 1)
    assert (a - b).coeffs == (1, 3)
    assert a.scale(12).is_zero()
    assert a.order == 12
    assert G.element((2, 0)).order == 2
    assert G.element((0,) * G.rank).order == 1


def test_exponent_and_order():
    G = FinAbGroup.of(4, 6)
    assert G.order == 24
    assert G.exponent == 12
    assert G.rank == 2
    assert len(list(G.enumerate_elements())) == 24


def test_torsion_count():
    G = FinAbGroup.of(4, 6)
    # elements killed by 2: coeffs in {0,2} x {0,3}
    assert G.torsion_count(2) == 4
    assert G.torsion_count(3) == 3
    assert G.torsion_count(12) == 24


def test_hom_kernel_image():
    G = FinAbGroup.of(6)
    C3 = FinAbGroup.of(3)
    phi = GroupHom(G, C3, [C3.element((1,))])
    assert phi(G.element((4,))).coeffs == (1,)
    assert phi.kernel().order == 2
    assert phi.image().order == 3
    assert phi.kernel().order != 1  # not injective


def test_hom_must_respect_orders():
    # Z/2 -> Z/3 sending the generator to 1 is not a homomorphism
    with pytest.raises(InputError):
        GroupHom(FinAbGroup.of(2), FinAbGroup.of(3), [FinAbGroup.of(3).element((1,))])


def test_hom_iso_inverse():
    """is_isomorphism agrees with an enumerated inverse: phi is invertible
    exactly when it is a bijection of the enumerated elements."""
    for orders, images, invertible in [
        ((3, 9), [(1, 3), (0, 1)], True),
        ((4, 12, 12), [(1, 3, 0), (0, 5, 2), (2, 2, 1)], True),
        ((3, 9), [(1, 3), (0, 3)], False),
    ]:
        G = FinAbGroup.of(*orders)
        phi = GroupHom(G, G, [G.element(c) for c in images])
        assert phi.is_isomorphism() == invertible
        inverse = {phi(x): x for x in G.enumerate_elements()}
        assert (len(inverse) == G.order) == invertible


def test_subgroups_of_z12():
    G = FinAbGroup.of(12)
    two = Subgroup(G, [G.element((2,))])
    three = Subgroup(G, [G.element((3,))])
    assert two.order == 6
    assert three.order == 4
    assert two.intersection(three).order == 2
    assert Subgroup(G, two.generators + three.generators).order == 12
    assert {x.coeffs for x in two.elements()} == {(0,), (2,), (4,), (6,), (8,), (10,)}


def test_trivial_subgroup_is_empty_generators():
    G = FinAbGroup.of(4, 6)
    assert Subgroup(G, []).order == 1
    trivial = Subgroup(G, [G.element((0,) * G.rank)])
    assert trivial.order == 1
    assert trivial.invariant_factors == ()


def test_sub_coords_round_trip():
    """Standalone coordinates name each member once: from_sub_coords is a
    bijection from the box of invariant factors onto the subgroup."""
    G = FinAbGroup.of(4, 6)
    gens = [G.element((2, 0)), G.element((0, 2))]
    H = Subgroup(G, gens)
    assert H.order == 6
    assert math.prod(H.invariant_factors) == 6
    members = [x.coeffs for x in H.elements()]
    assert len(set(members)) == len(members) == 6
    assert set(members) == brute_subgroup(G, gens)
    with pytest.raises(InputError):
        H.from_sub_coords((1,) * (len(H.invariant_factors) + 1))


def test_sub_coords_of_decomposition_gens():
    """The standalone coordinates e_t give the t-th decomposition generator,
    of order the t-th invariant factor, on repeated calls through the
    cached presentation, and the coordinates name each member once."""
    G = FinAbGroup.of(4, 6, 9, 12)
    gens_in = [G.element((2, 3, 3, 4)), G.element((1, 0, 6, 2)), G.element((0, 2, 0, 6))]
    H = Subgroup(G, gens_in)
    gens = H.decomposition_gens
    assert len(gens) == len(H.invariant_factors) >= 2
    for _ in range(2):
        for t, g in enumerate(gens):
            unit = tuple(int(i == t) for i in range(len(gens)))
            assert H.from_sub_coords(unit) == g
            assert g.order == H.invariant_factors[t]
    members = {x.coeffs for x in H.elements()}
    assert len(members) == H.order
    assert members == brute_subgroup(G, gens_in)


def test_subgroup_eliminates_its_lattice_once(monkeypatch):
    """The presentation eliminates the lattice once, building the left
    transform only, and then its relation matrix M once, building the
    right transform only; repeated reads eliminate nothing more."""
    from linkforms import groups

    eliminations = []
    real_eliminate = groups._eliminate

    def eliminate(A, **modes):
        eliminations.append((A, modes))
        return real_eliminate(A, **modes)

    monkeypatch.setattr(groups, "_eliminate", eliminate)
    G = FinAbGroup.of(4, 6, 9, 12)
    H = Subgroup(G, [G.element((2, 3, 3, 4)), G.element((1, 0, 6, 2))])
    members = [H.from_sub_coords(w) for w in itertools.product(*(range(s) for s in H.invariant_factors))]
    assert len(eliminations) == 2
    assert {x.coeffs for x in H.elements()} == {x.coeffs for x in members}
    assert len(eliminations) == 2
    assert eliminations[0] == (H._lattice, {"want_left": True})
    diag, left, _ = real_eliminate(H._lattice, want_left=True)
    M = [[u * d // s for u, d in zip(row, G.orders)] for row, s in zip(left, diag)]
    assert eliminations[1] == (M, {"want_right": True})


def reference_combination(group, coeffs, elements):
    """sum_i c_i * elements[i] by repeated validated scale-and-add."""
    out = group.element((0,) * group.rank)
    for c, e in zip(coeffs, elements):
        if c:
            out = out + e.scale(c)
    return out


group_orders = st.lists(
    st.one_of(st.integers(2, 12), st.integers(2**64, 2**66)), min_size=1, max_size=3
)
coefficients = st.one_of(
    st.integers(-30, 30), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64))
)


@settings(max_examples=60, deadline=None)
@given(group_orders, group_orders, st.data())
def test_hom_call_matches_scale_and_add(source_orders, target_orders, data):
    """GroupHom.__call__ against the scale-and-add reference, with orders
    past 2^64 and negative and huge image multipliers."""
    S, T = FinAbGroup.of(*source_orders), FinAbGroup.of(*target_orders)
    # An order-d generator may map to multiples of o // gcd(o, d) only.
    images = [
        T.element(tuple(data.draw(coefficients) * (o // math.gcd(o, d)) for o in T.orders))
        for d in S.orders
    ]
    h = GroupHom(S, T, images)
    x = S.element(tuple(data.draw(coefficients) for _ in S.orders))
    assert h(x) == reference_combination(T, x.coeffs, images)


@settings(max_examples=60, deadline=None)
@given(group_orders, st.data())
def test_from_sub_coords_matches_scale_and_add(orders, data):
    """Subgroup.from_sub_coords against the scale-and-add reference, on
    unreduced negative and huge standalone coordinates."""
    G = FinAbGroup.of(*orders)
    gens = [
        G.element(tuple(data.draw(coefficients) for _ in orders))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    H = Subgroup(G, gens)
    w = tuple(data.draw(coefficients) for _ in H.invariant_factors)
    assert H.from_sub_coords(w) == reference_combination(G, w, H.decomposition_gens)


def test_standalone_group():
    G = FinAbGroup.of(4, 6)
    H = Subgroup(G, [G.element((2, 3))])
    S = H.standalone()
    assert S.order == H.order
    assert tuple(S.orders) == H.invariant_factors


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subgroup_matches_brute_force(data):
    orders = data.draw(
        st.lists(st.sampled_from([2, 3, 4, 8, 9]), min_size=1, max_size=3)
    )
    G = FinAbGroup.of(*orders)
    k = data.draw(st.integers(0, 3))
    gens = [
        G.element(tuple(data.draw(st.integers(0, d - 1)) for d in orders))
        for _ in range(k)
    ]
    H = Subgroup(G, gens)
    brute = brute_subgroup(G, gens)
    assert H.order == len(brute)
    members = [x.coeffs for x in H.elements()]
    assert len(members) == len(set(members))
    assert set(members) == brute
    gens_dec = H.decomposition_gens
    assert math.prod(g.order for g in gens_dec) == H.order


def test_congruence_system():
    G = FinAbGroup.of(4, 6)
    # z with 2 z_1 = 0 mod 4 and 3 z_2 = 0 mod 6
    H = solve_congruence_system(G, [([2, 0], 4), ([0, 3], 6)])
    expect = {
        x.coeffs
        for x in G.enumerate_elements()
        if (2 * x.coeffs[0]) % 4 == 0 and (3 * x.coeffs[1]) % 6 == 0
    }
    assert {x.coeffs for x in H.elements()} == expect


def test_congruence_rejects_ill_posed():
    G = FinAbGroup.of(4)
    with pytest.raises(InputError):
        solve_congruence_system(G, [([1], 3)])  # 1*4 != 0 mod 3


def test_congruence_rejects_zero_modulus():
    with pytest.raises(InputError):
        solve_congruence_system(FinAbGroup.of(4), [([0], 0)])


DIGEST_ORDERS = (2, 3, 4, 6, 8, 9, 12, 27, 1048573, 2 * 1048583)


def presentation_digest(count=200, seed=1048583):
    """SHA-256 over the invariant factors and the decomposition generators
    of ``count`` seeded subgroups."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        orders = [rng.choice(DIGEST_ORDERS) for _ in range(rng.randint(1, 3))]
        G = FinAbGroup.of(*orders)
        gens = [
            G.element(tuple(rng.randrange(d) * rng.choice((1, 2, 3, 4, 9)) for d in orders))
            for _ in range(rng.randint(0, 3))
        ]
        H = Subgroup(G, gens)
        row = (H.invariant_factors, [g.coeffs for g in H.decomposition_gens])
        h.update(repr(row).encode())
    return h.hexdigest()


def test_subgroup_presentation_is_frozen():
    """The invariant-factor presentation feeds path vertices and rank node
    counts, which the benchmark checksums cover, so it must not drift; the
    frozen digest covers orders 1048573 and 2*1048583."""
    assert presentation_digest() == (
        "fb4bb9e1cfefef75d7a0b86cf9c2bc299b48c8b649c6a17191fc65ed6444bd64"
    )


def test_intersection_brute_force():
    rng = random.Random(11)
    G = FinAbGroup.of(4, 6, 3)
    for _ in range(25):
        gens_a = [
            G.element(tuple(rng.randrange(d) for d in G.orders)) for _ in range(2)
        ]
        gens_b = [
            G.element(tuple(rng.randrange(d) for d in G.orders)) for _ in range(2)
        ]
        A, B = Subgroup(G, gens_a), Subgroup(G, gens_b)
        want = brute_subgroup(G, gens_a) & brute_subgroup(G, gens_b)
        got = A.intersection(B)
        assert got.order == len(want)
        assert {x.coeffs for x in got.elements()} == want


def test_intersection_generators_match_full_column_sum():
    """Summing only the generator columns of C1 gives the same generator
    list as summing every column, diag(orders) included, on seeded pairs
    with orders up to 2*1048583."""
    def full_sum_reference(A, B):
        C1, C2 = A._lattice, B._lattice
        r, n1 = len(C1), len(C1[0])
        stacked = [C1[i] + [-v for v in C2[i]] for i in range(r)]
        gens = []
        for vec in integer_kernel_basis(stacked):
            g = A.group.element([sum(C1[i][t] * vec[t] for t in range(n1)) for i in range(r)])
            if not g.is_zero():
                gens.append(g.coeffs)
        return gens

    rng = random.Random(2 * 1048583)
    for _ in range(150):
        orders = [rng.choice(DIGEST_ORDERS) for _ in range(rng.randint(1, 3))]
        G = FinAbGroup.of(*orders)

        def random_subgroup():
            return Subgroup(G, [
                G.element(tuple(rng.randrange(d) * rng.choice((1, 2, 3, 4, 9)) for d in orders))
                for _ in range(rng.randint(0, 3))
            ])

        A, B = random_subgroup(), random_subgroup()
        got = [g.coeffs for g in A.intersection(B).generators]
        assert got == full_sum_reference(A, B)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_column_lattice_index_is_subgroup_index(data):
    """[Z^r : L] for the lattice of generators plus diag(orders) is the
    index of the generated subgroup, counted by orbit closure."""
    orders = data.draw(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1, max_size=3))
    G = FinAbGroup.of(*orders)
    gens = [
        G.element(tuple(data.draw(st.integers(0, d - 1)) for d in orders))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    lattice = [
        [g.coeffs[i] for g in gens] + [d if j == i else 0 for j, d in enumerate(orders)]
        for i in range(len(orders))
    ]
    assert column_lattice_index(lattice) * len(brute_subgroup(G, gens)) == G.order


@pytest.mark.parametrize(
    "d", [2, 3, 4, 9, 12, 27, 81, 360, 30030, 1048574, 2 * 1048583]
)
def test_random_unit_is_the_choice_draw(d):
    """random_unit makes the same draw as rng.choice over the list of units
    and leaves the generator in the same state."""
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    for seed in range(30):
        ref, rng = random.Random(seed), random.Random(seed)
        assert random_unit(d, rng) == ref.choice(units)
        assert rng.random() == ref.random()


def test_scramble_factorizes_each_modulus_once(monkeypatch):
    """The unit draws of one scramble share a modulus, so its prime
    divisors are found once, not once per draw."""
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    real = corpus.prime_factorization
    monkeypatch.setattr(corpus, "prime_factorization", counting)
    corpus._prime_divisors.cache_clear()
    scramble_form(w_power(1048574, 2), random.Random(5))
    assert calls == [1048574]
