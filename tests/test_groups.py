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
    solve_affine_congruence_system,
    solve_congruence_system,
)


def brute_subgroup(group, generators):
    """Orbit closure under addition, as a set of coefficient tuples."""
    seen = {group.zero().coeffs}
    frontier = [group.zero()]
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
    assert (-a).coeffs == (1, 1)
    assert a.scale(12).is_zero()
    assert a.order == 12
    assert G.element((2, 0)).order == 2
    assert G.zero().order == 1


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
    assert len(list(G.torsion_elements(2))) == 4
    assert G.torsion_count(3) == 3
    assert G.torsion_count(12) == 24


def test_hom_kernel_image():
    G = FinAbGroup.of(6)
    C3 = FinAbGroup.of(3)
    phi = GroupHom(G, C3, [C3.element((1,))])
    assert phi(G.element((4,))).coeffs == (1,)
    assert phi.kernel().order == 2
    assert phi.image().order == 3
    assert not phi.is_injective()


def test_hom_must_respect_orders():
    # Z/2 -> Z/3 sending the generator to 1 is not a homomorphism
    with pytest.raises(InputError):
        GroupHom(FinAbGroup.of(2), FinAbGroup.of(3), [FinAbGroup.of(3).element((1,))])


def test_hom_iso_inverse():
    G = FinAbGroup.of(3, 9)
    phi = GroupHom(G, G, [G.element((1, 3)), G.element((0, 1))])
    assert phi.is_isomorphism()
    inv = phi.inverse()
    for x in G.enumerate_elements():
        assert inv(phi(x)) == x


def test_subgroups_of_z12():
    G = FinAbGroup.of(12)
    two = Subgroup(G, [G.element((2,))])
    three = Subgroup(G, [G.element((3,))])
    assert two.order == 6
    assert three.order == 4
    assert two.intersection(three).order == 2
    assert two.sum_with(three).order == 12
    assert G.element((10,)) in two
    assert G.element((5,)) not in two


def test_trivial_subgroup_is_empty_generators():
    G = FinAbGroup.of(4, 6)
    assert Subgroup(G, []).order == 1
    assert Subgroup(G, [G.zero()]).is_trivial()


def test_sub_coords_round_trip():
    G = FinAbGroup.of(4, 6)
    H = Subgroup(G, [G.element((2, 0)), G.element((0, 2))])
    assert H.order == 6
    assert math.prod(H.invariant_factors) == 6
    for x in H.elements():
        assert H.from_sub_coords(H.to_sub_coords(x)) == x
    with pytest.raises(InputError):
        H.to_sub_coords(G.element((1, 0)))


def test_sub_coords_of_decomposition_gens():
    """The t-th decomposition generator has standalone coordinates e_t, on
    repeated calls through the cached SNF of the lattice basis."""
    G = FinAbGroup.of(4, 6, 9, 12)
    H = Subgroup(G, [G.element((2, 3, 3, 4)), G.element((1, 0, 6, 2)), G.element((0, 2, 0, 6))])
    gens = H.decomposition_gens
    assert len(gens) == len(H.invariant_factors) >= 2
    for _ in range(2):
        for t, g in enumerate(gens):
            unit = tuple(int(i == t) for i in range(len(gens)))
            assert H.to_sub_coords(g) == unit
            assert H.from_sub_coords(unit) == g
    for x in H.elements():
        assert H.from_sub_coords(H.to_sub_coords(x)) == x


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
    assert all(G.element(c) in H for c in brute)
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


def test_affine_congruence():
    G = FinAbGroup.of(9, 9)
    z = solve_affine_congruence_system(G, [([3, 0], 9)], [3])
    assert z is not None
    assert (3 * z.coeffs[0]) % 9 == 3
    assert solve_affine_congruence_system(G, [([3, 0], 9)], [1]) is None


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
        assert all(G.element(c) in got for c in want)
