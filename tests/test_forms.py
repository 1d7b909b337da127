import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkforms import (
    FinAbGroup,
    FormMorphism,
    GroupHom,
    InputError,
    LinkingForm,
    NonStrictFormError,
    NormalForm,
    QZValue,
    Subgroup,
    are_isomorphic,
    count_w_morphisms,
    direct_sum,
    extend_to_automorphism,
    first_w_morphism,
    full_subgroup,
    hyperbolic_basis,
    identity_morphism,
    kernel_form,
    morphisms_from_w,
    normal_form,
    orthogonal_complement,
    split_along,
    standard_w,
    subforms_orthogonal,
    w_morphism,
    w_morphism_by_index,
    w_power,
)
from linkforms.corpus import block_sum, random_scrambled_pair, scramble_form


def brute_count_w_morphisms(form, k):
    """Independent count: scan all pairs of k-torsion elements."""
    tors = list(form.group.torsion_elements(k))
    target = QZValue(1, k)
    return sum(
        1 for x in tors for y in tors if form.evaluate(x, y) == target
    )


# ---------------------------------------------------------------------------
# construction and basic evaluation
# ---------------------------------------------------------------------------


def test_standard_w_gram():
    W = standard_w(5)
    rho, sigma = W.group.generator(0), W.group.generator(1)
    assert W.evaluate(rho, sigma) == QZValue(1, 5)
    assert W.evaluate(sigma, rho) == QZValue(4, 5)
    assert W.evaluate(rho, rho).is_zero()
    assert W.is_nonsingular()


def test_strictly_skew_even_at_two_torsion():
    # on Z/2 x Z/2, b(x, x) = 0 must hold for every x, not just generators
    W = standard_w(2)
    for x in W.group.enumerate_elements():
        assert W.evaluate(x, x).is_zero()


def test_rejects_nonzero_diagonal():
    G = FinAbGroup.of(2, 2)
    half = QZValue(1, 2)
    gram = [[half, half], [half, QZValue.zero()]]
    with pytest.raises(NonStrictFormError):
        LinkingForm(G, gram)


def test_rejects_non_skew():
    G = FinAbGroup.of(3, 3)
    z = QZValue.zero()
    gram = [[z, QZValue(1, 3)], [QZValue(1, 3), z]]
    with pytest.raises(InputError, match="skew"):
        LinkingForm(G, gram)


def test_rejects_order_violation():
    G = FinAbGroup.of(2, 4)
    z = QZValue.zero()
    # b(e_0, e_1) = 1/4 is not killed by the order-2 generator
    gram = [[z, QZValue(1, 4)], [QZValue(3, 4), z]]
    with pytest.raises(InputError, match="killed"):
        LinkingForm(G, gram)


def test_direct_sum_evaluation():
    M = direct_sum(standard_w(3), standard_w(4))
    x = M.group.element((1, 0, 1, 0))
    y = M.group.element((0, 1, 0, 1))
    assert M.evaluate(x, y) == QZValue(1, 3) + QZValue(1, 4)


def test_radical_of_singular_form():
    G = FinAbGroup.of(3)
    zero_form = LinkingForm(G, [[QZValue.zero()]])
    assert not zero_form.is_nonsingular()
    assert zero_form.radical().order == 3
    assert standard_w(3).radical().is_trivial()


# ---------------------------------------------------------------------------
# block morphism enumeration (frozen counts)
# ---------------------------------------------------------------------------


FROZEN_COUNTS = [
    (lambda: standard_w(3), 3, 24),
    (lambda: w_power(3, 2), 3, 2160),
    (lambda: w_power(3, 3), 3, 176904),
    (lambda: standard_w(9), 3, 0),
    (lambda: direct_sum(standard_w(3), standard_w(9)), 3, 1944),
    # the deep 2-torsion of W_4 is isotropic, exactly like W_9 at k = 3
    (lambda: standard_w(4), 2, 0),
    (lambda: standard_w(4), 4, 48),
    (lambda: standard_w(2), 2, 6),
]


@pytest.mark.parametrize("make,k,expected", FROZEN_COUNTS)
def test_count_w_morphisms_frozen(make, k, expected):
    form = make()
    assert count_w_morphisms(form, k) == expected
    if form.group.order <= 1000:
        assert brute_count_w_morphisms(form, k) == expected


def test_enumeration_is_lex_ordered_and_valid():
    form = w_power(3, 2)
    morphs = morphisms_from_w(form, 3)
    assert len(morphs) == 2160
    keys = [m.key() for m in morphs]
    assert keys == sorted(keys)
    assert len(set(keys)) == 2160
    f = morphs[0]
    assert first_w_morphism(form, 3).key() == f.key()
    for m in random.Random(0).sample(morphs, 40):
        assert form.evaluate(m.x, m.y) == QZValue(1, 3)


def test_indexed_enumeration_matches_list():
    form = w_power(3, 2)
    morphs = morphisms_from_w(form, 3)
    for i in (0, 1, 17, 100, 1000, 2159):
        assert w_morphism_by_index(form, 3, i).key() == morphs[i].key()
    with pytest.raises(InputError):
        w_morphism_by_index(form, 3, 2160)


def brute_w_pair_keys(form, k):
    """All (x, y) keys with b(x, y) = 1/k, by exact evaluation of every pair
    of k-torsion elements in lexicographic order."""
    tors = list(form.group.torsion_elements(k))
    target = QZValue(1, k)
    return [
        (x.coeffs, y.coeffs) for x in tors for y in tors if form.evaluate(x, y) == target
    ]


def test_indexed_enumeration_outside_int64_gate():
    # D = 2 * 1048583 exceeds the 2**20 gate, so the kernels run on exact
    # Python ints; every index is served, none reports malformed input
    form = w_power(2 * 1048583, 2)
    assert form._np_numerators is None
    want = brute_w_pair_keys(form, 2)
    morphs = morphisms_from_w(form, 2)
    assert [m.key() for m in morphs] == want
    assert count_w_morphisms(form, 2) == len(morphs) == 120
    assert first_w_morphism(form, 2).key() == want[0]
    for i, m in enumerate(morphs):
        assert w_morphism_by_index(form, 2, i).key() == m.key()
    with pytest.raises(InputError):
        w_morphism_by_index(form, 2, len(morphs))


def test_w_morphism_validates_pairing():
    form = w_power(3, 2)
    x = form.group.element((1, 0, 0, 0))
    with pytest.raises(InputError):
        w_morphism(form, 3, x, x)  # b(x, x) = 0 != 1/3


def test_morphism_is_injective_with_w_image():
    form = direct_sum(standard_w(3), standard_w(9))
    for m in random.Random(1).sample(morphisms_from_w(form, 3), 25):
        img = m.image_subgroup
        assert img.order == 9
        assert img.invariant_factors == (3, 3)
        # the image carries the standard block gram
        assert form.evaluate(m.x, m.y) == QZValue(1, 3)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_w3_squared():
    form = w_power(3, 2)
    f = first_w_morphism(form, 3)
    split = split_along(f)
    assert split.image.order == 9
    assert split.complement.order == 9
    assert normal_form(split.complement.form) == normal_form(standard_w(3))
    # retraction restricts to the identity on the image through f: it maps
    # a*x + b*y back to the source coordinates (a, b)
    for a in range(3):
        for b in range(3):
            z = f.x.scale(a) + f.y.scale(b)
            assert split.retraction(z).coeffs == (a, b)


def test_split_mixed_form():
    form = direct_sum(standard_w(3), standard_w(9))
    for m in random.Random(2).sample(morphisms_from_w(form, 3), 10):
        split = split_along(m)
        assert split.image.order * split.complement.order == 729
        assert normal_form(split.complement.form) == normal_form(standard_w(9))


def test_split_is_orthogonal_decomposition():
    form = w_power(3, 2)
    f = first_w_morphism(form, 3)
    split = split_along(f)
    for a in split.image.subgroup.elements():
        for b in split.complement.subgroup.elements():
            assert form.evaluate(a, b).is_zero()
    assert split.image.subgroup.sum_with(split.complement.subgroup).order == 81


# ---------------------------------------------------------------------------
# orthogonal complements
# ---------------------------------------------------------------------------


def test_complement_order_identity():
    form = w_power(3, 2)
    rng = random.Random(3)
    for _ in range(20):
        gens = [
            form.group.element(tuple(rng.randrange(3) for _ in range(4)))
            for _ in range(rng.randint(1, 3))
        ]
        S = Subgroup(form.group, gens)
        comp = orthogonal_complement(form, S)
        assert S.order * comp.subgroup.order == 81  # nonsingular duality


def test_complement_evaluation_restricts():
    form = direct_sum(standard_w(3), standard_w(9))
    f = first_w_morphism(form, 3)
    comp = orthogonal_complement(form, f.image_subgroup)
    for a in comp.subgroup.elements():
        for b in comp.subgroup.elements():
            assert comp.form.evaluate(
                comp.restrict_element(a), comp.restrict_element(b)
            ) == form.evaluate(a, b)


def test_subforms_orthogonal():
    from linkforms import Subform

    form = w_power(3, 2)
    A = Subform(form, Subgroup(form.group, [form.group.element((1, 0, 0, 0)),
                                            form.group.element((0, 1, 0, 0))]))
    B = Subform(form, Subgroup(form.group, [form.group.element((0, 0, 1, 0)),
                                            form.group.element((0, 0, 0, 1))]))
    assert subforms_orthogonal(form, A, B)
    assert not subforms_orthogonal(form, A, A)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_hyperbolic_basis_properties():
    form = direct_sum(standard_w(3), standard_w(9), standard_w(4))
    basis = hyperbolic_basis(form)
    assert sorted(q for q, _, _ in basis) == [3, 4, 9]
    for q, x, y in basis:
        assert form.evaluate(x, y) == QZValue(1, q)
        assert x.order == q and y.order == q
    for (q1, x1, y1), (q2, x2, y2) in itertools.combinations(basis, 2):
        for a in (x1, y1):
            for b in (x2, y2):
                assert form.evaluate(a, b).is_zero()
    span = Subgroup(form.group, [z for _, x, y in basis for z in (x, y)])
    assert span.order == form.group.order


def test_normal_form_names_blocks():
    nf = normal_form(direct_sum(standard_w(3), standard_w(9)))
    assert nf.block_multiset() == [3, 9]
    assert str(nf) == "W_3 (+) W_9"
    nf2 = normal_form(w_power(2, 3))
    assert nf2.block_multiset() == [2, 2, 2]


def test_composite_blocks_split_by_crt():
    # W_6 is W_2 (+) W_3 after classification
    nf = normal_form(standard_w(6))
    assert nf.block_multiset() == [2, 3]
    assert are_isomorphic(standard_w(6), direct_sum(standard_w(2), standard_w(3)))


@pytest.mark.parametrize("qs", [[6], [1], [0], [2, 12]])
def test_normal_form_rejects_non_prime_powers(qs):
    with pytest.raises(InputError):
        NormalForm.from_multiset(qs)


def test_normal_form_from_prime_powers():
    nf = NormalForm.from_multiset([9, 2, 1048583, 3, 9])
    assert nf.summands == (((2, 1), 1), ((3, 1), 1), ((3, 2), 2), ((1048583, 1), 1))
    assert nf.block_multiset() == [2, 3, 9, 9, 1048583]


def test_classification_distinguishes():
    assert not are_isomorphic(w_power(3, 2), standard_w(9))
    assert not are_isomorphic(standard_w(2), standard_w(4))
    assert are_isomorphic(w_power(3, 2), w_power(3, 2))


def test_scramble_recovers_normal_form():
    rng = random.Random(20260825)
    for _ in range(30):
        blocks, original, scrambled, witness = random_scrambled_pair(rng)
        assert normal_form(scrambled).block_multiset() == sorted(blocks)
        # the witness really is an isomorphism of forms
        for _ in range(10):
            x = scrambled.group.element(
                tuple(rng.randrange(d) for d in scrambled.group.orders)
            )
            y = scrambled.group.element(
                tuple(rng.randrange(d) for d in scrambled.group.orders)
            )
            assert scrambled.evaluate(x, y) == original.evaluate(witness(x), witness(y))


def test_singular_form_has_no_normal_form():
    from linkforms.errors import SingularFormError

    G = FinAbGroup.of(3)
    zero_form = LinkingForm(G, [[QZValue.zero()]])
    with pytest.raises(SingularFormError):
        normal_form(zero_form)


def test_brute_force_iso_on_singular_forms():
    G3 = FinAbGroup.of(3)
    z3 = LinkingForm(G3, [[QZValue.zero()]])
    z3b = LinkingForm(G3, [[QZValue.zero()]])
    assert are_isomorphic(z3, z3b)
    z9 = LinkingForm(FinAbGroup.of(9), [[QZValue.zero()]])
    assert not are_isomorphic(z3, z9)
    # same underlying group, different radical sizes
    zz = LinkingForm(
        FinAbGroup.of(3, 3),
        [[QZValue.zero(), QZValue.zero()], [QZValue.zero(), QZValue.zero()]],
    )
    assert not are_isomorphic(zz, standard_w(3))


# ---------------------------------------------------------------------------
# kernels and automorphisms
# ---------------------------------------------------------------------------


def test_kernel_form_restricts():
    form = w_power(3, 2)
    C3 = FinAbGroup.of(3)
    phi = GroupHom(form.group, C3, [C3.element((c,)) for c in (1, 0, 2, 1)])
    ker = kernel_form(form, phi)
    assert ker.subgroup.order == 27
    for a in ker.subgroup.elements():
        assert phi(a).is_zero()


def test_extend_to_automorphism_cases():
    form = w_power(3, 2)
    block = [form.group.element((a, b, 0, 0)) for a in range(3) for b in range(3)]
    for v in form.group.enumerate_elements():
        phi = extend_to_automorphism(form, v)
        assert phi.is_automorphism()
        assert any(phi(z) == v for z in block)
    with pytest.raises(InputError):
        extend_to_automorphism(
            direct_sum(standard_w(3), standard_w(9)),
            direct_sum(standard_w(3), standard_w(9)).group.zero(),
        )


def test_morphism_compose_and_inverse():
    form = w_power(3, 2)
    rng = random.Random(4)
    scrambled, witness = scramble_form(form, rng)
    inv = witness.inverse()
    for x in rng.sample(list(form.group.enumerate_elements()), 20):
        assert inv(witness(x)) == x
    ident = witness.compose(inv)
    for x in rng.sample(list(form.group.enumerate_elements()), 20):
        assert ident(x) == x


def test_identity_morphism():
    form = w_power(3, 2)
    e = identity_morphism(form)
    assert e.is_automorphism()
    x = form.group.element((1, 2, 0, 1))
    assert e(x) == x


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scramble_preserves_counts(data):
    """Isomorphic forms admit the same number of block morphisms."""
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    blocks, original, scrambled, _ = random_scrambled_pair(rng, max_root_order=27)
    for k in (2, 3):
        assert count_w_morphisms(original, k) == count_w_morphisms(scrambled, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_first_morphism_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    blocks, _, scrambled, _ = random_scrambled_pair(rng, max_root_order=27)
    f = first_w_morphism(scrambled, 3)
    total = count_w_morphisms(scrambled, 3)
    if total == 0:
        assert f is None
    else:
        assert f.key() == morphisms_from_w(scrambled, 3, cap=total)[0].key()


def brute_lex_keys(form, k):
    """All (x, y) keys with b(x, y) = 1/k in lexicographic order, read off
    the full pair table of the k-torsion."""
    X = form.torsion_matrix(k)
    D = form.denominator
    N = np.array(form.numerators, dtype=np.int64)
    table = ((X @ N) % D @ X.T) % D
    rows = [tuple(x) for x in X.tolist()]
    return [(rows[i], rows[j]) for i, j in np.argwhere(table == D // k).tolist()]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([(2,), (4,), (6,), (3, 9)]),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_indexed_enumeration_property(blocks, seed, rnd):
    """Lookups by index agree with the enumeration for every k | D."""
    form, _ = scramble_form(block_sum(blocks), random.Random(seed))
    D = form.denominator
    for k in (k for k in range(2, D + 1) if D % k == 0):
        want = brute_lex_keys(form, k)
        n = count_w_morphisms(form, k)
        assert n == len(want)
        if n <= 2000:
            assert [m.key() for m in morphisms_from_w(form, k)] == want
            indices = range(n)
        else:  # W_3 (+) W_9 at k = 9 has 52488 morphisms
            indices = sorted(rnd.sample(range(n), 300))
        got = [w_morphism_by_index(form, k, i).key() for i in indices]
        assert got == [want[i] for i in indices]
        with pytest.raises(InputError):
            w_morphism_by_index(form, k, n)
