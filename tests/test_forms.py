import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linkforms.forms as forms
from linkforms import (
    FinAbGroup,
    FormMorphism,
    GroupHom,
    InputError,
    InvariantError,
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
    hyperbolic_basis,
    identity_morphism,
    kernel_form,
    morphisms_from_w,
    normal_form,
    orthogonal_complement,
    split_along,
    standard_w,
    w_morphism,
    w_morphism_by_index,
    w_power,
)
from linkforms.corpus import block_sum, random_scrambled_pair, scramble_form
from linkforms.errors import CapExceeded
from linkforms.forms import Subform
from linkforms.lcomplex import build_l_complex


def torsion_elements(group, k):
    """{z : k z = 0} in lexicographic coefficient order."""
    axes = [range(0, d, d // math.gcd(d, k)) for d in group.orders]
    return [group.element(c) for c in itertools.product(*axes)]


def brute_count_w_morphisms(form, k):
    """Independent count: scan all pairs of k-torsion elements."""
    tors = torsion_elements(form.group, k)
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


def from_numerators(group, gram):
    """The private constructor on the same values, over a non-minimal
    common denominator (3 times the lcm) with unreduced numerators."""
    D = 3 * math.lcm(*(v.den for row in gram for v in row))
    N = [[v.num * (D // v.den) - D for v in row] for row in gram]
    return LinkingForm._from_numerators(group, D, N)


# Each rejection must read the same from both constructors.
CONSTRUCTORS = (LinkingForm, from_numerators)


def test_rejects_nonzero_diagonal():
    G = FinAbGroup.of(2, 2)
    half = QZValue(1, 2)
    gram = [[half, half], [half, QZValue.zero()]]
    for construct in CONSTRUCTORS:
        with pytest.raises(NonStrictFormError) as exc:
            construct(G, gram)
        assert type(exc.value) is NonStrictFormError
        assert str(exc.value) == "diagonal gram entry b(e_0, e_0) = 1/2 must vanish"


def test_rejects_non_skew():
    G = FinAbGroup.of(3, 3)
    z = QZValue.zero()
    gram = [[z, QZValue(1, 3)], [QZValue(1, 3), z]]
    for construct in CONSTRUCTORS:
        with pytest.raises(InputError) as exc:
            construct(G, gram)
        assert type(exc.value) is InputError
        assert str(exc.value) == "gram is not skew at (0, 1): 1/3 != -(1/3)"


def test_rejects_order_violation():
    G = FinAbGroup.of(2, 4)
    z = QZValue.zero()
    # b(e_0, e_1) = 1/4 is not killed by the order-2 generator
    gram = [[z, QZValue(1, 4)], [QZValue(3, 4), z]]
    for construct in CONSTRUCTORS:
        with pytest.raises(InputError) as exc:
            construct(G, gram)
        assert type(exc.value) is InputError
        assert str(exc.value) == "gram entry b(e_0, e_1) = 1/4 is not killed by generator order 2"


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
    assert standard_w(3).radical().order == 1


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
    tors = torsion_elements(form.group, k)
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
    comp = split_along(f)
    assert f.image_subgroup.order == 9
    assert comp.order == 9
    assert normal_form(comp.form) == normal_form(standard_w(3))
    # the retraction that split_along checks restricts to the identity on
    # the image through f: it maps a*x + b*y back to the source
    # coordinates (a, b), and it kills the complement
    retraction = forms._retraction(f)
    for a in range(3):
        for b in range(3):
            z = f.x.scale(a) + f.y.scale(b)
            assert retraction(z).coeffs == (a, b)
    assert all(retraction(z).is_zero() for z in comp.subgroup.elements())


def test_split_mixed_form():
    form = direct_sum(standard_w(3), standard_w(9))
    for m in random.Random(2).sample(morphisms_from_w(form, 3), 10):
        comp = split_along(m)
        assert m.image_subgroup.order * comp.order == 729
        assert normal_form(comp.form) == normal_form(standard_w(9))


@pytest.mark.parametrize(
    "gens",
    [((1, 0, 0, 0), (0, 0, 0, 1)), ((1, 0, 1, 0), (0, 0, 0, 1))],
    ids=["meets-image", "not-orthogonal"],
)
def test_split_rejects_a_wrong_complement(monkeypatch, gens):
    """A complement of the right order that meets the image, or that meets
    it trivially but is not orthogonal to it, fails the retraction check."""
    form = w_power(3, 2)
    f = w_morphism(form, 3, form.group.generator(0), form.group.generator(1))
    wrong = Subform(form, Subgroup(form.group, [form.group.element(g) for g in gens]))
    assert wrong.order == 9
    monkeypatch.setattr(forms, "orthogonal_complement", lambda M, sub: wrong)
    with pytest.raises(InvariantError, match="intersect trivially"):
        split_along(f)


def test_split_rejects_a_complement_of_the_wrong_order(monkeypatch):
    """A complement orthogonal to the image but too small to fill M fails
    the order check, which reads both orders off the invariant factors."""
    form = w_power(3, 2)
    f = w_morphism(form, 3, form.group.generator(0), form.group.generator(1))
    small = Subform(form, Subgroup(form.group, [form.group.generator(2)]))
    assert small.subgroup.invariant_factors == (3,)
    monkeypatch.setattr(forms, "orthogonal_complement", lambda M, sub: small)
    with pytest.raises(InvariantError, match="orders must multiply"):
        split_along(f)


def test_split_is_orthogonal_decomposition():
    form = w_power(3, 2)
    f = first_w_morphism(form, 3)
    image, comp = f.image_subgroup, split_along(f).subgroup
    for a in image.elements():
        for b in comp.elements():
            assert form.evaluate(a, b).is_zero()
    both = image.generators + comp.generators
    assert Subgroup(form.group, both).order == 81


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
    members = list(comp.form.group.enumerate_elements())
    assert len(members) == comp.order
    for a in members:
        for b in members:
            assert comp.form.evaluate(a, b) == form.evaluate(
                comp.embed_element(a), comp.embed_element(b)
            )


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
    """Every vector of W_3^2 and W_6^2 and seeded samples of W_10^2,
    W_12^2, W_6^3, W_4^3 and W_2^4; with three or four blocks, more than
    one block is taken from a complement.  At composite k, v / gcd(k, v)
    need not be primitive: on W_6^2, v = (0, 0, 0, 4) gives (0, 0, 0, 2),
    of order 3."""
    rng = random.Random(6)
    for k, g, sample in ((3, 2, None), (6, 2, None), (10, 2, 60), (12, 2, 60),
                         (6, 3, 100), (4, 3, 100), (2, 4, 100)):
        form = w_power(k, g)
        pad = (0,) * (2 * g - 2)
        block = [form.group.element((a, b) + pad) for a in range(k) for b in range(k)]
        vectors = list(form.group.enumerate_elements())
        for v in vectors if sample is None else rng.sample(vectors, sample):
            phi = extend_to_automorphism(form, v)
            assert phi.is_automorphism()
            assert any(phi(z) == v for z in block)
    form = direct_sum(standard_w(3), standard_w(9))
    with pytest.raises(InputError):
        extend_to_automorphism(form, form.group.element((0,) * form.group.rank))


def test_morphism_compose_and_inverse():
    """The witness of a scramble composed with its inverse, found by
    enumeration and checked as a form morphism, is the identity."""
    form = w_power(3, 2)
    rng = random.Random(4)
    scrambled, witness = scramble_form(form, rng)
    preimage = {witness(x): x for x in scrambled.group.enumerate_elements()}
    assert len(preimage) == form.group.order
    inv = FormMorphism(form, scrambled, [preimage[g] for g in map(form.group.generator, range(4))])
    for ident in (witness.compose(inv), inv.compose(witness)):
        assert ident.is_automorphism()
        for x in rng.sample(list(ident.source.group.enumerate_elements()), 20):
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
    np.argwhere over the full pair table of the k-torsion (exact past the
    int64 gate); none when k does not divide D."""
    D = form.denominator
    if D % k:
        return []
    X, N = form._w_rows(k)
    table = ((X @ N) % D @ X.T) % D
    rows = [tuple(x) for x in X.tolist()]
    return [(rows[i], rows[j]) for i, j in np.argwhere(table == D // k).tolist()]


def check_first_pair(form, levels=(2, 3, 4, 6, 9, 12)):
    """first_w_morphism against the first pair of the full table scan at
    each level; returns how many levels have a morphism."""
    found = 0
    for k in levels:
        f = first_w_morphism(form, k)
        want = next(iter(brute_lex_keys(form, k)), None)
        assert (f.key() if f else None) == want
        found += f is not None
    return found


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (4,), (6,), (9,), (12,), (2, 4), (2, 6), (3, 3), (3, 9), (4, 6)]),
    st.integers(0, 10**6),
)
def test_first_pair_matches_reference(blocks, seed):
    """Scrambled block sums, at levels that divide D, that divide D with no
    morphism (W_9 at k = 3) and that do not divide D."""
    form, _ = scramble_form(block_sum(blocks), random.Random(seed))
    assert check_first_pair(form) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_first_pair_of_singular_kernel_forms(seed):
    """Kernels of random maps M -> Z/k: singular forms whose radical rows
    have no partner."""
    rng = random.Random(seed)
    M, k = rng.choice([
        (w_power(3, 2), 3),
        (direct_sum(standard_w(9), standard_w(3)), 3),
        (w_power(6, 2), 6),
        (direct_sum(standard_w(4), standard_w(12)), 4),
    ])
    M, _ = scramble_form(M, rng)
    C = FinAbGroup.of(k)
    phi = GroupHom(M.group, C, [
        C.element((rng.randrange(k) * (k // math.gcd(k, d)),)) for d in M.group.orders
    ])
    check_first_pair(kernel_form(M, phi).form)


def radical_sum(block, zeros, block_first=True):
    """W_block (+) the zero form on (Z/block)^zeros.  With the block first,
    every torsion row before the first one with a partner lies in the
    radical."""
    zero = LinkingForm._from_numerators(FinAbGroup.of(*[block] * zeros), 1, [[0] * zeros] * zeros)
    parts = (standard_w(block), zero)
    return direct_sum(*(parts if block_first else parts[::-1]))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 4), st.booleans())
def test_first_pair_after_radical_rows(block, zeros, block_first):
    assert check_first_pair(radical_sum(block, zeros, block_first), levels=(2, block)) > 0


def test_first_pair_after_6561_radical_rows_is_fast():
    """W_3 (+) the zero form on (Z/3)^8: the 3^8 rows with a zero W_3 part
    come first and have no partner.  A full pair scan of its 3^10 rows is
    quadratic (several seconds); the row walk stays well under a second.
    The morphism is the one that scan returns: x = e_1 and y = 2 e_0, with
    b(e_1, 2 e_0) = -2/3 = 1/3."""
    form = radical_sum(3, 8)
    start = time.perf_counter()
    f = first_w_morphism(form, 3)
    elapsed = time.perf_counter() - start
    assert f.key() == ((0, 1) + (0,) * 8, (2, 0) + (0,) * 8)
    assert elapsed < 1.0


def test_first_w_morphism_holds_no_torsion_axis():
    """At k = 2^61 - 1 the torsion axes of W_k have 2^61 - 1 entries each;
    the row walk turns indices into digits and holds none of them.  Row 0
    has no partner and row 1 = e_1 pairs first with (k - 1) e_0."""
    k = 2**61 - 1
    f = first_w_morphism(standard_w(k), k)
    assert f.key() == ((0, 1), (k - 1, 0))


def torsion_sized_arrays(form, k):
    """Paths of the arrays held on the form, directly or inside dicts and
    tuples, with one entry per row of M[k]."""
    rows = form.group.torsion_count(k)
    found = []

    def visit(path, value):
        if isinstance(value, dict):
            for key, v in value.items():
                visit(f"{path}[{key}]", v)
        elif isinstance(value, tuple):
            for i, v in enumerate(value):
                visit(f"{path}[{i}]", v)
        elif isinstance(value, np.ndarray) and value.ndim and value.shape[0] == rows:
            found.append(path)

    for name, value in vars(form).items():
        visit(name, value)
    return found


@pytest.mark.parametrize("modulus, g, k", [(3, 3, 3), (2 * 1048583, 2, 2)], ids=["W_3^3", "W_2p^2"])
def test_first_w_morphism_caches_no_torsion_table(modulus, g, k):
    """The row walk builds no torsion array, inside the int64 gate and on
    the exact path, so a short-lived form keeps no table, not even the
    per-row counts."""
    form = w_power(modulus, g)
    assert first_w_morphism(form, k) is not None
    assert torsion_sized_arrays(form, k) == []
    assert form._w_counts_cache == {}


@pytest.mark.parametrize("modulus, g, k", [(3, 4, 3), (2 * 1048583, 2, 2)], ids=["W_3^4", "W_2p^2"])
def test_lookups_keep_only_the_counts(modulus, g, k):
    """After index lookups the only table of |M[k]| entries on the form is
    the per-row counts; no torsion matrix is cached."""
    form = w_power(modulus, g)
    total = count_w_morphisms(form, k)
    for index in (0, total // 3, total - 1):
        w_morphism_by_index(form, k, index)
    assert torsion_sized_arrays(form, k) == [f"_w_counts_cache[{k}]"]


def full_matrix_counts(form, k):
    """Oracle for ``_w_counts``: the per-row solution counts from the whole
    torsion matrix at once, summed by ``np.cumsum``."""
    X, N = form._w_rows(k)
    D = form.denominator
    steps = np.array([d // math.gcd(d, k) for d in form.group.orders], dtype=N.dtype)
    g = np.gcd(np.gcd.reduce((X @ N) % D * steps, axis=1), D)
    counts = np.where(D // k % g == 0, form.group.torsion_count(k) // (D // g), 0)
    return np.cumsum(counts, dtype=np.int64)


# (blocks, k): composite k, on int64 forms and on exact forms past the gate
# (4 (2^18 + 1) > 2^20; 4 * 3^41 > 2^64)
BLOCK_COUNT_CASES = [
    ((4, 6), 2), ((4, 12), 4), ((6, 6), 6), ((12,), 6), ((2, 4, 6), 2), ((9, 3), 9),
    ((4 * ((1 << 18) + 1), 4), 4), ((4 * ((1 << 18) + 1), 12), 4), ((4 * 3**41, 6), 2),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BLOCK_COUNT_CASES), st.integers(0, 10**6), st.data())
def test_blockwise_counts_match_full_matrix(case, seed, data):
    """Counts built block by block equal the whole-matrix oracle when M[k]
    has B - 1, B or B + 1 rows for a block of B rows, and over several
    blocks."""
    blocks, k = case
    form, _ = scramble_form(block_sum(blocks), random.Random(seed))
    assert (form._np_numerators is None) == (form.denominator > 1 << 20)
    rows = form.group.torsion_count(k)
    B = data.draw(st.sampled_from([rows - 1, rows, rows + 1, max(1, rows // 3), 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms._kernels, "_BLOCK_CELLS", max(B, 1) * form.group.rank)
        got = form._w_counts(k)
    assert got.dtype == np.int64
    assert got.tolist() == full_matrix_counts(form, k).tolist()


def test_w_counts_refused_before_any_allocation():
    """W_3^9 at k = 3 has 3^18 torsion rows, past the enumeration cap: the
    lazy build refuses at once with the row count, allocating nothing."""
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        build_l_complex(w_power(3, 9), 3)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert err.value.needed == 3**18
    assert elapsed < 1.0
    assert peak < 1 << 20


def test_lazy_w_3_6_memory():
    """The lazy W_3^6 complex (3^12 torsion rows) and 10 lookups stay under
    16 MB of traced allocations: 4.25 MB of counts plus fixed-size blocks.
    A cached torsion matrix with its products took about 150 MB."""
    tracemalloc.start()
    L = build_l_complex(w_power(3, 6), 3)
    for i in range(10):
        L.vertex(i * 1000003 % L.vertex_count)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert not L.materialized
    assert peak < 16 << 20


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


def scanned_partner_lookup(form, k, index):
    """Oracle for ``w_morphism_by_index``: the same binary search for the
    row x, then a scan of all of M[k] for the partners y of that row."""
    X, N = form._w_rows(k)
    cum = form._w_counts(k)
    D = form.denominator
    i = int(np.searchsorted(cum, index, side="right"))
    seen = int(cum[i - 1]) if i else 0
    hits = np.flatnonzero((X @ ((X[i] @ N) % D)) % D == D // k)
    return tuple(X[i].tolist()), tuple(X[hits[index - seen]].tolist())


def check_every_row_against_scan(form, k, rnd):
    """For each torsion row with partners, its first and last partner and
    one random one are looked up and compared with the scanning oracle.
    Returns the number of morphisms."""
    cum = [0] + form._w_counts(k).tolist()
    total = cum[-1]
    assert total == count_w_morphisms(form, k)
    for seen, stop in zip(cum, cum[1:]):
        if stop == seen:
            continue
        for index in {seen, stop - 1, rnd.randrange(seen, stop)}:
            got = w_morphism_by_index(form, k, index)
            assert got.key() == scanned_partner_lookup(form, k, index)
    with pytest.raises(InputError):
        w_morphism_by_index(form, k, total)
    return total


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(4,), (6,), (9,), (12,), (2, 4), (2, 6), (3, 9), (4, 6)]),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_partner_counting_matches_scan(blocks, seed, rnd):
    """Digit-by-digit partner counting against the full-row scan, at the
    composite levels k in (4, 6, 9, 12) that divide D, where steps and
    partial gcds differ from coordinate to coordinate."""
    form, _ = scramble_form(block_sum(blocks), random.Random(seed))
    levels = [k for k in (4, 6, 9, 12) if form.denominator % k == 0]
    totals = [check_every_row_against_scan(form, k, rnd) for k in levels]
    assert any(totals)


def test_partner_counting_refuses_counts_it_cannot_meet():
    """Row counts that overstate a row's partners (a corrupted cache) make
    the digit counting raise InvariantError instead of returning a vertex:
    row 0 (x = 0) has no partner at all, row 1 has 27 and is asked for its
    28th."""
    form = w_power(3, 2)
    cum = form._w_counts(3)
    assert cum[:2].tolist() == [0, 27]
    bumped = cum + 1
    form._w_counts_cache[3] = bumped
    with pytest.raises(InvariantError, match="no solution"):
        w_morphism_by_index(form, 3, 0)
    bumped[0] = 0
    with pytest.raises(InvariantError, match="exceeds"):
        w_morphism_by_index(form, 3, 27)


def test_partner_solves_one_congruence():
    """``_partner(form, k, x, 0)`` is the first y in M[k], in lexicographic
    order, with b(x, y) = 1/k, or None when there is none, against a scan
    of M[k].  On W_9, x = (0, 3) pairs as b(x, y) = -3 y_0 / 9, and
    -3 y_0 = 1 mod 9 has no solution; x = (0, 1) pairs as -y_0 / 9."""
    w9 = standard_w(9)
    assert forms._partner(w9, 9, w9.group.element((0, 3)), 0) is None
    assert forms._partner(w9, 9, w9.group.element((0, 1)), 0).coeffs == (8, 0)
    scrambled, _ = scramble_form(block_sum((2, 4)), random.Random(3))
    for form in (w9, standard_w(6), scrambled):
        D = form.denominator
        for k in (k for k in range(2, D + 1) if D % k == 0):
            tors = torsion_elements(form.group, k)
            for x in tors:
                want = next((y for y in tors if form.evaluate(x, y) == QZValue(1, k)), None)
                assert forms._partner(form, k, x, 0) == want


# W_m^2 has morphisms from W_k when k | m and gcd(m / k, k) = 1.
PARTNER_EDGE_FORMS = {
    # the largest such m inside the int64 gate (m <= 2**20) at k = 4
    "W_{4*(2^18-1)}^2 k=4": (4 * ((1 << 18) - 1), 4),
    # the smallest one past it
    "W_{4*(2^18+1)}^2 k=4": (4 * ((1 << 18) + 1), 4),
    "W_{2p}^2 k=2": (2 * 1048583, 2),
    # coefficients past 2**64 on Python-int arrays (3**41 > 2**64)
    "W_{4*3^41}^2 k=4": (4 * 3**41, 4),
}


@pytest.mark.parametrize("case", PARTNER_EDGE_FORMS)
def test_partner_counting_at_int64_gate_edges(case):
    modulus, k = PARTNER_EDGE_FORMS[case]
    plain = w_power(modulus, 2)
    assert (plain._np_numerators is None) == (modulus > 1 << 20)
    scrambled, _ = scramble_form(plain, random.Random(modulus))
    for form in (plain, scrambled):
        assert check_every_row_against_scan(form, k, random.Random(k)) > 0


@pytest.mark.parametrize("case", PARTNER_EDGE_FORMS)
def test_first_pair_at_int64_gate_edges(case):
    modulus, k = PARTNER_EDGE_FORMS[case]
    plain = w_power(modulus, 2)
    scrambled, _ = scramble_form(plain, random.Random(modulus))
    for form in (plain, scrambled):
        assert check_first_pair(form, levels=(k,)) == 1


SPAN_FORMS = {
    "W_3^2": (lambda: w_power(3, 2), 3),
    "W_3+W_9": (lambda: direct_sum(standard_w(3), standard_w(9)), 3),
    "W_2^2": (lambda: w_power(2, 2), 2),
    # D = 2 * 1048583 is past the int64 gate: the exact path
    "W_2p^2": (lambda: w_power(2 * 1048583, 2), 2),
}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SPAN_FORMS)), st.integers(0, 10**6), st.data())
def test_image_key_is_the_image_subgroup(name, seed, data):
    make, k = SPAN_FORMS[name]
    scrambled, _ = scramble_form(make(), random.Random(seed))
    total = count_w_morphisms(scrambled, k)
    for _ in range(3):
        f = w_morphism_by_index(scrambled, k, data.draw(st.integers(0, total - 1)))
        want = frozenset(e.coeffs for e in f.image_subgroup.elements())
        assert f.image_key() == want
        assert len(want) == k * k


def test_image_key_of_identity_morphism():
    form = direct_sum(standard_w(2), standard_w(4))
    f = identity_morphism(form)
    want = frozenset(e.coeffs for e in f.image_subgroup.elements())
    assert f.image_key() == want
    assert len(want) == form.group.order


# ---------------------------------------------------------------------------
# the integer Gram against its QZValue definition
# ---------------------------------------------------------------------------


P = 1048583  # D = 2 * P is past the int64 gate: the exact path
W9_W3 = direct_sum(standard_w(9), standard_w(3))


def random_subform(rng, kind):
    """A subform of one of the agreement kinds, built from the seed."""
    if kind == "kernel":
        M, k = rng.choice([(w_power(3, 2), 3), (W9_W3, 3), (w_power(6, 2), 6), (w_power(4, 2), 2)])
        C = FinAbGroup.of(k)
        phi = GroupHom(M.group, C, [
            C.element((rng.randrange(k) * (k // math.gcd(k, d)),)) for d in M.group.orders
        ])
        return kernel_form(M, phi)
    if kind == "singular":
        M, _ = scramble_form(block_sum(rng.choice([(3, 9), (2, 4), (6,), (3, 3)])), rng)
        gens = [
            M.group.element(tuple(rng.randrange(d) for d in M.group.orders))
            for _ in range(rng.randint(1, 2))
        ]
        return Subform(M, Subgroup(M.group, gens))
    if kind == "exact":
        M, _ = scramble_form(w_power(2 * P, 2), rng)
        return Subform(M, Subgroup(M.group, [M.group.generator(0).scale(P), M.group.generator(1)]))
    # non-minimal D: 3 M of W_9 (+) W_3 is the zero form (D = 1), and
    # 3 e_0 with e_1, e_2, e_3 restricts to values in (1/3)Z (D = 3)
    G = W9_W3.group
    gens = [g.scale(3) for g in map(G.generator, range(4))]
    if rng.random() < 0.5:
        gens = [gens[0]] + [G.generator(i) for i in (1, 2, 3)]
    return Subform(W9_W3, Subgroup(G, gens))


def assert_round_trip(f):
    g = LinkingForm(f.group, f.gram)
    assert g == f and hash(g) == hash(f)
    assert (g.denominator, g.numerators) == (f.denominator, f.numerators)
    assert f.denominator == math.lcm(*(v.den for row in f.gram for v in row))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["scrambled", "kernel", "singular", "exact", "non-minimal"]),
       st.integers(0, 10**6))
def test_integer_gram_agrees_with_qz_definition(kind, seed):
    """The stored (D, N) round-trips through ``gram``, and a subform's
    numerators are the pairwise ambient ``evaluate`` values on its
    decomposition generators."""
    rng = random.Random(seed)
    if kind == "scrambled":
        blocks = rng.choice([(3,), (2, 4), (3, 9), (6,), (2, 3, 4)])
        f, _ = scramble_form(block_sum(blocks), rng)
        assert_round_trip(f)
        return
    sub = random_subform(rng, kind)
    gens = sub.subgroup.decomposition_gens
    assert sub.form.gram == tuple(tuple(sub.ambient.evaluate(a, b) for b in gens) for a in gens)
    assert_round_trip(sub.form)
    assert_round_trip(sub.ambient)
    if kind == "non-minimal":
        assert sub.ambient.denominator == 9 and sub.form.denominator in (1, 3)


MORPHISM_CASES = {
    "W_3 -> W_3^2": (lambda: standard_w(3), lambda: w_power(3, 2), 3),
    "W_3 -> W_9+W_3": (lambda: standard_w(3), lambda: W9_W3, 3),
    # the source denominator 9 does not divide the target's 3
    "W_9 -> W_3^2": (lambda: standard_w(9), lambda: w_power(3, 2), None),
    "W_2 -> W_2p^2": (lambda: standard_w(2), lambda: w_power(2 * P, 2), 2),
    "W_3^2 -> W_3^2": (lambda: w_power(3, 2), lambda: w_power(3, 2), None),
}


def torsion_image(rng, d, target):
    """A random element of the target killed by d."""
    return target.group.element(tuple(
        rng.randrange(math.gcd(t, d)) * (t // math.gcd(t, d)) for t in target.group.orders
    ))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MORPHISM_CASES)), st.integers(0, 10**6))
def test_form_morphism_accepts_exactly_the_pairing_preserving_images(case, seed):
    rng = random.Random(seed)
    make_source, make_target, k = MORPHISM_CASES[case]
    source, target = make_source(), scramble_form(make_target(), rng)[0]
    orders = source.group.orders
    if k is not None and rng.random() < 0.6:
        index = rng.randrange(count_w_morphisms(target, k))
        images = list(w_morphism_by_index(target, k, index).images)
        if rng.random() < 0.5:
            i = rng.randrange(len(images))
            images[i] = images[i] + torsion_image(rng, orders[i], target)
    else:
        images = [torsion_image(rng, d, target) for d in orders]
    r = len(images)
    want = all(
        target.evaluate(images[i], images[j]) == source.gram[i][j]
        for i in range(r) for j in range(r)
    )
    try:
        FormMorphism(source, target, images)
        got = True
    except InputError:
        got = False
    assert got == want


def test_integer_paths_build_no_qz_values(monkeypatch):
    """QZValue stays at the API boundary: none is built while ranking,
    enumerating, building the complex or scrambling."""
    from linkforms import build_l_complex, k_rank

    built = []
    init = QZValue.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    W3_W9 = direct_sum(standard_w(3), standard_w(9))
    C3 = FinAbGroup.of(3)
    phi = GroupHom(W3_W9.group, C3, [C3.element((c,)) for c in (0, 0, 1, 0)])
    runs = {
        # the kernel that takes 82 rank nodes, so the branch search runs
        "k_rank": lambda: k_rank(kernel_form(W3_W9, phi).form, 3),
        "morphisms_from_w": lambda: morphisms_from_w(w_power(3, 2), 3),
        "build_l_complex": lambda: build_l_complex(w_power(3, 2), 3),
        "scramble_form": lambda: scramble_form(block_sum([3, 9, 4]), random.Random(7)),
    }
    monkeypatch.setattr(QZValue, "__init__", counting_init)
    QZValue(1, 3)
    assert built == [(1, 3)]  # the counter is live
    for name, run in runs.items():
        built.clear()
        run()
        assert built == [], name
