import math

import pytest
from hypothesis import given, strategies as st

from linkforms import (
    AbGroupDescriptor,
    InputError,
    InvariantError,
    KKManifold1,
    QZValue,
    UnsupportedDegree,
    admits_swapping_involution,
    is_generator,
    kk_class,
    multiplication_cokernel,
    multiplication_kernel,
    omega_k,
    omega_kl,
    t_k,
)
from linkforms import bordism, invariant_chain
from linkforms.snf import _eliminate


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptor_normalization():
    assert AbGroupDescriptor.cyclic(1) == AbGroupDescriptor.trivial()
    assert AbGroupDescriptor.cyclic(1).is_trivial()
    assert not AbGroupDescriptor.cyclic(2).is_trivial()
    assert AbGroupDescriptor.cyclic(6).torsion == (6,)
    assert not AbGroupDescriptor.free(1).is_trivial()


def test_descriptor_rendering():
    assert str(AbGroupDescriptor.trivial()) == "0"
    assert str(AbGroupDescriptor.cyclic(5)) == "Z/5"
    assert str(AbGroupDescriptor.free(1)) == "Z"
    assert str(AbGroupDescriptor.free(3)) == "Z^3"
    assert str(AbGroupDescriptor(1, (2,))) == "Z + Z/2"
    assert str(AbGroupDescriptor(0, (2, 6))) == "Z/2 + Z/6"
    assert str(AbGroupDescriptor(2, (2,))) == "Z^2 + Z/2"
    assert str(AbGroupDescriptor(0, (2, 2, 4))) == "(Z/2)^2 + Z/4"


def test_descriptor_validation():
    with pytest.raises(InputError):
        AbGroupDescriptor(-1, ())
    with pytest.raises(InputError):
        AbGroupDescriptor(0, (4, 2))  # not a divisibility chain
    with pytest.raises(InputError):
        AbGroupDescriptor(0, (1,))
    with pytest.raises(InputError):
        AbGroupDescriptor.cyclic(0)


def presentation_cokernel(G: AbGroupDescriptor, k: int) -> AbGroupDescriptor:
    """Oracle: coker(x k : G -> G) as Z^n modulo the relations t e_i of G's
    torsion and k e_i for every generator, read off a Smith normal form."""
    n = G.free_rank + len(G.torsion)
    if n == 0:
        return AbGroupDescriptor.trivial()
    cols = [[t if i == G.free_rank + j else 0 for i in range(n)] for j, t in enumerate(G.torsion)]
    cols += [[k if i == j else 0 for i in range(n)] for j in range(n)]
    diag, _, _ = _eliminate([[col[i] for col in cols] for i in range(n)])
    return AbGroupDescriptor(n - sum(1 for d in diag if d), tuple(d for d in diag if d > 1))


@given(
    st.integers(0, 3),
    st.lists(st.integers(2, 2**70), max_size=3),
    st.one_of(st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1]), st.integers(-(2**70), 2**70)),
)
def test_multiplication_cokernel_matches_presentation(free_rank, orders, k):
    """The closed form agrees with the presentation SNF at k = 0, +-1,
    negative k and orders past 2^64."""
    G = AbGroupDescriptor(free_rank, invariant_chain(orders))
    assert multiplication_cokernel(G, k) == presentation_cokernel(G, k)


def test_multiplication_maps():
    Z = AbGroupDescriptor.free(1)
    assert multiplication_cokernel(Z, 5) == AbGroupDescriptor.cyclic(5)
    assert multiplication_kernel(Z, 5) == AbGroupDescriptor.trivial()
    Z6 = AbGroupDescriptor.cyclic(6)
    assert multiplication_cokernel(Z6, 4) == AbGroupDescriptor.cyclic(2)
    assert multiplication_kernel(Z6, 4) == AbGroupDescriptor.cyclic(2)
    assert multiplication_kernel(Z6, 0) == Z6
    G = AbGroupDescriptor(0, (2, 6))
    assert multiplication_kernel(G, 2) == AbGroupDescriptor(0, (2, 2))


# ---------------------------------------------------------------------------
# bordism groups over a point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(2, 26))
def test_one_sided_tables(k):
    assert omega_k(0, k) == AbGroupDescriptor.cyclic(k)
    assert omega_k(1, k) == AbGroupDescriptor.trivial()


@pytest.mark.parametrize("k,l", [(2, 2), (2, 3), (4, 6), (6, 4), (9, 12), (20, 15)])
def test_two_sided_tables(k, l):
    g = math.gcd(k, l)
    assert omega_kl(0, k, l) == AbGroupDescriptor.cyclic(g)
    assert omega_kl(1, k, l) == AbGroupDescriptor.cyclic(g)


def test_two_sided_symmetric():
    for k in range(2, 12):
        for l in range(2, 12):
            assert omega_kl(0, k, l) == omega_kl(0, l, k)


@pytest.mark.parametrize("j", [-1, 2, 3, 10])
def test_unsupported_degrees(j):
    with pytest.raises(UnsupportedDegree):
        omega_k(j, 3)
    with pytest.raises(UnsupportedDegree):
        omega_kl(j, 3, 3)


@pytest.mark.parametrize("wrong,match", [
    (lambda G: G, "disagree"),
    (lambda G: AbGroupDescriptor.cyclic(7), "contradicts"),
])
def test_inconsistent_sequences_are_invariant_errors(monkeypatch, wrong, match):
    """A kernel computation that goes wrong on torsion groups makes the two
    exact sequences of degree 1 disagree, or agree on a group other than
    Z/gcd(k, l): a library fault, not bad input."""
    real = bordism.multiplication_kernel
    monkeypatch.setattr(
        bordism, "multiplication_kernel",
        lambda G, k: wrong(G) if G.torsion else real(G, k),
    )
    with pytest.raises(InvariantError, match=match):
        omega_kl(1, 6, 4)


def test_degenerate_levels_rejected():
    with pytest.raises(InputError):
        omega_k(0, 1)
    with pytest.raises(InputError):
        omega_kl(0, 1, 5)
    with pytest.raises(InputError):
        omega_kl(0, 5, 0)


# ---------------------------------------------------------------------------
# the 1-dimensional two-sided calculus
# ---------------------------------------------------------------------------


def test_kk_validation():
    with pytest.raises(InputError):
        KKManifold1(1, 0, 0)
    with pytest.raises(InputError):
        KKManifold1(3, -1, 0)
    with pytest.raises(InputError):
        KKManifold1(3, 0, 0, circles=-2)


def test_kk_frozen_examples():
    N = KKManifold1(3, plus=2, minus=1, circles=1)
    assert kk_class(N) == 1
    assert is_generator(N)
    assert t_k(N) == QZValue(1, 3)
    M = KKManifold1(5, plus=7, minus=1)
    assert kk_class(M) == 1 and is_generator(M)
    Z = KKManifold1(4, plus=3, minus=1)
    assert kk_class(Z) == 2
    assert not is_generator(Z)
    assert t_k(Z) == QZValue(1, 2)


def test_union_requires_matching_level():
    with pytest.raises(InputError):
        KKManifold1(3, 1, 0).disjoint_union(KKManifold1(5, 1, 0))


pieces = st.builds(
    KKManifold1,
    k=st.shared(st.integers(2, 15), key="k"),
    plus=st.integers(0, 20),
    minus=st.integers(0, 20),
    circles=st.integers(0, 3),
    null_b1=st.integers(0, 3),
    null_b2=st.integers(0, 3),
)


@given(pieces, pieces)
def test_class_additive_under_union(A, B):
    U = A.disjoint_union(B)
    assert kk_class(U) == (kk_class(A) + kk_class(B)) % U.k
    assert t_k(U) == t_k(A) + t_k(B)


@given(pieces)
def test_generator_iff_coprime_class(N):
    assert is_generator(N) == (math.gcd(kk_class(N), N.k) == 1)


@given(pieces)
def test_involution_forces_null_class(N):
    if admits_swapping_involution(N):
        assert kk_class(N) == 0
        assert t_k(N) == QZValue(0, N.k)


def test_swapping_involution_cases():
    assert admits_swapping_involution(KKManifold1(3, 2, 2, circles=5))
    assert admits_swapping_involution(KKManifold1(3, 0, 0, null_b1=1, null_b2=1))
    assert not admits_swapping_involution(KKManifold1(3, 2, 1))
    assert not admits_swapping_involution(KKManifold1(3, 1, 1, null_b1=1))


@pytest.mark.parametrize("k", range(2, 51))
def test_unit_piece_value(k):
    assert t_k(KKManifold1(k, 1, 0)) == QZValue(1, k)
