"""Block rank against an independent maximum-clique oracle.

The rank is by definition the size of the largest set of pairwise
orthogonal block morphisms.  Orthogonality only depends on images, so the
oracle deduplicates morphisms by image and hands the resulting graph to
networkx's maximal-clique enumerator; adjacency is evaluated straight from
the form, not through the library's own predicates.
"""

import gc
import hashlib
import itertools
import math
import random
import weakref
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import linkforms.forms as forms
import linkforms.rank as rank
from linkforms import (
    CapExceeded,
    FinAbGroup,
    GroupHom,
    InputError,
    InvariantError,
    LinkingForm,
    QZValue,
    count_w_morphisms,
    direct_sum,
    k_rank,
    kernel_form,
    morphisms_from_w,
    split_along,
    stable_k_rank,
    standard_w,
    upper_bound,
    w_power,
)
from linkforms.corpus import scramble_form
from linkforms.rank import _distinct_image_branches, torsion_bound
from linkforms.snf import prime_factorization


def orthogonal(form, f, g):
    return all(
        form.evaluate(u, v).is_zero()
        for u in (f.x, f.y)
        for v in (g.x, g.y)
    )


def clique_rank_oracle(form, k, image_cap=600):
    morphs = morphisms_from_w(form, k, cap=500_000)
    by_image = {}
    for m in morphs:
        by_image.setdefault(m.image_key(), m)
    reps = list(by_image.values())
    assert len(reps) <= image_cap, "oracle graph too large"
    G = nx.Graph()
    G.add_nodes_from(range(len(reps)))
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if orthogonal(form, reps[i], reps[j]):
                G.add_edge(i, j)
    if not reps:
        return 0
    return max(len(c) for c in nx.find_cliques(G))


FROZEN_RANKS = [
    (lambda: standard_w(3), 3, 1),
    (lambda: w_power(3, 2), 3, 2),
    (lambda: standard_w(9), 3, 0),
    (lambda: direct_sum(standard_w(3), standard_w(9)), 3, 1),
    (lambda: standard_w(6), 6, 1),
    (lambda: standard_w(6), 2, 1),
    (lambda: standard_w(4), 2, 0),
]


@pytest.mark.parametrize("make,k,expected", FROZEN_RANKS)
def test_rank_frozen_and_oracle(make, k, expected):
    form = make()
    res = k_rank(form, k)
    assert res.certified
    assert res.value == expected
    assert clique_rank_oracle(form, k) == expected


def test_rank_of_w_powers():
    for g in (1, 2, 3, 4):
        res = k_rank(w_power(3, g), 3)
        assert res.certified
        assert res.value == g
        assert len(res.witness) == g


def test_trivial_form():
    trivial = LinkingForm(FinAbGroup.of(), [])
    res = k_rank(trivial, 3)
    assert res.value == 0 and res.certified


def test_witness_is_pairwise_orthogonal():
    form = w_power(3, 3)
    res = k_rank(form, 3)
    assert len(res.witness) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert orthogonal(form, res.witness[i], res.witness[j])


def test_mixed_form_needs_branching():
    """The bounds do not meet on W_3 (+) W_9, so the certificate has to
    come from exhausting the branch tree; the true rank is below the
    torsion upper bound."""
    form = direct_sum(standard_w(3), standard_w(9))
    assert upper_bound(form, 3) == 2
    res = k_rank(form, 3)
    assert res.value == 1
    assert res.certified
    assert res.nodes > 0


def test_budget_exhaustion_gives_uncertified_lower_bound():
    form = direct_sum(standard_w(3), standard_w(9))
    res = k_rank(form, 3, budget=1)
    assert not res.certified
    assert res.value == 1  # greedy chain still finds one block
    assert res.value <= k_rank(form, 3).value


def test_rank_is_isomorphism_invariant():
    rng = random.Random(9)
    for base in (w_power(3, 2), direct_sum(standard_w(3), standard_w(9))):
        scrambled, _ = scramble_form(base, rng)
        assert k_rank(scrambled, 3).value == k_rank(base, 3).value
        assert clique_rank_oracle(scrambled, 3) == k_rank(base, 3).value


def test_scrambled_oracle_round_trip():
    rng = random.Random(10)
    scrambled, _ = scramble_form(w_power(2, 2), rng)
    res = k_rank(scrambled, 2)
    assert res.certified
    assert res.value == clique_rank_oracle(scrambled, 2) == 2


def per_prime_torsion_bound(orders, k):
    """min over primes p | k of (number of orders divisible by the exact
    p-part of k) // 2, the torsion bound as the rank module states it."""
    return min(sum(d % p**a == 0 for d in orders) for p, a in prime_factorization(k)) // 2


# Small orders, and large ones that share prime powers with each other and
# that trial division still factors quickly.
bound_orders = st.one_of(
    st.integers(2, 400), st.sampled_from([2**40, 2**41 * 3, 2**12 * 3**5, 2**5 * 1048573])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(bound_orders, max_size=6), bound_orders)
def test_torsion_bound_matches_per_prime_count(orders, k):
    """The chain count of M[k] against the per-prime oracle."""
    form = LinkingForm._from_numerators(FinAbGroup(tuple(orders)), 1, [[0] * len(orders)] * len(orders))
    assert torsion_bound(form, k) == per_prime_torsion_bound(orders, k)


def test_rank_at_a_large_prime_k():
    """At k = 2^61 - 1 the bounds factor nothing and the greedy chain walks
    no torsion axis, so both answers are certified by the bounds."""
    p = 2**61 - 1
    for form, value in ((standard_w(3), 0), (standard_w(p), 1)):
        res = k_rank(form, p)
        assert (res.value, res.certified, res.nodes) == (value, True, 0)
        stable = stable_k_rank(form, p, g_max=1)
        assert (stable.value, stable.certified) == (value, True)


def test_stable_rank_w3():
    res = stable_k_rank(standard_w(3), 3, g_max=2)
    assert res.value == 1
    assert res.certified
    assert [r.value for r in res.per_g] == [1, 2, 3]


def test_stable_rank_w3_squared():
    res = stable_k_rank(w_power(3, 2), 3, g_max=2)
    assert res.value == 2
    assert res.certified


def test_stable_rank_monotone_padding():
    """Padding with a fresh block never lowers the stabilized value."""
    for form, g_max in ((standard_w(3), 3), (w_power(3, 2), 2)):
        res = stable_k_rank(form, 3, g_max=g_max)
        assert all(r.certified for r in res.per_g)
        values = [r.value - g for g, r in enumerate(res.per_g)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert res.value == max(values)


def test_stable_rank_budget_degrades_gracefully():
    # deep padding of a mixed form explodes the branch tree; a small
    # budget must still return the best padded lower bound found
    form = direct_sum(standard_w(3), standard_w(9))
    res = stable_k_rank(form, 3, g_max=2, budget=2_000)
    assert res.value >= 1
    assert res.value == max(r.value - g for g, r in enumerate(res.per_g))


def test_stable_rank_of_trivial_form():
    trivial = LinkingForm(FinAbGroup.of(), [])
    res = stable_k_rank(trivial, 3, g_max=2)
    assert res.value == 0


@pytest.mark.parametrize("k", [1, 0, -3])
def test_rank_rejects_k_below_two(k):
    with pytest.raises(InputError):
        k_rank(w_power(3, 2), k)
    with pytest.raises(InputError):
        stable_k_rank(w_power(3, 2), k, g_max=1)


def test_stable_rank_rejects_negative_g_max():
    with pytest.raises(InputError):
        stable_k_rank(standard_w(3), 3, g_max=-1)


def test_stable_rank_refuses_past_the_padded_rank_cap(monkeypatch):
    """STABLE_PADDED_RANK_CAP is read at call time and bounds the rank of
    form (+) W_k^g_max, so a refusal comes before any search."""
    assert rank.STABLE_PADDED_RANK_CAP == 64
    monkeypatch.setattr(rank, "STABLE_PADDED_RANK_CAP", 6)
    assert stable_k_rank(standard_w(3), 3, g_max=2).value == 1  # rank 2 + 4 = 6

    def search(*args, **kwargs):
        raise AssertionError("searched before the cap check")

    monkeypatch.setattr(rank, "k_rank", search)
    for form, g_max in ((standard_w(3), 3), (w_power(3, 2), 2), (standard_w(3), 2**70)):
        with pytest.raises(CapExceeded) as exc:
            stable_k_rank(form, 3, g_max=g_max)
        assert (exc.value.needed, exc.value.cap) == (form.group.rank + 2 * g_max, 6)


def test_rank_rejects_negative_budget():
    form = direct_sum(standard_w(3), standard_w(9))
    with pytest.raises(InputError, match="budget"):
        k_rank(form, 3, budget=-5)
    res = k_rank(form, 3, budget=0)  # bounds and greedy chain only
    assert (res.value, res.certified, res.nodes) == (1, False, 1)


def test_stable_rank_rejects_negative_budget():
    with pytest.raises(InputError, match="budget"):
        stable_k_rank(standard_w(3), 3, g_max=1, budget=-1)
    assert stable_k_rank(standard_w(3), 3, g_max=1, budget=0).certified


# ---------------------------------------------------------------------------
# distinct-image branches
# ---------------------------------------------------------------------------


def first_morphism_per_image(form, k):
    """The definition: the first morphism of each image_key, in the
    lexicographic enumeration of morphisms_from_w."""
    seen, out = set(), []
    for f in morphisms_from_w(form, k):
        key = f.image_key()
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def kernel_of(form, m, coeffs):
    cyclic = FinAbGroup.of(m)
    phi = GroupHom(form.group, cyclic, [cyclic.element((c,)) for c in coeffs])
    return kernel_form(form, phi).form


W3_W9 = direct_sum(standard_w(3), standard_w(9))
BIG = 2 * ((1 << 31) - 1)  # past the int64 gate (2 * BIG**2 > 2**63): exact path


@st.composite
def branch_cases(draw):
    """(form, k): W_3^2, W_3 (+) W_9 and its kernels, W_2^2, W_6^2 at k = 2
    and 3, kernels of surjections W_6^2 -> Z/6 at the composite k = 6 (W_6^2
    itself has 259,200 morphisms, too many for the definition above), and
    W_BIG^2 at k = 2, each optionally scrambled."""
    case = draw(st.sampled_from(["w3sq", "w3w9", "w3w9-kernel", "w2sq", "w6sq", "w6sq-kernel", "big"]))
    if case == "w3sq":
        form, k = w_power(3, 2), 3
    elif case == "w3w9":
        form, k = W3_W9, 3
    elif case == "w3w9-kernel":
        form, k = kernel_of(W3_W9, 3, draw(st.tuples(*[st.integers(0, 2)] * 4))), 3
    elif case == "w2sq":
        form, k = w_power(2, 2), 2
    elif case == "w6sq":
        form, k = w_power(6, 2), draw(st.sampled_from([2, 3]))
    elif case == "w6sq-kernel":
        coeffs = draw(st.tuples(*[st.integers(0, 5)] * 4).filter(lambda c: math.gcd(*c, 6) == 1))
        form, k = kernel_of(w_power(6, 2), 6, coeffs), 6
    else:
        form, k = w_power(BIG, 2), 2
        assert form._np_numerators is None
    if draw(st.booleans()):
        form, _ = scramble_form(form, random.Random(draw(st.integers(0, 2**32))))
    return form, k


@settings(max_examples=40, deadline=None)
@given(branch_cases())
def test_distinct_image_branches_match_definition(case):
    form, k = case
    got = _distinct_image_branches(form, k, cap=500_000)
    want = first_morphism_per_image(form, k)
    assert [f.key() for f in got] == [f.key() for f in want]


def rank_digest():
    """SHA-256 over (value, certified, nodes, bound, witness keys) of
    k_rank(ker phi, 3) for all 81 maps phi : F -> Z/3, F = W_3 (+) W_9 and
    W_3^2."""
    h = hashlib.sha256()
    for form in (W3_W9, w_power(3, 2)):
        for coeffs in itertools.product(range(3), repeat=4):
            res = k_rank(kernel_of(form, 3, coeffs), 3)
            row = (coeffs, res.value, res.certified, res.nodes, res.bound,
                   [f.key() for f in res.witness])
            h.update(repr(row).encode())
    return h.hexdigest()


def test_rank_of_kernels_is_frozen():
    """Branch order, node counts and witnesses feed the benchmark checksums,
    so they must not drift; the digest is that of the search that built
    and kept one morphism per pair before deduplicating images."""
    assert rank_digest() == (
        "dc49ffe761cd499e8272ed859076b4cb2c26ea2dcd84d4ba55fdb19af8d41fba"
    )


# ---------------------------------------------------------------------------
# work per search
# ---------------------------------------------------------------------------


def searched_kernel():
    """The kernel of W_3 (+) W_9 -> Z/3 by (0, 0, 1, 0): a singular form
    of rank 1 below its upper bound 2, whose 81 branch complements are all
    one form as presented."""
    return kernel_of(W3_W9, 3, (0, 0, 1, 0))


def test_search_handles_each_distinct_form_once(monkeypatch):
    """The root and its one distinct complement are enumerated once each.
    The 81 branch complements come from 34 distinct congruence-row sets, so
    34 solves; each branch's own morphism is still checked, 81 checks, the
    greedy chain's first split being branch 0's (recomputing per node makes
    82, 87 and 84 calls, and splitting every morphism afresh 81 solves)."""
    names = ["_distinct_image_branches", "first_w_morphism", "solve_complement", "check_split"]
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(rank, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(rank, name, counted)
    res = k_rank(searched_kernel(), 3)
    assert (res.value, res.certified, res.nodes) == (1, True, 82)
    assert calls == {
        "_distinct_image_branches": 2,
        "first_w_morphism": 2,
        "solve_complement": 34,
        "check_split": 81,
    }


def test_split_checks_guard_the_shared_solves(monkeypatch):
    """Every morphism the search splits along is checked against its
    complement once, shared solve or not; a search handed branch 0's
    complement for every branch is stopped by those checks."""
    checked = []
    check = rank.check_split
    def recorded(f, comp):
        checked.append((f.target, f.key()))
        check(f, comp)
    monkeypatch.setattr(rank, "check_split", recorded)
    assert k_rank(searched_kernel(), 3).certified
    assert len(checked) == len(set(checked)) == 81

    solve, first = rank.solve_complement, {}
    def stuck(form, rows):
        if form not in first:
            first[form] = solve(form, rows)
        return first[form]
    monkeypatch.setattr(rank, "solve_complement", stuck)
    with pytest.raises(InvariantError, match="intersect trivially"):
        k_rank(searched_kernel(), 3)


def test_solves_and_splits_are_keyed_apart():
    """On W_3^2 the congruence rows of one morphism's image can be another
    morphism's key, with a different image; the solves and the checked
    splits are looked up in separate tables, so each gets its own
    complement."""
    form = w_power(3, 2)
    morphs = morphisms_from_w(form, 3)
    by_key = {f.key(): f for f in morphs}
    f, g = next(
        (f, by_key[rows]) for f in morphs
        if (rows := forms.complement_rows(form, f.image_subgroup)) in by_key
        and by_key[rows].image_key() != f.image_key()
    )
    state = rank._SearchState(k=3, budget=0)
    node = state.node(form)
    state.complement(node, g)
    got, want = state.complement(node, f).subgroup, split_along(f).subgroup
    assert [z.coeffs for z in got.generators] == [z.coeffs for z in want.generators]


def recomputing_complement(self, node, f):
    """The search's complement before the solves were shared: one
    ``split_along`` per morphism taken from each form."""
    comp = node.complements.get(f.key())
    if comp is None:
        comp = node.complements[f.key()] = split_along(f)
    return comp


def traced_rank(form, k, budget, complement):
    """(value, certified, nodes, bound, witness keys) of ``k_rank`` with
    ``_SearchState.complement`` replaced by ``complement``, and the
    presentation of each complement it returned, in call order."""
    used = []
    def traced(self, node, f):
        comp = complement(self, node, f)
        gens = comp.subgroup.decomposition_gens
        used.append((f.key(), [g.coeffs for g in comp.subgroup.generators],
                     [g.coeffs for g in gens], comp.form.group.orders,
                     comp.form.denominator, comp.form.numerators))
        return comp
    with mock.patch.object(rank._SearchState, "complement", traced):
        res = k_rank(form, k, budget=budget)
    return (res.value, res.certified, res.nodes, res.bound, [f.key() for f in res.witness]), used


@settings(max_examples=40, deadline=None)
@given(branch_cases(), st.integers(-2, 1))
def test_shared_complements_answer_as_recomputing_does(case, offset):
    """The search sharing solves by congruence rows gives the answer, the
    node count and every complement presentation of the search that splits
    each morphism afresh, at budgets around the node count."""
    form, k = case
    budget = max(0, k_rank(form, k).nodes + offset)
    shared = traced_rank(form, k, budget, rank._SearchState.complement)
    assert shared == traced_rank(form, k, budget, recomputing_complement)


def test_search_state_dies_with_the_call(monkeypatch):
    """Every complement a ``k_rank`` call solves is freed by reference
    counting alone once the call returns, certified or out of budget: the
    shared solves live in the call's search state, on no form or subgroup
    that outlives it, and in no reference cycle."""
    refs = []
    solve = rank.solve_complement
    def recorded(form, rows):
        comp = solve(form, rows)
        refs.append(weakref.ref(comp))
        return comp
    monkeypatch.setattr(rank, "solve_complement", recorded)
    form = searched_kernel()
    gc.disable()
    try:
        for budget in (200_000, 40):
            del refs[:]
            res = k_rank(form, 3, budget=budget)
            assert res.certified == (budget > 82)
            assert len(refs) > 1 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_branch_enumeration_is_capped_whatever_the_budget(monkeypatch):
    """The branch enumeration may take as many morphisms as the budget has
    nodes, but never more than ``forms.DEFAULT_VERTEX_CAP`` (read at call
    time): past it the search stops with the greedy chain, uncertified.
    W_3^4 (+) (Z/3)^2 with the zero form has 1,162,084,320 morphisms at
    k = 3, a scan that a budget of 2^70 must not ask for."""
    zero = LinkingForm(FinAbGroup.of(3, 3), [[QZValue(0, 1)] * 2] * 2)
    wide = direct_sum(w_power(3, 4), zero)
    assert count_w_morphisms(wide, 3) == 1_162_084_320
    res = k_rank(wide, 3, budget=2**70)
    assert (res.value, res.certified, res.bound) == (4, False, 5)

    form = searched_kernel()
    assert k_rank(form, 3, budget=2**70).certified
    monkeypatch.setattr(forms, "DEFAULT_VERTEX_CAP", count_w_morphisms(form, 3) - 1)
    res = k_rank(form, 3, budget=2**70)
    assert (res.value, res.certified, res.nodes) == (1, False, 1)


@pytest.mark.parametrize(
    "budget,expected",
    [(80, (1, False, 81)), (81, (1, False, 82)), (82, (1, True, 82))],
)
def test_budget_runs_out_where_it_did(budget, expected):
    """(value, certified, nodes) at the edge of the budget, as the search
    that recomputed every node gave them."""
    res = k_rank(searched_kernel(), 3, budget=budget)
    assert (res.value, res.certified, res.nodes) == expected
