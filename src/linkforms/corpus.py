"""Seeded random instance generators for the verification suites.

Everything takes an explicit ``random.Random`` so suites are reproducible
from a single integer seed.  Scrambled forms come with the isomorphism
that undoes the scramble, so tests can verify claims constructively.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

import numpy as np

from .complexes import FlagComplex, SimplicialMap, SymRelation
from .errors import InputError, InvariantError
from .forms import FormMorphism, LinkingForm, direct_sum, standard_w
from .groups import FinAbGroup, GroupHom
from .snf import prime_factorization

BLOCK_CHOICES = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
AUTOMORPHISM_STEPS = 25
SIMPLICIAL_MAP_TRIES = 60


def random_block_multiset(rng: random.Random, max_root_order: int = 81) -> list[int]:
    """Prime powers q1 <= q2 <= ... with product at most ``max_root_order``
    (the resulting group has order equal to the square of the product)."""
    blocks = []
    budget = max_root_order
    while True:
        options = [q for q in BLOCK_CHOICES if q <= budget]
        if not options or (blocks and rng.random() < 0.35):
            break
        q = rng.choice(options)
        blocks.append(q)
        budget //= q
    if not blocks:
        blocks.append(rng.choice((2, 3)))
    return sorted(blocks)


def block_sum(blocks) -> LinkingForm:
    return direct_sum(*(standard_w(q) for q in blocks))


def _units_up_to(x: int, primes: tuple[int, ...]) -> int:
    """Number of u in [1, x] prime to every p in ``primes`` (inclusion-exclusion)."""
    total = 0
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            total += (-1) ** r * (x // math.prod(combo))
    return total


@lru_cache(maxsize=128)
def _prime_divisors(d: int) -> tuple[int, ...]:
    """The primes dividing d; cached, since a scramble draws many units
    modulo the same few orders."""
    return tuple(p for p, _ in prime_factorization(d))


def random_unit(d: int, rng: random.Random) -> int:
    """A uniform unit mod d, the same draw as ``rng.choice`` over the
    ascending list of units in [1, d), without building that list.

    The index ``rng.randrange(phi(d))`` is the draw ``choice`` makes; the
    unit at that index is found by binary search on the count of units up
    to x.
    """
    primes = _prime_divisors(d)
    index = rng.randrange(_units_up_to(d - 1, primes))
    lo, hi = 1, d - 1  # the answer u is the least x with index < count(x)
    while lo < hi:
        mid = (lo + hi) // 2
        if _units_up_to(mid, primes) > index:
            hi = mid
        else:
            lo = mid + 1
    return lo


def random_group_automorphism(group: FinAbGroup, rng: random.Random) -> GroupHom:
    """Random invertible endomorphism built from ``AUTOMORPHISM_STEPS``
    elementary operations.

    Each step is one of: add a valid multiple of one generator image to
    another, rescale an image by a unit, or swap two images with equal
    generator orders.  Validity of the addition means the new image is
    still killed by the generator's order; every such operation is
    invertible, so the composite is an automorphism by construction (and
    checked at the end).
    """
    n = group.rank
    images = [group.generator(i) for i in range(n)]
    if n == 0:
        return GroupHom(group, group, images)
    for _ in range(AUTOMORPHISM_STEPS):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        if kind == 0 and n > 1:
            j = rng.randrange(n)
            if j == i:
                continue
            d_i = group.orders[i]
            ord_j = images[j].order
            base = ord_j // math.gcd(ord_j, d_i)
            c = base * rng.randrange(1, max(2, ord_j // base + 1))
            images[i] = images[i] + images[j].scale(c)
        elif kind == 1:
            images[i] = images[i].scale(random_unit(group.orders[i], rng))
        else:
            j = rng.randrange(n)
            if group.orders[i] == group.orders[j]:
                images[i], images[j] = images[j], images[i]
    hom = GroupHom(group, group, images)
    if not hom.is_isomorphism():
        raise InvariantError("elementary operations must compose to an automorphism")
    return hom


def scramble_form(form: LinkingForm, rng: random.Random):
    """An isomorphic copy of the form on the same group, with the
    isomorphism (scrambled -> original) that witnesses it."""
    phi = random_group_automorphism(form.group, rng)
    N = [form._pairings(a, phi.images) for a in phi.images]
    scrambled = LinkingForm._from_numerators(form.group, form.denominator, N, name=form.name)
    witness = FormMorphism(scrambled, form, phi.images)
    return scrambled, witness


def random_scrambled_pair(rng: random.Random, max_root_order: int = 81):
    blocks = random_block_multiset(rng, max_root_order)
    original = block_sum(blocks)
    scrambled, witness = scramble_form(original, rng)
    return blocks, original, scrambled, witness


# ---------------------------------------------------------------------------
# Complex corpus
# ---------------------------------------------------------------------------


def random_flag_complex(rng: random.Random, n_min: int = 3, n_max: int = 10, p: float = 0.45) -> FlagComplex:
    n = rng.randint(n_min, n_max)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = True
    return FlagComplex(range(n), adj)


def random_full_subcomplex_instance(rng: random.Random):
    X = random_flag_complex(rng)
    m = rng.randint(1, X.n_vertices)
    labels = rng.sample(list(X.vertices), m)
    return X, sorted(labels)


def disjoint_double(K: FlagComplex) -> tuple[FlagComplex, SimplicialMap]:
    """Two disjoint copies of K projecting onto K."""
    n = K.n_vertices
    labels = [("a", v) for v in K.vertices] + [("b", v) for v in K.vertices]
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, :n] = K.adj
    adj[n:, n:] = K.adj
    X = FlagComplex(labels, adj)
    mapping = {lab: lab[1] for lab in labels}
    return X, SimplicialMap(X, K, mapping)


def random_simplicial_map(rng: random.Random, X: FlagComplex, Y: FlagComplex) -> SimplicialMap | None:
    """Random vertex map that happens to be simplicial, or None after
    ``SIMPLICIAL_MAP_TRIES`` attempts."""
    for _ in range(SIMPLICIAL_MAP_TRIES):
        mapping = {v: rng.choice(list(Y.vertices)) for v in X.vertices}
        try:
            return SimplicialMap(X, Y, mapping)
        except InputError:
            continue
    return None


def random_map_instance(rng: random.Random):
    """A (map, relation) pair for the lifting harnesses.

    Mixes engineered shapes that satisfy the lifting property (identity,
    two-sheet projection) with arbitrary random simplicial maps; the
    relation is either the complete one or a random edge-compatible
    extension of the edge set.
    """
    kind = rng.randrange(4)
    if kind == 0:
        K = random_flag_complex(rng, n_max=8)
        f = SimplicialMap(K, K, {v: v for v in K.vertices})
    elif kind == 1:
        K = random_flag_complex(rng, n_min=3, n_max=5)
        _, f = disjoint_double(K)
    else:
        X = random_flag_complex(rng, n_max=7)
        Y = random_flag_complex(rng, n_max=6)
        f = random_simplicial_map(rng, X, Y)
        if f is None:
            f = SimplicialMap(X, X, {v: v for v in X.vertices})
    source = f.source
    pairs = source.edges()
    extra = [
        (a, b)
        for a in source.vertices
        for b in source.vertices
        if rng.random() < 0.3
    ]
    if rng.random() < 0.5:
        rel = SymRelation.complete(source)
    else:
        rel = SymRelation(source, pairs + extra)
    return f, rel


def random_action_instance(rng: random.Random):
    """A flag complex with a vertex permutation that preserves adjacency.

    The edge set is generated orbit-closed under the permutation, so the
    permutation is an automorphism by construction.
    """
    n = rng.randint(4, 10)
    perm_list = list(range(n))
    rng.shuffle(perm_list)
    perm = {i: perm_list[i] for i in range(n)}
    adj = np.zeros((n, n), dtype=bool)
    for _ in range(rng.randint(2, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        # close the edge orbit under the permutation (orbit length can be
        # the lcm of two cycle lengths, so loop until the pair recurs)
        start = (a, b)
        while True:
            adj[a, b] = adj[b, a] = True
            a, b = perm[a], perm[b]
            if (a, b) == start:
                break
    K = FlagComplex(range(n), adj)
    gens = [perm]
    if rng.random() < 0.4:
        gens.append({i: i for i in range(n)})
    return K, gens
