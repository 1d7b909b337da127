"""The orthogonality complex of block morphisms into a linking form.

Vertices are the morphisms W_k -> M in lexicographic enumeration order;
a set of vertices spans a simplex when the images are pairwise orthogonal
(with trivial pairwise intersection, which for these images follows from
orthogonality and is asserted rather than assumed).  The complex is flag,
so the 1-skeleton determines everything.

Small complexes are materialized as a FlagComplex; above the vertex cap
the complex stays lazy and queries are served by generating morphisms
into orthogonal complements on demand, which is all the constructive
path/transitivity machinery needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .complexes import FlagComplex
from .errors import BudgetExhausted, CapExceeded, InputError
from .forms import (
    FormMorphism,
    LinkingForm,
    Subform,
    are_isomorphic,
    count_w_morphisms,
    direct_sum,
    first_w_morphism,
    full_subgroup,
    identity_morphism,
    morphisms_from_w,
    orthogonal_complement,
    split_along,
    standard_w,
    w_morphism,
    w_morphism_by_index,
)
from .groups import Subgroup
from .rank import k_rank, stable_k_rank
from .snf import prime_factorization

DEFAULT_MATERIALIZE_CAP = 25_000
DEFAULT_EDGE_CAP = 5_000_000
DEFAULT_LINK_PAIR_CAP = 250_000


def images_orthogonal(f: FormMorphism, g: FormMorphism) -> bool:
    form = f.target
    return all(
        form.evaluate(u, v).is_zero()
        for u in (f.x, f.y)
        for v in (g.x, g.y)
    )


def images_intersect_trivially(f: FormMorphism, g: FormMorphism) -> bool:
    k = f.block_k
    joint = Subgroup(f.target.group, list(f.images) + list(g.images))
    return joint.order == k ** 4


def are_adjacent(f: FormMorphism, g: FormMorphism) -> bool:
    """Edge relation: orthogonal images with trivial intersection.

    Trivial intersection is implied by orthogonality here (the images are
    nonsingular, so a shared element would lie in a radical), but it is
    part of the definition and is checked, not assumed.
    """
    if not images_orthogonal(f, g):
        return False
    ok = images_intersect_trivially(f, g)
    assert ok, "orthogonal nonsingular images must intersect trivially"
    return ok


def w_power_vertex_count(k: int, g: int) -> int:
    """Closed-form vertex count of the complex of W_k^g at level k.

    Every x with order exactly k pairs against exactly |M|/k partners y
    (the functional b(x, .) is onto the (1/k)-cyclic subgroup since the
    block power is nonsingular with exponent k); the count of such x is
    inclusion-exclusion over prime divisors of k.
    """
    if g == 0:
        return 0
    primes = [p for p, _ in prime_factorization(k)]
    order_exactly_k = 0
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            d = math.prod(combo)
            order_exactly_k += (-1) ** r * (k // d) ** (2 * g)
    return order_exactly_k * k ** (2 * g) // k


class LComplex:
    """Handle on the block-morphism complex of ``form`` at level ``k``."""

    def __init__(self, form: LinkingForm, k: int, morphisms=None, flag=None):
        self.form = form
        self.k = k
        self.vertex_count = count_w_morphisms(form, k)
        self._morphisms = morphisms
        self.flag = flag
        self._f0_cache = None
        self._key_index = None

    @property
    def materialized(self) -> bool:
        return self.flag is not None

    def vertex(self, i) -> FormMorphism:
        if isinstance(i, FormMorphism):
            return i
        i = int(i)
        if not 0 <= i < self.vertex_count:
            raise InputError(f"vertex index {i} out of range")
        if self._morphisms is not None:
            return self._morphisms[i]
        return w_morphism_by_index(self.form, self.k, i)

    def index_of(self, f) -> int:
        if isinstance(f, (int, np.integer)):
            return int(f)
        if self._morphisms is None:
            raise CapExceeded("index lookup requires materialization")
        if self._key_index is None:
            self._key_index = {m.key(): i for i, m in enumerate(self._morphisms)}
        try:
            return self._key_index[f.key()]
        except KeyError:
            raise InputError("morphism is not a vertex of this complex") from None

    def edge_count(self) -> int:
        if not self.materialized:
            raise CapExceeded(
                "edge count requires materialization",
                needed=self.vertex_count,
            )
        return self.flag.edge_count()

    def components(self) -> list[set]:
        if not self.materialized:
            raise CapExceeded(
                "component analysis requires materialization",
                needed=self.vertex_count,
            )
        return self.flag.components()

    def complement_of(self, f: FormMorphism) -> Subform:
        return orthogonal_complement(self.form, f.image_subgroup)


def build_l_complex(
    form: LinkingForm,
    k: int,
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
    edge_cap: int = DEFAULT_EDGE_CAP,
    force_materialize: bool = False,
) -> LComplex:
    """Build the complex, materializing the 1-skeleton when it fits.

    Beyond ``materialize_cap`` vertices the complex is returned lazy
    unless materialization is forced, in which case the cap is enforced
    with CapExceeded.
    """
    count = count_w_morphisms(form, k)
    if count > materialize_cap:
        if force_materialize:
            raise CapExceeded(
                f"{count} vertices exceed the materialization cap",
                needed=count,
                cap=materialize_cap,
            )
        return LComplex(form, k)
    morphs = morphisms_from_w(form, k, cap=max(count, 1))
    n = len(morphs)
    if n == 0:
        return LComplex(
            form, k, morphisms=[], flag=FlagComplex([], np.zeros((0, 0), dtype=bool))
        )
    _, N = form._w_rows(k)
    X = np.array([m.x.coeffs for m in morphs], dtype=N.dtype)
    Y = np.array([m.y.coeffs for m in morphs], dtype=N.dtype)
    adj = _kernels.orth_adjacency(X, Y, N, form.denominator)
    np.fill_diagonal(adj, False)
    edges = np.argwhere(np.triu(adj, 1))
    if len(edges) > edge_cap:
        raise CapExceeded(
            f"{len(edges)} edges exceed the edge cap", needed=len(edges), cap=edge_cap
        )
    for i, j in edges:
        if not images_intersect_trivially(morphs[i], morphs[j]):
            raise AssertionError(
                "orthogonal images with nontrivial intersection encountered"
            )
    flag = FlagComplex(tuple(range(n)), adj)
    return LComplex(form, k, morphisms=morphs, flag=flag)


# ---------------------------------------------------------------------------
# Link identification
# ---------------------------------------------------------------------------


def _orthogonal_rows(X, N, D, images) -> np.ndarray:
    """Mask of the rows x of X with x N img = 0 mod D for every image.

    ``row_values`` reduces N img mod D before the product with X, which
    keeps every intermediate inside int64 for inputs that pass the gate.
    """
    mask = np.ones(len(X), dtype=bool)
    for img in images:
        mask &= _kernels.row_values(np.array(img, dtype=N.dtype), N.T, X, D) == 0
    return mask


def _ambient_link_keys(L: LComplex, morphs: list[FormMorphism]) -> set:
    """Keys of all vertices adjacent to every morphism in ``morphs``,
    computed from the ambient adjacency definition (orthogonality plus
    intersection check), independently of the complement construction."""
    form, k = L.form, L.k
    D = form.denominator
    if D % k != 0:  # no element pairs to 1/k, so the complex is empty
        return set()
    X, N = form._w_rows(k)
    images = [img.coeffs for m in morphs for img in (m.x, m.y)]
    rows = np.nonzero(_orthogonal_rows(X, N, D, images))[0]
    Xsub = X[rows]
    pairs, total = _kernels.pairs_hitting(Xsub, N, D, D // k, DEFAULT_LINK_PAIR_CAP)
    if total > len(pairs):
        raise CapExceeded("link candidate enumeration exceeded cap", needed=total)
    keys = set()
    for i, j in pairs:
        x = form.group.element(tuple(Xsub[i].tolist()))
        y = form.group.element(tuple(Xsub[j].tolist()))
        cand = w_morphism(form, k, x, y)
        if all(images_intersect_trivially(cand, m) for m in morphs):
            keys.add(cand.key())
    return keys


def verify_link_iso(L: LComplex, sigma, pair_cap: int = 200_000) -> bool:
    """Check that the link of a simplex is exactly the complex of the
    orthogonal complement of its images.

    Vertex sets are compared on the nose (a complement morphism embeds to
    an ambient morphism orthogonal to sigma), then adjacency is compared
    pairwise inside the link through the same bijection.
    """
    morphs = [L.vertex(s) for s in sigma]
    for a, b in itertools.combinations(morphs, 2):
        if not are_adjacent(a, b):
            raise InputError("sigma is not a simplex of the complex")
    form, k = L.form, L.k
    if morphs:
        gens = [img for m in morphs for img in m.images]
        compl = orthogonal_complement(form, Subgroup(form.group, gens))
    else:
        compl = Subform(form, full_subgroup(form.group))
    inner = morphisms_from_w(compl.form, k, cap=pair_cap)
    embedded = {compl.embed_morphism(m).key(): m for m in inner}
    ambient = _ambient_link_keys(L, morphs)
    if set(embedded) != ambient:
        return False
    # Edge agreement through the bijection.
    items = sorted(embedded.items())
    n = len(items)
    if n * (n - 1) // 2 > pair_cap:
        raise CapExceeded(
            "too many link pairs for exact edge comparison",
            needed=n * (n - 1) // 2,
            cap=pair_cap,
        )
    for (ka, ma), (kb, mb) in itertools.combinations(items, 2):
        amb_a = w_morphism(form, k, form.group.element(ka[0]), form.group.element(ka[1]))
        amb_b = w_morphism(form, k, form.group.element(kb[0]), form.group.element(kb[1]))
        if are_adjacent(amb_a, amb_b) != are_adjacent(ma, mb):
            return False
    return True


# ---------------------------------------------------------------------------
# Constructive paths
# ---------------------------------------------------------------------------


@dataclass
class PathResult:
    status: str  # "ok" | "no-f0" | "no-intermediate"
    path: list[FormMorphism] | None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == "ok"


def _select_f0(L: LComplex, scan: int, budget: int) -> tuple[FormMorphism, dict]:
    if L._f0_cache is not None:
        return L._f0_cache
    scanned = 0
    any_uncertified = False
    for i in range(min(scan, L.vertex_count)):
        cand = L.vertex(i)
        comp = L.complement_of(cand)
        try:
            r = k_rank(comp.form, L.k, budget=budget)
        except BudgetExhausted:
            any_uncertified = True
            continue
        scanned += 1
        if r.value >= 3:
            stats = {
                "f0_index": i,
                "f0_certified": r.certified,
                "scanned": scanned,
            }
            L._f0_cache = (cand, stats)
            return L._f0_cache
        if not r.certified:
            any_uncertified = True
    raise _NoF0(scanned, any_uncertified)


class _NoF0(Exception):
    def __init__(self, scanned, uncertified):
        self.scanned = scanned
        self.uncertified = uncertified


def find_short_path(
    L: LComplex,
    f,
    g,
    f0_scan: int = 200,
    rank_budget: int = 50_000,
) -> PathResult:
    """Constructive path of length at most 4 via a hub morphism.

    The hub f0 is the first vertex in enumeration order whose complement
    has block rank at least 3 (budgeted check; an uncertified rank value
    is accepted and flagged).  Each endpoint reaches the hub through a
    morphism into the intersection of its complement with the hub's, and
    both legs plus shortcuts keep the path length at or below 4.
    """
    f = L.vertex(f)
    g = L.vertex(g)
    if f.key() == g.key():
        return PathResult("ok", [f], {"shortcut": "equal"})
    if are_adjacent(f, g):
        return PathResult("ok", [f, g], {"shortcut": "adjacent"})
    try:
        f0, stats = _select_f0(L, f0_scan, rank_budget)
    except _NoF0 as exc:
        return PathResult(
            "no-f0",
            None,
            {
                "scanned": exc.scanned,
                "reason": "budget" if exc.uncertified else "absent-at-cap",
            },
        )
    comp_f0 = L.complement_of(f0).subgroup
    stats = dict(stats)

    def leg(u: FormMorphism) -> list[FormMorphism] | None:
        if u.key() == f0.key():
            return []
        if are_adjacent(u, f0):
            return [u]
        inter = comp_f0.intersection(L.complement_of(u).subgroup)
        sub = Subform(L.form, inter)
        inner = first_w_morphism(sub.form, L.k)
        if inner is None:
            return None
        return [u, sub.embed_morphism(inner)]

    left = leg(f)
    right = leg(g)
    if left is None or right is None:
        return PathResult(
            "no-intermediate",
            None,
            {**stats, "reason": "absent", "failed_end": "f" if left is None else "g"},
        )
    path = left + [f0] + list(reversed(right))
    for a, b in zip(path, path[1:]):
        assert are_adjacent(a, b), "constructed path has a non-edge"
    assert len(path) <= 5
    stats["length"] = len(path) - 1
    return PathResult("ok", path, stats)


# ---------------------------------------------------------------------------
# Transitivity witnesses
# ---------------------------------------------------------------------------


def edge_swap_automorphism(a: FormMorphism, b: FormMorphism) -> FormMorphism:
    """Automorphism of the ambient form exchanging two adjacent block
    images blockwise and fixing their joint orthogonal complement, so
    that the result maps a's block generators to b's.
    """
    form = a.target
    if not are_adjacent(a, b):
        raise InputError("edge swap requires adjacent morphisms")
    retr_a = split_along(a).retraction
    retr_b = split_along(b).retraction
    images = []
    for i in range(form.group.rank):
        e = form.group.generator(i)
        pa = retr_a(e)
        pb = retr_b(e)
        rest = e - a(pa) - b(pb)
        images.append(b(pa) + a(pb) + rest)
    h = FormMorphism(form, form, images)
    assert h.is_automorphism()
    assert h(a.x) == b.x and h(a.y) == b.y
    return h


@dataclass
class WitnessResult:
    status: str  # "ok" | "path-not-found"
    automorphism: FormMorphism | None
    path: list[FormMorphism] | None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == "ok"


def _bfs_path(L: LComplex, i0: int, i1: int) -> list[int] | None:
    prev = {i0: None}
    frontier = [i0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(L.flag.adj[u])[0]:
                v = int(v)
                if v not in prev:
                    prev[v] = u
                    if v == i1:
                        path = [v]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(v)
        frontier = nxt
    return None


def transitivity_witness(L: LComplex, f0, f1, path=None) -> WitnessResult:
    """Automorphism h of the form with h o f0 = f1, composed from
    per-edge block swaps along a path between the two vertices."""
    m0 = L.vertex(f0)
    m1 = L.vertex(f1)
    if m0.key() == m1.key():
        h = identity_morphism(L.form)
        return WitnessResult("ok", h, [m0], {"length": 0})
    if path is None:
        if are_adjacent(m0, m1):
            path = [m0, m1]
        elif L.materialized:
            idx = _bfs_path(L, L.index_of(f0), L.index_of(f1))
            if idx is None:
                return WitnessResult("path-not-found", None, None, {})
            path = [L.vertex(i) for i in idx]
        else:
            res = find_short_path(L, m0, m1)
            if not res:
                return WitnessResult("path-not-found", None, None, res.stats)
            path = res.path
    else:
        path = [L.vertex(p) for p in path]
    h = identity_morphism(L.form)
    for a, b in zip(path, path[1:]):
        h = edge_swap_automorphism(a, b).compose(h)
    assert h(m0.x) == m1.x and h(m0.y) == m1.y, "witness fails to carry f0 to f1"
    return WitnessResult("ok", h, path, {"length": len(path) - 1})


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


@dataclass
class CancellationReport:
    with_block: bool
    direct: bool
    consistent: bool
    hypothesis: dict

    def __bool__(self) -> bool:
        return self.with_block


def cancellation_check(M: LinkingForm, N: LinkingForm, k: int, budget: int = 20_000) -> CancellationReport:
    """Compare isomorphism after adding a standard block with direct
    isomorphism; on nonsingular inputs the two must agree.

    The hypothesis report notes whether the stabilized form's block rank
    certifiably reaches 4, the threshold past which the block-morphism
    complex of the stabilized form is path connected and cancellation
    stops being an independent fact.
    """
    MW = direct_sum(M, standard_w(k))
    NW = direct_sum(N, standard_w(k))
    with_block = are_isomorphic(MW, NW)
    direct = are_isomorphic(M, N)
    consistent = with_block == direct
    if M.is_nonsingular() and N.is_nonsingular():
        assert consistent, "cancellation must be exact on nonsingular forms"
    try:
        sr = stable_k_rank(MW, k, g_max=2, budget=budget)
        hyp = {
            "stable_rank_lower": sr.value,
            "certified": sr.certified,
            "sufficient": sr.value >= 4,
        }
    except (BudgetExhausted, CapExceeded) as exc:
        hyp = {"stable_rank_lower": None, "certified": False, "note": str(exc)}
    return CancellationReport(
        with_block=with_block, direct=direct, consistent=consistent, hypothesis=hyp
    )
