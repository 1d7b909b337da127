"""The orthogonality complex of block morphisms into a linking form.

Vertices are the morphisms W_k -> M in lexicographic enumeration order,
numbered alike on lazy and materialized complexes (``w_morphism_by_index``,
inverted by ``w_morphism_index``), so neither stores a vertex.  A set of
vertices spans a simplex when the images are pairwise orthogonal with
trivial pairwise intersection.  The complex is flag, so the 1-skeleton
determines everything.

Orthogonality implies the trivial intersection.  A vertex f is a
FormMorphism from the standard W_k, whose construction checked
b(f u, f v) = b_W(u, v).  If f(W) is orthogonal to g(W) and z = f(w) lies
in g(W), then b_W(w', w) = b(f w', z) = 0 for every w', so w lies in the
radical of the nonsingular W_k, which is 0; hence z = 0.  So lazy and
materialized complexes have one edge relation, orthogonality: the lazy
queries test it pair by pair with ``images_orthogonal``, the materialized
1-skeleton in bulk with ``_kernels.orth_adjacency``.  The bulk relation
pairs each pair of k-torsion rows once (a block complex has far fewer of
them than vertices) and reads vertex adjacency off that table through the
row indices of the pair scan, so a materialized complex costs V^2 bytes
of adjacency plus fixed-size blocks.  ``LComplex.vertex`` admits only
morphisms from the standard W_k into the complex's form, which is
the lemma's hypothesis; ``tests/test_lcomplex.py`` checks the lemma
against an SNF oracle for the trivial intersection.

Small complexes are materialized as a FlagComplex; above the vertex cap
the complex stays lazy and queries are served by generating morphisms
into orthogonal complements on demand, which is all the constructive
path/transitivity machinery needs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .complexes import FlagComplex, breadth_first
from .errors import BudgetExhausted, CapExceeded, InputError, InvariantError
from .forms import (
    FormMorphism,
    LinkingForm,
    Subform,
    _retraction,
    count_w_morphisms,
    first_w_morphism,
    full_subgroup,
    identity_morphism,
    morphisms_from_w,
    orthogonal_complement,
    standard_w,
    w_morphism_by_index,
    w_morphism_index,
)
from .groups import Subgroup
from .rank import k_rank
from .snf import prime_factorization

DEFAULT_MATERIALIZE_CAP = 25_000
DEFAULT_EDGE_CAP = 5_000_000
ADJACENCY_BYTE_CAP = 1 << 30
LINK_EDGE_PAIR_CAP = 200_000
F0_SCAN = 200
F0_RANK_BUDGET = 50_000


def images_orthogonal(f: FormMorphism, g: FormMorphism) -> bool:
    """Whether the images of f and g are orthogonal: for vertices, the edge
    relation (module docstring)."""
    form = f.target
    if g.target != form:
        raise InputError("morphisms map into different forms")
    return all(form._pairings(u, (g.x, g.y)) == [0, 0] for u in (f.x, f.y))


def _orthogonality(form: LinkingForm, k: int, keys) -> np.ndarray:
    """Pairwise orthogonality of the images of the morphisms W_k -> form
    with keys ``keys``, (x, y) coefficient tuples: the edge relation off the
    diagonal (module docstring).  Each distinct coefficient tuple is one
    row of the kernel's element array."""
    N = form._numerator_array
    index: dict[tuple, int] = {}
    pairs = np.array(
        [[index.setdefault(c, len(index)) for c in key] for key in keys], dtype=np.intp
    ).reshape(-1, 2)
    U = np.array(list(index), dtype=N.dtype).reshape(len(index), N.shape[0])
    xi, yi = np.ascontiguousarray(pairs.T)
    return _kernels.orth_adjacency(U, xi, yi, N, form.denominator)


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

    def __init__(self, form: LinkingForm, k: int, flag=None):
        self.form = form
        self.k = k
        self.vertex_count = count_w_morphisms(form, k)
        self.flag = flag
        self._f0_cache = None

    @property
    def materialized(self) -> bool:
        return self.flag is not None

    def vertex(self, i) -> FormMorphism:
        if isinstance(i, FormMorphism):
            if i.target != self.form or i.source != standard_w(self.k):
                raise InputError("morphism is not a vertex of this complex")
            return i
        return w_morphism_by_index(self.form, self.k, self.index_of(i))

    def index_of(self, f) -> int:
        if isinstance(f, FormMorphism):
            return w_morphism_index(self.form, self.k, self.vertex(f))
        try:
            i = operator.index(f)
        except TypeError:
            raise InputError(f"vertex index {f!r} is not an integer") from None
        if not 0 <= i < self.vertex_count:
            raise InputError(f"vertex index {i} out of range")
        return i

    def _materialized_flag(self, query: str) -> FlagComplex:
        if not self.materialized:
            raise CapExceeded(f"{query} requires materialization", needed=self.vertex_count)
        return self.flag

    def edge_count(self) -> int:
        return self._materialized_flag("edge count").edge_count()

    def components(self) -> list[set]:
        return self._materialized_flag("component analysis").components()

    def complement_of(self, f: FormMorphism) -> Subform:
        return orthogonal_complement(self.form, f.image_subgroup)


def build_l_complex(
    form: LinkingForm,
    k: int,
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
    force_materialize: bool = False,
) -> LComplex:
    """Build the complex, materializing the 1-skeleton when it fits.

    Edges are the orthogonal pairs (module docstring).  Beyond
    ``materialize_cap`` vertices the complex is returned lazy unless
    materialization is forced, in which case the cap is enforced with
    CapExceeded.  An adjacency of more than ADJACENCY_BYTE_CAP bytes (V^2,
    refused before the pair scan) and more than DEFAULT_EDGE_CAP edges
    raise CapExceeded too; both caps are read at call time.
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
    cap = ADJACENCY_BYTE_CAP
    if count * count > cap:
        raise CapExceeded(
            f"the {count} x {count} adjacency exceeds the adjacency cap of {cap} bytes",
            needed=count * count,
            cap=cap,
        )
    if count == 0:
        return LComplex(form, k, flag=FlagComplex([], np.zeros((0, 0), dtype=bool)))
    # vertex i is the i-th pair of the row-major scan, as in w_morphism_by_index
    X, N, D = form.torsion_matrix(k), form._numerator_array, form.denominator
    pairs, found = _kernels.pairs_hitting(X, N, D, D // k, count)
    if found != count:
        raise InvariantError(f"pair scan found {found} morphisms, the row counts {count}")
    xi, yi = np.ascontiguousarray(pairs.T)
    adj = _kernels.orth_adjacency(X, xi, yi, N, D)
    np.fill_diagonal(adj, False)
    edges = int(np.count_nonzero(adj)) // 2  # adj is symmetric
    if edges > DEFAULT_EDGE_CAP:
        raise CapExceeded(
            f"{edges} edges exceed the edge cap", needed=edges, cap=DEFAULT_EDGE_CAP
        )
    flag = FlagComplex(tuple(range(count)), adj)
    return LComplex(form, k, flag=flag)


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


def _ambient_link_keys(L: LComplex, morphs: list[FormMorphism], cap: int) -> set | None:
    """Keys of all vertices adjacent to every morphism in ``morphs``,
    computed in the ambient form independently of the complement
    construction: the pairs (x, y) with b(x, y) = 1/k of k-torsion rows
    orthogonal to every image (the edge relation, module docstring).  Each
    such pair is a morphism W_k -> M, so its key is read off the rows.
    None when there are more than ``cap`` of them."""
    form, k = L.form, L.k
    D = form.denominator
    if D % k != 0:  # no element pairs to 1/k, so the complex is empty
        return set()
    X, N = form.torsion_matrix(k), form._numerator_array
    images = [img.coeffs for m in morphs for img in (m.x, m.y)]
    Xsub = X[_orthogonal_rows(X, N, D, images)]
    pairs, total = _kernels.pairs_hitting(Xsub, N, D, D // k, cap)
    if total > cap:
        return None
    rows = [tuple(row) for row in Xsub.tolist()]
    return {(rows[i], rows[j]) for i, j in pairs.tolist()}


def verify_link_iso(L: LComplex, sigma) -> bool:
    """Check that the link of a simplex is exactly the complex of the
    orthogonal complement of its images.

    Vertex sets are compared on the nose (a complement morphism embeds to
    an ambient morphism orthogonal to sigma), then the edge relations are
    compared through the same bijection: the orthogonality matrix of the
    embedded morphisms in the ambient form against that of the complement
    morphisms in the complement form.  The link's size is counted first, so
    a link with more than LINK_EDGE_PAIR_CAP vertex pairs is refused
    (CapExceeded) before any morphism is listed.
    """
    morphs = [L.vertex(s) for s in sigma]
    for a, b in itertools.combinations(morphs, 2):
        if not images_orthogonal(a, b):
            raise InputError("sigma is not a simplex of the complex")
    form, k = L.form, L.k
    if morphs:
        gens = [img for m in morphs for img in m.images]
        compl = orthogonal_complement(form, Subgroup(form.group, gens))
    else:
        compl = Subform(form, full_subgroup(form.group))
    n = count_w_morphisms(compl.form, k)
    if n * (n - 1) // 2 > LINK_EDGE_PAIR_CAP:
        raise CapExceeded(
            "too many link pairs for exact edge comparison",
            needed=n * (n - 1) // 2,
            cap=LINK_EDGE_PAIR_CAP,
        )
    inner = morphisms_from_w(compl.form, k, cap=n)
    embedded_keys = [compl.embed_morphism(m).key() for m in inner]
    if set(embedded_keys) != _ambient_link_keys(L, morphs, n):
        return False
    return n == 0 or np.array_equal(
        _orthogonality(form, k, embedded_keys),
        _orthogonality(compl.form, k, [m.key() for m in inner]),
    )


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


def _select_f0(L: LComplex) -> tuple[FormMorphism, dict, Subform]:
    """The hub, its selection stats and its orthogonal complement, cached
    on ``L`` so that later queries reuse the complement's lattice work."""
    if L._f0_cache is not None:
        return L._f0_cache
    scanned = 0
    any_uncertified = False
    for i in range(min(F0_SCAN, L.vertex_count)):
        cand = L.vertex(i)
        comp = L.complement_of(cand)
        try:
            r = k_rank(comp.form, L.k, budget=F0_RANK_BUDGET)
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
            L._f0_cache = (cand, stats, comp)
            return L._f0_cache
        if not r.certified:
            any_uncertified = True
    raise _NoF0(scanned, any_uncertified)


class _NoF0(Exception):
    def __init__(self, scanned, uncertified):
        self.scanned = scanned
        self.uncertified = uncertified


def find_short_path(L: LComplex, f, g) -> PathResult:
    """Constructive path of length at most 4 via a hub morphism.

    The hub f0 is the first of the first ``F0_SCAN`` vertices in
    enumeration order whose complement has block rank at least 3 (checked
    within ``F0_RANK_BUDGET``; an uncertified rank value is accepted and
    flagged).  Each endpoint reaches the hub through a
    morphism into the intersection of its complement with the hub's, and
    both legs plus shortcuts keep the path length at or below 4.
    """
    f = L.vertex(f)
    g = L.vertex(g)
    if f.key() == g.key():
        return PathResult("ok", [f], {"shortcut": "equal"})
    if images_orthogonal(f, g):
        return PathResult("ok", [f, g], {"shortcut": "adjacent"})
    try:
        f0, stats, comp_f0 = _select_f0(L)
    except _NoF0 as exc:
        return PathResult(
            "no-f0",
            None,
            {
                "scanned": exc.scanned,
                "reason": "budget" if exc.uncertified else "absent-at-cap",
            },
        )
    stats = dict(stats)

    def leg(u: FormMorphism) -> list[FormMorphism] | None:
        if u.key() == f0.key():
            return []
        if images_orthogonal(u, f0):
            return [u]
        inter = comp_f0.subgroup.intersection(L.complement_of(u).subgroup)
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
        if not images_orthogonal(a, b):
            raise InvariantError("constructed path has a non-edge")
    if len(path) > 5:
        raise InvariantError(f"constructed path has {len(path) - 1} edges, more than 4")
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
    if not images_orthogonal(a, b):
        raise InputError("edge swap requires adjacent morphisms")
    retr_a = _retraction(a)
    retr_b = _retraction(b)
    images = []
    for i in range(form.group.rank):
        e = form.group.generator(i)
        pa = retr_a(e)
        pb = retr_b(e)
        rest = e - a(pa) - b(pb)
        images.append(b(pa) + a(pb) + rest)
    h = FormMorphism(form, form, images)
    if not h.is_automorphism():
        raise InvariantError("edge swap is not an automorphism")
    if h(a.x) != b.x or h(a.y) != b.y:
        raise InvariantError("edge swap fails to carry a to b")
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
    """A shortest path of vertex indices from i0 to i1 in the materialized
    complex, or None when they lie in different components."""
    parent = breadth_first(i0, L.flag._neighbours(), goal=i1)
    if i1 not in parent:
        return None
    path = [i1]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def transitivity_witness(L: LComplex, f0, f1) -> WitnessResult:
    """Automorphism h of the form with h o f0 = f1, composed from
    per-edge block swaps along a path between the two vertices."""
    m0 = L.vertex(f0)
    m1 = L.vertex(f1)
    if m0.key() == m1.key():
        h = identity_morphism(L.form)
        return WitnessResult("ok", h, [m0], {"length": 0})
    if images_orthogonal(m0, m1):
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
    h = identity_morphism(L.form)
    for a, b in zip(path, path[1:]):
        h = edge_swap_automorphism(a, b).compose(h)
    if h(m0.x) != m1.x or h(m0.y) != m1.y:
        raise InvariantError("witness fails to carry f0 to f1")
    return WitnessResult("ok", h, path, {"length": len(path) - 1})
