"""Finite simplicial complexes, exact integral homology, and the
connectivity/lifting harnesses used to exercise the simplicial lemmas.

Two complex flavors share one protocol: flag complexes (simplices = cliques
of a graph, the case arising from orthogonality of block morphisms) and
general complexes given by maximal faces (used for fixtures like spheres
and the 6-vertex projective plane, which are not flag).  Both list their
faces level by level, ``face_levels()``, under one simplex budget, and
give one neighbour bitset per vertex, ``_neighbour_bits()``, which
components close and the flag face walk intersects.

"n-connected" here always means the homological proxy: nonempty with
H~_i = 0 for i <= n (degree 0 checked exactly via graph connectivity, so
for n <= 0 the proxy is exact).  Levels n = -1 and n <= -2 mean nonempty
and no condition, matching the usual conventions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import BudgetExhausted, CapExceeded, InputError
from .groups import AbGroupDescriptor
from .snf import smith_normal_form

# Limits read at call time (tests monkeypatch them): simplices per face
# walk, summed over its dimensions, and candidate sets per link-lifting check.
DEFAULT_SIMPLEX_BUDGET = 2_000_000
LIFT_CHECK_BUDGET = 200_000


def _within_budget(count: int, dim: int | None = None) -> int:
    """``count``, the simplices of a face walk through dimension ``dim`` (or
    a max_dim, one listed degree each), if DEFAULT_SIMPLEX_BUDGET allows it."""
    budget = DEFAULT_SIMPLEX_BUDGET
    if count > budget:
        what = "max_dim" if dim is None else f"simplices through dimension {dim}"
        raise CapExceeded(f"{what} {count} exceeds the simplex budget {budget}", count, budget)
    return count


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------


def breadth_first(start, neighbours, goal=None) -> dict:
    """Parent map of a breadth-first search from ``start``, for shortest
    paths and orbits (components close bitsets instead).

    Each reached vertex maps to the vertex it was first reached from
    (``start`` maps to None); vertices are expanded in discovery order and
    their neighbours in the order ``neighbours(v)`` lists them, so the
    chain of parents from any vertex is a shortest path back to ``start``.
    The search stops as soon as ``goal`` is reached, before any
    ``neighbours`` call when it is ``start``.
    """
    parent = {start: None}
    if start == goal:
        return parent
    frontier = [start]
    for u in frontier:  # grows while it is read: a first-in, first-out queue
        for v in neighbours(u):
            if v not in parent:
                parent[v] = u
                if v == goal:
                    return parent
                frontier.append(v)
    return parent


def _set_bits(b: int):
    """The indices of the set bits of ``b >= 0``, ascending."""
    while b:
        low = b & -b
        yield low.bit_length() - 1
        b ^= low


class _Complex:
    """What both complex flavors share: the vertex labels in canonical
    order, their index, and connectivity over the 1-skeleton."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise InputError("vertex labels must be distinct")

    @property
    def vertices(self) -> tuple:
        return self.labels

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def _neighbour_bits(self) -> list[int]:
        """Per vertex index i, an int with bit j set when j is adjacent."""
        raise NotImplementedError

    def edges(self) -> list[tuple]:
        """The 1-simplices as label pairs, lexicographic."""
        labels = self.labels
        return [(labels[i], labels[j]) for i, row in enumerate(self._neighbour_bits())
                for j in _set_bits(row >> i + 1 << i + 1)]

    def components(self) -> list[set]:
        """Vertex sets of the connected components, in order of their first
        vertex.  Each grows from its first vertex: the next frontier is the
        OR of the frontier's neighbour bitsets less what it has reached, so
        a vertex costs one OR of V bits and no edge costs a Python step."""
        bits, labels = self._neighbour_bits(), self.labels
        unseen = (1 << len(bits)) - 1
        out = []
        while unseen:
            reached = frontier = unseen & -unseen
            comp = set()
            while frontier:
                grown = 0
                for i in _set_bits(frontier):
                    comp.add(labels[i])
                    grown |= bits[i]
                frontier = grown & ~reached
                reached |= frontier
            unseen &= ~reached
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return self.n_vertices > 0 and len(self.components()) == 1


def _is_symmetric(adj: np.ndarray) -> bool:
    """adj == adj.T.  Above one block of ``_BLOCK_CELLS`` cells, square tiles
    on and above the diagonal are compared with their mirror tiles, so that
    a large adjacency needs no transposed copy."""
    n = len(adj)
    if n * n <= _kernels._BLOCK_CELLS:
        return np.array_equal(adj, adj.T)
    b = math.isqrt(_kernels._BLOCK_CELLS)
    return all(
        np.array_equal(adj[i:i + b, j:j + b], adj[j:j + b, i:i + b].T)
        for i in range(0, n, b)
        for j in range(i, n, b)
    )


class FlagComplex(_Complex):
    """Clique complex of a finite graph.

    Vertices are hashable labels; the canonical vertex order is the order
    of ``labels``, and every face is reported as a tuple sorted by that
    order.
    """

    def __init__(self, labels, adjacency):
        super().__init__(labels)
        n = self.n_vertices
        adj = np.asarray(adjacency, dtype=bool)
        if adj.shape != (n, n):
            raise InputError("adjacency matrix has wrong shape")
        if not _is_symmetric(adj):
            raise InputError("adjacency matrix must be symmetric")
        if n and adj.diagonal().any():
            raise InputError("no loops allowed")
        self.adj = adj

    @classmethod
    def from_edges(cls, labels, edges) -> "FlagComplex":
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        adj = np.zeros((len(labels), len(labels)), dtype=bool)
        for u, v in edges:
            adj[index[u], index[v]] = adj[index[v], index[u]] = True
        return cls(labels, adj)  # which refuses loops

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def has_face(self, vs) -> bool:
        idx = [self._index.get(v) for v in set(vs)]
        if any(i is None for i in idx) or not idx:
            return False
        return all(self.adj[a, b] for a, b in itertools.combinations(idx, 2))

    def adjacent(self, u, v) -> bool:
        return bool(self.adj[self._index[u], self._index[v]])

    def _neighbour_bits(self) -> list[int]:
        """The rows of ``adj`` packed a block of rows at a time."""
        n, adj = self.n_vertices, self.adj
        rows = max(1, _kernels._BLOCK_CELLS // max(n, 1))
        return [int.from_bytes(row.tobytes(), "little") for start in range(0, n, rows)
                for row in np.packbits(adj[start:start + rows], axis=1, bitorder="little")]

    def face_levels(self):
        """The cliques of each size, lexicographic, one list per dimension.

        Each clique carries the bitset of its common neighbours after its
        last vertex, and each of them extends it by one vertex: the
        incremental expansion of Zomorodian, in the lowest-vertex order of
        Chiba and Nishizeki.  A level is built when it is asked for, and the
        budget is checked as it grows.
        """
        labels = self.labels
        # later[i]: the neighbours of vertex i that come after it
        later = [row >> i + 1 << i + 1 for i, row in enumerate(self._neighbour_bits())]
        level = [((lab,), later[i]) for i, lab in enumerate(labels)]
        used = _within_budget(len(level), 0)
        d = 0
        while level:
            yield [face for face, _ in level]
            d += 1
            grown = []
            for face, cand in level:
                while cand:
                    j = (cand & -cand).bit_length() - 1  # the lowest candidate
                    grown.append((face + (labels[j],), cand & later[j]))
                    cand &= cand - 1
                _within_budget(used + len(grown), d)
            used += len(grown)
            level = grown

    def link_of(self, sigma) -> "FlagComplex":
        """Induced flag complex on the common neighbors of sigma.

        For flag complexes this is exactly the simplicial link: zeta is in
        the link iff it is disjoint from sigma and sigma + zeta is a clique.
        """
        sigma = list(sigma)
        if not self.has_face(sigma):
            raise InputError("sigma is not a simplex of the complex")
        mask = np.ones(self.n_vertices, dtype=bool)
        for v in sigma:
            i = self._index[v]
            mask &= self.adj[i]
            mask[i] = False
        keep = np.nonzero(mask)[0]
        return self.induced([self.labels[i] for i in keep])

    def induced(self, vertex_subset) -> "FlagComplex":
        keep = [self._index[v] for v in vertex_subset]
        labels = [self.labels[i] for i in keep]
        adj = self.adj[np.ix_(keep, keep)]
        return FlagComplex(labels, adj)

    def to_dot(self) -> str:
        lines = ["graph complex {"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  v{i} [label="{lab}"];')
        index = self._index
        for u, v in self.edges():
            lines.append(f"  v{index[u]} -- v{index[v]};")
        lines.append("}")
        return "\n".join(lines)


class GeneralComplex(_Complex):
    """Simplicial complex stored as its full (downward closed) face set.

    Intended for small fixtures given by maximal faces; complexes that are
    not flag (boundaries of simplices, the 6-vertex projective plane) must
    come through here.
    """

    def __init__(self, maximal_faces):
        faces = {
            frozenset(sub)
            for mf in map(frozenset, maximal_faces)
            for r in range(1, len(mf) + 1)
            for sub in itertools.combinations(mf, r)
        }
        labelset = set().union(*faces)
        try:
            labels = sorted(labelset)
        except TypeError:
            labels = sorted(labelset, key=repr)
        super().__init__(labels)
        self.faces = faces

    def _subcomplex(self, faces: set) -> "GeneralComplex":
        """The complex with the given (downward closed) subset of this
        complex's faces, its vertices in this complex's order."""
        out = GeneralComplex.__new__(GeneralComplex)
        labelset = set().union(*faces)
        _Complex.__init__(out, [v for v in self.labels if v in labelset])
        out.faces = faces
        return out

    def has_face(self, vs) -> bool:
        vs = frozenset(vs)
        return bool(vs) and vs in self.faces

    def adjacent(self, u, v) -> bool:
        return u != v and frozenset((u, v)) in self.faces

    def _neighbour_bits(self) -> list[int]:
        bits = [0] * self.n_vertices
        for f in self.faces:
            if len(f) == 2:
                a, b = (self._index[v] for v in f)
                bits[a] |= 1 << b
                bits[b] |= 1 << a
        return bits

    def face_levels(self):
        """The stored faces, lexicographic, one list per dimension."""
        position = self._index.__getitem__
        faces = sorted((tuple(sorted(f, key=position)) for f in self.faces),
                       key=lambda t: (len(t), tuple(map(position, t))))
        used = 0
        for d, (_, level) in enumerate(itertools.groupby(faces, len)):
            level = list(level)
            used = _within_budget(used + len(level), d)
            yield level

    def link_of(self, sigma) -> "GeneralComplex":
        sigma = frozenset(sigma)
        if sigma and sigma not in self.faces:
            raise InputError("sigma is not a simplex of the complex")
        return self._subcomplex(
            {f for f in self.faces if not (f & sigma) and (f | sigma) in self.faces}
        )

    def induced(self, vertex_subset) -> "GeneralComplex":
        keep = set(vertex_subset)
        return self._subcomplex({f for f in self.faces if f <= keep})


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass
class HomologyResult:
    """Unreduced integral homology per degree.

    ``face_counts`` records how many simplices were found per dimension;
    when ``complete`` is False some requested degrees could not be finished
    inside the budget and are missing from ``degrees``.
    """

    degrees: dict[int, AbGroupDescriptor]
    face_counts: dict[int, int]
    complete: bool
    top_dim: int | None

    def euler_from_faces(self) -> int:
        return sum((-1) ** d * c for d, c in self.face_counts.items())

    def euler_from_betti(self) -> int:
        return sum((-1) ** d * h.betti for d, h in self.degrees.items())


def _boundary_matrix(faces_lo: list[tuple], faces_hi: list[tuple]) -> list[list[int]]:
    """Boundary of ``faces_hi`` in the basis ``faces_lo``; faces missing from
    ``faces_lo`` (those of the subcomplex, for relative chains) are dropped."""
    index = {f: i for i, f in enumerate(faces_lo)}
    mat = [[0] * len(faces_hi) for _ in range(len(faces_lo))]
    for j, f in enumerate(faces_hi):
        for t in range(len(f)):
            face = f[:t] + f[t + 1 :]
            i = index.get(face)
            if i is not None:
                mat[i][j] = (-1) ** t
    return mat


def _homology_single(K, max_dim) -> HomologyResult:
    """Homology from K's face levels 0..max_dim + 1 (all when None); past
    the simplex budget, ``complete=False`` with only the degrees d whose
    (d+1)-faces were listed."""
    dims = itertools.count() if max_dim is None else range(max_dim + 2)
    faces: dict[int, list[tuple]] = {}
    try:
        for d, level in zip(dims, K.face_levels()):
            faces[d] = level
    except CapExceeded:
        return _assemble(faces, complete=False, top=None, max_dim=max_dim)
    # the walk reached an empty level unless it listed every requested one
    top = len(faces) - 1 if max_dim is None or len(faces) < max_dim + 2 else None
    return _assemble(faces, complete=True, top=top, max_dim=max_dim)


def _assemble(faces, complete, top, max_dim) -> HomologyResult:
    """Degrees 0..limit from the listed face levels, where degree d reads
    the boundaries into and out of dimension d: only those up to limit are
    eliminated."""
    dims = sorted(faces)
    limit = max_dim if max_dim is not None else (top if top is not None else -1)
    if not complete:  # degree d needs the (d+1)-faces, which a cut walk may lack
        limit = min(limit, len(dims) - 2)
    ranks: dict[int, int] = {}
    degrees = {}
    for d in dims:
        if d > limit:
            break
        hi = faces.get(d + 1, [])
        tors: tuple[int, ...] = ()
        ranks[d + 1] = 0
        if hi:
            res = smith_normal_form(_boundary_matrix(faces[d], hi))
            ranks[d + 1] = res.rank
            tors = tuple(x for x in res.diag if x > 1)
        betti = len(faces[d]) - ranks.get(d, 0) - ranks[d + 1]
        degrees[d] = AbGroupDescriptor(betti, tors)
    for d in range(len(dims), limit + 1):
        degrees[d] = AbGroupDescriptor.trivial()
    counts = {d: len(fs) for d, fs in faces.items()}
    return HomologyResult(
        degrees=degrees, face_counts=counts, complete=complete, top_dim=top
    )


def homology(K, max_dim: int | None = None) -> HomologyResult:
    """Unreduced integral homology in degrees <= max_dim (all degrees when
    None), computed componentwise from boundary-matrix Smith normal forms,
    each component enumerating at most DEFAULT_SIMPLEX_BUDGET simplices.

    Splitting into connected components first keeps the matrices small;
    homology is additive over disjoint unions, so the components' groups
    are summed degree by degree, torsion as one invariant-factor chain.
    Past the budget, ``complete`` is False and only the degrees that every
    component finished are listed.  ``top_dim`` is None unless every
    component's enumeration reached an empty dimension.  A max_dim above
    DEFAULT_SIMPLEX_BUDGET raises CapExceeded: a complete result lists each
    degree up to max_dim, trivial or not.
    """
    if max_dim is not None:
        _within_budget(max_dim)
    comps = K.components()
    if len(comps) <= 1:
        return _homology_single(K, max_dim)
    results = [_homology_single(K.induced(sorted(comp, key=repr)), max_dim) for comp in comps]
    counts: dict[int, int] = {}
    for res in results:
        for d, c in res.face_counts.items():
            counts[d] = counts.get(d, 0) + c
    # a degree is summed only where every component finished it; a finished
    # walk lists every degree that is not trivial
    trivial = AbGroupDescriptor.trivial()
    degrees = {
        d: sum((res.degrees.get(d, trivial) for res in results), trivial)
        for d in sorted(set().union(*(res.degrees for res in results)))
        if all(res.complete or d in res.degrees for res in results)
    }
    tops = [res.top_dim for res in results]
    top = None if None in tops else max(tops)
    complete = all(res.complete for res in results)
    return HomologyResult(degrees=degrees, face_counts=counts, complete=complete, top_dim=top)


def homological_connectivity(K, n: int) -> bool:
    """Homological n-connectivity proxy.

    n <= -2: always true.  n = -1: nonempty.  n = 0: connected (exact).
    n >= 1: additionally H_i = 0 for 1 <= i <= n (Betti and torsion).
    Raises BudgetExhausted when the face enumeration cannot finish.
    """
    if n <= -2:
        return True
    if K.n_vertices == 0:
        return False
    if n == -1:
        return True
    if not K.is_connected():
        return False
    if n == 0:
        return True
    res = homology(K, max_dim=n)
    if not res.complete:
        raise BudgetExhausted(f"homology through degree {n} did not finish")
    return all(res.degrees[d].is_trivial() for d in range(1, n + 1) if d in res.degrees)


# ---------------------------------------------------------------------------
# Verdicts and harness operations
# ---------------------------------------------------------------------------

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Verdict:
    status: str
    detail: str = ""
    witness: object = None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == PASS


def lcm_check(K, n: int) -> Verdict:
    """Is the link of every p-simplex (n-p-2)-connected?

    Links of p-simplices with p > n - 1 face a level <= -2 requirement and
    are vacuously fine, so p ranges over 0..n-1.  The verdict is
    INCONCLUSIVE when the faces through dimension p (listed whole before
    their links are checked) or those of a link's homology pass the budget.
    """
    checked = 0
    try:
        for p, level in zip(range(n), K.face_levels()):
            for sigma in level:
                checked += 1
                link = K.link_of(sigma)
                if not homological_connectivity(link, n - p - 2):
                    return Verdict(
                        FAIL,
                        detail=f"link of {sigma} is not {n - p - 2}-connected",
                        witness=sigma,
                        stats={"checked": checked},
                    )
    except (BudgetExhausted, CapExceeded) as exc:
        return Verdict(INCONCLUSIVE, detail=str(exc), stats={"checked": checked})
    return Verdict(PASS, detail=f"all links to level {n} verified", stats={"checked": checked})


class SimplicialMap:
    """Vertex map sending simplices to simplices (collapses allowed)."""

    def __init__(self, source, target, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for v in source.vertices:
            if v not in self.mapping:
                raise InputError(f"vertex {v!r} has no image")
            if self.mapping[v] not in target._index:
                raise InputError(f"image {self.mapping[v]!r} is not a target vertex")
        if isinstance(target, FlagComplex):
            # a vertex set is a face of a flag complex when its pairs are
            for u, v in source.edges():
                fu, fv = self.mapping[u], self.mapping[v]
                if fu != fv and not target.adjacent(fu, fv):
                    raise InputError(f"edge ({u!r}, {v!r}) does not map to a simplex")
        else:
            for f in itertools.chain.from_iterable(source.face_levels()):
                if not target.has_face(self.apply(f)):
                    raise InputError(f"face {set(f)!r} does not map to a simplex")

    def __call__(self, v):
        return self.mapping[v]

    def apply(self, face) -> frozenset:
        return frozenset(self.mapping[v] for v in face)


class SymRelation:
    """Symmetric relation on the vertices of a complex.

    Stored as a set of unordered pairs; ``edge_compatible`` checks that
    every edge of the complex is related.
    """

    def __init__(self, complex_, pairs):
        self.complex = complex_
        self.pairs = set()
        for a, b in pairs:
            if a not in complex_._index or b not in complex_._index:
                raise InputError("relation pair outside the vertex set")
            self.pairs.add(frozenset((a, b)))

    @classmethod
    def complete(cls, complex_) -> "SymRelation":
        vs = complex_.vertices
        return cls(complex_, [(a, b) for a in vs for b in vs])

    def holds(self, a, b) -> bool:
        return frozenset((a, b)) in self.pairs

    def is_edge_compatible(self) -> bool:
        return all(self.holds(u, v) for u, v in self.complex.edges())


def _general_position_subsets(candidates, rel: SymRelation | None, cap: int):
    """All subsets of ``candidates`` (in general position when rel given)."""
    out = [()]
    count = 1
    for i, c in enumerate(candidates):
        new = []
        for sub in out:
            if rel is None or all(rel.holds(c, s) for s in sub):
                new.append(sub + (c,))
                count += 1
                if count > cap:
                    raise BudgetExhausted("too many candidate subsets")
        out.extend(new)
    return out


def check_link_lifting(f: SimplicialMap, rel: SymRelation | None = None) -> Verdict:
    """Exhaustive check of the link lifting property on finite complexes.

    Plain version (rel None): for every target vertex y and every vertex
    set A with f(A) inside lk(y), some x in the fiber over y has A inside
    lk(x).  Since the lift condition only tightens as A grows, it is
    equivalent to check the single maximal A = all candidates.

    Relation version: A additionally ranges over sets in general position
    with respect to rel, and the lift x must in addition satisfy
    rel(b, x) for every b in an arbitrary finite vertex set B.  For each
    fixed A the quantifier over B collapses to the single worst case
    B = all vertices of the source, because a lift that works there works
    for every smaller B; the relation need not be reflexive, so this worst
    case genuinely constrains x.  The verdict is INCONCLUSIVE past
    LIFT_CHECK_BUDGET candidate sets.
    """
    X, Y = f.source, f.target
    budget = LIFT_CHECK_BUDGET
    if rel is not None and not rel.is_edge_compatible():
        raise InputError("relation is not edge compatible")
    checked = 0
    all_x = list(X.vertices)
    rel_universal = (
        None
        if rel is None
        else [x for x in all_x if all(rel.holds(b, x) for b in all_x)]
    )
    for y in Y.vertices:
        fiber = [x for x in all_x if f(x) == y]
        candidates = [a for a in all_x if f(a) != y and Y.adjacent(f(a), y)]
        if rel is None:
            checked += 1
            ok = any(
                all(X.adjacent(a, x) for a in candidates) and x not in candidates
                for x in fiber
            )
            if not ok:
                return Verdict(
                    FAIL,
                    detail=f"no lift over {y!r} for the maximal candidate set",
                    witness={"y": y, "A": tuple(candidates), "B": None},
                    stats={"checked": checked},
                )
            continue
        try:
            subsets = _general_position_subsets(candidates, rel, budget - checked)
        except BudgetExhausted as exc:
            return Verdict(INCONCLUSIVE, detail=str(exc), stats={"checked": checked})
        for A in subsets:  # at most budget - checked of them
            checked += 1
            ok = any(
                x in rel_universal
                and x not in A
                and all(X.adjacent(a, x) for a in A)
                for x in fiber
            )
            if not ok:
                return Verdict(
                    FAIL,
                    detail=f"no lift over {y!r} with A = {A!r} against B = X_0",
                    witness={"y": y, "A": A, "B": tuple(all_x)},
                    stats={"checked": checked},
                )
    return Verdict(PASS, detail="all lifts found", stats={"checked": checked})


def preserves_links(f: SimplicialMap) -> bool:
    """f(lk(zeta)) inside lk(f(zeta)) for every simplex zeta of the source.

    Fails in particular when a link vertex collapses into f(zeta) itself,
    since the link excludes the simplex's own vertices.
    """
    X, Y = f.source, f.target
    for zeta in itertools.chain.from_iterable(X.face_levels()):
        image = f.apply(zeta)
        link = X.link_of(zeta)
        for v in link.vertices:
            fv = f(v)
            if fv in image:
                return False
            if not Y.has_face(image | {fv}):
                return False
    return True


@dataclass
class TransitivityReport:
    edge_hypothesis: bool
    component_hypothesis: bool
    connected_realization: bool
    hypotheses_hold: bool
    single_orbit: bool
    orbits: list[set]
    consistent: bool


def action_transitivity(K, generators) -> TransitivityReport:
    """Check the flag-complex transitivity criterion for a vertex action.

    ``generators`` are permutations of the vertex labels (dicts) that must
    preserve adjacency.  Hypotheses: (1) the endpoints of every edge lie
    in one orbit of the generated group; (2) any two vertices in the same
    path component of the vertex SET are related, which for a finite
    discrete vertex set is vacuous; (3) the realization is path connected,
    i.e. the 1-skeleton is a connected nonempty graph.  The conclusion
    asserted is a single vertex orbit.
    """
    perms = []
    for g in generators:
        g = dict(g)
        if set(g) != set(K.vertices) or set(g.values()) != set(K.vertices):
            raise InputError("generator is not a vertex permutation")
        # a vertex bijection that keeps every edge keeps every non-edge too
        if not all(K.adjacent(g[u], g[v]) for u, v in K.edges()):
            raise InputError("generator does not preserve adjacency")
        perms.append(g)
        perms.append({v: u for u, v in g.items()})
    # Orbits under the generated group: closure under all generators and
    # inverses.
    orbits = []
    orbit_of = {}
    for v in K.vertices:
        if v not in orbit_of:
            orb = set(breadth_first(v, lambda u: [g[u] for g in perms]))
            orbit_of.update(dict.fromkeys(orb, len(orbits)))
            orbits.append(orb)
    edge_hyp = all(orbit_of[u] == orbit_of[v] for u, v in K.edges())
    comp_hyp = True  # vacuous: path components of a finite discrete set
    connected = K.is_connected()
    hyps = edge_hyp and comp_hyp and connected
    single = len(orbits) == 1 and K.n_vertices > 0
    consistent = (not hyps) or single
    return TransitivityReport(
        edge_hypothesis=edge_hyp,
        component_hypothesis=comp_hyp,
        connected_realization=connected,
        hypotheses_hold=hyps,
        single_orbit=single,
        orbits=orbits,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Relative homology and the inclusion-connectivity harness
# ---------------------------------------------------------------------------


def relative_homology(X, y_labels, max_dim: int) -> dict[int, AbGroupDescriptor]:
    """H_d(X, Y) for the full subcomplex Y spanned by ``y_labels``.

    Computed from the relative chain complex: the degree-d basis is the
    d-simplices of X not contained in Y, and boundaries drop faces lying
    in Y.  This is the definition of relative homology, no excision
    needed.  A max_dim past the simplex budget raises CapExceeded.
    """
    _within_budget(max_dim)
    yset = set(y_labels)
    rel_faces = {
        d: [f for f in level if not set(f) <= yset]
        for d, level in zip(range(max_dim + 2), X.face_levels())
    }
    return _assemble(rel_faces, complete=True, top=None, max_dim=max_dim).degrees


@dataclass
class InclusionReport:
    hypothesis_holds: bool
    first_violation: object
    conclusion_holds: bool | None
    relative: dict[int, AbGroupDescriptor] | None


def inclusion_connectivity_harness(X, y_labels, n: int) -> InclusionReport:
    """Test the inclusion-connectivity criterion on a full subcomplex.

    Hypothesis: for every p-simplex sigma of X (p <= n suffices; higher p
    faces a vacuous level), the complex Y meet lk(sigma) is (n-p-1)-
    connected.  Consequence checked when the hypothesis holds: the
    relative homology H_i(X, Y) vanishes for i <= n, which is what
    n-connectivity of the inclusion implies on homology.
    """
    yset = set(y_labels)
    for p, level in zip(range(n + 1), X.face_levels()):
        for sigma in level:
            link = X.link_of(sigma)
            sub = link.induced([v for v in link.vertices if v in yset])
            if not homological_connectivity(sub, n - p - 1):
                return InclusionReport(
                    hypothesis_holds=False,
                    first_violation=sigma,
                    conclusion_holds=None,
                    relative=None,
                )
    rel = relative_homology(X, yset, max_dim=n)
    ok = all(rel[d].is_trivial() for d in range(0, n + 1))
    return InclusionReport(
        hypothesis_holds=True, first_violation=None, conclusion_holds=ok, relative=rel
    )
