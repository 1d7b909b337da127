"""The three benchmark workloads.

Each workload is a function ``seed -> Workload`` that generates its inputs
during set-up.  An ``Op`` is one closed-loop query: ``run`` is the timed
call into the public API of linkforms, ``check`` verifies its result
without going through the fast path being measured, and returns the
result's digest (for the checksum) and the path decisions taken.

Draws are stratified (every round has a fixed number of queries per input
class, and indices are spread over equal strata) so that two seeds give the
same mix of work and differ only in the instances; the mix is what the
end-to-end figures measure, the instances are what the seed varies.

Library functions are looked up on the ``lf`` module at call time, so a
traced pass sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import linkforms as lf
from linkforms import corpus


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str, dict]]


@dataclass
class Workload:
    """Rounds of operations, each round with the same mix of work.

    A run goes through the rounds in order, wrapping around, until its time
    is up; it always completes the first ``trace_rounds``, which are also
    the rounds of the traced pass and the scope of the checksum.
    """

    rounds: list[list[Op]]
    trace_rounds: int


def _doc(form) -> str:
    return json.dumps(lf.form_to_document(form))


def _orthogonal(form, f, g) -> bool:
    """Exact orthogonality of two block images, by LinkingForm.evaluate."""
    return all(form.evaluate(u, v).is_zero() for u in f.images for v in g.images)


def _stratified(rng: random.Random, n: int, size: int) -> list[int]:
    """``n`` uniform draws from ``range(size)``, one per equal stratum."""
    out = [rng.randrange(size * s // n, max(size * (s + 1) // n, size * s // n + 1))
           for s in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# algebra-batch
# ---------------------------------------------------------------------------

# Block rank at k = 3 of the two ambient forms.  W_3^2 has two orthogonal
# W_3 blocks; in W_3 (+) W_9 the 3-torsion of W_9 pairs to zero, so only the
# W_3 block contributes.
RANK_BASE = {"W_3^2": 2, "W_3+W_9": 1}


def _rank_bound(orders) -> int:
    """Size and torsion upper bounds on the k = 3 block rank, computed from
    the group orders alone."""
    size = 0
    while 9 ** (size + 1) <= math.prod(orders):
        size += 1
    return min(size, sum(1 for d in orders if d % 3 == 0) // 2)


def _rank_op(doc: str, coeffs: tuple, base: int) -> Op:
    def run():
        form = lf.parse_form(doc)
        c3 = lf.FinAbGroup.of(3)
        phi = lf.GroupHom(form.group, c3, [c3.element((c,)) for c in coeffs])
        ker = lf.kernel_form(form, phi).form
        res = lf.k_rank(ker, 3)
        report = lf.make_report(
            "rank", "ok",
            {"k": 3, "rank": res.value, "certified": res.certified, "upper_bound": res.bound},
            stats={"nodes": res.nodes},
        )
        return ker, res, lf.to_json(report)

    def check(out):
        ker, res, text = out
        ok = res.certified and base - 1 <= res.value <= _rank_bound(ker.group.orders)
        ok &= len(res.witness) == res.value
        ok &= all(f.target == ker and f.block_k == 3 for f in res.witness)
        ok &= all(_orthogonal(ker, f, g) for f, g in itertools.combinations(res.witness, 2))
        decisions = {"int64": ker._np_numerators is not None, "rank_bounds": res.nodes == 0}
        return ok, text, decisions

    return Op("rank", run, check)


def _classify_op(doc: str, blocks: list[int]) -> Op:
    def run():
        form = lf.parse_form(doc)
        nf = lf.normal_form(form)
        report = lf.make_report(
            "classify", "ok",
            {"normal_form": str(nf), "cardinality": form.group.order, "nonsingular": True},
        )
        return form, nf, lf.to_json(report)

    def check(out):
        form, nf, text = out
        return nf.block_multiset() == sorted(blocks), text, {"int64": form._np_numerators is not None}

    return Op("classify", run, check)


def _cancellation_op(doc_a: str, doc_b: str, isomorphic: bool) -> Op:
    def run():
        a, b = lf.parse_form(doc_a), lf.parse_form(doc_b)
        w = lf.standard_w(3)
        with_block = lf.are_isomorphic(lf.direct_sum(a, w), lf.direct_sum(b, w))
        direct = lf.are_isomorphic(a, b)
        report = lf.make_report("cancellation", "ok", {"with_block": with_block, "direct": direct})
        return a, with_block, direct, lf.to_json(report)

    def check(out):
        a, with_block, direct, text = out
        ok = with_block is isomorphic and direct is isomorphic
        return ok, text, {"int64": a._np_numerators is not None}

    return Op("cancellation", run, check)


def _omega_op(j: int, k: int, l: int) -> Op:
    doc = json.dumps({"degree": j, "k": k, "l": l})

    def run():
        q = json.loads(doc)
        group = lf.omega_kl(q["degree"], q["k"], q["l"])
        report = lf.make_report("bordism", "ok", {**q, "group": str(group)})
        return group, lf.to_json(report)

    def check(out):
        group, text = out
        want = math.gcd(k, l)
        ok = group.free_rank == 0 and math.prod(group.torsion) == want
        ok &= all(t > 1 for t in group.torsion) and len(group.torsion) == (want > 1)
        return ok, text, {}

    return Op("bordism", run, check)


def _kk_op(manifold) -> Op:
    doc = json.dumps(lf.manifold_to_document(manifold))
    k, signed = manifold.k, manifold.plus - manifold.minus

    def run():
        N = lf.parse_manifold(doc)
        cls, gen, t = lf.kk_class(N), lf.is_generator(N), lf.t_k(N)
        report = lf.make_report("bordism", "ok", {"k": N.k, "class": cls, "generator": gen, f"T_{N.k}": str(t)})
        return cls, gen, t, lf.to_json(report)

    def check(out):
        cls, gen, t, text = out
        frac = Fraction(signed % k, k)
        ok = cls == signed % k and gen == (math.gcd(abs(signed), k) == 1)
        ok &= (t.num, t.den) == (frac.numerator, frac.denominator)
        return ok, text, {}

    return Op("bordism", run, check)


def _cycle(rng: random.Random, pool: list):
    """Endless draws from ``pool``: seeded permutations, one after another,
    so every element is drawn once before any is drawn again."""
    while True:
        perm = list(pool)
        rng.shuffle(perm)
        yield from perm


ALGEBRA_ROUNDS = 45  # five cycles through the 9 searched kernels


def algebra_batch(seed: int) -> Workload:
    """Form documents parsed and answered one at a time, as the CLI does.

    Each round: one kernel of W_3 (+) W_9 whose map to Z/3 vanishes on the
    W_3 summand (a rank branch search of 82 nodes; each of the 9 such maps
    once per 9 rounds, and these set the tail), 4 of its other kernels, 4
    kernels of W_3^2, 4 classifications, an isomorphic and a distinct
    cancellation pair, an omega_kl and a kk_class lookup.
    """
    rng = random.Random(seed)
    w39 = _doc(lf.direct_sum(lf.standard_w(3), lf.standard_w(9)))
    w3sq = _doc(lf.w_power(3, 2))
    homs = list(itertools.product(range(3), repeat=4))
    searched = _cycle(rng, [c for c in homs if c[:2] == (0, 0)])
    others = _cycle(rng, [c for c in homs if c[:2] != (0, 0)])
    w3sq_homs = _cycle(rng, homs)
    rounds = []
    for _ in range(ALGEBRA_ROUNDS):
        ops = [_rank_op(w39, next(searched), RANK_BASE["W_3+W_9"])]
        ops += [_rank_op(w39, next(others), RANK_BASE["W_3+W_9"]) for _ in range(4)]
        ops += [_rank_op(w3sq, next(w3sq_homs), RANK_BASE["W_3^2"]) for _ in range(4)]
        for _ in range(4):
            blocks, _, scrambled, _ = corpus.random_scrambled_pair(rng)
            ops.append(_classify_op(_doc(scrambled), blocks))
        _, original, scrambled, _ = corpus.random_scrambled_pair(rng, max_root_order=27)
        ops.append(_cancellation_op(_doc(original), _doc(scrambled), True))
        ba = bb = None
        while ba == bb:
            ba, bb = corpus.random_block_multiset(rng, 27), corpus.random_block_multiset(rng, 27)
        ops.append(_cancellation_op(_doc(corpus.block_sum(ba)), _doc(corpus.block_sum(bb)), False))
        ops.append(_omega_op(rng.randrange(2), rng.randint(2, 20), rng.randint(2, 20)))
        k = rng.randint(2, 12)
        ops.append(_kk_op(lf.KKManifold1(k, rng.randint(0, 8), rng.randint(0, 8),
                                         rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, trace_rounds=9)


# ---------------------------------------------------------------------------
# complex-materialize
# ---------------------------------------------------------------------------

# Frozen values.  W_3^1 and W_3^2 come from the homology-engine, base-case
# and transitivity suites.  The k = 2 complex of W_{2p}^2 is that of W_2^2: 20
# hyperbolic planes in (Z/2)^4 with 6 morphisms onto each; a vertex is
# adjacent exactly to the 6 morphisms onto its plane's complement, so there
# are 10 components, each a complete bipartite K_{6,6} (b1 = 36 - 12 + 1).
BIG_P = 1048583  # 2 * BIG_P is past the int64 gate's 2^20 modulus limit
FROZEN = {
    "W_3^1": {"vertices": 24, "edges": 0, "components": 24, "betti": (24,)},
    "W_3^2": {"vertices": 2160, "edges": 25920, "components": 45, "betti": (45, 23805), "link_betti": (24,)},
    "W_2p^2": {"vertices": 120, "edges": 360, "components": 10, "betti": (10, 250), "link_betti": (6,)},
}


def _complex_decisions(L) -> dict:
    return {"int64": L.form._np_numerators is not None, "materialized": L.materialized}


def _betti(H) -> tuple:
    top = max(H.degrees)
    return tuple(H.degrees[d].betti for d in range(top + 1))


def _build_op(name: str, form, k: int, built: dict) -> Op:
    want = FROZEN[name]

    def run():
        built[name] = lf.build_l_complex(form, k)
        return built[name]

    def check(L):
        ok = L.materialized and L.vertex_count == want["vertices"] and L.edge_count() == want["edges"]
        digest = hashlib.sha256(L.flag.adj.tobytes()).hexdigest()
        return ok, f"{name} {L.vertex_count} {digest}", _complex_decisions(L)

    return Op("build", run, check)


def _components_op(name: str, built: dict) -> Op:
    def run():
        return built[name], built[name].components()

    def check(out):
        L, comps = out
        sizes = sorted(len(c) for c in comps)
        ok = len(comps) == FROZEN[name]["components"] and sum(sizes) == L.vertex_count
        return ok, f"{name} {sizes}", _complex_decisions(L)

    return Op("components", run, check)


def _homology_op(name: str, built: dict) -> Op:
    want = FROZEN[name]

    def run():
        return built[name], lf.homology(built[name].flag)

    def check(out):
        L, H = out
        ok = H.complete and _betti(H) == want["betti"]
        ok &= H.euler_from_faces() == H.euler_from_betti() == want["vertices"] - want["edges"]
        ok &= all(not h.torsion for h in H.degrees.values())
        return ok, f"{name} {_betti(H)}", _complex_decisions(L)

    return Op("homology", run, check)


def _link_homology_op(name: str, vertex: int, built: dict) -> Op:
    """Components and homology of the link of one vertex of the flag complex."""

    def run():
        L = built[name]
        link = L.flag.link_of((vertex,))
        return L, link, link.components(), lf.homology(link)

    def check(out):
        L, link, comps, H = out
        want = FROZEN[name]["link_betti"]
        ok = _betti(H) == want and len(comps) == want[0] == link.n_vertices
        return ok, f"{name} link {vertex} {_betti(H)}", _complex_decisions(L)

    return Op("link-homology", run, check)


def _link_iso_op(name: str, vertex: int, built: dict) -> Op:
    def run():
        L = built[name]
        return L, lf.verify_link_iso(L, [vertex])

    def check(out):
        L, verdict = out
        return verdict is True, f"{name} link-iso {vertex} {verdict}", _complex_decisions(L)

    return Op("link-iso", run, check)


COMPLEX_ROUNDS = 4
# Seeded vertices per round of each complex that has edges (W_3^1 has none,
# so its vertex links are empty).  Each one's link gets components and
# homology; on W_3^2 the same vertices also get verify_link_iso.
LINK_VERTICES = 8


def complex_materialize(seed: int) -> Workload:
    """Materialize three complexes and query them.

    Each round builds W_3^1 (k = 3), W_{2p}^2 (k = 2, exact path) and W_3^2
    (k = 3, int64 path), then runs in shuffled order: components and
    homology of each flag complex, and for LINK_VERTICES seeded vertices of
    W_{2p}^2 and of W_3^2 the components and homology of the vertex's link,
    plus verify_link_iso on those of W_3^2.  Vertices are drawn afresh for
    every round.
    """
    rng = random.Random(seed)
    built: dict = {}
    complexes = (
        ("W_3^1", lf.w_power(3, 1), 3),
        ("W_2p^2", lf.w_power(2 * BIG_P, 2), 2),
        ("W_3^2", lf.w_power(3, 2), 3),
    )
    rounds = []
    for _ in range(COMPLEX_ROUNDS):
        queries: list[Op] = [_components_op(name, built) for name, *_ in complexes]
        queries += [_homology_op(name, built) for name, *_ in complexes]
        for name in ("W_2p^2", "W_3^2"):
            for v in _stratified(rng, LINK_VERTICES, FROZEN[name]["vertices"]):
                queries.append(_link_homology_op(name, v, built))
                if name == "W_3^2":
                    queries.append(_link_iso_op(name, v, built))
        rng.shuffle(queries)
        rounds.append([_build_op(name, form, k, built) for name, form, k in complexes] + queries)
    return Workload(rounds, trace_rounds=1)


# ---------------------------------------------------------------------------
# lazy-queries
# ---------------------------------------------------------------------------

LAZY_ROUNDS = 30
# Paths and witnesses per complex and round: every complex is asked the
# same number of questions, four paths to each witness.
LAZY_PATHS, LAZY_WITNESSES = 8, 2


class LexOracle:
    """The morphisms W_p -> form (p prime) in the library's enumeration
    order, recomputed from exact ``LinkingForm.evaluate`` values alone.

    A morphism is a pair (x, y) of p-torsion elements with b(x, y) = 1/p,
    ordered lexicographically by (x, y).  On the p-torsion T = (Z/p)^n,
    coordinates u_a = (d_a / p) e_a, the form takes values in (1/p)Z/Z, so
    p * b is an F_p-bilinear form B.  When B is nondegenerate, every x != 0
    has exactly p^(n-1) partners y and x = 0 has none, so the index-th
    morphism sits in row 1 + index // p^(n-1); within its row, y is found
    digit by digit by counting the solutions of one linear equation.  No
    per-row scan, int64 kernel or library enumeration is used.
    """

    def __init__(self, form, p: int):
        self.form, self.p = form, p
        self.coords = [a for a, d in enumerate(form.group.orders) if d % p == 0]
        self.basis = [form.group.generator(a).scale(form.group.orders[a] // p) for a in self.coords]
        self.per_row = p ** (len(self.basis) - 1)
        gram = [[self._value(u, v) for v in self.basis] for u in self.basis]
        if _rank_mod_p(gram, p) != len(self.basis):
            raise ValueError("the form is degenerate on its p-torsion; LexOracle does not apply")

    def _value(self, x, y) -> int:
        v = self.form.evaluate(x, y)
        if self.p % v.den:
            raise ValueError(f"b(x, y) = {v} is not in (1/{self.p})Z/Z")
        return v.num * (self.p // v.den)

    def _element(self, digits):
        coeffs = [0] * self.form.group.rank
        for a, t in zip(self.coords, digits):
            coeffs[a] = t * (self.form.group.orders[a] // self.p)
        return self.form.group.element(tuple(coeffs))

    def key(self, index: int) -> tuple:
        """Coefficients (x, y) of the index-th morphism."""
        p, n = self.p, len(self.basis)
        row, offset = divmod(index, self.per_row)
        row += 1
        if row >= p ** n:
            raise ValueError(f"index {index} is out of range")
        xs = [(row // p ** (n - 1 - a)) % p for a in range(n)]
        x = self._element(xs)
        c = [self._value(x, u) for u in self.basis]
        need, ys = 1, []
        for a in range(n):
            rest_free = any(c[b] for b in range(a + 1, n))
            for t in range(p):
                left = (need - t * c[a]) % p
                count = p ** (n - a - 2) if rest_free else p ** (n - a - 1) * (left == 0)
                if offset < count:
                    break
                offset -= count
            ys.append(t)
            need = left
        if need:
            raise ValueError(f"index {index} is out of range")
        return x.coeffs, self._element(ys).coeffs


def _rank_mod_p(rows, p: int) -> int:
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _is_block_morphism(form, k: int, m) -> bool:
    """m is a morphism W_k -> form: its two images are k-torsion and
    pair as the standard block does, by exact evaluation."""
    w = lf.standard_w(k)
    return (m.target == form and len(m.images) == 2
            and all(img.scale(k).is_zero() for img in m.images)
            and all(form.evaluate(a, b) == w.gram[s][t]
                    for s, a in enumerate(m.images) for t, b in enumerate(m.images)))


def _check_path(L, oracle: LexOracle, i: int, j: int, path) -> bool:
    """The path runs from the i-th to the j-th vertex, has length at most
    4, and consists of block morphisms, each orthogonal to the next."""
    ok = path is not None and 1 <= len(path) <= 5
    ok = ok and path[0].key() == oracle.key(i) and path[-1].key() == oracle.key(j)
    ok = ok and all(_is_block_morphism(L.form, L.k, m) for m in path)
    return ok and all(a.key() != b.key() and _orthogonal(L.form, a, b) for a, b in zip(path, path[1:]))


def _keys(path) -> str:
    return ";".join(str(m.key()) for m in path or ())


def _path_op(name: str, L, oracle: LexOracle, i: int, j: int) -> Op:
    def run():
        return lf.find_short_path(L, i, j)

    def check(res):
        ok = res.status == "ok" and _check_path(L, oracle, i, j, res.path)
        decisions = {"int64": L.form._np_numerators is not None, "materialized": L.materialized,
                     "shortcut": res.stats.get("shortcut", "hub")}
        return ok, f"{name} {i} {j} {_keys(res.path)}", decisions

    return Op("path", run, check)


def _witness_op(name: str, L, oracle: LexOracle, i: int, j: int) -> Op:
    def run():
        return lf.transitivity_witness(L, i, j)

    def check(res):
        ok = res.status == "ok" and _check_path(L, oracle, i, j, res.path)
        if ok:
            h, m0, m1 = res.automorphism, res.path[0], res.path[-1]
            ok = h.source == h.target == L.form and h(m0.x) == m1.x and h(m0.y) == m1.y
        images = ";".join(str(img.coeffs) for img in res.automorphism.images) if ok else ""
        decisions = {"int64": L.form._np_numerators is not None, "materialized": L.materialized}
        return ok, f"{name} {i} {j} {_keys(res.path)} {images}", decisions

    return Op("witness", run, check)


def lazy_queries(seed: int) -> Workload:
    """Path and witness queries on three complexes too large to materialize.

    Set-up builds them lazily and selects each one's path hub (the first
    query pays for it once per complex; users running many queries do
    too).  Each round sends LAZY_PATHS paths and LAZY_WITNESSES witnesses
    to every complex, between stratified uniform vertex indices.
    """
    rng = random.Random(seed)
    complexes = {
        "W_3^4": lf.build_l_complex(lf.w_power(3, 4), 3),
        "W_3^5": lf.build_l_complex(lf.w_power(3, 5), 3),
        # odd part 524287 sits just under the int64 gate's 2^20 modulus limit
        "W_1048574^5*": lf.build_l_complex(corpus.scramble_form(lf.w_power(1048574, 5), rng)[0], 2),
    }
    for name, L in complexes.items():
        if L.materialized:
            raise RuntimeError(f"{name} was expected to stay lazy")
        lf.find_short_path(L, 0, L.vertex_count - 1)
    oracles = {name: LexOracle(L.form, L.k) for name, L in complexes.items()}
    n = LAZY_PATHS + LAZY_WITNESSES
    rounds = []
    for _ in range(LAZY_ROUNDS):
        ops: list[Op] = []
        for name, L in complexes.items():
            pairs = list(zip(_stratified(rng, n, L.vertex_count), _stratified(rng, n, L.vertex_count)))
            ops += [_path_op(name, L, oracles[name], i, j) for i, j in pairs[:LAZY_PATHS]]
            ops += [_witness_op(name, L, oracles[name], i, j) for i, j in pairs[LAZY_PATHS:]]
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, trace_rounds=3)


WORKLOADS = {
    "algebra-batch": algebra_batch,
    "complex-materialize": complex_materialize,
    "lazy-queries": lazy_queries,
}
