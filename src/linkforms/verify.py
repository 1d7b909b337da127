"""Named verification suites.

Each suite checks one acceptance-level property end to end and returns a
CriterionResult; the CLI ``verify`` command and the acceptance tests are
both thin wrappers around these functions, so there is exactly one
implementation of every check.

All randomized suites draw from ``random.Random(seed)`` with the default
seed below; rerunning with the same seed reproduces every instance.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from . import bordism
from .complexes import (
    GeneralComplex,
    PASS,
    action_transitivity,
    check_link_lifting,
    homology,
    inclusion_connectivity_harness,
    lcm_check,
    preserves_links,
)
from .corpus import (
    block_sum,
    random_action_instance,
    random_block_multiset,
    random_full_subcomplex_instance,
    random_map_instance,
    random_scrambled_pair,
)
from .errors import InputError
from .forms import (
    extend_to_automorphism,
    first_w_morphism,
    kernel_form,
    morphisms_from_w,
    normal_form,
    split_along,
    standard_w,
    w_power,
    are_isomorphic,
    direct_sum,
)
from .groups import AbGroupDescriptor, FinAbGroup, GroupHom
from .lcomplex import (
    build_l_complex,
    find_short_path,
    transitivity_witness,
    verify_link_iso,
    w_power_vertex_count,
)
from .rank import k_rank, stable_k_rank

DEFAULT_SEED = 20260825

RP2_FACES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    stats: dict = field(default_factory=dict)
    seconds: float = 0.0  # wall time, set by run_suite


# ---------------------------------------------------------------------------
# 1. split injectivity
# ---------------------------------------------------------------------------


def split_injectivity(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    form = w_power(3, 2)
    morphs = morphisms_from_w(form, 3, cap=5000)
    failures = 0
    first_bad = None
    for f in morphs:
        ok = f.image_subgroup.order == 9  # injective on the 9-element block
        image, comp = f.image_subgroup, split_along(f).subgroup
        ok &= image.order * comp.order == 81
        ok &= image.intersection(comp).order == 1
        for a in image.decomposition_gens:
            for b in comp.decomposition_gens:
                ok &= form.evaluate(a, b).is_zero()
        if not ok:
            failures += 1
            first_bad = first_bad or f.key()
    passed = failures == 0 and len(morphs) == 2160
    detail = f"{len(morphs)} morphisms, {failures} failures"
    return CriterionResult(1, "split-injectivity", passed, detail,
                           {"morphisms": len(morphs), "failures": failures, "first_bad": first_bad})


# ---------------------------------------------------------------------------
# 2. classification round trip
# ---------------------------------------------------------------------------


def classification(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    trials = 200
    mismatches = 0
    false_isos = 0
    seen = []
    for _ in range(trials):
        blocks, original, scrambled, _ = random_scrambled_pair(rng)
        recovered = normal_form(scrambled)
        if recovered != normal_form(original):
            mismatches += 1
        seen.append((tuple(blocks), scrambled))
    for _ in range(60):
        (ba, fa), (bb, fb) = rng.sample(seen, 2)
        if ba != bb and are_isomorphic(fa, fb):
            false_isos += 1
    passed = mismatches == 0 and false_isos == 0
    detail = f"{trials} scrambles recovered, {mismatches} mismatches, {false_isos} false isomorphisms"
    return CriterionResult(2, "classification", passed, detail,
                           {"trials": trials, "mismatches": mismatches, "false_isos": false_isos})


# ---------------------------------------------------------------------------
# 3. automorphism orbit
# ---------------------------------------------------------------------------


def aut_orbit(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    failures = 0
    total = 0
    for g in (2, 3):
        form = w_power(3, g)
        block = [form.group.element(tuple(a if i == 0 else (b if i == 1 else 0)
                                          for i in range(2 * g)))
                 for a in range(3) for b in range(3)]
        for v in form.group.enumerate_elements():
            total += 1
            phi = extend_to_automorphism(form, v)
            ok = phi.is_automorphism()
            ok &= any(phi(z) == v for z in block)
            if not ok:
                failures += 1
    passed = failures == 0 and total == 81 + 729
    detail = f"{total} vectors, {failures} failures"
    return CriterionResult(3, "aut-orbit", passed, detail, {"vectors": total, "failures": failures})


# ---------------------------------------------------------------------------
# 4. rank reduction under corank-1 kernels
# ---------------------------------------------------------------------------


def _all_homs_to_c3(form):
    group = form.group
    c3 = FinAbGroup.of(3)
    coeff_sets = itertools.product(range(3), repeat=group.rank)
    for coeffs in coeff_sets:
        images = [c3.element((c,)) for c in coeffs]
        yield GroupHom(group, c3, images)


def rank_reduction(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    budget = 500_000 if budget is None else budget
    failures = 0
    total = 0
    details = []
    for form in (w_power(3, 2), direct_sum(standard_w(3), standard_w(9))):
        base = k_rank(form, 3, budget=budget)
        if not base.certified:
            return CriterionResult(4, "rank-reduction", False,
                                   "base rank uncertified", {"form": str(form.group.orders)})
        for phi in _all_homs_to_c3(form):
            total += 1
            ker = kernel_form(form, phi)
            r = k_rank(ker.form, 3, budget=budget)
            if not r.certified or r.value < base.value - 1:
                failures += 1
        details.append(f"orders {form.group.orders}: base {base.value}")
    passed = failures == 0
    return CriterionResult(4, "rank-reduction", passed,
                           f"{total} kernels checked, {failures} failures ({'; '.join(details)})",
                           {"kernels": total, "failures": failures})


# ---------------------------------------------------------------------------
# 5. stable rank reduction across complements
# ---------------------------------------------------------------------------


def stable_rank_reduction(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    budget = 500_000 if budget is None else budget
    form = w_power(3, 2)
    base = stable_k_rank(form, 3, g_max=2, budget=budget)
    morphs = morphisms_from_w(form, 3, cap=5000)
    by_nf: dict = {}
    failures = 0
    for f in morphs:
        comp = split_along(f)
        key = normal_form(comp.form).summands
        if key not in by_nf:
            by_nf[key] = stable_k_rank(comp.form, 3, g_max=2, budget=budget).value
        if by_nf[key] < base.value - 1:
            failures += 1
    passed = failures == 0 and len(morphs) == 2160
    detail = (
        f"{len(morphs)} complements (>= {base.value - 1} needed), "
        f"{len(by_nf)} distinct complement types, {failures} failures"
    )
    return CriterionResult(5, "stable-rank-reduction", passed, detail,
                           {"base": base.value, "types": {str(k): v for k, v in by_nf.items()},
                            "failures": failures})


# ---------------------------------------------------------------------------
# 6. base case: nonemptiness and short paths
# ---------------------------------------------------------------------------


def base_case(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    L2 = build_l_complex(w_power(3, 2), 3)
    ok = L2.vertex_count == 2160 == w_power_vertex_count(3, 2)
    L4 = build_l_complex(w_power(3, 4), 3)
    ok &= not L4.materialized
    failures = 0
    lengths = []
    for _ in range(500):
        i = rng.randrange(L4.vertex_count)
        j = rng.randrange(L4.vertex_count)
        res = find_short_path(L4, i, j)
        if res.status != "ok" or len(res.path) - 1 > 4:
            failures += 1
        else:
            lengths.append(len(res.path) - 1)
    ok &= failures == 0 and not L4.materialized
    detail = f"2160 vertices exact; 500 paths, {failures} failures, max length {max(lengths) if lengths else '-'}"
    return CriterionResult(6, "base-case", ok, detail,
                           {"failures": failures, "length_histogram":
                            {str(n): lengths.count(n) for n in sorted(set(lengths))}})


# ---------------------------------------------------------------------------
# 7. link isomorphism
# ---------------------------------------------------------------------------


def link_iso(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    failures = 0
    L2 = build_l_complex(w_power(3, 2), 3)
    for i in rng.sample(range(L2.vertex_count), 50):
        if not verify_link_iso(L2, [i]):
            failures += 1
    L3 = build_l_complex(w_power(3, 3), 3)
    for _ in range(20):
        a = L3.vertex(rng.randrange(L3.vertex_count))
        comp = L3.complement_of(a)
        b = comp.embed_morphism(first_w_morphism(comp.form, 3))
        if not verify_link_iso(L3, [a, b]):
            failures += 1
    passed = failures == 0
    detail = f"50 vertex links + 20 edge links, {failures} failures"
    return CriterionResult(7, "link-iso", passed, detail, {"failures": failures})


# ---------------------------------------------------------------------------
# 8. transitivity witnesses
# ---------------------------------------------------------------------------


def transitivity(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    L2 = build_l_complex(w_power(3, 2), 3)
    comps = [sorted(c) for c in L2.components()]
    wsource = standard_w(3)
    failures = 0
    for _ in range(100):
        comp = comps[rng.randrange(len(comps))]
        i, j = rng.sample(comp, 2)
        res = transitivity_witness(L2, i, j)
        if res.status != "ok":
            failures += 1
            continue
        h, m0, m1 = res.automorphism, L2.vertex(i), L2.vertex(j)
        for z in wsource.group.enumerate_elements():
            if h(m0(z)) != m1(z):
                failures += 1
                break
    passed = failures == 0
    detail = f"100 same-component pairs, {failures} failures"
    return CriterionResult(8, "transitivity", passed, detail,
                           {"components": len(comps), "failures": failures})


# ---------------------------------------------------------------------------
# 9. cancellation
# ---------------------------------------------------------------------------


def cancellation(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(100):
        blocks, original, scrambled, _ = random_scrambled_pair(rng, max_root_order=27)
        mw = direct_sum(original, standard_w(3))
        nw = direct_sum(scrambled, standard_w(3))
        if not (are_isomorphic(mw, nw) and are_isomorphic(original, scrambled)):
            failures += 1
    distinct = 0
    while distinct < 100:
        ba = random_block_multiset(rng, 27)
        bb = random_block_multiset(rng, 27)
        if sorted(ba) == sorted(bb):
            continue
        distinct += 1
        fa, fb = block_sum(ba), block_sum(bb)
        mw = direct_sum(fa, standard_w(3))
        nw = direct_sum(fb, standard_w(3))
        if are_isomorphic(mw, nw) or are_isomorphic(fa, fb):
            failures += 1
    passed = failures == 0
    detail = f"100 isomorphic + 100 distinct pairs, {failures} failures"
    return CriterionResult(9, "cancellation", passed, detail, {"failures": failures})


# ---------------------------------------------------------------------------
# 10. bordism tables
# ---------------------------------------------------------------------------


def bordism_tables(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    failures = 0
    for k in range(2, 21):
        if bordism.omega_k(0, k) != AbGroupDescriptor.cyclic(k):
            failures += 1
        if not bordism.omega_k(1, k).is_trivial():
            failures += 1
        for l in range(2, 21):
            want = AbGroupDescriptor.cyclic(math.gcd(k, l))
            for j in (0, 1):
                if bordism.omega_kl(j, k, l) != want:
                    failures += 1
    passed = failures == 0
    return CriterionResult(10, "bordism-tables", passed,
                           f"k,l in 2..20, degrees 0 and 1, {failures} failures",
                           {"failures": failures})


# ---------------------------------------------------------------------------
# 11. A_k calculus
# ---------------------------------------------------------------------------


def ak_calculus(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(1000):
        k = rng.randint(2, 12)
        a = bordism.KKManifold1(k, rng.randint(0, 8), rng.randint(0, 8),
                                rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        b = bordism.KKManifold1(k, rng.randint(0, 8), rng.randint(0, 8),
                                rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        u = a.disjoint_union(b)
        if bordism.kk_class(u) != (bordism.kk_class(a) + bordism.kk_class(b)) % k:
            failures += 1
        if bordism.t_k(u) != bordism.t_k(a) + bordism.t_k(b):
            failures += 1
    for r in range(11):
        for s in range(11):
            for k in range(2, 16):
                n = bordism.KKManifold1(k, r, s)
                gen = bordism.is_generator(n)
                # generator iff the class generates Z/k
                cls = bordism.kk_class(n)
                if gen != (math.gcd(cls, k) == 1):
                    failures += 1
                if gen != (math.gcd(abs(r - s), k) == 1):
                    failures += 1
    for k in range(2, 51):
        t = bordism.t_k(bordism.KKManifold1(k, 1, 0))
        if (t.num, t.den) != (1, k):
            failures += 1
    passed = failures == 0
    return CriterionResult(11, "ak-calculus", passed,
                           f"1000 unions + gcd table + t_k normalization, {failures} failures",
                           {"failures": failures})


# ---------------------------------------------------------------------------
# 12. homology engine
# ---------------------------------------------------------------------------


def homology_engine(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    failures = 0
    details = []
    for n in range(2, 6):
        verts = list(range(n + 1))
        K = GeneralComplex(itertools.combinations(verts, n))
        H = homology(K)
        expect = {0: (1, ()), n - 1: (1, ())}
        for d, h in H.degrees.items():
            if (h.betti, h.torsion) != expect.get(d, (0, ())):
                failures += 1
        if H.euler_from_betti() != H.euler_from_faces():
            failures += 1
    rp2 = GeneralComplex(RP2_FACES)
    H = homology(rp2)
    if not (H.degrees[0].betti == 1 and H.degrees[1].betti == 0
            and H.degrees[1].torsion == (2,) and H.degrees[2].is_trivial()):
        failures += 1
    details.append(f"projective plane H_1 = {H.degrees[1]}")
    # Euler consistency on the complexes materialized by the complex suites
    L2 = build_l_complex(w_power(3, 2), 3)
    H2 = homology(L2.flag)
    if H2.euler_from_betti() != H2.euler_from_faces():
        failures += 1
    if H2.euler_from_faces() != 2160 - 25920:
        failures += 1
    details.append(f"block complex chi = {H2.euler_from_faces()}, b = ({H2.degrees[0].betti}, {H2.degrees[1].betti})")
    link = L2.flag.link_of((0,))
    Hl = homology(link)
    if not (Hl.euler_from_betti() == Hl.euler_from_faces() == 24):
        failures += 1
    L1 = build_l_complex(w_power(3, 1), 3)
    H1 = homology(L1.flag)
    if not (H1.euler_from_betti() == H1.euler_from_faces() == 24):
        failures += 1
    passed = failures == 0
    return CriterionResult(12, "homology-engine", passed,
                           f"spheres to dim 4, projective plane, Euler checks; {failures} failures ({'; '.join(details)})",
                           {"failures": failures})


# ---------------------------------------------------------------------------
# 13. simplicial harnesses
# ---------------------------------------------------------------------------


def harnesses(seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    rng = random.Random(seed)
    failures = 0
    inc_instances = hyp_holds = 0
    for _ in range(120):
        X, ylabels = random_full_subcomplex_instance(rng)
        for n in (0, 1):
            inc_instances += 1
            rep = inclusion_connectivity_harness(X, ylabels, n)
            if rep.hypothesis_holds:
                hyp_holds += 1
                if not rep.conclusion_holds:
                    failures += 1
    lift_pass = implication_checked = 0
    for _ in range(60):
        f, rel = random_map_instance(rng)
        for use_rel in (None, rel):
            verdict = check_link_lifting(f, use_rel)
            if verdict.status != PASS:
                continue
            lift_pass += 1
            if not preserves_links(f):
                continue
            for n in (0, 1, 2):
                if lcm_check(f.target, n).status == PASS:
                    implication_checked += 1
                    if lcm_check(f.source, n).status != PASS:
                        failures += 1
    act_instances = act_hyp = 0
    for _ in range(60):
        K, gens = random_action_instance(rng)
        act_instances += 1
        rep = action_transitivity(K, gens)
        if rep.hypotheses_hold:
            act_hyp += 1
            if not rep.single_orbit:
                failures += 1
    passed = failures == 0
    detail = (f"inclusion {hyp_holds}/{inc_instances} hypotheses held, "
              f"lifting implication fired {implication_checked}x, "
              f"actions {act_hyp}/{act_instances} hypotheses held; {failures} failures")
    return CriterionResult(13, "harnesses", passed, detail,
                           {"failures": failures, "lift_pass": lift_pass})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SUITES = {
    "split-injectivity": split_injectivity,
    "classification": classification,
    "aut-orbit": aut_orbit,
    "rank-reduction": rank_reduction,
    "stable-rank-reduction": stable_rank_reduction,
    "base-case": base_case,
    "link-iso": link_iso,
    "transitivity": transitivity,
    "cancellation": cancellation,
    "bordism-tables": bordism_tables,
    "ak-calculus": ak_calculus,
    "homology-engine": homology_engine,
    "harnesses": harnesses,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, budget: int | None = None) -> CriterionResult:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    t0 = time.perf_counter()
    result = SUITES[name](seed=seed, budget=budget)
    result.seconds = time.perf_counter() - t0
    return result


def run_all(seed: int = DEFAULT_SEED, budget: int | None = None) -> list[CriterionResult]:
    return [run_suite(name, seed, budget) for name in SUITES]
