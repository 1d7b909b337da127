"""Strictly skew linking forms b : M x M -> Q/Z on finite abelian groups.

A form is stored as a Gram matrix of Q/Z values on the group's generators,
with b(e_i, e_i) = 0 and b(e_j, e_i) = -b(e_i, e_j); bilinearity then pins
down b everywhere, and strictness (b(x, x) = 0 for every x, including
2-torsion) follows from the generator conditions.

All Gram entries share the common denominator D = lcm of entry orders, so
a pairing value is an integer numerator mod D.  The bulk enumeration paths
hand coefficient arrays to ``linkforms._kernels``: int64 inside the
``fits_int64`` gate, exact Python ints outside it; everything
structural (complements, splittings, classification) runs exact through
the Smith-normal-form machinery in ``linkforms.groups``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import CapExceeded, InputError, NonStrictFormError, SingularFormError
from .groups import (
    FinAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    solve_affine_congruence_system,
    solve_congruence_system,
)
from .qz import QZValue
from .snf import prime_factorization

DEFAULT_VERTEX_CAP = 500_000


class LinkingForm:
    """A strictly skew bilinear form with values in Q/Z."""

    def __init__(self, group: FinAbGroup, gram, name: str | None = None):
        self.group = group
        rows = [tuple(row) for row in gram]
        r = group.rank
        if len(rows) != r or any(len(row) != r for row in rows):
            raise InputError(f"gram matrix must be {r} x {r}")
        for i in range(r):
            for j in range(r):
                v = rows[i][j]
                if not isinstance(v, QZValue):
                    raise InputError("gram entries must be QZValue")
                if i == j and not v.is_zero():
                    raise NonStrictFormError(
                        f"diagonal gram entry b(e_{i}, e_{i}) = {v} must vanish"
                    )
                if rows[j][i] != -v:
                    raise InputError(
                        f"gram is not skew at ({i}, {j}): {rows[j][i]} != -({v})"
                    )
                # b(d_i e_i, e_j) = 0 pins the entry's order to divide d_i.
                if not v.scale(group.orders[i]).is_zero():
                    raise InputError(
                        f"gram entry b(e_{i}, e_{j}) = {v} is not killed by "
                        f"generator order {group.orders[i]}"
                    )
        self.gram = rows
        self.name = name
        self._w_rows_cache: dict[int, tuple] = {}
        self._w_counts_cache: dict[int, np.ndarray] = {}

    # -- integer numerator representation -----------------------------------

    @cached_property
    def denominator(self) -> int:
        return math.lcm(*(v.den for row in self.gram for v in row)) if self.group.rank else 1

    @cached_property
    def numerators(self) -> list[list[int]]:
        D = self.denominator
        return [[v.num * (D // v.den) for v in row] for row in self.gram]

    @cached_property
    def _np_numerators(self):
        dmax = max(self.group.orders, default=1)
        if _kernels.fits_int64(self.denominator, dmax, self.group.rank):
            return np.array(self.numerators, dtype=np.int64).reshape(
                self.group.rank, self.group.rank
            )
        return None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: GroupElement, y: GroupElement) -> QZValue:
        if x.group != self.group or y.group != self.group:
            raise InputError("elements do not belong to the form's group")
        D = self.denominator
        N = self.numerators
        acc = 0
        for i, xi in enumerate(x.coeffs):
            if xi == 0:
                continue
            row = N[i]
            for j, yj in enumerate(y.coeffs):
                if yj:
                    acc += xi * yj * row[j]
        return QZValue(acc, D)

    # -- structure -----------------------------------------------------------

    def radical(self) -> Subgroup:
        """{z : b(z, -) = 0}, the kernel of the duality map."""
        D = self.denominator
        N = self.numerators
        r = self.group.rank
        rows = []
        for j in range(r):
            rows.append(([N[i][j] for i in range(r)], D))
        return solve_congruence_system(self.group, rows)

    def is_nonsingular(self) -> bool:
        """Duality map into Hom(M, Q/Z) injective; bijective follows by finiteness."""
        return self.radical().order == 1

    def dual_functional_rows(self, x: GroupElement) -> tuple[list[int], int]:
        """Coefficients c with b(x, z) = (sum c_i z_i)/D, plus D."""
        N = self.numerators
        r = self.group.rank
        c = [sum(x.coeffs[t] * N[t][i] for t in range(r)) % self.denominator for i in range(r)]
        return c, self.denominator

    def torsion_matrix(self, k: int, cap: int = 10**8, dtype=np.int64):
        """Array of {z : k z = 0} coefficients in lexicographic order.

        ``dtype=object`` holds exact Python ints, for orders beyond int64.
        """
        count = self.group.torsion_count(k)
        if count > cap:
            raise CapExceeded(
                f"{count} torsion elements exceed cap {cap}", needed=count, cap=cap
            )
        axes = [
            np.arange(0, d, d // math.gcd(d, k), dtype=dtype)
            for d in self.group.orders
        ]
        if not axes:
            return np.zeros((1, 0), dtype=dtype)
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def _w_rows(self, k: int):
        """(X, N) for the congruence b(x, y) = 1/k on M[k], cached per k.

        X holds the k-torsion rows and N the Gram numerators.  This is the
        one place that picks their dtype: int64 inside the int64 gate, exact
        Python ints (``dtype=object``) outside it, where the same kernel
        expressions run exactly.
        """
        cached = self._w_rows_cache.get(k)
        if cached is None:
            exact = self._np_numerators is None
            N = np.array(self.numerators, dtype=object) if exact else self._np_numerators
            cached = (self.torsion_matrix(k, dtype=N.dtype), N)
            self._w_rows_cache[k] = cached
        return cached

    def _w_counts(self, k: int):
        """cum[i] = number of solutions (x, y) of b(x, y) = 1/k with x among
        the first i + 1 rows of ``_w_rows(k)``, cached per k.

        For c = x N mod D and step_i = d_i / gcd(d_i, k), the functional
        b(x, -) maps M[k] onto the cyclic group of order D / g,
        g = gcd(D, c_i step_i), so row x has |M[k]| g / D solutions y when g
        divides D / k and none otherwise.  Requires k | D.
        """
        cum = self._w_counts_cache.get(k)
        if cum is None:
            X, N = self._w_rows(k)
            D = self.denominator
            steps = np.array([d // math.gcd(d, k) for d in self.group.orders], dtype=N.dtype)
            g = np.gcd(np.gcd.reduce((X @ N) % D * steps, axis=1), D)
            counts = np.where(D // k % g == 0, self.group.torsion_count(k) // (D // g), 0)
            cum = self._w_counts_cache[k] = np.cumsum(counts, dtype=np.int64)
        return cum

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinkingForm)
            and self.group == other.group
            and self.gram == other.gram
        )

    def __hash__(self) -> int:
        return hash((self.group, tuple(self.gram)))

    def __str__(self) -> str:
        return self.name or f"form on {self.group}"


def standard_w(k: int, name: str | None = None) -> LinkingForm:
    """The rank-two building block on (Z/k)^2 with b(rho, sigma) = 1/k."""
    if k < 2:
        raise InputError(f"block parameter k = {k} must be >= 2")
    group = FinAbGroup.of(k, k)
    one_over_k = QZValue(1, k)
    gram = [
        [QZValue.zero(), one_over_k],
        [-one_over_k, QZValue.zero()],
    ]
    return LinkingForm(group, gram, name=name or f"W_{k}")


def direct_sum(*forms: LinkingForm, name: str | None = None) -> LinkingForm:
    group = FinAbGroup(tuple(d for f in forms for d in f.group.orders))
    r = group.rank
    gram = [[QZValue.zero()] * r for _ in range(r)]
    offset = 0
    for f in forms:
        fr = f.group.rank
        for i in range(fr):
            for j in range(fr):
                gram[offset + i][offset + j] = f.gram[i][j]
        offset += fr
    if name is None and all(f.name for f in forms) and forms:
        name = " (+) ".join(f.name for f in forms)
    return LinkingForm(group, gram, name=name)


def w_power(k: int, g: int) -> LinkingForm:
    if g == 0:
        return LinkingForm(FinAbGroup(()), [], name="0")
    return direct_sum(*(standard_w(k) for _ in range(g)), name=f"W_{k}^{g}")


# ---------------------------------------------------------------------------
# Subforms
# ---------------------------------------------------------------------------


class Subform:
    """A subgroup together with the restriction of the ambient form.

    The restriction of a strictly skew form is automatically a valid
    strictly skew form (possibly singular even when the ambient form is
    not), so no extra validation is needed beyond building the restricted
    Gram matrix on the subgroup's invariant-factor generators.
    """

    def __init__(self, ambient: LinkingForm, subgroup: Subgroup):
        if subgroup.group != ambient.group:
            raise InputError("subgroup does not live in the form's group")
        self.ambient = ambient
        self.subgroup = subgroup

    @property
    def order(self) -> int:
        return self.subgroup.order

    @cached_property
    def form(self) -> LinkingForm:
        gens = self.subgroup.decomposition_gens
        gram = [
            [self.ambient.evaluate(a, b) for b in gens] for a in gens
        ]
        return LinkingForm(self.subgroup.standalone(), gram)

    def embed_element(self, x: GroupElement) -> GroupElement:
        if x.group != self.form.group:
            raise InputError("element is not in the subform presentation")
        return self.subgroup.from_sub_coords(x.coeffs)

    def restrict_element(self, x: GroupElement) -> GroupElement:
        return self.form.group.element(self.subgroup.to_sub_coords(x))

    def embed_morphism(self, f: "FormMorphism") -> "FormMorphism":
        """Push a morphism into the subform forward into the ambient form."""
        if f.target != self.form:
            raise InputError("morphism does not land in this subform")
        return FormMorphism(
            f.source, self.ambient, [self.embed_element(img) for img in f.images]
        )

    def contains(self, x: GroupElement) -> bool:
        return self.subgroup.contains(x)


def orthogonal_complement(form: LinkingForm, sub) -> Subform:
    """{z : b(s, z) = 0 for all s in S} with the restricted form.

    ``sub`` may be a Subgroup, Subform, or iterable of elements.  One
    congruence row per invariant-factor generator of S suffices.
    """
    if isinstance(sub, Subform):
        subgroup = sub.subgroup
    elif isinstance(sub, Subgroup):
        subgroup = sub
    else:
        subgroup = Subgroup(form.group, list(sub))
    rows = []
    for g in subgroup.decomposition_gens:
        coeffs, D = form.dual_functional_rows(g)
        rows.append((coeffs, D))
    sol = solve_congruence_system(form.group, rows)
    return Subform(form, sol)


def subforms_orthogonal(form: LinkingForm, a: Subform, b: Subform) -> bool:
    """Mutual orthogonality in the strong sense: b-vanishing plus S and T
    intersecting trivially."""
    for ga in a.subgroup.decomposition_gens:
        for gb in b.subgroup.decomposition_gens:
            if not form.evaluate(ga, gb).is_zero():
                return False
    return a.subgroup.intersection(b.subgroup).order == 1


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class FormMorphism:
    """Group hom that preserves the pairing exactly."""

    def __init__(self, source: LinkingForm, target: LinkingForm, images):
        images = list(images)
        hom = GroupHom(source.group, target.group, images)  # validates orders
        for i in range(source.group.rank):
            for j in range(i, source.group.rank):
                got = target.evaluate(images[i], images[j])
                want = source.gram[i][j]
                if got != want:
                    raise InputError(
                        f"images do not preserve the pairing at ({i}, {j}): "
                        f"{got} != {want}"
                    )
        self.source = source
        self.target = target
        self.images = images
        self._hom = hom

    def __call__(self, x: GroupElement) -> GroupElement:
        return self._hom(x)

    def group_hom(self) -> GroupHom:
        return self._hom

    @cached_property
    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target.group, self.images)

    @cached_property
    def image_subform(self) -> Subform:
        return Subform(self.target, self.image_subgroup)

    def image_key(self) -> frozenset:
        """Canonical key identifying the image subgroup setwise."""
        return frozenset(e.coeffs for e in self.image_subgroup.elements())

    def compose(self, inner: "FormMorphism") -> "FormMorphism":
        if inner.target != self.source:
            raise InputError("morphisms do not compose")
        return FormMorphism(
            inner.source, self.target, [self(img) for img in inner.images]
        )

    def is_automorphism(self) -> bool:
        return (
            self.source == self.target
            and self.image_subgroup.order == self.target.group.order
        )

    def inverse(self) -> "FormMorphism":
        inv = self._hom.inverse()
        return FormMorphism(self.target, self.source, inv.images)

    # Conveniences for morphisms out of a standard block W_k.

    @property
    def block_k(self) -> int:
        if self.source.group.rank != 2 or self.source.group.orders[0] != self.source.group.orders[1]:
            raise InputError("source is not a standard block")
        return self.source.group.orders[0]

    @property
    def x(self) -> GroupElement:
        return self.images[0]

    @property
    def y(self) -> GroupElement:
        return self.images[1]

    def key(self) -> tuple:
        return tuple(img.coeffs for img in self.images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(self.images)))

    def __str__(self) -> str:
        xs = ",".join(str(c) for c in self.images[0].coeffs)
        ys = ",".join(str(c) for c in self.images[1].coeffs) if len(self.images) > 1 else ""
        return f"({xs}|{ys})"


def identity_morphism(form: LinkingForm) -> FormMorphism:
    gens = [form.group.generator(i) for i in range(form.group.rank)]
    return FormMorphism(form, form, gens)


def w_morphism(target: LinkingForm, k: int, x: GroupElement, y: GroupElement) -> FormMorphism:
    """Morphism W_k -> target sending the two block generators to x, y."""
    return FormMorphism(standard_w(k), target, [x, y])


# ---------------------------------------------------------------------------
# Enumeration of morphisms from W_k
# ---------------------------------------------------------------------------


def count_w_morphisms(form: LinkingForm, k: int) -> int:
    """Number of pairs (x, y) with kx = ky = 0 and b(x, y) = 1/k.

    Together with strictness those conditions are exactly the morphisms
    W_k -> form.  Counted row by row through the solvability arithmetic of
    the single congruence b(x, y) = 1/k (``LinkingForm._w_counts``), so no
    pair scan is needed.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    if form.denominator % k != 0:  # includes rank 0, where D = 1
        return 0
    return int(form._w_counts(k)[-1])


def morphisms_from_w(
    form: LinkingForm, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> list[FormMorphism]:
    """All morphisms W_k -> form, ordered lexicographically by (x, y)."""
    total = count_w_morphisms(form, k)
    if total > cap:
        raise CapExceeded(
            f"{total} morphisms exceed cap {cap}", needed=total, cap=cap
        )
    if total == 0:
        return []
    X, N = form._w_rows(k)
    D = form.denominator
    pairs, found = _kernels.pairs_hitting(X, N, D, D // k, total)
    assert found == total
    out = []
    for i, j in pairs.tolist():
        x = form.group.element(tuple(X[i].tolist()))
        y = form.group.element(tuple(X[j].tolist()))
        out.append(w_morphism(form, k, x, y))
    return out


def first_w_morphism(form: LinkingForm, k: int) -> FormMorphism | None:
    """Lexicographically first morphism W_k -> form, or None."""
    if k < 2:
        raise InputError("k must be >= 2")
    D = form.denominator
    if form.group.rank == 0 or D % k != 0:
        return None
    X, N = form._w_rows(k)
    i, j = _kernels.first_pair(X, N, D, D // k)
    if i < 0:
        return None
    x = form.group.element(tuple(X[i].tolist()))
    y = form.group.element(tuple(X[j].tolist()))
    return w_morphism(form, k, x, y)


def w_morphism_by_index(form: LinkingForm, k: int, index: int) -> FormMorphism:
    """The index-th morphism in the lexicographic enumeration.

    The first call for (form, k) caches the torsion matrix and the
    cumulative per-row solution counts on the form: 8 bytes per torsion
    row on top of the matrix.  A lookup then finds its row x by binary
    search, O(log |M[k]|), and scans that one row for y; the pair table is
    never materialized.  Forms outside the int64 gate take the same steps
    in exact integer arithmetic.
    """
    total = count_w_morphisms(form, k)
    if not 0 <= index < total:
        raise InputError(f"index {index} out of range ({total} morphisms)")
    X, N = form._w_rows(k)
    cum = form._w_counts(k)
    D = form.denominator
    i = int(np.searchsorted(cum, index, side="right"))
    seen = int(cum[i - 1]) if i else 0
    hits = np.flatnonzero((X @ ((X[i] @ N) % D)) % D == D // k)
    x = form.group.element(tuple(X[i].tolist()))
    y = form.group.element(tuple(X[hits[index - seen]].tolist()))
    return w_morphism(form, k, x, y)


# ---------------------------------------------------------------------------
# Splitting along a block morphism
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    image: Subform
    complement: Subform
    retraction: GroupHom


def split_along(f: FormMorphism) -> SplitResult:
    """Split M = f(W_k) (+) f(W_k)^perp off a morphism f : W_k -> M.

    The retraction sends z to (t1, t2) where b(z, y) = t1/k and
    b(x, z) = t2/k; it restricts to the identity on the image (through f)
    and its kernel is exactly the orthogonal complement.  This works for
    arbitrary M, singular or not, because W_k itself is nonsingular.
    """
    M = f.target
    k = f.block_k
    x, y = f.x, f.y
    wgroup = f.source.group
    images = []
    for i in range(M.group.rank):
        e = M.group.generator(i)
        t1 = M.evaluate(e, y).numerator_over(k)
        t2 = M.evaluate(x, e).numerator_over(k)
        images.append(wgroup.element((t1, t2)))
    retraction = GroupHom(M.group, wgroup, images)
    assert retraction(x).coeffs == (1, 0) and retraction(y).coeffs == (0, 1), (
        "retraction must restrict to the identity through f"
    )
    image = f.image_subform
    complement = orthogonal_complement(M, image.subgroup)
    assert image.order * complement.order == M.group.order
    assert image.subgroup.intersection(complement.subgroup).order == 1
    return SplitResult(image=image, complement=complement, retraction=retraction)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _crt_split_block(form: LinkingForm, x: GroupElement, y: GroupElement, e: int):
    """Split a W_e pair into orthogonal prime-power pairs.

    For each exact prime power q | e put m = e/q and u = m^-1 mod q; then
    (m x, u m y) is a W_q pair, distinct prime parts pair to integers and
    hence to 0 in Q/Z.
    """
    factors = [p**a for p, a in prime_factorization(e)]
    if len(factors) == 1:
        return [(e, x, y)]
    out = []
    for q in factors:
        m = e // q
        u = pow(m, -1, q)
        xq = x.scale(m)
        yq = y.scale(m * u)
        assert form.evaluate(xq, yq) == QZValue(1, q)
        out.append((q, xq, yq))
    return out


def hyperbolic_basis(form: LinkingForm) -> list[tuple[int, GroupElement, GroupElement]]:
    """Pairwise orthogonal prime-power block pairs spanning the form.

    Returns triples (q, x, y) with q a prime power, b(x, y) = 1/q, blocks
    orthogonal to each other, and the spans exhausting the group.  Requires
    a nonsingular form; raises SingularFormError otherwise.

    The pivot element (1, 1, ..., 1) always has order equal to the group
    exponent e, and nonsingularity makes b(x, -) attain 1/e, so each round
    splits off one W_e block and recurses on its orthogonal complement.
    """
    if form.group.order == 1:
        return []
    if not form.is_nonsingular():
        raise SingularFormError("hyperbolic basis needs a nonsingular form")
    e = form.group.exponent
    D = form.denominator
    if D != e:
        # D always divides e; a nonsingular form attains a functional of
        # order e, so D < e can only mean the radical was nontrivial.
        raise SingularFormError("gram denominator below group exponent")
    x = form.group.element((1,) * form.group.rank)
    coeffs, _ = form.dual_functional_rows(x)
    y = solve_affine_congruence_system(form.group, [(coeffs, D)], [D // e])
    if y is None:
        raise SingularFormError("duality failed to attain 1/e; form is singular")
    out = _crt_split_block(form, x, y, e)
    span = Subgroup(form.group, [x, y])
    comp = orthogonal_complement(form, span)
    for q, xs, ys in hyperbolic_basis(comp.form):
        out.append((q, comp.embed_element(xs), comp.embed_element(ys)))
    return out


@dataclass(frozen=True)
class NormalForm:
    """Multiset of prime-power block parameters, as ((p, n), multiplicity)."""

    summands: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_multiset(cls, qs) -> "NormalForm":
        counts: dict[tuple[int, int], int] = {}
        for q in qs:
            factors = prime_factorization(q)
            if len(factors) != 1:
                raise InputError(f"block parameter {q} is not a prime power >= 2")
            counts[factors[0]] = counts.get(factors[0], 0) + 1
        return cls(tuple(sorted(counts.items())))

    def block_multiset(self) -> list[int]:
        out = []
        for (p, n), mult in self.summands:
            out.extend([p**n] * mult)
        return sorted(out)

    def reconstruct(self) -> LinkingForm:
        blocks = [standard_w(q) for q in self.block_multiset()]
        if not blocks:
            return LinkingForm(FinAbGroup(()), [], name="0")
        return direct_sum(*blocks, name=str(self))

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for (p, n), mult in self.summands:
            q = p**n
            parts.append(f"W_{q}" + (f"^{mult}" if mult > 1 else ""))
        return " (+) ".join(parts)


def normal_form(form: LinkingForm) -> NormalForm:
    """Classify a nonsingular form as a sum of prime-power blocks W_{p^n}."""
    basis = hyperbolic_basis(form)
    return NormalForm.from_multiset(q for q, _, _ in basis)


def are_isomorphic(a: LinkingForm, b: LinkingForm, brute_cap: int = 6561) -> bool:
    """Form isomorphism test.

    Nonsingular forms compare by classification.  Singular forms fall back
    to a backtracking generator-image search, feasible below ``brute_cap``
    on the group order.
    """
    ga = full_subgroup(a.group).invariant_factors
    gb = full_subgroup(b.group).invariant_factors
    if ga != gb:
        return False
    rad_a, rad_b = a.radical(), b.radical()
    if rad_a.order != rad_b.order:
        return False
    if rad_a.order == 1:
        return normal_form(a) == normal_form(b)
    if a.group.order > brute_cap:
        raise CapExceeded(
            f"brute-force isomorphism search needs order <= {brute_cap}",
            needed=a.group.order,
            cap=brute_cap,
        )
    return _brute_force_isomorphic(a, b)


def full_subgroup(group: FinAbGroup) -> Subgroup:
    return Subgroup(group, [group.generator(i) for i in range(group.rank)])


def _brute_force_isomorphic(a: LinkingForm, b: LinkingForm) -> bool:
    """Backtracking search for a form isomorphism, largest generators first."""
    whole = full_subgroup(a.group)
    gens = whole.decomposition_gens
    orders = whole.invariant_factors
    idx = sorted(range(len(gens)), key=lambda i: -orders[i])
    gens = [gens[i] for i in idx]
    orders = [orders[i] for i in idx]
    by_order: dict[int, list[GroupElement]] = {}
    for e in b.group.enumerate_elements(cap=10**7):
        by_order.setdefault(e.order, []).append(e)
    grams = [[a.evaluate(gi, gj) for gj in gens] for gi in gens]

    chosen: list[GroupElement] = []

    def rec(i: int) -> bool:
        if i == len(gens):
            img = Subgroup(b.group, chosen)
            return img.order == b.group.order
        for cand in by_order.get(orders[i], []):
            ok = True
            for j in range(i):
                if b.evaluate(chosen[j], cand) != grams[j][i]:
                    ok = False
                    break
            if ok:
                chosen.append(cand)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# Kernels of maps to C_k and automorphism extension
# ---------------------------------------------------------------------------


def kernel_form(form: LinkingForm, phi: GroupHom) -> Subform:
    """Restricted form on ker(phi) for phi : M -> Z/k (as the cyclic group
    standing in for the subgroup of Q/Z generated by 1/k)."""
    if phi.source != form.group:
        raise InputError("phi is not defined on the form's group")
    if phi.target.rank > 1:
        raise InputError("phi must land in a cyclic group")
    return Subform(form, phi.kernel())


def extend_to_automorphism(form: LinkingForm, v: GroupElement) -> FormMorphism:
    """Automorphism phi of W_k^(g+1) whose first block span contains v.

    Writes v = m v' with v' primitive, completes v' to a block (w, v'),
    splits, classifies the complement (necessarily W_k^g) and reassembles
    prime-power blocks into standard W_k blocks by CRT.  The form must be
    presented as the standard sum of blocks; v = 0 returns the identity.
    """
    group = form.group
    r = group.rank
    if r < 2 or r % 2 != 0:
        raise InputError("form is not a standard block power")
    k = group.orders[0]
    if any(d != k for d in group.orders):
        raise InputError("form is not a standard block power")
    if form != w_power(k, r // 2) and form.gram != w_power(k, r // 2).gram:
        raise InputError("form must be presented as a standard sum of blocks")
    if v.group != group:
        raise InputError("v does not belong to the form's group")
    if v.is_zero():
        return identity_morphism(form)
    m = math.gcd(k, *v.coeffs)
    vprime = group.element(tuple(c // m for c in v.coeffs))
    # b(w, v') = 1/k has a solution because v' is primitive in a
    # nonsingular k-torsion form.
    N = form.numerators
    D = form.denominator
    coeffs = [sum(N[i][t] * vprime.coeffs[t] for t in range(r)) % D for i in range(r)]
    w = solve_affine_congruence_system(group, [(coeffs, D)], [D // k])
    if w is None:
        raise SingularFormError("could not complete v' to a block; form is singular")
    f = w_morphism(form, k, w, vprime)
    comp = split_along(f).complement
    blocks = [
        (q, comp.embed_element(xs), comp.embed_element(ys))
        for q, xs, ys in hyperbolic_basis(comp.form)
    ]
    per_prime: dict[int, list[tuple[int, GroupElement, GroupElement]]] = {}
    for q, xs, ys in blocks:
        p = prime_factorization(q)[0][0]
        per_prime.setdefault(p, []).append((q, xs, ys))
    g = r // 2 - 1
    images = [w, vprime]
    primes = sorted(per_prime)
    for plist in per_prime.values():
        if len(plist) != g:
            raise SingularFormError("complement did not classify as a block power")
    for i in range(g):
        xsum = group.zero()
        ysum = group.zero()
        for p in primes:
            q, xs, ys = per_prime[p][i]
            u = pow(k // q, -1, q)
            xsum = xsum + xs
            ysum = ysum + ys.scale(u)
        images.extend([xsum, ysum])
    phi = FormMorphism(form, form, images)
    if not phi.is_automorphism():
        raise SingularFormError("assembled morphism failed to be bijective")
    assert phi(form.group.element((0, m) + (0,) * (r - 2))) == v
    return phi
