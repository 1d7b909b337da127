"""Strictly skew linking forms b : M x M -> Q/Z on finite abelian groups.

A form is stored as integers: D, the lcm of the orders of its Gram entries,
and the numerators N reduced mod D, with b(e_i, e_j) = N[i][j] / D on the
group's generators.  The constructors check N[i][i] = 0, N[j][i] = -N[i][j]
and d_i N[i][j] = 0 mod D; bilinearity then pins down b everywhere, and
strictness (b(x, x) = 0 for every x, including 2-torsion) follows.  The
``QZValue`` matrix ``gram`` is derived from (D, N) for documents and
callers, and ``evaluate`` returns a ``QZValue``; inside the package every
pairing is an integer numerator, through ``dual_functional_rows``.  The
bulk enumeration paths hand ``linkforms._kernels`` arrays of one dtype per
form: int64 where rank * dmax * D < 2**63, exact Python ints elsewhere.
Complements and splittings run exact through the Smith-normal-form
machinery in ``linkforms.groups``; the one congruence b(x, y) = 1/k that
enumeration, classification and automorphism extension solve is counted
out by ``_partner``; morphism i from W_k is partner i mod C of good row
i // C, C = |M[k]|/k.  Classification splits a form into prime-power
blocks; automorphism extension needs no classification, since it takes
each further W_k block straight from the orthogonal complement of the
blocks it has.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .errors import (
    CapExceeded,
    InputError,
    InvariantError,
    NonStrictFormError,
    SingularFormError,
)
from .groups import (
    ENUMERATION_CAP,
    FinAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    invariant_chain,
    solve_congruence_system,
)
from .qz import QZValue
from .snf import prime_factorization

DEFAULT_VERTEX_CAP = 500_000
BRUTE_FORCE_ISO_CAP = 6561


def _checked_torsion_count(group: FinAbGroup, k: int) -> int:
    """|M[k]|, refused with CapExceeded past ``ENUMERATION_CAP``."""
    count = group.torsion_count(k)
    if count > ENUMERATION_CAP:
        raise CapExceeded(
            f"{count} torsion elements exceed cap {ENUMERATION_CAP}",
            needed=count,
            cap=ENUMERATION_CAP,
        )
    return count


class LinkingForm:
    """A strictly skew bilinear form with values in Q/Z."""

    def __init__(self, group: FinAbGroup, gram, name: str | None = None):
        rows = [tuple(row) for row in gram]
        r = group.rank
        if len(rows) != r or any(len(row) != r for row in rows):
            raise InputError(f"gram matrix must be {r} x {r}")
        if not all(isinstance(v, QZValue) for row in rows for v in row):
            raise InputError("gram entries must be QZValue")
        D = math.lcm(*(v.den for row in rows for v in row))
        self._store(group, D, [[v.num * (D // v.den) for v in row] for row in rows], name)

    @classmethod
    def _from_numerators(cls, group: FinAbGroup, D: int, N, name: str | None = None):
        """The form with b(e_i, e_j) = N[i][j] / D, checked as the public
        constructor checks it.  D need not be minimal nor N reduced: both
        are brought to the (D, N) that ``LinkingForm`` stores for a gram."""
        form = cls.__new__(cls)
        form._store(group, D, N, name)
        return form

    def _store(self, group: FinAbGroup, D: int, N, name: str | None) -> None:
        N = [[n % D for n in row] for row in N]
        g = math.gcd(D, *(n for row in N for n in row))
        D //= g
        N = tuple(tuple(n // g for n in row) for row in N)
        for i, (d, row) in enumerate(zip(group.orders, N)):
            for j, n in enumerate(row):
                if i == j and n:
                    raise NonStrictFormError(
                        f"diagonal gram entry b(e_{i}, e_{i}) = {QZValue(n, D)} must vanish"
                    )
                if N[j][i] != -n % D:
                    raise InputError(
                        f"gram is not skew at ({i}, {j}): "
                        f"{QZValue(N[j][i], D)} != -({QZValue(n, D)})"
                    )
                # b(d_i e_i, e_j) = 0 pins the entry's order to divide d_i.
                if d * n % D:
                    raise InputError(
                        f"gram entry b(e_{i}, e_{j}) = {QZValue(n, D)} is not killed by "
                        f"generator order {d}"
                    )
        self.group = group
        self.denominator = D
        self.numerators = N
        self.name = name
        self._good_rows_cache: dict[int, np.ndarray] = {}

    @cached_property
    def gram(self) -> tuple[tuple[QZValue, ...], ...]:
        D = self.denominator
        return tuple(tuple(QZValue(n, D) for n in row) for row in self.numerators)

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
        return QZValue(self._pairings(x, [y])[0], self.denominator)

    def _pairings(self, x: GroupElement, ys) -> list[int]:
        """Numerators over D, in [0, D), of b(x, y) for each y of ``ys``."""
        c, D = self.dual_functional_rows(x)
        return [sum(map(operator.mul, c, y.coeffs)) % D for y in ys]

    # -- structure -----------------------------------------------------------

    def radical(self) -> Subgroup:
        """{z : b(z, -) = 0}, the kernel of the duality map."""
        D = self.denominator
        return solve_congruence_system(self.group, [(col, D) for col in zip(*self.numerators)])

    def is_nonsingular(self) -> bool:
        """Duality map into Hom(M, Q/Z) injective; bijective follows by finiteness."""
        return self.radical().order == 1

    def dual_functional_rows(self, x: GroupElement) -> tuple[list[int], int]:
        """Coefficients c = x N mod D, with b(x, z) = (sum c_i z_i)/D, plus D.

        N is skew, so (x N)_i = -(N x)_i: one row product per coefficient.
        """
        D = self.denominator
        return [-sum(map(operator.mul, row, x.coeffs)) % D for row in self.numerators], D

    def torsion_matrix(self, k: int):
        """Array of {z : k z = 0} coefficients in lexicographic order, in
        the dtype of ``_numerator_array``."""
        return self._torsion_rows(k, 0, _checked_torsion_count(self.group, k))

    def _torsion_rows(self, k: int, start: int, stop: int):
        """Rows start, ..., stop - 1 of ``torsion_matrix(k)``, each made
        from the mixed-radix digits of its index over the axis sizes
        gcd(d_j, k), last axis fastest, times d_j / gcd(d_j, k); no other
        row is built."""
        # Built column by column into contiguous memory (the transpose of
        # the rows); stop <= ENUMERATION_CAP < 2^31, and int32 floor
        # division is several times faster than np.divmod on int64.
        columns = np.empty((self.group.rank, stop - start), dtype=self._numerator_array.dtype)
        index = np.arange(start, stop, dtype=np.int32)
        for j in reversed(range(self.group.rank)):
            d = self.group.orders[j]
            n = math.gcd(d, k)
            quotient = index // n
            columns[j] = index - quotient * n
            columns[j] *= d // n
            index = quotient
        return columns.T

    @cached_property
    def _numerator_array(self):
        """N as an array, the one place that picks the dtype of the bulk
        paths: int64 inside the int64 gate, exact Python ints
        (``dtype=object``) outside it, where the same kernel expressions run
        exactly."""
        N = self._np_numerators
        return np.array(self.numerators, dtype=object) if N is None else N

    def _row_gcds(self, k: int, start: int, stop: int):
        """gcd(D, (x N mod D) * step) for the rows x = start, ..., stop - 1
        of ``torsion_matrix(k)``, step_j = d_j / gcd(d_j, k); only this
        block of rows is built (``_torsion_rows``), and its temporaries are
        freed on return, before the next block's are made."""
        N = self._numerator_array
        X = self._torsion_rows(k, start, stop)
        XN = X @ N
        XN %= self.denominator
        XN *= np.array([d // math.gcd(d, k) for d in self.group.orders], dtype=N.dtype)
        return np.gcd(np.gcd.reduce(XN, axis=1), self.denominator)

    def _good_rows(self, k: int):
        """Ascending int32 indices of the rows x of ``torsion_matrix(k)``
        with a solution y of b(x, y) = 1/k, cached per k.  Requires k | D.
        Each has |M[k]|/k: b(x, -) maps M[k] onto the cyclic group of order
        D/G, G = gcd(D, c_j step_j) (``_row_gcds``), and
        - k x = 0, so k b(x, y) = 0 for every y: D/k divides G;
        - b(x, y) = 1/k is solvable only when G divides D/k, so G = D/k;
        - then each of the k values j/k is hit by |M[k]|/k y's.
        Written in place block by block (``_kernels._BLOCK_CELLS`` cells),
        after the enumeration cap, which keeps indices below 2^31.
        """
        good = self._good_rows_cache.get(k)
        if good is None:
            count = _checked_torsion_count(self.group, k)
            rows = max(1, _kernels._BLOCK_CELLS // max(self.group.rank, 1))
            good = np.empty(count, dtype=np.int32)
            n = 0
            for start in range(0, count, rows):
                g = self._row_gcds(k, start, min(start + rows, count))
                hits = start + np.flatnonzero(g == self.denominator // k)
                good[n:n + len(hits)] = hits
                n += len(hits)
            good.resize(n, refcheck=False)
            self._good_rows_cache[k] = good
        return good

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinkingForm)
            and self.group == other.group
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.group, self.denominator, self.numerators))

    def __str__(self) -> str:
        return self.name or f"form on {self.group}"


@lru_cache(maxsize=64, typed=True)
def standard_w(k: int, name: str | None = None) -> LinkingForm:
    """The rank-two building block on (Z/k)^2 with b(rho, sigma) = 1/k,
    built once per (k, name) in a bounded memo: vertex lookups share it."""
    if k < 2:
        raise InputError(f"block parameter k = {k} must be >= 2")
    return LinkingForm._from_numerators(
        FinAbGroup.of(k, k), k, [[0, 1], [-1, 0]], name=name or f"W_{k}"
    )


def direct_sum(*forms: LinkingForm, name: str | None = None) -> LinkingForm:
    group = FinAbGroup(tuple(d for f in forms for d in f.group.orders))
    D = math.lcm(*(f.denominator for f in forms))
    N = []
    offset = 0
    for f in forms:
        scale, pad = D // f.denominator, group.rank - offset - f.group.rank
        N += [[0] * offset + [scale * n for n in row] + [0] * pad for row in f.numerators]
        offset += f.group.rank
    if name is None and all(f.name for f in forms) and forms:
        name = " (+) ".join(f.name for f in forms)
    return LinkingForm._from_numerators(group, D, N, name=name)


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
    not); its numerators on the subgroup's invariant-factor generators g_a
    are g_a N g_b over the ambient D, which ``_from_numerators`` brings to
    the restriction's own (possibly smaller) denominator.
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
        N = [self.ambient._pairings(a, gens) for a in gens]
        return LinkingForm._from_numerators(
            self.subgroup.standalone(), self.ambient.denominator, N
        )

    def embed_element(self, x: GroupElement) -> GroupElement:
        if x.group != self.form.group:
            raise InputError("element is not in the subform presentation")
        return self.subgroup.from_sub_coords(x.coeffs)

    def embed_morphism(self, f: "FormMorphism") -> "FormMorphism":
        """Push a morphism into the subform forward into the ambient form."""
        if f.target != self.form:
            raise InputError("morphism does not land in this subform")
        return FormMorphism(
            f.source, self.ambient, [self.embed_element(img) for img in f.images]
        )


def orthogonal_complement(form: LinkingForm, subgroup: Subgroup) -> Subform:
    """{z : b(s, z) = 0 for all s in S} with the restricted form.

    One congruence row per invariant-factor generator of S suffices.
    """
    return solve_complement(form, complement_rows(form, subgroup))


def complement_rows(form: LinkingForm, subgroup: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The coefficients c of the congruences c . z = 0 mod D that cut out
    S^perp, one row x N mod D (``dual_functional_rows``) per
    invariant-factor generator x of S, in their order."""
    return tuple(tuple(form.dual_functional_rows(g)[0]) for g in subgroup.decomposition_gens)


def solve_complement(form: LinkingForm, rows) -> Subform:
    """The subform on {z : c . z = 0 mod D for each row c of ``rows``}, a
    function of the rows alone (``complement_rows``)."""
    D = form.denominator
    return Subform(form, solve_congruence_system(form.group, [(c, D) for c in rows]))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class FormMorphism:
    """Group hom that preserves the pairing exactly."""

    def __init__(self, source: LinkingForm, target: LinkingForm, images):
        images = list(images)
        hom = GroupHom(source.group, target.group, images)  # validates orders
        # Both forms are strictly skew, so the diagonal (0 = 0) and the lower
        # triangle (by skewness) follow from the entries above the diagonal.
        Ds, Dt = source.denominator, target.denominator
        for i, row in enumerate(source.numerators[:-1]):
            got = target._pairings(images[i], images[i + 1:])
            for j, (g, want) in enumerate(zip(got, row[i + 1:]), i + 1):
                if (g * Ds - want * Dt) % (Ds * Dt):
                    raise InputError(
                        f"images do not preserve the pairing at ({i}, {j}): "
                        f"{QZValue(g, Dt)} != {QZValue(want, Ds)}"
                    )
        self.source = source
        self.target = target
        self.images = images
        self._hom = hom

    def __call__(self, x: GroupElement) -> GroupElement:
        return self._hom(x)

    @cached_property
    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target.group, self.images)

    def image_key(self) -> frozenset:
        """Canonical key identifying the image subgroup setwise.

        The image is the span of the generator images, so it is listed
        directly as the sums c_1 img_1 + ... + c_r img_r (reduced mod the
        target orders) over 0 <= c_i < source.orders[i], with no subgroup
        decomposition.
        """
        orders = self.target.group.orders
        span = [(0,) * len(orders)]
        for d, img in zip(self.source.group.orders, self.images):
            # span + c img for c = 1, ..., d - 1, one addition of img at a time
            step = img.coeffs
            shifted, out = span, list(span)
            for _ in range(d - 1):
                shifted = [
                    tuple([(a + b) % o for a, b, o in zip(s, step, orders)])
                    for s in shifted
                ]
                out += shifted
            span = out
        return frozenset(span)

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
    W_k -> form.  Every torsion row with a solution has |M[k]|/k of them
    (``LinkingForm._good_rows``), so no pair scan is needed.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    if form.denominator % k != 0:  # includes rank 0, where D = 1
        return 0
    return len(form._good_rows(k)) * (form.group.torsion_count(k) // k)


def _w_pair_scan(form: LinkingForm, k: int, total: int):
    """``torsion_matrix(k)`` and the row index pairs (i, j) with
    b(x_i, x_j) = 1/k in row-major order, so that pair n is morphism n of
    ``w_morphism_by_index``.  One scan of M[k] x M[k], which must find the
    ``count_w_morphisms`` total or raise InvariantError.  Requires k | D."""
    X, N, D = form.torsion_matrix(k), form._numerator_array, form.denominator
    pairs, found = _kernels.pairs_hitting(X, N, D, D // k, total)
    if found != total:
        raise InvariantError(f"pair scan found {found} morphisms, the row counts {total}")
    return X, pairs


def _w_pairs(form: LinkingForm, k: int, cap: int) -> list[tuple[tuple, tuple]]:
    """Coefficient tuples (x, y) of every morphism W_k -> form, ordered
    lexicographically by (x, y).

    The pairs come from the one checked pair scan, ``_w_pair_scan``.  Each
    tuple is reduced mod the group orders, as ``GroupElement.coeffs`` and
    ``image_key`` are.  Building and checking the ``FormMorphism`` of a
    pair is left to the caller, so that a caller who needs only some of
    them builds only those: ``rank._distinct_image_branches`` builds one
    per image, which is sound because a morphism from the nonsingular W_k
    is injective.
    """
    total = count_w_morphisms(form, k)
    if total > cap:
        raise CapExceeded(
            f"{total} morphisms exceed cap {cap}", needed=total, cap=cap
        )
    if total == 0:
        return []
    X, pairs = _w_pair_scan(form, k, total)
    rows = [tuple(row) for row in X.tolist()]
    return [(rows[i], rows[j]) for i, j in pairs.tolist()]


def morphisms_from_w(
    form: LinkingForm, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> list[FormMorphism]:
    """All morphisms W_k -> form, ordered lexicographically by (x, y)."""
    pairs = _w_pairs(form, k, cap)
    source = standard_w(k)
    element = form.group.element
    return [FormMorphism(source, form, [element(x), element(y)]) for x, y in pairs]


def _partner(form: LinkingForm, k: int, x: GroupElement, offset: int) -> GroupElement | None:
    """The offset-th solution y of b(x, y) = 1/k in M[k], in lexicographic
    order, for x in M[k]; None when x has none.  Requires k | D.  Counted
    out digit by digit in O(rank) exact integer steps, with no scan of M[k]:

    Write y_j = t_j step_j with 0 <= t_j < n_j = gcd(d_j, k) and
    step_j = d_j / n_j, and put a_j = c_j step_j mod D for c = x N mod D.
    The partners are the t with sum_j a_j t_j = D/k mod D, in lexicographic
    order of t.  Since n_i a_i = 0 mod D, the suffix sums
    t -> sum_{i>=j} a_i t_i are a homomorphism onto the multiples of
    G_j = gcd(D, a_j, a_{j+1}, ...), and each multiple is hit by
    C_j = P_j G_j / D suffixes, P_j = n_j ... n_r.  So x has partners
    exactly when G_0 divides D/k.  Then, with rest a multiple of G_j, the
    digits t_j that some suffix completes solve a_j t_j = rest mod G_{j+1},
    and G_j = gcd(a_j, G_{j+1}): one progression t0 + q m,
    m = G_{j+1} / G_j, each value followed by C_{j+1} partners, and the
    offset picks q.  An offset past the row's partners raises
    InvariantError.
    """
    c, D = form.dual_functional_rows(x)
    orders = form.group.orders
    n = [math.gcd(d, k) for d in orders]
    a = [cj * (d // nj) % D for cj, d, nj in zip(c, orders, n)]
    # suffix gcds G[j] = gcd(D, a_j, ...) and digit counts P[j] = n_j ... n_r
    r = len(orders)
    G, P = [D] * (r + 1), [1] * (r + 1)
    for j in reversed(range(r)):
        G[j], P[j] = math.gcd(G[j + 1], a[j]), P[j + 1] * n[j]
    rest = D // k
    if rest % G[0]:
        return None
    coeffs = []
    for j, (aj, nj, d) in enumerate(zip(a, n, orders)):
        m = G[j + 1] // G[j]
        t0 = rest // G[j] * pow(aj // G[j], -1, m) % m
        q, offset = divmod(offset, P[j + 1] * G[j + 1] // D)
        t = t0 + q * m
        if t >= nj:
            raise InvariantError(f"partner digit {j} of row {x.coeffs} exceeds {nj - 1}")
        coeffs.append(t * (d // nj))
        rest = (rest - aj * t) % D
    return form.group.element(coeffs)


def _torsion_row(group: FinAbGroup, sizes, i: int) -> GroupElement:
    """Row i of ``torsion_matrix(k)``, with sizes[j] = gcd(d_j, k), in
    exact integers: ``LinkingForm._torsion_rows`` for one row, with no
    array built."""
    coeffs = []
    for d, n in zip(reversed(group.orders), reversed(sizes)):
        i, t = divmod(i, n)
        coeffs.append(t * (d // n))
    return group.element(coeffs[::-1])


def first_w_morphism(form: LinkingForm, k: int) -> FormMorphism | None:
    """Lexicographically first morphism W_k -> form, or None.

    Walks the k-torsion rows lazily, in ``torsion_matrix`` order, up to
    the first one with a partner (``_partner``), O(rank^2) per row; each
    row is read off its index (``_torsion_row``), so no torsion array or
    axis is built or cached on the form.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    if form.denominator % k != 0:  # includes rank 0, where D = 1
        return None
    sizes = [math.gcd(d, k) for d in form.group.orders]
    for i in range(math.prod(sizes)):
        x = _torsion_row(form.group, sizes, i)
        y = _partner(form, k, x, 0)
        if y is not None:
            return w_morphism(form, k, x, y)
    return None


def w_morphism_by_index(form: LinkingForm, k: int, index: int) -> FormMorphism:
    """The index-th morphism in the lexicographic enumeration: partner
    index mod C of good row index // C, C = |M[k]|/k, with the good rows
    cached on the form (``LinkingForm._good_rows``, 4 bytes each).  x is
    read off its row index (``_torsion_row``) and y counted out by
    ``_partner``: no search, no scan of M[k]; ``w_morphism`` checks them.
    """
    total = count_w_morphisms(form, k)
    if not 0 <= index < total:
        raise InputError(f"index {index} out of range ({total} morphisms)")
    row, offset = divmod(index, form.group.torsion_count(k) // k)
    i = int(form._good_rows(k)[row])
    x = _torsion_row(form.group, [math.gcd(d, k) for d in form.group.orders], i)
    y = _partner(form, k, x, offset)
    if y is None:
        raise InvariantError(f"row {i} of index {index} has no solution")
    return w_morphism(form, k, x, y)


def w_morphism_index(form: LinkingForm, k: int, f: FormMorphism) -> int:
    """Inverse of ``w_morphism_by_index`` on f = (x, y): x's rank among
    the good rows times C, plus y's offset among x's partners, which ascend
    with it, found by bisection over ``_partner``.  InvariantError when x
    has no partner or y is not one, which a morphism from W_k rules out.
    """
    i = 0
    for c, d in zip(f.x.coeffs, form.group.orders):
        i = i * math.gcd(d, k) + c * math.gcd(d, k) // d
    good = form._good_rows(k)
    row = int(np.searchsorted(good, i))
    if row == len(good) or good[row] != i:
        raise InvariantError(f"row {f.x.coeffs} has no partner")
    C = form.group.torsion_count(k) // k
    offset = bisect.bisect_left(range(C), f.y.coeffs, key=lambda o: _partner(form, k, f.x, o).coeffs)
    if offset == C or _partner(form, k, f.x, offset) != f.y:
        raise InvariantError(f"y = {f.y.coeffs} is not a partner of x = {f.x.coeffs}")
    return row * C + offset


# ---------------------------------------------------------------------------
# Splitting along a block morphism
# ---------------------------------------------------------------------------


def _retraction(f: FormMorphism) -> GroupHom:
    """The retraction M -> W_k of ``split_along``, checked to restrict to
    the identity through f."""
    M = f.target
    k = f.block_k
    # b(e_i, y) = -(y N)_i / D and b(x, e_i) = (x N)_i / D lie in <1/k>.
    cy, D = M.dual_functional_rows(f.y)
    cx, _ = M.dual_functional_rows(f.x)
    if any(c * k % D for c in cx + cy):
        raise InvariantError("pairings with block generators must lie in <1/k>")
    images = [f.source.group.element((-a * k // D, b * k // D)) for a, b in zip(cy, cx)]
    retraction = GroupHom(M.group, f.source.group, images)
    if retraction(f.x).coeffs != (1, 0) or retraction(f.y).coeffs != (0, 1):
        raise InvariantError("retraction must restrict to the identity through f")
    return retraction


def split_along(f: FormMorphism) -> Subform:
    """Split M = f(W_k) (+) f(W_k)^perp off a morphism f : W_k -> M and
    return the complement f(W_k)^perp; the image is ``f.image_subgroup``.

    Two steps: the solve (``orthogonal_complement`` of the image, a
    function of its congruence rows alone, so a caller may share one solve
    between morphisms whose images give the same rows) and the check of
    that complement against f itself (``check_split``), which every
    morphism must pass on its own.  This works for arbitrary M, singular
    or not, because W_k itself is nonsingular.
    """
    complement = orthogonal_complement(f.target, f.image_subgroup)
    check_split(f, complement)
    return complement


def check_split(f: FormMorphism, complement: Subform) -> None:
    """Raise InvariantError unless M = f(W_k) (+) complement.

    The retraction r sends z to (t1, t2) where b(z, y) = t1/k and
    b(x, z) = t2/k; it restricts to the identity on the image (through f)
    and its kernel is exactly the orthogonal complement.  The orders of
    image and complement must multiply to |M|; each is the product of its
    invariant factors, read off the decompositions that the complement's
    congruence rows and the retraction test below use anyway, so the check
    runs no elimination of its own.  The intersection of image and
    complement is certified trivial by the complement generators lying in
    ker r: then z = f(w) in both gives w = r(f(w)) = r(z) = 0.  The same
    test rejects a complement that is not orthogonal to the image, since
    ker r is exactly its complement.
    """
    retraction = _retraction(f)
    orders = f.image_subgroup.invariant_factors + complement.subgroup.invariant_factors
    if math.prod(orders) != f.target.group.order:
        raise InvariantError("image and complement orders must multiply to |M|")
    if not all(retraction(z).is_zero() for z in complement.subgroup.decomposition_gens):
        raise InvariantError("image and complement must intersect trivially")


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
        if q * form._pairings(xq, [yq])[0] != form.denominator:
            raise InvariantError(f"prime-power part of a W_{e} pair does not pair to 1/{q}")
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
    y = _partner(form, e, x, 0)
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


def are_isomorphic(a: LinkingForm, b: LinkingForm) -> bool:
    """Form isomorphism test.

    Nonsingular forms compare by classification.  Singular forms fall back
    to a backtracking generator-image search, feasible up to
    ``BRUTE_FORCE_ISO_CAP`` on the group order.
    """
    if invariant_chain(a.group.orders) != invariant_chain(b.group.orders):
        return False
    rad_a, rad_b = a.radical(), b.radical()
    if rad_a.order != rad_b.order:
        return False
    if rad_a.order == 1:
        return normal_form(a) == normal_form(b)
    if a.group.order > BRUTE_FORCE_ISO_CAP:
        raise CapExceeded(
            f"brute-force isomorphism search needs order <= {BRUTE_FORCE_ISO_CAP}",
            needed=a.group.order,
            cap=BRUTE_FORCE_ISO_CAP,
        )
    return _brute_force_isomorphic(a, b)


def full_subgroup(group: FinAbGroup) -> Subgroup:
    return Subgroup(group, [group.generator(i) for i in range(group.rank)])


def _brute_force_isomorphic(a: LinkingForm, b: LinkingForm) -> bool:
    """Backtracking search for a form isomorphism, largest generators first."""
    # The values of a form generate the cyclic subgroup of order D of Q/Z,
    # so isomorphic forms share D and an isomorphism keeps every numerator.
    if a.denominator != b.denominator:
        return False
    whole = full_subgroup(a.group)
    gens = whole.decomposition_gens
    orders = whole.invariant_factors
    idx = sorted(range(len(gens)), key=lambda i: -orders[i])
    gens = [gens[i] for i in idx]
    orders = [orders[i] for i in idx]
    by_order: dict[int, list[GroupElement]] = {}
    for e in b.group.enumerate_elements():
        by_order.setdefault(e.order, []).append(e)
    grams = [a._pairings(gi, gens) for gi in gens]

    chosen: list[GroupElement] = []

    def rec(i: int) -> bool:
        if i == len(gens):
            img = Subgroup(b.group, chosen)
            return img.order == b.group.order
        for cand in by_order.get(orders[i], []):
            ok = True
            for j in range(i):
                if b._pairings(chosen[j], [cand])[0] != grams[j][i]:
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

    Writes v = m v' with v' primitive and completes v' to a block (w, v').
    Each further block is the first W_k morphism of the orthogonal
    complement of the blocks so far: by cancellation (Wall 1963) that
    complement is again a power of W_k, so no classification is needed.
    The form must be presented as the standard sum of blocks; v = 0
    returns the identity.
    """
    group = form.group
    r = group.rank
    if r < 2 or r % 2 != 0:
        raise InputError("form is not a standard block power")
    k = group.orders[0]
    if any(d != k for d in group.orders):
        raise InputError("form is not a standard block power")
    if form != w_power(k, r // 2):
        raise InputError("form must be presented as a standard sum of blocks")
    if v.group != group:
        raise InputError("v does not belong to the form's group")
    if v.is_zero():
        return identity_morphism(form)
    m = math.gcd(k, *v.coeffs)
    # v / m need not be primitive when k is composite; adding t k/m to its
    # first coordinate keeps m v' = v, and a prime dividing gcd(k, v / m)
    # cannot divide k/m, so some t < k leaves no prime of k in common.
    c = [a // m for a in v.coeffs]
    c[0] += k // m * next(t for t in range(k) if math.gcd(k, c[0] + t * k // m, *c[1:]) == 1)
    vprime = group.element(c)
    # b(w, v') = 1/k has a solution because v' is primitive in a
    # nonsingular k-torsion form; b(w, v') = b(-v', w) by skewness.
    w = _partner(form, k, vprime.scale(-1), 0)
    if w is None:
        raise SingularFormError("could not complete v' to a block; form is singular")
    images = [w, vprime]
    for _ in range(r // 2 - 1):
        comp = orthogonal_complement(form, Subgroup(group, images))
        b = first_w_morphism(comp.form, k)
        if b is None:
            raise SingularFormError("complement has no W_k block; form is singular")
        images += comp.embed_morphism(b).images
    phi = FormMorphism(form, form, images)
    if not phi.is_automorphism():
        raise SingularFormError("assembled morphism failed to be bijective")
    if phi(form.group.element((0, m) + (0,) * (r - 2))) != v:
        raise InvariantError("automorphism does not carry m times the second generator to v")
    return phi
