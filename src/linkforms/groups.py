"""Finite abelian groups presented as direct sums of cyclic factors.

A group is a tuple of generator orders (each at least 2; the empty tuple is
the trivial group).  Elements are coefficient tuples reduced modulo those
orders.  Subgroups are handled through the lattice dictionary: a subgroup
of Z/d_1 + ... + Z/d_r corresponds to the integer column lattice spanned by
its generators' coefficient vectors together with diag(d), and all
structural questions (order, membership, invariant factors) reduce to
Smith normal form over Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceeded, InputError, InvariantError
from .snf import (
    Matrix,
    integer_kernel_basis,
    invert_unimodular,
    matmul_int,
    column_lattice_index,
    smith_normal_form,
    solve_integer_linear,
)

ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class FinAbGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        for d in self.orders:
            if not isinstance(d, int) or d < 2:
                raise InputError(f"generator order {d!r} must be an integer >= 2")

    @classmethod
    def of(cls, *orders: int) -> "FinAbGroup":
        return cls(tuple(orders))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def order(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coeffs) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def generator(self, i: int) -> "GroupElement":
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return GroupElement(self, tuple(coeffs))

    def enumerate_elements(self, cap: int = ENUMERATION_CAP):
        """Yield all elements in lexicographic coefficient order."""
        if self.order > cap:
            raise CapExceeded(
                f"group of order {self.order} exceeds enumeration cap {cap}",
                needed=self.order,
                cap=cap,
            )
        for coeffs in itertools.product(*(range(d) for d in self.orders)):
            yield GroupElement(self, coeffs)

    def torsion_count(self, k: int) -> int:
        """Number of solutions of k*z = 0."""
        return math.prod(math.gcd(d, k) for d in self.orders)

    def torsion_elements(self, k: int, cap: int = ENUMERATION_CAP):
        """Yield {z : k*z = 0} in lexicographic coefficient order."""
        count = self.torsion_count(k)
        if count > cap:
            raise CapExceeded(
                f"{count} k-torsion elements exceed cap {cap}", needed=count, cap=cap
            )
        axes = []
        for d in self.orders:
            step = d // math.gcd(d, k)
            axes.append(range(0, d, step))
        for coeffs in itertools.product(*axes):
            yield GroupElement(self, coeffs)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup(self.orders + other.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.orders)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.rank:
            raise InputError("coefficient count does not match group rank")
        reduced = tuple(c % d for c, d in zip(self.coeffs, self.group.orders))
        object.__setattr__(self, "coeffs", reduced)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coeffs))

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(self.group, tuple(n * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    @property
    def order(self) -> int:
        """Additive order: lcm over coordinates of d_i / gcd(d_i, c_i)."""
        o = 1
        for c, d in zip(self.coeffs, self.group.orders):
            o = math.lcm(o, d // math.gcd(d, c))
        return o

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise InputError("elements belong to different groups")

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


class GroupHom:
    """Homomorphism given by the images of the source generators."""

    def __init__(self, source: FinAbGroup, target: FinAbGroup, images):
        images = list(images)
        if len(images) != source.rank:
            raise InputError("need one image per source generator")
        for d, img in zip(source.orders, images):
            if img.group != target:
                raise InputError("image lies in the wrong group")
            if any(c * d % o for c, o in zip(img.coeffs, target.orders)):
                raise InputError(
                    f"hom not well defined: order-{d} generator maps to an element "
                    f"whose order does not divide {d}"
                )
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise InputError("element not in the source group")
        out = self.target.zero()
        for c, img in zip(x.coeffs, self.images):
            if c:
                out = out + img.scale(c)
        return out

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.target != self.source:
            raise InputError("homs do not compose")
        return GroupHom(inner.source, self.target, [self(img) for img in inner.images])

    def kernel(self) -> "Subgroup":
        """Kernel as a subgroup of the source.

        h(z) = 0 means one congruence per target generator, with modulus
        that generator's order.
        """
        rows = []
        for j in range(self.target.rank):
            coeffs = [img.coeffs[j] for img in self.images]
            rows.append((coeffs, self.target.orders[j]))
        return solve_congruence_system(self.source, rows)

    def image(self) -> "Subgroup":
        return Subgroup(self.target, self.images)

    def matrix(self) -> Matrix:
        """Column i is the image of source generator i."""
        return [
            [img.coeffs[j] for img in self.images] for j in range(self.target.rank)
        ]

    def is_injective(self) -> bool:
        return self.kernel().order == 1

    def is_isomorphism(self) -> bool:
        return (
            self.source.order == self.target.order
            and self.image().order == self.target.order
        )

    def inverse(self) -> "GroupHom":
        """Inverse of a bijective hom (solves one affine system per generator)."""
        if not self.is_isomorphism():
            raise InputError("hom is not invertible")
        A = self.matrix()
        preimages = []
        for j in range(self.target.rank):
            target_vec = [1 if i == j else 0 for i in range(self.target.rank)]
            rows = list(zip(A, self.target.orders))
            sol = solve_affine_congruence_system(self.source, rows, target_vec)
            if sol is None:
                raise InputError("hom is not invertible")
            preimages.append(sol)
        return GroupHom(self.target, self.source, preimages)


class Subgroup:
    """Subgroup of a FinAbGroup, given by a generating set.

    The backing object is the integer lattice spanned by the generators'
    coefficient columns together with diag(orders); the subgroup is that
    lattice modulo diag(orders).
    """

    def __init__(self, group: FinAbGroup, generators):
        self.group = group
        self.generators = list(generators)
        for g in self.generators:
            if g.group != group:
                raise InputError("generator lies outside the ambient group")

    @cached_property
    def _lattice(self) -> Matrix:
        r = self.group.rank
        cols: list[list[int]] = [list(g.coeffs) for g in self.generators]
        for i, d in enumerate(self.group.orders):
            col = [0] * r
            col[i] = d
            cols.append(col)
        return [[col[i] for col in cols] for i in range(r)]

    @cached_property
    def order(self) -> int:
        if self.group.rank == 0:
            return 1
        return self.group.order // column_lattice_index(self._lattice)

    def contains(self, x: GroupElement) -> bool:
        if x.group != self.group:
            return False
        if self.group.rank == 0:
            return True
        return solve_integer_linear(self._lattice, list(x.coeffs)) is not None

    @cached_property
    def _decomposition(self):
        """Invariant-factor presentation of the subgroup.

        Returns (orders, gens, U, snf_basis) where `orders` are the
        invariant factors >= 2, `gens` are ambient elements generating the
        corresponding cyclic factors, `snf_basis` is the SNF of an r x r
        matrix whose columns are a lattice basis of the subgroup's lattice
        L, and `U` is the unimodular matrix such that coordinates w = U a
        (a = L-basis coordinates) diagonalize L / diag(d).
        """
        r = self.group.rank
        if r == 0:
            return (), [], [], None
        C = self._lattice
        res = smith_normal_form(C)
        # Columns of C @ right; the first r columns form a basis of L.
        CR = matmul_int(C, res.right)
        basis = [[CR[i][j] for j in range(r)] for i in range(r)]
        # Express diag(d) in that basis: M = basis^-1 diag(d), column by column.
        snf_basis = smith_normal_form(basis)
        M_cols = []
        for i, d in enumerate(self.group.orders):
            rhs = [d if t == i else 0 for t in range(r)]
            col = snf_basis.solve(rhs)
            if col is None:
                raise InvariantError("diag(d) must lie in the subgroup lattice")
            M_cols.append(col)
        M = [[M_cols[j][i] for j in range(r)] for i in range(r)]
        res_m = smith_normal_form(M)
        U_inv = invert_unimodular(res_m.left)
        orders = []
        gens = []
        keep = []
        for j in range(r):
            s = res_m.diag[j]
            if s == 0:
                raise InvariantError("subgroup lattice must have full rank")
            if s >= 2:
                keep.append(j)
                orders.append(s)
                a = [U_inv[i][j] for i in range(r)]
                coeffs = [
                    sum(basis[i][t] * a[t] for t in range(r)) for i in range(r)
                ]
                gens.append(GroupElement(self.group, tuple(coeffs)))
        U = [res_m.left[j] for j in keep]  # rows giving the kept coordinates
        return tuple(orders), gens, U, snf_basis

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._decomposition[0]

    @property
    def decomposition_gens(self) -> list[GroupElement]:
        return self._decomposition[1]

    def standalone(self) -> FinAbGroup:
        return FinAbGroup(self.invariant_factors)

    def to_sub_coords(self, x: GroupElement) -> tuple[int, ...]:
        """Coordinates of a subgroup member in the standalone presentation."""
        orders, gens, U, snf_basis = self._decomposition
        if not orders:
            if not self.contains(x):
                raise InputError("element is not in the subgroup")
            return ()
        a = snf_basis.solve(list(x.coeffs))
        if a is None:
            raise InputError("element is not in the subgroup")
        r = self.group.rank
        return tuple(
            sum(U[t][i] * a[i] for i in range(r)) % orders[t]
            for t in range(len(orders))
        )

    def from_sub_coords(self, w) -> GroupElement:
        orders, gens, _, _ = self._decomposition
        w = tuple(w)
        if len(w) != len(orders):
            raise InputError("coordinate count does not match subgroup presentation")
        out = self.group.zero()
        for c, g in zip(w, gens):
            if c:
                out = out + g.scale(c)
        return out

    def elements(self, cap: int = ENUMERATION_CAP):
        """All subgroup elements (lexicographic in standalone coordinates)."""
        if self.order > cap:
            raise CapExceeded(
                f"subgroup of order {self.order} exceeds cap {cap}",
                needed=self.order,
                cap=cap,
            )
        orders, gens, _, _ = self._decomposition
        for w in itertools.product(*(range(s) for s in orders)):
            yield self.from_sub_coords(w)

    def sum_with(self, other: "Subgroup") -> "Subgroup":
        if other.group != self.group:
            raise InputError("subgroups of different ambient groups")
        return Subgroup(self.group, self.generators + other.generators)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        """Lattice intersection: solve C1 a = C2 b and keep the C1 a side."""
        if other.group != self.group:
            raise InputError("subgroups of different ambient groups")
        r = self.group.rank
        if r == 0:
            return Subgroup(self.group, [])
        C1, C2 = self._lattice, other._lattice
        n1, n2 = len(C1[0]), len(C2[0])
        stacked = [C1[i] + [-v for v in C2[i]] for i in range(r)]
        gens = []
        for vec in integer_kernel_basis(stacked):
            a = vec[:n1]
            coeffs = [sum(C1[i][t] * a[t] for t in range(n1)) for i in range(r)]
            g = GroupElement(self.group, tuple(coeffs))
            if not g.is_zero():
                gens.append(g)
        return Subgroup(self.group, gens)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, x: GroupElement) -> bool:
        return self.contains(x)


def solve_congruence_system(group: FinAbGroup, rows) -> Subgroup:
    """Subgroup {z : sum_i c_i z_i = 0 mod m, for each row (c, m)}.

    Each row must be well posed on the group, meaning c_i * d_i = 0 mod m
    for every generator order d_i; otherwise the solution set would not be
    a subgroup and the call raises InputError.
    """
    rows = [(list(c), int(m)) for c, m in rows]
    r = group.rank
    for coeffs, m in rows:
        if len(coeffs) != r:
            raise InputError("congruence row length does not match group rank")
        if m < 1:
            raise InputError(f"modulus {m} must be >= 1")
        for c, d in zip(coeffs, group.orders):
            if (c * d) % m != 0:
                raise InputError(
                    "congruence is not well posed on the group: "
                    f"coefficient {c} with generator order {d} modulo {m}"
                )
    if r == 0 or not rows:
        return Subgroup(group, [group.generator(i) for i in range(r)])
    R = len(rows)
    # Kernel of (z, w) -> C z + diag(m) w, projected to z.
    stacked = []
    for j, (coeffs, m) in enumerate(rows):
        stacked.append(coeffs + [m if t == j else 0 for t in range(R)])
    gens = []
    for vec in integer_kernel_basis(stacked):
        g = GroupElement(group, tuple(vec[:r]))
        if not g.is_zero():
            gens.append(g)
    return Subgroup(group, gens)


def solve_affine_congruence_system(group: FinAbGroup, rows, targets):
    """One element z with sum_i c_i z_i = t mod m per row, or None.

    Same well-posedness requirement as solve_congruence_system.
    """
    rows = [(list(c), int(m)) for c, m in rows]
    targets = [int(t) for t in targets]
    if len(targets) != len(rows):
        raise InputError("need one target per congruence row")
    r = group.rank
    for coeffs, m in rows:
        if len(coeffs) != r:
            raise InputError("congruence row length does not match group rank")
        for c, d in zip(coeffs, group.orders):
            if (c * d) % m != 0:
                raise InputError("congruence is not well posed on the group")
    if not rows:
        return group.zero()
    R = len(rows)
    stacked = []
    for j, (coeffs, m) in enumerate(rows):
        stacked.append(coeffs + [m if t == j else 0 for t in range(R)])
    sol = solve_integer_linear(stacked, targets)
    if sol is None:
        return None
    return GroupElement(group, tuple(sol[:r]))
