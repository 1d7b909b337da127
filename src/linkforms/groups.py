"""Finite abelian groups presented as direct sums of cyclic factors.

A group is a tuple of generator orders (each at least 2; the empty tuple is
the trivial group).  Elements are coefficient tuples reduced modulo those
orders.  Subgroups are handled through the lattice dictionary: a subgroup
of Z/d_1 + ... + Z/d_r corresponds to the integer column lattice spanned by
its generators' coefficient vectors together with diag(d), and all
structural questions (order, invariant factors, intersections) reduce to
Smith normal form over Z.

The invariant-factor presentation eliminates the lattice once, building
the ``left`` transform only, to form the relation matrix; it then
eliminates that r x r matrix building ``right`` only, which gives the
generators.  Intersections and congruence systems read the ``right``
transform alone, through ``integer_kernel_basis``.  The order alone comes
from the diagonal-only ``column_lattice_index``, so subgroups that are only
counted never pay for transforms.

``AbGroupDescriptor`` describes a finitely generated abelian group by its
free rank and invariant-factor chain; homology degrees and bordism groups
are both given this way, and ``invariant_chain`` sums them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceeded, InputError, InvariantError
from .snf import (
    Matrix,
    _eliminate,
    integer_kernel_basis,
    column_lattice_index,
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

    def element(self, coeffs) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def generator(self, i: int) -> "GroupElement":
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return GroupElement(self, tuple(coeffs))

    def enumerate_elements(self):
        """Yield all elements in lexicographic coefficient order, at most
        ENUMERATION_CAP of them."""
        if self.order > ENUMERATION_CAP:
            raise CapExceeded(
                f"group of order {self.order} exceeds enumeration cap {ENUMERATION_CAP}",
                needed=self.order,
                cap=ENUMERATION_CAP,
            )
        for coeffs in itertools.product(*(range(d) for d in self.orders)):
            yield GroupElement(self, coeffs)

    def torsion_count(self, k: int) -> int:
        """Number of solutions of k*z = 0."""
        return math.prod(math.gcd(d, k) for d in self.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.orders)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        orders = self.group.orders
        if len(self.coeffs) != len(orders):
            raise InputError("coefficient count does not match group rank")
        object.__setattr__(self, "coeffs", tuple(map(operator.mod, self.coeffs, orders)))

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
        return _combine(self.target, x.coeffs, self.images)

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

    def is_isomorphism(self) -> bool:
        return (
            self.source.order == self.target.order
            and self.image().order == self.target.order
        )


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

    @cached_property
    def _decomposition(self):
        """Invariant-factor presentation of the subgroup.

        Returns (orders, gens) where `orders` are the invariant factors
        >= 2 and `gens` are ambient elements generating the corresponding
        cyclic factors.

        The lattice is eliminated once, building ``left`` only:
        left @ lattice @ right = [diag(s) | 0], every s_i >= 1.  With
        B = left^-1 diag(s) the lattice basis, diag(d) = B M for the
        relation matrix M = diag(s)^-1 left diag(d).  Its SNF
        left_M M right_M = diag(t) gives the presentation: B left_M^-1 has
        column j equal to B M right_M e_j / t_j = diag(d) right_M e_j / t_j,
        which generates the factor of order t_j.  So the relation matrix is
        eliminated building ``right_M`` only.
        """
        r = self.group.rank
        if r == 0:
            return (), []
        d = self.group.orders
        diag, left, _ = _eliminate(self._lattice, want_left=True)
        M = []
        for row, s in zip(left, diag):
            q_row = []
            for u, dj in zip(row, d):
                q, rem = divmod(u * dj, s)
                if rem:
                    raise InvariantError("diag(d) must lie in the subgroup lattice")
                q_row.append(q)
            M.append(q_row)
        diag_m, _, right_m = _eliminate(M, want_right=True)
        orders = []
        gens = []
        for j, t in enumerate(diag_m):
            if t == 0:
                raise InvariantError("subgroup lattice must have full rank")
            if t >= 2:
                orders.append(t)
                coeffs = tuple(di * right_m[i][j] // t for i, di in enumerate(d))
                gens.append(GroupElement(self.group, coeffs))
        return tuple(orders), gens

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._decomposition[0]

    @property
    def decomposition_gens(self) -> list[GroupElement]:
        return self._decomposition[1]

    def standalone(self) -> FinAbGroup:
        return FinAbGroup(self.invariant_factors)

    def from_sub_coords(self, w) -> GroupElement:
        orders, gens = self._decomposition
        w = tuple(w)
        if len(w) != len(orders):
            raise InputError("coordinate count does not match subgroup presentation")
        return _combine(self.group, w, gens)

    def elements(self):
        """All subgroup elements (lexicographic in standalone coordinates),
        at most ENUMERATION_CAP of them."""
        if self.order > ENUMERATION_CAP:
            raise CapExceeded(
                f"subgroup of order {self.order} exceeds cap {ENUMERATION_CAP}",
                needed=self.order,
                cap=ENUMERATION_CAP,
            )
        for w in itertools.product(*(range(s) for s in self.invariant_factors)):
            yield self.from_sub_coords(w)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        """Lattice intersection: solve C1 a = C2 b and keep the C1 a side.

        Only the generator columns of C1 are summed: its diag(orders)
        columns add d_i a_t to coordinate i, which reduces to 0.
        """
        if other.group != self.group:
            raise InputError("subgroups of different ambient groups")
        r = self.group.rank
        if r == 0:
            return Subgroup(self.group, [])
        C1, C2 = self._lattice, other._lattice
        n = len(self.generators)
        stacked = [C1[i] + [-v for v in C2[i]] for i in range(r)]
        gen_rows = [row[:n] for row in C1]
        gens = []
        for a in integer_kernel_basis(stacked, rows=n):
            coeffs = tuple(sum(map(operator.mul, row, a)) for row in gen_rows)
            g = GroupElement(self.group, coeffs)
            if not g.is_zero():
                gens.append(g)
        return Subgroup(self.group, gens)


def _combine(group: FinAbGroup, coeffs, elements) -> GroupElement:
    """sum_i c_i * elements[i] in ``group``: one integer list, reduced once."""
    out = [0] * group.rank
    for c, e in zip(coeffs, elements):
        if c:
            out = [a + c * b for a, b in zip(out, e.coeffs)]
    return GroupElement(group, tuple(out))


def _stack_congruences(group: FinAbGroup, rows) -> Matrix:
    """Validate congruence rows (c, m) and stack them as [C | diag(m)].

    Each row must have one coefficient per generator, a modulus m >= 1 and
    be well posed on the group, meaning c_i * d_i = 0 mod m for every
    generator order d_i; otherwise the call raises InputError.
    """
    rows = [(list(c), int(m)) for c, m in rows]
    for coeffs, m in rows:
        if len(coeffs) != group.rank:
            raise InputError("congruence row length does not match group rank")
        if m < 1:
            raise InputError(f"modulus {m} must be >= 1")
        for c, d in zip(coeffs, group.orders):
            if (c * d) % m != 0:
                raise InputError(
                    "congruence is not well posed on the group: "
                    f"coefficient {c} with generator order {d} modulo {m}"
                )
    R = len(rows)
    return [coeffs + [m if t == j else 0 for t in range(R)] for j, (coeffs, m) in enumerate(rows)]


def solve_congruence_system(group: FinAbGroup, rows) -> Subgroup:
    """Subgroup {z : sum_i c_i z_i = 0 mod m, for each row (c, m)}.

    Each row must be well posed on the group (see ``_stack_congruences``);
    otherwise the solution set would not be a subgroup.
    """
    stacked = _stack_congruences(group, rows)
    r = group.rank
    if r == 0 or not stacked:
        return Subgroup(group, [group.generator(i) for i in range(r)])
    # Kernel of (z, w) -> C z + diag(m) w, projected to z.
    gens = []
    for vec in integer_kernel_basis(stacked, rows=r):
        g = GroupElement(group, tuple(vec))
        if not g.is_zero():
            gens.append(g)
    return Subgroup(group, gens)


def invariant_chain(orders) -> tuple[int, ...]:
    """Invariant factors of the sum of the cyclic groups Z/t, t in orders.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b).  Replacing slot i and each
    later slot j by their (gcd, lcm) leaves slot i the gcd of all slots from
    i on; gcd and lcm keep divisibility by the earlier slots, so the slots
    end as a chain.  Factors equal to 1 are dropped; nothing is factorized.
    """
    chain = list(orders)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            chain[i], chain[j] = math.gcd(a, b), math.lcm(a, b)
    return tuple(t for t in chain if t != 1)


@dataclass(frozen=True)
class AbGroupDescriptor:
    """A finitely generated abelian group: Z^free_rank plus the torsion
    given by its invariant-factor chain, ascending, each factor above 1 and
    dividing the next."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("negative free rank")
        prev = 1
        for t in self.torsion:
            if t < 2 or t % prev != 0:
                raise InputError("torsion coefficients must form a divisibility chain")
            prev = t

    @classmethod
    def trivial(cls) -> "AbGroupDescriptor":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbGroupDescriptor":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "AbGroupDescriptor":
        if n < 1:
            raise InputError("cyclic order must be >= 1")
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @property
    def betti(self) -> int:
        """The free rank, named as a Betti number for homology degrees."""
        return self.free_rank

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __add__(self, other: "AbGroupDescriptor") -> "AbGroupDescriptor":
        return AbGroupDescriptor(
            self.free_rank + other.free_rank, invariant_chain(self.torsion + other.torsion)
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for t, group in itertools.groupby(self.torsion):
            m = len(list(group))
            parts.append(f"Z/{t}" if m == 1 else f"(Z/{t})^{m}")
        return " + ".join(parts) if parts else "0"
