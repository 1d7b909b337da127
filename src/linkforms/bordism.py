"""Low-degree bordism calculus for manifolds with one or two Bockstein
boundaries over a point, plus the combinatorial model of closed oriented
1-dimensional two-sided pieces and the A_k counting calculus.

Degrees are restricted to j in {0, 1}: these are the degrees where the
exact sequences are determined by the classical groups Omega_0 = Z and
Omega_1 = 0 and one flank of each short exact sequence vanishes, so no
extension problem arises.  Higher degrees are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InvariantError, UnsupportedDegree
from .groups import AbGroupDescriptor, invariant_chain
from .qz import QZValue


# ---------------------------------------------------------------------------
# Multiplication by k
# ---------------------------------------------------------------------------


def multiplication_cokernel(G: AbGroupDescriptor, k: int) -> AbGroupDescriptor:
    """coker(x k : G -> G).

    Componentwise: Z / kZ on each free summand, and on Z/t the quotient by
    the multiples of k, cyclic of order gcd(k, t).
    """
    if k == 0:
        return G
    return AbGroupDescriptor(
        0, invariant_chain([abs(k)] * G.free_rank + [math.gcd(k, t) for t in G.torsion])
    )


def multiplication_kernel(G: AbGroupDescriptor, k: int) -> AbGroupDescriptor:
    """ker(x k : G -> G).

    Componentwise: multiplication by k != 0 is injective on Z, and on Z/t
    the kernel is the subgroup of order gcd(k, t), cyclic.
    """
    if k == 0:
        return G
    return AbGroupDescriptor(0, invariant_chain(math.gcd(k, t) for t in G.torsion))


# ---------------------------------------------------------------------------
# Bordism groups over a point
# ---------------------------------------------------------------------------


def _omega_plain(j: int) -> AbGroupDescriptor:
    """Oriented bordism of a point in degrees -1, 0, 1."""
    if j == 0:
        return AbGroupDescriptor.free(1)
    if j in (-1, 1):
        return AbGroupDescriptor.trivial()
    raise UnsupportedDegree(f"degree {j} inputs are out of scope")


def _one_flank(coker: AbGroupDescriptor, kernel: AbGroupDescriptor) -> AbGroupDescriptor:
    # 0 -> coker -> G -> kernel -> 0 with one flank trivial: no extension
    # ambiguity.  Degrees 0 and 1, the only ones that get here, always
    # have a trivial flank.
    if not (coker.is_trivial() or kernel.is_trivial()):
        raise InvariantError("both flanks nonzero: extension data unavailable")
    return kernel if coker.is_trivial() else coker


def omega_k(j: int, k: int) -> AbGroupDescriptor:
    """Bordism of a point for manifolds with one order-k Bockstein boundary.

    Degree j in {0, 1} only.  Computed from the long exact sequence
    ... -> Omega_j -> x k -> Omega_j -> Omega_j<k> -> Omega_{j-1} -> ...
    which in these degrees gives Omega_j<k> as an extension of
    ker(x k on Omega_{j-1}) by coker(x k on Omega_j) with one side zero.
    """
    if j not in (0, 1):
        raise UnsupportedDegree(f"degree {j} is not supported (only 0 and 1)")
    if k < 2:
        raise InputError("k must be >= 2")
    co = multiplication_cokernel(_omega_plain(j), k)
    ke = multiplication_kernel(_omega_plain(j - 1), k)
    return _one_flank(co, ke)


def _omega_k_low(j: int, k: int) -> AbGroupDescriptor:
    return AbGroupDescriptor.trivial() if j == -1 else omega_k(j, k)


def omega_kl(j: int, k: int, l: int) -> AbGroupDescriptor:
    """Bordism of a point for two-sided (k, l)-Bockstein manifolds.

    Both exact sequences are evaluated -- multiplication by k on the
    one-sided l-groups, and by l on the one-sided k-groups -- and the two
    answers are required to agree; the result is also cross-checked
    against the closed form Z/gcd(k, l) in degrees 0 and 1.  A failure of
    either check is a library fault (InvariantError), never bad input.
    """
    if j not in (0, 1):
        raise UnsupportedDegree(f"degree {j} is not supported (only 0 and 1)")
    if k < 2 or l < 2:
        raise InputError("k and l must be >= 2")

    def one_sequence(mult: int, side: int) -> AbGroupDescriptor:
        co = multiplication_cokernel(_omega_k_low(j, side), mult)
        ke = multiplication_kernel(_omega_k_low(j - 1, side), mult)
        return _one_flank(co, ke)

    via_l = one_sequence(k, l)
    via_k = one_sequence(l, k)
    if via_l != via_k:
        raise InvariantError(
            f"the two exact sequences disagree: {via_l} vs {via_k}"
        )
    expected = AbGroupDescriptor.cyclic(math.gcd(k, l))
    if via_l != expected:
        raise InvariantError(
            f"exact-sequence result {via_l} contradicts the closed form {expected}"
        )
    return via_l


# ---------------------------------------------------------------------------
# Closed 1-dimensional (k, k)-pieces: the A_k calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KKManifold1:
    """Combinatorial model of a closed oriented 1-dimensional two-sided
    piece: a disjoint union of +/- oriented interval bundles A_k, circles,
    and null pieces with boundary on one side only.

    ``null_b1`` counts null-bordant components whose boundary meets only
    the first Bockstein side, ``null_b2`` the second.
    """

    k: int
    plus: int
    minus: int
    circles: int = 0
    null_b1: int = 0
    null_b2: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise InputError("k must be >= 2")
        for field in ("plus", "minus", "circles", "null_b1", "null_b2"):
            if getattr(self, field) < 0:
                raise InputError(f"{field} must be nonnegative")

    def disjoint_union(self, other: "KKManifold1") -> "KKManifold1":
        if other.k != self.k:
            raise InputError("cannot union pieces with different k")
        return KKManifold1(
            self.k,
            self.plus + other.plus,
            self.minus + other.minus,
            self.circles + other.circles,
            self.null_b1 + other.null_b1,
            self.null_b2 + other.null_b2,
        )


def kk_class(N: KKManifold1) -> int:
    """Bordism class in Z/k: +A_k counts +1, -A_k counts -1, the rest 0."""
    return (N.plus - N.minus) % N.k


def is_generator(N: KKManifold1) -> bool:
    """Whether the class generates Z/k: the signed count is prime to k."""
    return math.gcd(abs(N.plus - N.minus), N.k) == 1


def t_k(N: KKManifold1) -> QZValue:
    """Value of the degree-1 class in Q/Z, normalized so +A_k maps to 1/k."""
    return QZValue(kk_class(N), N.k)


def admits_swapping_involution(N: KKManifold1) -> bool:
    """Whether a free orientation-preserving involution can swap the two
    boundary sides.

    An orientation-preserving side-swap reverses the A-type, so +A_k
    components must pair off with -A_k components; one-sided null pieces
    must pair across sides; circles always admit a free involution
    (antipodal or in swapped pairs) and impose no constraint.
    """
    return N.plus == N.minus and N.null_b1 == N.null_b2
