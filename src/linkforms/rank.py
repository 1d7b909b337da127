"""Block rank: the largest g with a morphism W_k^g -> M.

A morphism from W_k^g is the same thing as g morphisms from W_k with
pairwise orthogonal images, so the rank is the maximum clique size of the
orthogonality graph on block morphisms.  The search exploits the split
along each morphism: fixing the first morphism's image I reduces the
problem to the orthogonal complement of I, so we branch over distinct
images and recurse,
memoizing nonsingular complements by their classification.

Two sound upper bounds certify most instances without branching:

* size: k^(2g) must divide into |M|, so g <= floor(log_{k^2} |M|);
* torsion: the image of W_k^g is (Z/k)^(2g) inside M[k], so for every
  prime p | k the number of cyclic factors of M whose order p-part reaches
  that of k must be at least 2g.

A greedy descent (always take the lexicographically first morphism and
recurse into its complement) provides the matching lower bound; when the
two meet, the value is certified with no enumeration at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExhausted, CapExceeded
from .forms import (
    FormMorphism,
    LinkingForm,
    Subform,
    direct_sum,
    first_w_morphism,
    morphisms_from_w,
    normal_form,
    split_along,
    w_power,
)
from .snf import prime_factorization


def size_bound(form: LinkingForm, k: int) -> int:
    g = 0
    acc = k * k
    while acc <= form.group.order:
        acc *= k * k
        g += 1
    return g


def torsion_bound(form: LinkingForm, k: int) -> int:
    """min over primes p | k of (number of cyclic factors whose order is
    divisible by the exact p-part of k) // 2; counts are presentation
    independent."""
    bound = None
    for p, a in prime_factorization(k):
        q = p**a
        cnt = sum(1 for d in form.group.orders if d % q == 0)
        bound = cnt // 2 if bound is None else min(bound, cnt // 2)
    return 0 if bound is None else bound


def upper_bound(form: LinkingForm, k: int) -> int:
    return min(size_bound(form, k), torsion_bound(form, k))


@dataclass
class RankResult:
    value: int
    certified: bool
    witness: list[FormMorphism]
    nodes: int
    bound: int


@dataclass
class _SearchState:
    budget: int
    nodes: int = 0
    memo: dict = field(default_factory=dict)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted(f"rank search exceeded {self.budget} nodes")


def _greedy_chain(form: LinkingForm, k: int) -> list[FormMorphism]:
    """Descend complements taking the first morphism each time."""
    f = first_w_morphism(form, k)
    if f is None:
        return []
    comp = split_along(f).complement
    rest = _greedy_chain(comp.form, k)
    return [f] + [comp.embed_morphism(g) for g in rest]


def _distinct_image_branches(form: LinkingForm, k: int, cap: int):
    """One morphism per distinct image subgroup, in enumeration order."""
    seen = set()
    out = []
    for f in morphisms_from_w(form, k, cap=cap):
        key = f.image_key()
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def _value(form: LinkingForm, k: int, state: _SearchState) -> int:
    state.tick()
    ub = upper_bound(form, k)
    if ub == 0:
        return 0
    lb = len(_greedy_chain(form, k))
    if lb == ub:
        return lb
    nonsingular = form.is_nonsingular()
    key = None
    if nonsingular:
        key = normal_form(form).summands
        if key in state.memo:
            return state.memo[key]
    try:
        branches = _distinct_image_branches(form, k, cap=max(10_000, state.budget))
    except CapExceeded as exc:
        raise BudgetExhausted(
            f"too many morphisms to branch over ({exc.needed})", partial=lb
        ) from exc
    best = lb
    for f in branches:
        if best == ub:
            break
        comp = split_along(f).complement
        if 1 + upper_bound(comp.form, k) <= best:
            continue
        val = 1 + _value(comp.form, k, state)
        if val > best:
            best = val
    if key is not None:
        state.memo[key] = best
    return best


def _witness(form: LinkingForm, k: int, target: int, state: _SearchState) -> list[FormMorphism]:
    """Rebuild an optimal chain once the value is known (memo makes the
    lookups cheap)."""
    if target == 0:
        return []
    greedy = _greedy_chain(form, k)
    if len(greedy) >= target:
        return greedy[:target]
    for f in _distinct_image_branches(form, k, cap=max(10_000, state.budget)):
        comp = split_along(f).complement
        if 1 + upper_bound(comp.form, k) < target:
            continue
        if 1 + _value(comp.form, k, state) == target:
            rest = _witness(comp.form, k, target - 1, state)
            return [f] + [comp.embed_morphism(g) for g in rest]
    raise AssertionError("witness reconstruction failed below the computed value")


def k_rank(form: LinkingForm, k: int, budget: int = 200_000) -> RankResult:
    """Largest g admitting a morphism W_k^g -> form.

    Certified results come from bounds meeting or from exhausting the
    branch tree; budget exhaustion downgrades to an uncertified lower
    bound carrying the best witness found.
    """
    state = _SearchState(budget=budget)
    ub = upper_bound(form, k)
    greedy = _greedy_chain(form, k)
    if len(greedy) == ub:
        return RankResult(
            value=ub, certified=True, witness=greedy, nodes=state.nodes, bound=ub
        )
    try:
        value = _value(form, k, state)
        witness = _witness(form, k, value, state)
        return RankResult(
            value=value, certified=True, witness=witness, nodes=state.nodes, bound=ub
        )
    except BudgetExhausted:
        return RankResult(
            value=len(greedy),
            certified=False,
            witness=greedy,
            nodes=state.nodes,
            bound=ub,
        )


@dataclass
class StableRankResult:
    value: int
    certified: bool
    g_max: int
    per_g: list[RankResult]
    bound: int


def stable_k_rank(form: LinkingForm, k: int, g_max: int, budget: int = 200_000) -> StableRankResult:
    """max over 0 <= g <= g_max of (k_rank(form (+) W_k^g) - g).

    The sequence is monotone non-decreasing in g (pad any optimal chain
    with the fresh block's inclusion), and bounded above by
    upper_bound(form, k) for every g; the result is certified exactly when
    the achieving computation is certified and the value meets that bound,
    since no larger g could then improve it.
    """
    per_g = []
    value = None
    certified_at_value = False
    for g in range(g_max + 1):
        padded = direct_sum(form, w_power(k, g)) if g else form
        res = k_rank(padded, k, budget=budget)
        per_g.append(res)
        v = res.value - g
        if value is None or v > value:
            value = v
            certified_at_value = res.certified
        elif v == value:
            certified_at_value = certified_at_value or res.certified
    bound = upper_bound(form, k)
    certified = certified_at_value and value == bound
    return StableRankResult(
        value=value, certified=certified, g_max=g_max, per_g=per_g, bound=bound
    )
