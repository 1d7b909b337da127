"""Block rank: the largest g with a morphism W_k^g -> M.

A morphism from W_k^g is the same thing as g morphisms from W_k with
pairwise orthogonal images, so the rank is the maximum clique size of the
orthogonality graph on block morphisms.  The search exploits the split
along each morphism: fixing the first morphism's image I reduces the
problem to the orthogonal complement of I, so we branch over distinct
images and recurse,
memoizing nonsingular complements by their classification.

The distinct images are found without building a morphism per pair.  A
morphism from W_k is injective, because W_k is nonsingular, so every image
has exactly k^2 elements and a pair (x, y) whose two elements lie in one
image S already listed spans S itself.  An index from each element to the
listed images containing it lets the walk over the pairs skip those; a
``FormMorphism`` and its span are built only for the first pair of each
new image.  The branches are the first morphism of each image, in
enumeration order.

Two sound upper bounds certify most instances without branching:

* size: k^(2g) must divide into |M|, so g <= floor(log_{k^2} |M|);
* torsion: the image of W_k^g is (Z/k)^(2g) inside M[k], so at least 2g
  invariant factors of M[k] must equal k.  Equivalently, for every prime
  p | k the number of cyclic factors of M whose order p-part reaches that
  of k must be at least 2g.

A greedy descent (always take the lexicographically first morphism and
recurse into its complement) provides the matching lower bound; when the
two meet, the value is certified with no enumeration at all.

One ``k_rank`` call handles each distinct form once.  Its search state
keeps a table from each form met, compared exactly on (group, D, N) as
``LinkingForm.__eq__`` does, to the work done on it: the greedy chain,
the classification key (None when singular), the distinct-image branches
and the split complement of each morphism taken from it, each filled on
first use.  The greedy chain's first morphism is branch 0, so the two
share one split.  All of these are functions of (group, D, N) alone: the
pair scan, ``first_w_morphism``, ``is_nonsingular``, ``normal_form`` and
``split_along`` read nothing else of a form, so equal forms give equal
answers and a lookup returns what recomputing would.

A split is a solve and a check (``split_along``).  The solve, with the
complement's decomposition and restricted form, is a function of the
image's congruence rows alone (``complement_rows``), and on a singular
form distinct images often give the same rows (the kernel of
W_3 (+) W_9 -> Z/3 by (0, 0, 1, 0) has 81 branches and 34 row sets), so
each form's node also keeps the solved complement of each row set met,
and a morphism whose rows were solved reuses that complement: again a
lookup returns what recomputing would.  The check (``check_split``: the
orders multiply to |M|, the complement lies in ker r_f) still runs once
for each morphism's own f, so a shared complement is certified for every
branch that uses it.  The two tables are kept apart, because a row set
can equal another morphism's key.

The search itself does not change: every visit still ticks once and
takes its steps in the same order (bounds, greedy chain, memo, branches
with the early exit), the memo is still keyed by classification and
filled for nonsingular forms only, so the node count, the memo, the
point where a budget runs out, the branch order and the witnesses are
those of recomputing.  The table lives only as long as its ``k_rank``
call, on no form or subgroup that outlives it; repeated calls on one
form repeat the work.  The branch enumeration takes at most as many
morphisms as the budget has nodes (at least 10,000) and never more than
``forms.DEFAULT_VERTEX_CAP``; past that the search stops uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import forms
from .errors import BudgetExhausted, CapExceeded, InputError, InvariantError
from .forms import (
    FormMorphism,
    LinkingForm,
    Subform,
    _w_pairs,
    check_split,
    complement_rows,
    direct_sum,
    first_w_morphism,
    normal_form,
    solve_complement,
    standard_w,
    w_power,
)
from .groups import invariant_chain

# Largest group rank of the padded form, form (+) W_k^g_max, that
# ``stable_k_rank`` searches (read at call time).  W_3 at k = 3 reaches it
# at g_max = 31, a few seconds of searches that grow about as g_max^5.
STABLE_PADDED_RANK_CAP = 64


def size_bound(form: LinkingForm, k: int) -> int:
    g = 0
    acc = k * k
    while acc <= form.group.order:
        acc *= k * k
        g += 1
    return g


def torsion_bound(form: LinkingForm, k: int) -> int:
    """Half the number of invariant factors of M[k] that equal k, rounded
    down; M[k] is the sum of the Z/gcd(d, k), so nothing is factorized."""
    chain = invariant_chain(math.gcd(d, k) for d in form.group.orders)
    return sum(t == k for t in chain) // 2


def upper_bound(form: LinkingForm, k: int) -> int:
    return min(size_bound(form, k), torsion_bound(form, k))


@dataclass
class RankResult:
    value: int
    certified: bool
    witness: list[FormMorphism]
    nodes: int
    bound: int


_UNKNOWN = object()


@dataclass(slots=True)
class _Node:
    """What the search needs of one form, each part filled on first use:
    its greedy chain, its classification key (None when singular), its
    distinct-image branches, the checked split complement of each morphism
    taken from it, keyed by ``FormMorphism.key``, and the solved complement
    of each set of congruence rows, keyed by ``complement_rows``, which
    morphisms with equal rows share."""

    form: LinkingForm
    greedy: list[FormMorphism] | None = None
    key: object = _UNKNOWN
    branches: list[FormMorphism] | None = None
    complements: dict[tuple, Subform] = field(default_factory=dict)
    solved: dict[tuple, Subform] = field(default_factory=dict)


@dataclass
class _SearchState:
    k: int
    budget: int
    nodes: int = 0
    memo: dict = field(default_factory=dict)
    table: dict[LinkingForm, _Node] = field(default_factory=dict)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExhausted(f"rank search exceeded {self.budget} nodes")

    def node(self, form: LinkingForm) -> _Node:
        node = self.table.get(form)
        if node is None:
            node = self.table[form] = _Node(form)
        return node

    def complement(self, node: _Node, f: FormMorphism) -> Subform:
        """The complement of f(W_k) in ``node.form``; f maps into it.  The
        solve is shared by the morphisms whose images give the same
        congruence rows; the split check runs once for each morphism."""
        comp = node.complements.get(f.key())
        if comp is None:
            rows = complement_rows(node.form, f.image_subgroup)
            comp = node.solved.get(rows)
            if comp is None:
                comp = node.solved[rows] = solve_complement(node.form, rows)
            check_split(f, comp)
            node.complements[f.key()] = comp
        return comp

    def normal_form_key(self, node: _Node):
        if node.key is _UNKNOWN:
            form = node.form
            node.key = normal_form(form).summands if form.is_nonsingular() else None
        return node.key

    def branches(self, node: _Node) -> list[FormMorphism]:
        if node.branches is None:
            node.branches = _distinct_image_branches(
                node.form, self.k, cap=min(max(10_000, self.budget), forms.DEFAULT_VERTEX_CAP)
            )
        return node.branches


def _greedy_chain(node: _Node, state: _SearchState) -> list[FormMorphism]:
    """Descend complements taking the first morphism each time."""
    if node.greedy is None:
        f = first_w_morphism(node.form, state.k)
        if f is None:
            node.greedy = []
        else:
            comp = state.complement(node, f)
            rest = _greedy_chain(state.node(comp.form), state)
            node.greedy = [f] + [comp.embed_morphism(g) for g in rest]
    return node.greedy


def _distinct_image_branches(form: LinkingForm, k: int, cap: int):
    """One morphism per distinct image subgroup, in enumeration order: the
    first of ``morphisms_from_w`` with each ``image_key``.

    The pairs (x, y) of ``_w_pairs`` are walked with an index from each
    element to the images already listed that contain it.  A morphism from
    W_k is injective, so span(x, y) has exactly k^2 elements; if x and y
    lie in one listed image S, then span(x, y) is inside S and the two are
    equal, so the pair is skipped.  Otherwise its image is new: only then
    are its ``FormMorphism`` (with the exact pairing check) and its span
    built.
    """
    source = standard_w(k)
    element = form.group.element
    containing: dict[tuple, list[frozenset]] = {}  # element -> listed images
    out = []
    for x, y in _w_pairs(form, k, cap):
        if any(y in span for span in containing.get(x, ())):
            continue
        f = FormMorphism(source, form, [element(x), element(y)])
        span = f.image_key()
        for z in span:
            containing.setdefault(z, []).append(span)
        out.append(f)
    return out


def _value(node: _Node, state: _SearchState) -> int:
    state.tick()
    k = state.k
    ub = upper_bound(node.form, k)
    if ub == 0:
        return 0
    lb = len(_greedy_chain(node, state))
    if lb == ub:
        return lb
    key = state.normal_form_key(node)
    if key is not None and key in state.memo:
        return state.memo[key]
    try:
        branches = state.branches(node)
    except CapExceeded as exc:
        raise BudgetExhausted(
            f"too many morphisms to branch over ({exc.needed})", partial=lb
        ) from exc
    best = lb
    for f in branches:
        if best == ub:
            break
        comp = state.complement(node, f)
        if 1 + upper_bound(comp.form, k) <= best:
            continue
        val = 1 + _value(state.node(comp.form), state)
        if val > best:
            best = val
    if key is not None:
        state.memo[key] = best
    return best


def _witness(node: _Node, target: int, state: _SearchState) -> list[FormMorphism]:
    """Rebuild an optimal chain once the value is known (memo makes the
    lookups cheap)."""
    if target == 0:
        return []
    greedy = _greedy_chain(node, state)
    if len(greedy) >= target:
        return greedy[:target]
    for f in state.branches(node):
        comp = state.complement(node, f)
        if 1 + upper_bound(comp.form, state.k) < target:
            continue
        child = state.node(comp.form)
        if 1 + _value(child, state) == target:
            rest = _witness(child, target - 1, state)
            return [f] + [comp.embed_morphism(g) for g in rest]
    raise InvariantError("witness reconstruction failed below the computed value")


def k_rank(form: LinkingForm, k: int, budget: int = 200_000) -> RankResult:
    """Largest g admitting a morphism W_k^g -> form.

    Certified results come from bounds meeting or from exhausting the
    branch tree; budget exhaustion downgrades to an uncertified lower
    bound carrying the best witness found; ``budget = 0`` visits no
    branch node, so only the bounds meeting the greedy chain certify.
    Raises InputError for k < 2, where no block W_k exists (and the size
    bound would never stop), and for a negative budget.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    if budget < 0:
        raise InputError(f"budget = {budget} must be >= 0")
    state = _SearchState(k=k, budget=budget)
    root = state.node(form)
    ub = upper_bound(form, k)
    greedy = _greedy_chain(root, state)
    if len(greedy) == ub:
        return RankResult(
            value=ub, certified=True, witness=greedy, nodes=state.nodes, bound=ub
        )
    try:
        value = _value(root, state)
        witness = _witness(root, value, state)
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
    since no larger g could then improve it.  A negative budget raises
    InputError from the first ``k_rank`` call.  A padded rank
    rank(form) + 2 g_max past STABLE_PADDED_RANK_CAP raises CapExceeded
    before any search.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    if g_max < 0:
        raise InputError(f"g_max = {g_max} must be >= 0")
    padded, cap = form.group.rank + 2 * g_max, STABLE_PADDED_RANK_CAP
    if padded > cap:
        raise CapExceeded(
            f"padded rank {padded} exceeds the stable-rank cap {cap}", needed=padded, cap=cap
        )
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
