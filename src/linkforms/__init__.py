"""Exact skew linking forms on finite abelian groups, their block-morphism
flag complexes, and low-degree Bockstein bordism.

Everything is exact integer/rational arithmetic end to end: values of forms
live in Q/Z as canonical fractions, homology and group computations run on
integer Smith normal forms, and every randomized suite is seeded.
"""

from .errors import (
    BudgetExhausted,
    CapExceeded,
    InputError,
    InvariantError,
    LinkformsError,
    NonStrictFormError,
    SingularFormError,
    UnsupportedDegree,
)
from .qz import QZValue
from .snf import (
    SNFResult,
    column_lattice_index,
    integer_kernel_basis,
    smith_normal_form,
)
from .groups import (
    AbGroupDescriptor,
    FinAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    invariant_chain,
    solve_affine_congruence_system,
    solve_congruence_system,
)
from .forms import (
    FormMorphism,
    LinkingForm,
    NormalForm,
    Subform,
    are_isomorphic,
    count_w_morphisms,
    direct_sum,
    extend_to_automorphism,
    first_w_morphism,
    full_subgroup,
    hyperbolic_basis,
    identity_morphism,
    kernel_form,
    morphisms_from_w,
    normal_form,
    orthogonal_complement,
    split_along,
    standard_w,
    w_morphism,
    w_morphism_by_index,
    w_power,
)
from .rank import RankResult, StableRankResult, k_rank, stable_k_rank, upper_bound
from .complexes import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    FlagComplex,
    GeneralComplex,
    HomologyResult,
    InclusionReport,
    SimplicialMap,
    SymRelation,
    TransitivityReport,
    Verdict,
    action_transitivity,
    check_link_lifting,
    homological_connectivity,
    homology,
    inclusion_connectivity_harness,
    lcm_check,
    preserves_links,
    relative_homology,
)
from .lcomplex import (
    LComplex,
    PathResult,
    WitnessResult,
    build_l_complex,
    edge_swap_automorphism,
    find_short_path,
    images_orthogonal,
    transitivity_witness,
    verify_link_iso,
    w_power_vertex_count,
)
from .bordism import (
    KKManifold1,
    admits_swapping_involution,
    is_generator,
    kk_class,
    multiplication_cokernel,
    multiplication_kernel,
    omega_k,
    omega_kl,
    t_k,
)
from .documents import (
    form_from_document,
    form_to_document,
    load_form,
    load_manifold,
    manifold_from_document,
    manifold_to_document,
    parse_form,
    parse_manifold,
)
from .reporting import REPORT_SCHEMA, make_report, render_text, to_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
