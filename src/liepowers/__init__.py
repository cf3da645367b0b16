"""Exact modular decomposition of tensor powers into Lie powers.

Tensor powers of a finite-rank module over F_p are split along the
descent algebra's p-class idempotents, each summand is filtered with
closed-form factor dimensions, and Lie powers are certified as direct
summands degree by degree through the recursive B-family construction.
Everything is exact finite-field arithmetic with explicit certificates.
"""

from .combinat import (
    ClassFunction,
    PClass,
    class_of_partition,
    compositions,
    graded_witt_dims,
    higher_lie_dim,
    p_equivalence_classes,
    partitions,
    witt_dim,
    young_character,
)
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    affine_projection_family,
    format_subspace,
    is_direct_sum,
    parse_subspace,
    solve_equivariant_projection,
)
from .freelie import (
    Tensor,
    bracket_products,
    dynkin_matrix,
    filtration_subspace,
    lazard_pieces,
    lie_element,
    lie_power,
    lyndon_words,
    pbw_monomial_vector,
    pbw_monomials,
    subalgebra_generated,
    symmetrize_extend,
    truncate_subspace,
)
from .descent import (
    DescentElement,
    IdempotentFamily,
    act_on_tensor,
    element_action_matrix,
    gr_action_check,
    lift_idempotents,
    lift_matrix_idempotent,
)
from .modrep import (
    TensorAction,
    gl_generators,
    induce_on_tensor_power,
    is_invariant,
    module_closure,
)
from .decompose import (
    ComplementSearchExhausted,
    DecompositionResult,
    FiltrationReport,
    canonical_complement,
    certify_decomposition,
    construct_B_family,
    prop35_check,
    split_tensor_power,
)

__version__ = "0.1.0"

__all__ = [
    "ClassFunction",
    "PClass",
    "class_of_partition",
    "compositions",
    "graded_witt_dims",
    "higher_lie_dim",
    "p_equivalence_classes",
    "partitions",
    "witt_dim",
    "young_character",
    "Mat",
    "SpanBuilder",
    "Subspace",
    "affine_projection_family",
    "format_subspace",
    "is_direct_sum",
    "parse_subspace",
    "solve_equivariant_projection",
    "Tensor",
    "bracket_products",
    "dynkin_matrix",
    "filtration_subspace",
    "lazard_pieces",
    "lie_element",
    "lie_power",
    "lyndon_words",
    "pbw_monomial_vector",
    "pbw_monomials",
    "subalgebra_generated",
    "symmetrize_extend",
    "truncate_subspace",
    "DescentElement",
    "IdempotentFamily",
    "act_on_tensor",
    "element_action_matrix",
    "gr_action_check",
    "lift_idempotents",
    "lift_matrix_idempotent",
    "TensorAction",
    "gl_generators",
    "induce_on_tensor_power",
    "is_invariant",
    "module_closure",
    "ComplementSearchExhausted",
    "DecompositionResult",
    "FiltrationReport",
    "canonical_complement",
    "certify_decomposition",
    "construct_B_family",
    "prop35_check",
    "split_tensor_power",
    "__version__",
]
