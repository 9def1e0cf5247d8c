"""Finite-model logic engine evaluating formulas by dense tensor contraction.

Models assign one-hot vectors to individuals, 0/1 matrices to predicates, and
0/1 tensors to relations; applying a symbol to arguments is tensor
contraction, connectives are constant tensors, and quantifiers act on
characteristic vectors.  Every evaluation can be checked against an
independent set-theoretic oracle that never touches a tensor.
"""

from .errors import TensorLogicError
from .model import Model, TruthVec, decode_set, encode_atom, encode_set, truth_bot, truth_top
from .tensor import (
    DEFAULT_ELEMENT_CAP,
    Tensor,
    contract,
    diag_build,
    elementwise_max,
    elementwise_min,
)
from .truth import (
    Connective,
    PredicateMatrix,
    RelationTensor,
    apply_predicate,
    apply_relation,
    build_predicate,
    build_relation,
    connective_binary,
    connective_not,
    partial_apply,
)
from .sets import (
    SetPredicateMatrix,
    SetVector,
    apply_set_predicate,
    build_set_predicate,
    convert_set_to_truth,
    convert_truth_to_set,
    exists,
    forall,
    predicate_vector,
)
from .dsl import parse_formula, parse_model, print_formula, print_model
from .evaluator import (
    ContractionPlan,
    SweepConfig,
    compile_formula,
    equivalence_sweep,
    evaluate,
    execute,
    oracle_eval,
)

__version__ = "0.1.0"

__all__ = [
    "Connective",
    "ContractionPlan",
    "DEFAULT_ELEMENT_CAP",
    "Model",
    "PredicateMatrix",
    "RelationTensor",
    "SetPredicateMatrix",
    "SetVector",
    "SweepConfig",
    "Tensor",
    "TensorLogicError",
    "TruthVec",
    "apply_predicate",
    "apply_relation",
    "apply_set_predicate",
    "build_predicate",
    "build_relation",
    "build_set_predicate",
    "compile_formula",
    "connective_binary",
    "connective_not",
    "contract",
    "convert_set_to_truth",
    "convert_truth_to_set",
    "decode_set",
    "diag_build",
    "elementwise_max",
    "elementwise_min",
    "encode_atom",
    "encode_set",
    "equivalence_sweep",
    "evaluate",
    "execute",
    "exists",
    "forall",
    "oracle_eval",
    "parse_formula",
    "parse_model",
    "partial_apply",
    "predicate_vector",
    "print_formula",
    "print_model",
    "truth_bot",
    "truth_top",
]
