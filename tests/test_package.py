"""The package's public surface: ``tensorlogic.__all__``."""

import inspect

import tensorlogic
import tensorlogic.model
import tensorlogic.sets
import tensorlogic.truth

PUBLIC_NAMES = [
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
    "encode_atom",
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


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(tensorlogic.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from tensorlogic import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(tensorlogic, name)


def test_retired_names_are_gone():
    assert not hasattr(tensorlogic, "encode_set")
    assert not hasattr(tensorlogic.model, "encode_set")
    assert not hasattr(tensorlogic.sets, "intersect")
    assert not hasattr(tensorlogic.sets, "union")
    assert not hasattr(tensorlogic.sets.SetVector, "decode")
    assert not hasattr(tensorlogic.truth, "build_relation_slice")
    assert list(inspect.signature(tensorlogic.Tensor).parameters) == ["values"]
