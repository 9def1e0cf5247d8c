"""Set calculus: diagonal predicates, quantifiers, conversions, witnesses."""

import itertools
import random

import numpy as np
import pytest

from tensorlogic.errors import (
    DimensionMismatchError,
    InvalidPredicateError,
    NonCharacteristicError,
)
from tensorlogic.evaluator import execute
from tensorlogic.model import Model, decode_set, encode_atom, truth_bot, truth_top
from tensorlogic.sets import (
    SetPredicateMatrix,
    SetVector,
    _nonempty,
    _subset,
    apply_set_predicate,
    build_set_predicate,
    convert_set_to_truth,
    convert_truth_to_set,
    exists,
    forall,
    nonlinearity_witness_exists,
    nonlinearity_witness_forall,
    predicate_vector,
)
from tensorlogic.tensor import Tensor, ones
from tensorlogic.truth import apply_predicate, build_predicate, build_relation, partial_apply
from tests.helpers import encode_set, intersect, quantifier_plan, union


def random_predicate_models(seed, count, max_domain):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_domain)
        atoms = [f"x{i}" for i in range(n)]
        yield Model.from_names(
            atoms, predicates={"p": [a for a in atoms if rng.random() < 0.5]}
        )


def bit_vectors(length):
    return [Tensor(list(bits)) for bits in itertools.product((0.0, 1.0), repeat=length)]


class TestSetPredicate:
    def test_worked_example(self, brown_dog_model):
        p = build_set_predicate(brown_dog_model, "brown")
        assert p.tensor == Tensor([[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_empty_extension_is_zero_matrix(self):
        m = Model.from_names(["a", "b"], predicates={"p": []})
        assert build_set_predicate(m, "p").tensor == Tensor(np.zeros((2, 2)))

    def test_diagonal_equals_extension_vector(self):
        for m in random_predicate_models(seed=43, count=50, max_domain=5):
            p = build_set_predicate(m, "p")
            extension_names = {m.atom_names[i] for i in m.predicate_extension("p")}
            assert Tensor(np.diagonal(p.tensor.array)) == encode_set(m, extension_names)

    def test_validation(self):
        with pytest.raises(InvalidPredicateError):
            SetPredicateMatrix(Tensor([[1, 1], [0, 1]]))
        with pytest.raises(InvalidPredicateError):
            SetPredicateMatrix(Tensor([[0.5, 0], [0, 1]]))
        with pytest.raises(InvalidPredicateError):
            SetPredicateMatrix(Tensor([[1, 0, 0], [0, 1, 0]]))


class TestApplySetPredicate:
    def test_worked_filtering_example(self, brown_dog_model):
        m = brown_dog_model
        brown = build_set_predicate(m, "brown")
        dogs = SetVector(encode_set(m, {"a", "b"}))
        brown_dogs = apply_set_predicate(brown, dogs)
        assert brown_dogs.tensor == Tensor([0, 1, 0])
        assert decode_set(m, brown_dogs.tensor) == frozenset({"b"})

    def test_full_domain_argument_extracts_diagonal(self, brown_dog_model):
        p = build_set_predicate(brown_dog_model, "brown")
        full = SetVector(ones(3))
        assert apply_set_predicate(p, full).tensor == Tensor(np.diagonal(p.tensor.array))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_exhaustive_intersection_oracle(self, size):
        atoms = [f"x{i}" for i in range(size)]
        for pred_bits in itertools.product((0, 1), repeat=size):
            extension = [a for a, bit in zip(atoms, pred_bits) if bit]
            m = Model.from_names(atoms, predicates={"p": extension})
            p = build_set_predicate(m, "p")
            for subset_bits in itertools.product((0, 1), repeat=size):
                x = SetVector(Tensor(list(map(float, subset_bits))))
                filtered = apply_set_predicate(p, x)
                expected = {
                    i for i, bit in enumerate(subset_bits) if bit
                } & set(m.predicate_extension("p"))
                assert {i for i, v in enumerate(filtered.tensor.array) if v} == expected

    def test_intersection_identity(self):
        for m in random_predicate_models(seed=47, count=30, max_domain=4):
            p = build_set_predicate(m, "p")
            for x in bit_vectors(m.domain_size):
                sx = SetVector(x)
                assert apply_set_predicate(p, sx) == intersect(sx, predicate_vector(p))

    def test_dimension_mismatch(self, brown_dog_model):
        p = build_set_predicate(brown_dog_model, "brown")
        with pytest.raises(DimensionMismatchError):
            apply_set_predicate(p, SetVector(Tensor([1, 0])))


class TestPredicateVector:
    def test_worked_example(self, brown_dog_model):
        assert predicate_vector(build_set_predicate(brown_dog_model, "brown")) == SetVector(
            Tensor([0, 1, 1])
        )

    def test_identity_matrix_gives_ones(self):
        p = SetPredicateMatrix(Tensor(np.eye(4)))
        assert predicate_vector(p) == SetVector(ones(4))

    def test_equals_extension_encoding(self):
        for m in random_predicate_models(seed=53, count=50, max_domain=5):
            p = build_set_predicate(m, "p")
            extension_names = {m.atom_names[i] for i in m.predicate_extension("p")}
            assert predicate_vector(p).tensor == encode_set(m, extension_names)


class TestSetVector:
    def test_rejects_non_characteristic(self):
        with pytest.raises(NonCharacteristicError):
            SetVector(Tensor([0.5, 0]))
        with pytest.raises(NonCharacteristicError):
            SetVector(Tensor([-1, 0]))

    def test_snaps_float_noise_to_exact_bits(self):
        v = SetVector(Tensor([1 - 5e-13, 5e-13]))
        assert v.tensor == Tensor([1, 0])

    def test_rejects_matrices(self):
        with pytest.raises(DimensionMismatchError):
            SetVector(Tensor([[1, 0], [0, 1]]))

    def test_union_and_intersect(self):
        a = SetVector(Tensor([1, 1, 0]))
        b = SetVector(Tensor([0, 1, 1]))
        assert intersect(a, b) == SetVector(Tensor([0, 1, 0]))
        assert union(a, b) == SetVector(Tensor([1, 1, 1]))


class TestIntersectUnion:
    def test_intersect_is_the_common_part(self):
        a, b = SetVector(Tensor([1, 1, 0])), SetVector(Tensor([0, 1, 1]))
        assert intersect(a, b) == SetVector(Tensor([0, 1, 0]))

    def test_union_of_disjoint_sets(self):
        a, b = SetVector(Tensor([1, 0, 0])), SetVector(Tensor([0, 0, 1]))
        assert union(a, b) == SetVector(Tensor([1, 0, 1]))

    def test_union_with_the_empty_set_is_identity(self):
        x = SetVector(Tensor([1, 0, 1, 0]))
        assert union(x, SetVector(Tensor(np.zeros(4)))) == x

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_match_set_oracle(self, length):
        # Subset-enumeration oracle: bit vectors are characteristic vectors.
        def members(v):
            return {i for i, bit in enumerate(v.tensor.array) if bit}

        for a_bits in bit_vectors(length):
            a = SetVector(a_bits)
            for b_bits in bit_vectors(length):
                b = SetVector(b_bits)
                assert members(intersect(a, b)) == members(a) & members(b)
                assert members(union(a, b)) == members(a) | members(b)

    @pytest.mark.parametrize("op", [intersect, union], ids=["intersect", "union"])
    def test_length_mismatch(self, op):
        with pytest.raises(DimensionMismatchError) as info:
            op(SetVector(Tensor([1])), SetVector(Tensor([1, 0])))
        assert str(info.value) == f"{op.__name__} requires equal lengths, got 1 and 2"


class TestForall:
    def test_all_greeks_are_human(self, greek_model):
        m = greek_model
        greek = predicate_vector(build_set_predicate(m, "greek"))
        human = predicate_vector(build_set_predicate(m, "human"))
        assert forall(greek, human) == truth_top()
        # The converse fails: one human is not greek.
        assert forall(human, greek) == truth_bot()

    def test_empty_set_is_subset_of_anything(self):
        empty = SetVector(Tensor(np.zeros(4)))
        for y in bit_vectors(4):
            assert forall(empty, SetVector(y)) == truth_top()

    def test_exhaustive_subset_oracle_256_pairs(self):
        vectors = bit_vectors(4)
        assert len(vectors) == 16
        for x in vectors:
            x_set = {i for i, v in enumerate(x.array) if v}
            for y in vectors:
                y_set = {i for i, v in enumerate(y.array) if v}
                expected = truth_top() if x_set <= y_set else truth_bot()
                assert forall(SetVector(x), SetVector(y)) == expected

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            forall(SetVector(Tensor([1])), SetVector(Tensor([1, 0])))


class TestExists:
    def test_brown_dog_exists(self, brown_dog_model):
        m = brown_dog_model
        brown = predicate_vector(build_set_predicate(m, "brown"))
        dog = predicate_vector(build_set_predicate(m, "dog"))
        witness = intersect(brown, dog)
        assert witness.tensor == Tensor([0, 1, 0])
        assert exists(witness) == truth_top()

    def test_empty_set(self):
        assert exists(SetVector(Tensor(np.zeros(3)))) == truth_bot()

    def test_exhaustive_nonempty_oracle(self):
        for bits in itertools.product((0.0, 1.0), repeat=6):
            x = SetVector(Tensor(list(bits)))
            expected = truth_top() if any(bits) else truth_bot()
            assert exists(x) == expected


def decision_rows(n):
    """0/1 rows of length ``n``: all zero, all one, and a single 1 at the
    first, the middle and the last entry."""
    rows = {"zeros": [0.0] * n, "ones": [1.0] * n}
    for name, i in (("first", 0), ("middle", n // 2), ("last", n - 1)):
        rows[f"one-{name}"] = [1.0 if j == i else 0.0 for j in range(n)]
    return rows


@pytest.mark.parametrize("dtype", [np.bool_, np.float64], ids=["bool", "float64"])
@pytest.mark.parametrize("n", [1, 2, 3, 80, 3000])
def test_decision_kernels_match_plain_python(n, dtype):
    """``_nonempty`` and ``_subset`` decide as plain-Python ``any`` and
    ``all`` do on every pair of rows, return a Python ``bool``, and a
    hand-built plan's quantifier steps and ``exists``/``forall`` on set
    vectors give the same verdicts."""
    rows = decision_rows(n)
    verdict = {False: truth_bot(), True: truth_top()}
    for name, x in rows.items():
        nonempty = _nonempty(np.array(x, dtype=dtype))
        assert type(nonempty) is bool and nonempty is any(x), name
        plan = quantifier_plan("exists", (0,), Tensor(x), Tensor(x))
        assert execute(plan) == exists(SetVector(Tensor(x))) == verdict[nonempty]
        for other, y in rows.items():
            subset = _subset(np.array(x, dtype=dtype), np.array(y, dtype=dtype))
            expected = all(not a or b for a, b in zip(x, y))
            assert type(subset) is bool and subset is expected, (name, other)
            plan = quantifier_plan("forall", (0, 1), Tensor(x), Tensor(y))
            by_sets = forall(SetVector(Tensor(x)), SetVector(Tensor(y)))
            assert execute(plan) == by_sets == verdict[subset]


class TestConversions:
    def test_truth_to_set_worked_example(self, mathematician_model):
        p = build_predicate(mathematician_model, "mathematician")
        converted = convert_truth_to_set(p)
        assert converted.tensor == Tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_all_false_predicate_converts_to_zero_matrix(self):
        m = Model.from_names(["a", "b"], predicates={"p": []})
        converted = convert_truth_to_set(build_predicate(m, "p"))
        assert converted.tensor == Tensor(np.zeros((2, 2)))

    def test_set_to_truth_worked_example(self):
        p = SetPredicateMatrix(Tensor(np.diag([1.0, 1.0, 0.0])))
        assert convert_set_to_truth(p).tensor == Tensor([[1, 1, 0], [0, 0, 1]])

    def test_zero_matrix_converts_to_all_false(self):
        p = SetPredicateMatrix(Tensor(np.zeros((3, 3))))
        assert convert_set_to_truth(p).tensor == Tensor([[0, 0, 0], [1, 1, 1]])

    def test_round_trips_500_random_predicates(self):
        for m in random_predicate_models(seed=59, count=500, max_domain=6):
            truth_form = build_predicate(m, "p")
            set_form = build_set_predicate(m, "p")
            assert convert_truth_to_set(truth_form) == set_form
            assert convert_set_to_truth(set_form) == truth_form
            assert convert_set_to_truth(convert_truth_to_set(truth_form)) == truth_form
            assert convert_truth_to_set(convert_set_to_truth(set_form)) == set_form

    def test_membership_agreement_across_formulations(self):
        for m in random_predicate_models(seed=61, count=50, max_domain=5):
            truth_form = build_predicate(m, "p")
            vector = predicate_vector(convert_truth_to_set(truth_form))
            for i, atom in enumerate(m.atom_names):
                truth_result = apply_predicate(truth_form, encode_atom(m, atom))
                assert truth_result.as_bool() is bool(vector.tensor[i] == 1.0)

    def test_someone_john_loves_pipeline(self, loves_model):
        m = loves_model
        loves = build_relation(m, "loves")
        john_loves = partial_apply(loves, [encode_atom(m, "j")])
        loved_by_john = predicate_vector(convert_truth_to_set(john_loves))
        assert exists(loved_by_john) == truth_top()
        assert decode_set(m, loved_by_john.tensor) == frozenset({"j"})


class TestNonlinearityWitnesses:
    def test_forall_witness_default(self):
        witness = nonlinearity_witness_forall()
        assert witness.output == truth_top()
        assert not witness.multilinearity_holds
        text = str(witness)
        assert "forall" in text and "fails" in text

    def test_exists_witness_default(self):
        witness = nonlinearity_witness_exists(alpha=5.0)
        assert witness.output == truth_bot()
        assert witness.scaled_output == (0.0, 5.0)
        assert not witness.multilinearity_holds

    def test_forall_witness_example_scales(self):
        witness = nonlinearity_witness_forall(alpha=2.0, beta=3.0)
        assert witness.output == truth_top()
        assert witness.scaled_output == (6.0, 0.0)
        assert not witness.multilinearity_holds

    def test_witnesses_hold_for_random_scales(self):
        rng = random.Random(67)
        for _ in range(20):
            alpha = rng.uniform(1.5, 9.0)
            beta = rng.uniform(1.5, 9.0)
            assert not nonlinearity_witness_forall(alpha, beta).multilinearity_holds
            assert not nonlinearity_witness_exists(alpha).multilinearity_holds

    def test_scale_one_is_degenerate(self):
        # With both scales 1 the scaled output coincides; no witness there.
        assert nonlinearity_witness_forall(1.0, 1.0).multilinearity_holds
