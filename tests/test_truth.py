"""Truth calculus: predicate/relation tensors, connectives, normalization.

Membership oracles here are plain set lookups on the model, written against
the model data and never against the tensors they check.
"""

import itertools
import random

import numpy as np
import pytest

from tensorlogic.dsl import TABLE
from tensorlogic.errors import (
    ArityError,
    DimensionMismatchError,
    InvalidPredicateError,
    NonOneHotError,
    RankError,
)
from tensorlogic.model import Model, TruthVec, encode_atom, truth_bot, truth_top
from tensorlogic.tensor import Tensor
from tensorlogic.truth import (
    CONNECTIVES,
    Connective,
    ConnectiveTensor,
    PredicateMatrix,
    RelationTensor,
    apply_predicate,
    apply_relation,
    build_predicate,
    build_relation,
    connective_binary,
    connective_not,
    connective_tensor,
    partial_apply,
)


def random_models(seed, count, max_domain, arity=2):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_domain)
        atoms = [f"x{i}" for i in range(n)]
        extension = [a for a in atoms if rng.random() < 0.5]
        tuples = [
            tup for tup in itertools.product(atoms, repeat=arity) if rng.random() < 0.5
        ]
        yield Model.from_names(
            atoms, predicates={"p": extension}, relations={"r": (arity, tuples)}
        )


class TestBuildPredicate:
    def test_worked_example(self, mathematician_model):
        p = build_predicate(mathematician_model, "mathematician")
        assert p.tensor == Tensor([[1, 1, 0], [0, 0, 1]])

    def test_empty_extension(self):
        m = Model.from_names(["a", "b"], predicates={"p": []})
        p = build_predicate(m, "p")
        assert p.tensor == Tensor([[0, 0], [1, 1]])

    def test_membership_oracle_200_random_models(self):
        for m in random_models(seed=101, count=200, max_domain=5):
            p = build_predicate(m, "p")
            extension = m.predicate_extension("p")
            for i, atom in enumerate(m.atom_names):
                result = apply_predicate(p, encode_atom(m, atom))
                assert result.as_bool() is (i in extension)

    def test_validation_rejects_bad_columns(self):
        with pytest.raises(InvalidPredicateError):
            PredicateMatrix(Tensor([[1, 1], [1, 0]]))
        with pytest.raises(InvalidPredicateError):
            PredicateMatrix(Tensor([[0.5, 0], [0.5, 1]]))
        with pytest.raises(InvalidPredicateError):
            PredicateMatrix(Tensor([1, 0]))


class TestBuildRelation:
    def test_worked_example_slices(self, loves_model):
        r = build_relation(loves_model, "loves")
        # True at (j,j), (m,m), (m,j); reversed storage puts the first
        # argument on the rightmost index.
        assert r.tensor[0].tolist() == [[1.0, 1.0], [0.0, 1.0]]
        assert r.tensor[1].tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_empty_relation(self):
        m = Model.from_names(["a", "b"], relations={"r": (2, [])})
        r = build_relation(m, "r")
        assert np.all(r.tensor[0] == 0.0)
        assert np.all(r.tensor[1] == 1.0)

    def test_arity_one_builds_predicate_matrix(self):
        m = Model.from_names(["a", "b"], relations={"r": (1, [("b",)])})
        built = build_relation(m, "r")
        assert isinstance(built, PredicateMatrix)
        assert built.tensor == Tensor([[0, 1], [1, 0]])

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_membership_oracle_200_random_relations(self, arity):
        for m in random_models(seed=202, count=200, max_domain=4, arity=arity):
            r = build_relation(m, "r")
            tuples = m.relation_decl("r").tuples
            for tup in itertools.product(range(m.domain_size), repeat=arity):
                args = [encode_atom(m, m.atom_names[i]) for i in tup]
                if arity == 1:
                    result = apply_predicate(r, args[0])
                else:
                    result = apply_relation(r, args)
                assert result.as_bool() is (tup in tuples)

    def test_more_axes_than_numpy_allows_is_a_rank_error(self):
        # Over one atom the tensor has 2 elements, so the cap check passes;
        # numpy refuses above 32 axes (numpy 1) or 64 (numpy 2).
        m = Model.from_names(["a"], relations={"r": (65, [])})
        with pytest.raises(RankError) as info:
            build_relation(m, "r")
        assert str(info.value) == "r needs a tensor of 66 axes, more than numpy allows"

    def test_an_arity_numpy_1_allows_still_builds(self):
        m = Model.from_names(["a"], relations={"r": (31, [("a",) * 31])})
        r = build_relation(m, "r")
        assert r.tensor.shape == (2,) + (1,) * 31
        assert r.tensor.array.ravel().tolist() == [1.0, 0.0]

    def test_validation_rejects_unnormalized(self):
        with pytest.raises(InvalidPredicateError):
            RelationTensor(2, Tensor(np.ones((2, 2, 2))))
        with pytest.raises(ArityError):
            RelationTensor(1, Tensor(np.zeros((2, 2))))


class TestApply:
    def test_worked_predicate_applications(self, mathematician_model):
        m = mathematician_model
        p = build_predicate(m, "mathematician")
        assert apply_predicate(p, encode_atom(m, "john")) == truth_top()
        assert apply_predicate(p, encode_atom(m, "tom")) == truth_bot()

    def test_worked_relation_applications(self, loves_model):
        m = loves_model
        r = build_relation(m, "loves")
        mary, john = encode_atom(m, "m"), encode_atom(m, "j")
        assert apply_relation(r, [mary, john]) == truth_top()
        assert apply_relation(r, [john, mary]) == truth_bot()

    def test_exhaustive_predicate_oracle_small_domains(self):
        for m in random_models(seed=303, count=60, max_domain=4):
            p = build_predicate(m, "p")
            for i, atom in enumerate(m.atom_names):
                expected = i in m.predicate_extension("p")
                assert apply_predicate(p, encode_atom(m, atom)).as_bool() is expected

    def test_crisp_mode_rejects_non_one_hot(self, mathematician_model):
        p = build_predicate(mathematician_model, "mathematician")
        with pytest.raises(NonOneHotError):
            apply_predicate(p, Tensor([1, 1, 0]))
        with pytest.raises(NonOneHotError):
            apply_predicate(p, Tensor([0.5, 0.5, 0]))

    def test_prob_mode_convex_combination(self, mathematician_model):
        p = build_predicate(mathematician_model, "mathematician")
        result = apply_predicate(p, Tensor([0.5, 0.25, 0.25]), mode="prob")
        assert not result.extrapolated
        assert result.is_normalized
        assert result == TruthVec(0.75, 0.25)

    def test_prob_mode_flags_extrapolation(self, mathematician_model):
        p = build_predicate(mathematician_model, "mathematician")
        result = apply_predicate(p, Tensor([2.0, 0.0, 0.0]), mode="prob")
        assert result.extrapolated
        assert result.t == 2.0

    def test_dimension_and_arity_errors(self, loves_model):
        r = build_relation(loves_model, "loves")
        with pytest.raises(ArityError):
            apply_relation(r, [encode_atom(loves_model, "j")])
        with pytest.raises(DimensionMismatchError):
            apply_relation(r, [Tensor([1, 0, 0]), Tensor([1, 0])])


class TestPartialApply:
    def test_binding_first_argument_gives_predicate(self, loves_model):
        m = loves_model
        r = build_relation(m, "loves")
        john_loves = partial_apply(r, [encode_atom(m, "j")])
        assert isinstance(john_loves, PredicateMatrix)
        assert john_loves.tensor == Tensor([[1, 0], [0, 1]])
        assert apply_predicate(john_loves, encode_atom(m, "j")) == truth_top()
        assert apply_predicate(john_loves, encode_atom(m, "m")) == truth_bot()

    def test_zero_prefix_returns_unchanged_tensor(self, loves_model):
        r = build_relation(loves_model, "loves")
        result = partial_apply(r, [])
        assert isinstance(result, RelationTensor)
        assert result.tensor == r.tensor and result.arity == r.arity

    def test_composition_matches_full_application(self):
        rng = random.Random(404)
        for _ in range(30):
            n = rng.randint(1, 3)
            atoms = [f"x{i}" for i in range(n)]
            tuples = [
                tup for tup in itertools.product(atoms, repeat=3) if rng.random() < 0.5
            ]
            m = Model.from_names(atoms, relations={"r": (3, tuples)})
            r = build_relation(m, "r")
            for trip in itertools.product(atoms, repeat=3):
                args = [encode_atom(m, a) for a in trip]
                direct = apply_relation(r, args)
                stepped = partial_apply(r, args[:1])
                stepped = partial_apply(stepped, args[1:2])
                assert isinstance(stepped, PredicateMatrix)
                assert apply_predicate(stepped, args[2]) == direct

    def test_partial_of_predicate_result_stays_valid(self, loves_model):
        r = build_relation(loves_model, "loves")
        pm = partial_apply(r, [encode_atom(loves_model, "m")])
        # Derived object passes strict validation too.
        PredicateMatrix(pm.tensor)

    def test_prob_mode_validates_the_result(self, loves_model):
        r = build_relation(loves_model, "loves")
        with pytest.raises(InvalidPredicateError):
            partial_apply(r, [Tensor([0.5, 0.5])], mode="prob")

    def test_prob_mode_one_hot_gives_crisp_result(self, loves_model):
        m = loves_model
        r = build_relation(m, "loves")
        for atom in m.atom_names:
            args = [encode_atom(m, atom)]
            assert partial_apply(r, args, mode="prob") == partial_apply(r, args)

    def test_full_application_rejected(self, loves_model):
        r = build_relation(loves_model, "loves")
        with pytest.raises(ArityError):
            partial_apply(r, [encode_atom(loves_model, "j"), encode_atom(loves_model, "m")])


class TestConnectiveTensors:
    def test_displayed_tensors(self):
        assert connective_tensor("not").tensor == Tensor([[0, 1], [1, 0]])
        by_blocks = lambda t: np.hstack([t.array[:, :, 0], t.array[:, :, 1]]).tolist()
        assert by_blocks(connective_tensor("or").tensor) == [[1, 1, 1, 0], [0, 0, 0, 1]]
        assert by_blocks(connective_tensor("and").tensor) == [[1, 0, 0, 0], [0, 1, 1, 1]]
        assert by_blocks(connective_tensor("implies").tensor) == [[1, 0, 1, 1], [0, 1, 0, 0]]

    def test_block_columns_are_normalized(self):
        for conn in CONNECTIVES.values():
            assert np.all(conn.tensor.array.reshape(2, -1).sum(axis=0) == 1.0)

    def test_constructor_revalidates(self):
        with pytest.raises(InvalidPredicateError):
            ConnectiveTensor(Connective.NOT, Tensor([[1, 1], [1, 0]]))
        with pytest.raises(InvalidPredicateError):
            ConnectiveTensor(Connective.AND, Tensor(np.ones((2, 2, 2))))

    def test_unknown_connective(self):
        with pytest.raises(ValueError):
            connective_tensor("xor")


TOP, BOT = truth_top(), truth_bot()
#: Each connective's classical table, operands -> value, written out.
CLASSICAL = {
    "not": {(1,): 0, (0,): 1},
    "and": {(1, 1): 1, (1, 0): 0, (0, 1): 0, (0, 0): 0},
    "or": {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 0},
    "implies": {(1, 1): 1, (1, 0): 0, (0, 1): 1, (0, 0): 1},
}
#: Each binary tensor's two 2 x 2 blocks as they were written out before the
#: tensors were derived from the table: left operand true, then false.
BLOCKS = {
    "and": ([[1, 0], [0, 1]], [[0, 0], [1, 1]]),
    "or": ([[1, 1], [0, 0]], [[1, 0], [0, 1]]),
    "implies": ([[1, 0], [0, 1]], [[1, 1], [0, 0]]),
}


class TestConnectiveTable:
    """The rows of ``dsl.TABLE`` and what is derived from them."""

    def test_members_keep_their_order(self):
        assert [c.value for c in Connective] == ["not", "and", "or", "implies"]
        assert [c.name for c in Connective] == ["NOT", "AND", "OR", "IMPLIES"]
        assert list(CONNECTIVES) == list(Connective)
        assert Connective.__module__ == "tensorlogic.truth"
        assert [row.name for row in TABLE] == list(CLASSICAL)

    @pytest.mark.parametrize("name", list(CLASSICAL))
    def test_each_row_holds_its_classical_table(self, name):
        (row,) = [row for row in TABLE if row.name == name]
        for inputs, expected in CLASSICAL[name].items():
            assert row.holds(*map(bool, inputs)) is bool(expected), (name, inputs)

    @pytest.mark.parametrize("name", list(BLOCKS))
    def test_derived_tensor_is_the_written_out_blocks(self, name):
        arr = connective_tensor(name).tensor.array
        blocks = np.stack([np.array(block, np.float64) for block in BLOCKS[name]], axis=-1)
        assert arr.dtype == blocks.dtype and arr.shape == blocks.shape
        assert arr.tobytes() == blocks.tobytes()

    def test_derived_negation_is_the_swap_matrix(self):
        arr = connective_tensor("not").tensor.array
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert arr.dtype == swap.dtype and arr.shape == swap.shape
        assert arr.tobytes() == swap.tobytes()


class TestConnectiveEvaluation:
    def test_negation_crisp(self):
        assert connective_not(TOP) == BOT
        assert connective_not(BOT) == TOP

    def test_negation_involution(self):
        for v in (TOP, BOT, TruthVec(0.3, 0.7)):
            assert connective_not(connective_not(v)) == v

    def test_negation_swaps_components(self):
        rng = random.Random(17)
        for _ in range(50):
            alpha = rng.random()
            v = TruthVec(alpha, 1 - alpha)
            swapped = connective_not(v)
            assert swapped.t == v.f and swapped.f == v.t

    def test_truth_tables_complete(self):
        # 2 cases for negation plus 4 for each of the 3 binary connectives.
        vec = {1: TOP, 0: BOT}
        checked = 0
        for name, table in CLASSICAL.items():
            for inputs, expected in table.items():
                operands = [vec[x] for x in inputs]
                if name == "not":
                    result = connective_not(*operands)
                else:
                    result = connective_binary(name, *operands)
                assert result == vec[expected], (name, inputs)
                checked += 1
        assert checked == 14

    def test_conjunction_symbolic_form(self):
        # Frozen closed form of conjunction on arbitrary normalized pairs.
        rng = random.Random(29)
        for _ in range(100):
            a1 = rng.random()
            a2 = rng.random()
            v = TruthVec(a1, 1 - a1)
            w = TruthVec(a2, 1 - a2)
            result = connective_binary("and", v, w)
            expected_t = v.t * w.t
            expected_f = v.f * w.t + (v.t + v.f) * w.f
            assert abs(result.t - expected_t) <= 1e-12
            assert abs(result.f - expected_f) <= 1e-12

    def test_normalization_preserved_1000_pairs(self):
        rng = random.Random(31)
        for _ in range(1000):
            v = TruthVec(*(lambda a: (a, 1 - a))(rng.random()))
            w = TruthVec(*(lambda a: (a, 1 - a))(rng.random()))
            for name in ("and", "or", "implies"):
                out = connective_binary(name, v, w)
                assert abs(out.t + out.f - 1.0) <= 1e-12
                assert out.t >= -1e-12 and out.f >= -1e-12

    def test_binary_rejects_negation_kind(self):
        with pytest.raises(ValueError):
            connective_binary("not", TOP, BOT)
