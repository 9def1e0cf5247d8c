"""Plan compilation, execution, the set-theoretic oracle, and sweeps."""

import hashlib
import json
import random

import numpy as np
import pytest

import tensorlogic.evaluator as evaluator_module
from tensorlogic.dsl import (
    And,
    Atom,
    Exists,
    ForAll,
    Not,
    PartialRel,
    PredSet,
    RelAtom,
    parse_formula,
    parse_model,
    print_formula,
    print_model,
)
from tensorlogic.errors import (
    DimensionMismatchError,
    ElementCapError,
    NonCharacteristicError,
    PlanTooLargeError,
    TensorLogicError,
)
from tensorlogic.evaluator import (
    SweepConfig,
    compile_formula,
    equivalence_sweep,
    evaluate,
    execute,
    oracle_eval,
    oracle_set_eval,
)
from tensorlogic.generate import random_formula, random_model, random_truth_formula
from tensorlogic.model import Model, truth_bot, truth_top
from tensorlogic.sets import SetVector
from tensorlogic.tensor import DEFAULT_ELEMENT_CAP, Tensor
from tensorlogic.truth import build_relation, connective_not
from tests.helpers import (
    SWEEP_ERROR_MESSAGE,
    assert_contractions_are_plain_dot,
    formulas_up_to_depth,
    leaf_valuation_models,
    patch_sweep_tensor_path,
    quantified_formulas,
    quantifier_plan,
    set_exprs_up_to_depth,
    signature_models,
)


class TestCompileAndExecute:
    def test_atom_plan_structure(self, mathematician_model):
        plan = compile_formula(Atom("mathematician", "john"), mathematician_model)
        assert [instr.op for instr in plan.steps] == ["load", "load", "contract"]
        assert plan.register_shapes == ((2, 3), (3,), (2,))
        assert execute(plan) == truth_top()

    def test_conjunction_plan_runs_both_subplans(self, mathematician_model):
        leaf = Atom("mathematician", "john")
        plan = compile_formula(And(leaf, leaf), mathematician_model)
        loads = [instr.note for instr in plan.steps if instr.op == "load"]
        assert loads.count("pred:mathematician") == 2
        assert loads.count("conn:and") == 1
        assert execute(plan) == truth_top()

    def test_worked_relation_evaluations(self, loves_model):
        assert evaluate(RelAtom("loves", ("m", "j")), loves_model) == truth_top()
        assert evaluate(RelAtom("loves", ("j", "m")), loves_model) == truth_bot()

    def test_quantifier_lowering(self, greek_model):
        plan = compile_formula(
            ForAll(PredSet("greek"), PredSet("human")), greek_model
        )
        assert [instr.op for instr in plan.steps] == [
            "load", "load", "contract", "load", "load", "contract", "forall",
        ]
        assert execute(plan) == truth_top()

    def test_partial_relation_lowering(self, loves_model):
        plan = compile_formula(Exists(PartialRel("loves", ("j",))), loves_model)
        assert [instr.op for instr in plan.steps] == ["load", "load", "contract", "exists"]
        assert plan.steps[0].note == "rel:loves(j,_)"
        assert plan.register_shapes[0] == (2, 2)
        assert execute(plan) == truth_top()

    def test_plan_determinism(self, loves_model):
        f = parse_formula("loves(m, j) & ~loves(j, m)", loves_model)
        assert compile_formula(f, loves_model) == compile_formula(f, loves_model)

    def test_compositionality_of_negation(self):
        rng = random.Random(83)
        for _ in range(50):
            m = random_model(rng, max_domain=4)
            f = random_truth_formula(rng, m, 3)
            assert evaluate(Not(f), m) == connective_not(evaluate(f, m))

    def test_crisp_in_crisp_out(self):
        rng = random.Random(89)
        for _ in range(100):
            m = random_model(rng, max_domain=4)
            f = random_formula(rng, m, max_depth=4)
            assert evaluate(f, m).is_crisp

    def test_plan_too_large(self):
        # The (2, 60) slice is above the cap; the 60-element one-hot is not.
        m = Model.from_names(
            [f"x{i}" for i in range(60)], relations={"r": (3, [])}
        )
        with pytest.raises(PlanTooLargeError) as info:
            compile_formula(RelAtom("r", ("x0", "x1", "x2")), m, cap=100)
        assert str(info.value) == (
            "rel:r(x0,x1,_) needs a tensor of 120 elements, above the cap of 100"
        )

    @pytest.mark.parametrize(
        "build, what, size, cap, error",
        [
            (
                # A zero-copy view: the cap is checked before any copy.
                lambda m: Tensor(np.broadcast_to(0.0, (DEFAULT_ELEMENT_CAP + 1,))),
                "Tensor construction",
                DEFAULT_ELEMENT_CAP + 1,
                DEFAULT_ELEMENT_CAP,
                ElementCapError,
            ),
            (lambda m: build_relation(m, "r", cap=100), "r", 2000, 100, ElementCapError),
            (
                # A (2, 1000) slice: plans load no dense relation tensor.
                lambda m: compile_formula(
                    RelAtom("r", ("x0", "x1", "x2")),
                    Model.from_names([f"x{i}" for i in range(1000)], relations={"r": (3, [])}),
                    cap=100,
                ),
                "rel:r(x0,x1,_)",
                2000,
                100,
                PlanTooLargeError,
            ),
        ],
        ids=["Tensor", "build_relation", "compile_formula"],
    )
    def test_every_cap_check_has_one_message(self, build, what, size, cap, error):
        m = Model.from_names([f"x{i}" for i in range(10)], relations={"r": (3, [])})
        with pytest.raises(error) as info:
            build(m)
        assert isinstance(info.value, ElementCapError)
        assert str(info.value) == (
            f"{what} needs a tensor of {size} elements, above the cap of {cap}"
        )

    def test_quantifier_steps_build_no_tensor_and_no_set_vector(self, greek_model, monkeypatch):
        m = greek_model
        texts = ["all greek human", "all human greek", "exists (greek & human)", "exists greek"]
        plans = [compile_formula(parse_formula(text, m), m) for text in texts]
        built = []

        def count(original):
            def counted(self, *args, **kwargs):
                built.append(type(self).__name__)
                return original(self, *args, **kwargs)

            return counted

        monkeypatch.setattr(Tensor, "__init__", count(Tensor.__init__))
        monkeypatch.setattr(SetVector, "__post_init__", count(SetVector.__post_init__))
        results = [execute(plan) for plan in plans]
        assert built == []
        assert results == [truth_top(), truth_bot(), truth_top(), truth_top()]

    @pytest.mark.parametrize("op, srcs", [("forall", (0, 1)), ("exists", (0,))])
    def test_a_quantifier_operand_off_the_grid_is_refused(self, op, srcs):
        off_grid = Tensor([0.5, 1.0])
        plan = quantifier_plan(op, srcs, off_grid, Tensor([1.0, 1.0]))
        with pytest.raises(NonCharacteristicError) as expected:
            SetVector(off_grid)
        with pytest.raises(NonCharacteristicError) as info:
            execute(plan)
        assert str(info.value) == str(expected.value)
        assert str(info.value) == "set vector entries must be 0 or 1, got [0.5, 1.0]"

    @pytest.mark.parametrize("srcs, lengths", [((0, 1), "1 and 2"), ((1, 0), "2 and 1")])
    def test_a_forall_over_unequal_lengths_is_refused(self, srcs, lengths):
        plan = quantifier_plan("forall", srcs, Tensor([1.0]), Tensor([0.0, 1.0]))
        with pytest.raises(DimensionMismatchError) as info:
            execute(plan)
        assert str(info.value) == f"forall requires equal lengths, got {lengths}"

    def test_plan_description_is_readable(self, mathematician_model):
        plan = compile_formula(Atom("mathematician", "tom"), mathematician_model)
        text = plan.describe()
        assert "load pred:mathematician" in text
        assert text.strip().endswith("result: r2")


# Hand-worked evaluations over a two-atom model where j is happy, j loves
# only himself, and m loves both.  Truth values computed by hand from the
# extensions and recorded here.
FIXTURE_MODEL_TEXT = """\
domain j m
pred happy: j
rel loves/2: (j, j) (m, m) (m, j)
"""

HAND_COMPUTED = [
    ("loves(m, j)", True),
    ("loves(j, m)", False),
    ("~loves(j, m)", True),
    ("loves(j, j) & loves(m, m)", True),
    ("loves(j, m) | happy(j)", True),
    ("loves(m, j) -> loves(j, m)", False),
    ("happy(m) -> loves(j, m)", True),
    ("~(happy(j) & loves(j, m))", True),
    ("all happy loves(m, _)", True),
    ("all loves(m, _) happy", False),
    ("exists (happy & loves(j, _))", True),
]


class TestOracle:
    @pytest.fixture
    def fixture_model(self):
        return parse_model(FIXTURE_MODEL_TEXT)

    def test_worked_relation_case(self, loves_model):
        assert oracle_eval(RelAtom("loves", ("m", "j")), loves_model) is True

    def test_full_extension_predicate(self):
        m = Model.from_names(["a", "b", "c"], predicates={"p": ["a", "b", "c"]})
        for atom in m.atom_names:
            assert oracle_eval(Atom("p", atom), m) is True

    @pytest.mark.parametrize("text,expected", HAND_COMPUTED)
    def test_hand_computed_fixtures(self, fixture_model, text, expected):
        f = parse_formula(text, fixture_model)
        assert oracle_eval(f, fixture_model) is expected
        assert evaluate(f, fixture_model).as_bool() is expected

    def test_set_eval_partial_relation(self, fixture_model):
        assert oracle_set_eval(PartialRel("loves", ("m",)), fixture_model) == {0, 1}
        assert oracle_set_eval(PartialRel("loves", ("j",)), fixture_model) == {0}


#: Every walk over a formula's AST, as a call on a formula and a model.
AST_WALKS = {
    "compile_formula": compile_formula,
    "evaluate": evaluate,
    "oracle_eval": oracle_eval,
    "oracle_set_eval": oracle_set_eval,
    "print_formula": lambda f, m: print_formula(f),
}
NON_NODES = {
    "text": "p(a)",
    "object": object(),
    "below-not": Not("p(a)"),
    "below-exists": Exists(object()),
}


@pytest.mark.parametrize("node", NON_NODES.values(), ids=NON_NODES)
@pytest.mark.parametrize("walk", AST_WALKS.values(), ids=AST_WALKS)
def test_every_ast_walk_refuses_a_non_node(walk, node):
    m = Model.from_names(["a"], {"p": ["a"]})
    with pytest.raises(TypeError, match="not a formula node"):
        walk(node, m)


class TestExhaustiveAgreement:
    def test_all_connective_formulas_on_all_leaf_valuations(self):
        models = leaf_valuation_models()
        leaves = [Atom("p", "a"), Atom("q", "b"), RelAtom("r", ("a", "b"))]
        formulas = formulas_up_to_depth(3, leaves)
        assert len(formulas) == 3303
        for m in models:
            for f in formulas[:500]:
                assert evaluate(f, m).as_bool() is oracle_eval(f, m)

    def test_all_quantified_formulas_small(self):
        models = leaf_valuation_models()
        set_leaves = [PredSet("p"), PredSet("q"), PartialRel("r", ("a",))]
        exprs = set_exprs_up_to_depth(2, set_leaves)
        formulas = quantified_formulas(exprs)
        for m in models[:4]:
            for f in formulas:
                assert evaluate(f, m).as_bool() is oracle_eval(f, m)

    def test_every_two_atom_model_with_canonical_battery(self):
        models = signature_models(2)
        assert len(models) == 256
        battery_texts = [
            "p(x0)",
            "r(x0, x1) & ~q(x1)",
            "p(x1) -> r(x1, x1) | q(x0)",
            "all p q",
            "exists (p & r(x0, _))",
            "exists (~p & r(x0, _))",
            "all p (q -> r(x0, _))",
        ]
        for m in models:
            for text in battery_texts:
                f = parse_formula(text, m)
                assert evaluate(f, m).as_bool() is oracle_eval(f, m), (text,)


class TestEquivalenceSweep:
    def test_zero_count_gives_empty_report(self):
        report = equivalence_sweep(SweepConfig(count=0))
        assert report.verdicts == ()
        assert report.disagreements == ()
        assert "instances=0" in report.summary()

    def test_seeded_runs_are_identical(self):
        config = SweepConfig(max_domain=4, max_depth=3, seed=12345, count=200)
        first = equivalence_sweep(config)
        second = equivalence_sweep(config)
        assert first.to_lines() == second.to_lines()

    def test_seed_151_stream_is_pinned(self):
        # The generators' seed-151 draws and every verdict they lead to, as
        # records: a change to either moves this digest.
        report = equivalence_sweep(SweepConfig(max_domain=5, max_depth=3, seed=151, count=2000))
        text = "\n".join(report.to_lines()) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3e1769fa4160a3f76c928ea6f91dd5794452805f952be30e7bc7f24926192c32"
        )

    def test_seed_151_plans_contract_only_rank_two_pairs(self):
        rng = random.Random(151)
        for _ in range(2000):
            m = random_model(rng, max_domain=5)
            f = random_formula(rng, m, max_depth=3)
            assert_contractions_are_plain_dot(compile_formula(f, m), m.domain_size)

    def test_sweep_agrees(self):
        report = equivalence_sweep(SweepConfig(max_domain=4, max_depth=3, seed=7, count=500))
        assert not report.disagreements

    def test_records_are_self_describing_json(self):
        report = equivalence_sweep(SweepConfig(seed=1, count=5))
        for line in report.to_lines():
            record = json.loads(line)
            assert set(record) == {"seed", "index", "formula", "tensor", "oracle", "agree"}
            assert record["seed"] == 1
            assert record["tensor"] in ("T", "F")

    def test_disagreements_are_dumped_as_rerunnable_files(self, tmp_path, monkeypatch):
        # Force the oracle to lie so the disagreement path runs.
        real_oracle = evaluator_module.oracle_eval
        monkeypatch.setattr(
            evaluator_module, "oracle_eval", lambda f, m: not real_oracle(f, m)
        )
        config = SweepConfig(seed=3, count=4)
        report = equivalence_sweep(config, artifact_dir=tmp_path)
        assert len(report.disagreements) == 4
        # Regenerate the instances from the seed: each file holds its own.
        rng = random.Random(config.seed)
        for verdict in report.disagreements:
            m = random_model(rng, max_domain=config.max_domain)
            f = random_formula(rng, m, max_depth=config.max_depth)
            model_file = tmp_path / f"disagreement_{verdict.index}.model"
            formula_file = tmp_path / f"disagreement_{verdict.index}.formula"
            assert model_file.read_text() == print_model(m)
            assert formula_file.read_text() == print_formula(f) + "\n"
            dumped_model = parse_model(model_file.read_text())
            reparsed = parse_formula(formula_file.read_text(), dumped_model)
            assert print_formula(reparsed) == verdict.formula_text

    def test_tensor_path_errors_are_recorded_per_instance(self, tmp_path, monkeypatch):
        patch_sweep_tensor_path(monkeypatch, fail_at=2)
        report = equivalence_sweep(SweepConfig(seed=1, count=5), artifact_dir=tmp_path)
        assert len(report.verdicts) == 5 and report.disagreements == ()
        (failed,) = report.errors
        assert failed.index == 2 and failed.tensor_result is None and not failed.agree
        assert isinstance(failed.error, PlanTooLargeError)
        assert "instances=5 agreements=4 disagreements=0 errors=1 " in report.summary()
        assert json.loads(report.to_lines()[2]) == {
            "seed": 1,
            "index": 2,
            "formula": failed.formula_text,
            "oracle": failed.oracle_result,
            "error": "PlanTooLargeError",
            "message": SWEEP_ERROR_MESSAGE,
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [DimensionMismatchError, TensorLogicError])
    def test_other_tensor_path_errors_end_the_sweep(self, monkeypatch, error):
        patch_sweep_tensor_path(monkeypatch, fail_at=2, error=error)
        with pytest.raises(error, match=SWEEP_ERROR_MESSAGE):
            equivalence_sweep(SweepConfig(seed=1, count=5))

    def test_a_model_above_the_cap_is_refused_before_its_tuples_are_drawn(self):
        # Seed 0 draws 198 atoms, then an arity-3 relation: 2 * 198^3 elements.
        # Listing its 7.8M candidate tuples first would take gigabytes.
        message = (
            "a random arity-3 relation over 198 atoms needs a tensor of 15524784 "
            "elements, above the cap of 10000000"
        )
        with pytest.raises(ElementCapError) as info:
            random_model(random.Random(0), max_domain=400)
        assert str(info.value) == message

    def test_no_artifacts_written_on_agreement(self, tmp_path):
        equivalence_sweep(SweepConfig(seed=11, count=50), artifact_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
