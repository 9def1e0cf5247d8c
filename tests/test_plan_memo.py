"""The per-model tensor memo and the array-level executor.

Plans over one model load the tensors that model memoised on first use, and
``execute`` runs them on the payloads' raw read-only arrays.  These tests
check that path against a freshly built model, against a reference executor
that goes through the public ``Tensor`` operations, and against the oracle.
"""

import dataclasses
import hashlib
import random
import sys
import threading
import time

import numpy as np
import pytest

from tensorlogic.cli import main
from tensorlogic.dsl import (
    And,
    Atom,
    Exists,
    ForAll,
    Implies,
    Intersect,
    Or,
    PredSet,
    RelAtom,
    Union,
    parse_formula,
)
from tensorlogic.errors import InvalidTruthValueError, PlanTooLargeError
from tensorlogic.evaluator import ContractionPlan, Instr, compile_formula, execute, oracle_eval
from tensorlogic.generate import random_formula, random_model
from tensorlogic.model import Model, TruthVec, encode_atom
from tensorlogic.sets import SetVector, exists, forall
from tensorlogic.tensor import Tensor, contract
from tensorlogic.truth import connective_binary


def reference_execute(plan):
    """Run a plan through the public ``Tensor`` operations, one wrapped and
    validated tensor per register."""
    registers = {}
    for instr in plan.steps:
        srcs = [registers[s] for s in instr.srcs]
        match instr.op:
            case "load":
                value = instr.payload
            case "contract":
                value = contract(*srcs)
            case "columnwise" if srcs[1].rank == 1:
                conn, left, right = srcs
                value = contract(contract(conn, left), right)
            case "columnwise":
                conn, left, right = srcs
                columns = [
                    contract(contract(conn, Tensor(left[:, j])), Tensor(right[:, j])).array
                    for j in range(left.shape[1])
                ]
                value = Tensor(np.stack(columns, axis=1))
            case "forall":
                value = forall(SetVector(srcs[0]), SetVector(srcs[1])).to_tensor()
            case "exists":
                value = exists(SetVector(srcs[0])).to_tensor()
            case _:
                raise ValueError(f"reference executor has no plan op {instr.op!r}")
        registers[instr.dest] = value
    return TruthVec.from_tensor(registers[plan.result])


def bits(v: TruthVec) -> bytes:
    return np.array([v.t, v.f]).tobytes()


def fresh_copy(m: Model) -> Model:
    names = m.atom_names
    copy = Model.from_names(
        names,
        {p: [names[i] for i in ext] for p, ext in m.predicates.items()},
        {
            r: (decl.arity, [tuple(names[i] for i in tup) for tup in decl.tuples])
            for r, decl in m.relations.items()
        },
    )
    assert copy == m and not copy._tensors
    return copy


def test_warm_memo_matches_fresh_model_reference_and_oracle():
    rng = random.Random(2024)
    warm_loads = 0
    for _ in range(600):
        m = random_model(rng, max_domain=4)
        formulas = [random_formula(rng, m, max_depth=3) for _ in range(4)]
        for f in formulas:
            execute(compile_formula(f, m))
        for f in formulas:
            plan = compile_formula(f, m)
            warm_loads += sum(
                instr.payload is m._tensors[instr.note] for instr in plan.steps if instr.op == "load"
            )
            fresh = fresh_copy(m)
            fresh_plan = compile_formula(f, fresh)
            assert plan == fresh_plan
            assert plan.describe() == fresh_plan.describe()
            result = execute(plan)
            assert bits(result) == bits(execute(fresh_plan))
            assert bits(result) == bits(reference_execute(plan))
            assert result.as_bool() == oracle_eval(f, m)
    assert warm_loads > 0


def binary_connectives(node) -> int:
    """How many ``&``, ``|`` and ``->`` nodes the AST under ``node`` holds."""
    own = isinstance(node, (And, Or, Implies, Intersect, Union))
    return own + sum(
        binary_connectives(child)
        for child in vars(node).values()
        if dataclasses.is_dataclass(child)
    )


def test_plans_use_five_ops_and_one_probe_per_quantifier_operand():
    rng = random.Random(2027)
    operands = {"forall": 2, "exists": 1}
    binary = {"conn:and", "conn:or", "conn:implies"}
    for _ in range(400):
        m = random_model(rng, max_domain=4)
        f = random_formula(rng, m, max_depth=4)
        plan = compile_formula(f, m)
        ops = [instr.op for instr in plan.steps]
        assert set(ops) <= {"load", "contract", "columnwise", "forall", "exists"}
        probes = sum(instr.note == "true-row-probe" for instr in plan.steps)
        assert probes == sum(operands.get(op, 0) for op in ops)
        assert ops.count("columnwise") == binary_connectives(f)
        connectives = {instr.dest for instr in plan.steps if instr.note in binary}
        for instr in plan.steps:
            assert instr.op != "contract" or connectives.isdisjoint(instr.srcs)
        assert bits(execute(plan)) == bits(reference_execute(plan))


def test_describe_of_a_conjunction():
    m = Model.from_names(["a", "b"], {"p": ["a"], "q": ["b"]})
    plan = compile_formula(parse_formula("p(a) & q(b)", m), m)
    assert plan.describe().splitlines() == [
        "r0 <- load pred:p  shape (2, 2)",
        "r1 <- load atom:a  shape (2,)",
        "r2 <- contract r0 r1  shape (2,)",
        "r3 <- load pred:q  shape (2, 2)",
        "r4 <- load atom:b  shape (2,)",
        "r5 <- contract r3 r4  shape (2,)",
        "r6 <- load conn:and  shape (2, 2, 2)",
        "r7 <- columnwise r6 r2 r5  shape (2,)",
        "result: r7",
    ]


def test_describe_of_an_intersection():
    m = Model.from_names(["a", "b", "c"], {"p": ["a", "b"], "q": ["b"]})
    plan = compile_formula(parse_formula("exists (p & q)", m), m)
    assert plan.describe().splitlines() == [
        "r0 <- load pred:p  shape (2, 3)",
        "r1 <- load pred:q  shape (2, 3)",
        "r2 <- load conn:and  shape (2, 2, 2)",
        "r3 <- columnwise r2 r0 r1  shape (2, 3)",
        "r4 <- load true-row-probe  shape (2,)",
        "r5 <- contract r4 r3  shape (3,)",
        "r6 <- exists r5  shape (2,)",
        "result: r6",
    ]


def scale_shaped_model(n: int) -> Model:
    """A model shaped like the benchmark's ``scale`` ones: a predicate ``p0``,
    a binary relation ``b`` on 5% of pairs, a ternary ``t`` on 1% of triples."""
    rng = random.Random(n)
    names = [f"x{i}" for i in range(n)]

    def tuples(arity: int, density: float) -> list[tuple[str, ...]]:
        flat = rng.sample(range(n**arity), round(density * n**arity))
        return [tuple(names[i // n**j % n] for j in range(arity)) for i in flat]

    return Model.from_names(
        names,
        {"p0": rng.sample(names, n // 2)},
        {"b": (2, tuples(2, 0.05)), "t": (3, tuples(3, 0.01))},
    )


SCALE_FORMULAS = (
    "t(x1, x2, x3)",
    "exists t(x0, x1, _)",
    "p0(x3) & b(x1, x2)",
    "exists (t(x2, x3, _) & p0)",
    "all p0 (b(x0, _) | t(x1, x1, _))",
    "~b(x0, x1) -> p0(x2) | t(x3, x2, x1)",
)


def test_the_plans_the_builder_emits_are_pinned():
    # The first 2,000 seed-151 instances, drawn in the sweep's order, and
    # fixed formulas over four scale-shaped models: every step, note, shape
    # and register of every plan, as ``describe`` prints them.
    rng = random.Random(151)
    instances = []
    for _ in range(2000):
        m = random_model(rng, max_domain=5)
        instances.append((m, random_formula(rng, m, max_depth=3)))
    for n in (40, 80, 120, 160):
        m = scale_shaped_model(n)
        instances += [(m, parse_formula(text, m)) for text in SCALE_FORMULAS]
    digest = hashlib.sha256()
    for m, f in instances:
        plan = compile_formula(f, m)
        digest.update(plan.describe().encode() + b"\n\n")
        for instr in plan.steps:
            if instr.op == "load":
                assert instr.payload is m._tensors[instr.note]
    assert digest.hexdigest() == (
        "11270a95d7f17b226dc6b59ee273b0eec1056ca6a23e7b76bb45c17d947a3363"
    )


def test_the_verdict_is_the_truth_vector_of_the_result_register():
    # The pinned plans again: ``execute`` reads its verdict off the result
    # register's floats, and gives what ``TruthVec.from_tensor`` makes of
    # that register in the reference executor.  ``repr`` tells a -0.0
    # weight from 0.0, which ``==`` does not.
    rng = random.Random(151)
    instances = []
    for _ in range(2000):
        m = random_model(rng, max_domain=5)
        instances.append((m, random_formula(rng, m, max_depth=3)))
    for n in (40, 80, 120, 160):
        m = scale_shaped_model(n)
        instances += [(m, parse_formula(text, m)) for text in SCALE_FORMULAS]
    for m, f in instances:
        plan = compile_formula(f, m)
        verdict = execute(plan)
        expected = reference_execute(plan)
        assert (repr(verdict.t), repr(verdict.f)) == (repr(expected.t), repr(expected.f))
        assert verdict.extrapolated is False


def loaded_result(values) -> ContractionPlan:
    """A hand-built plan whose result is the one register it loads."""
    return ContractionPlan((Instr("load", 0, payload=Tensor(values), note="v"),), 0, ((2,),))


@pytest.mark.parametrize("values", [[0.25, 0.75], [1.0, -0.0], [-0.0, 1.0], [1.0, 1e-13]])
def test_a_result_that_is_not_a_plain_crisp_pair_keeps_its_floats(values):
    verdict = execute(loaded_result(values))
    assert (repr(verdict.t), repr(verdict.f)) == tuple(map(repr, values))


def test_a_result_that_is_not_normalized_is_refused_as_from_tensor_refuses_it():
    with pytest.raises(InvalidTruthValueError) as expected:
        TruthVec.from_tensor(Tensor([0.5, 0.9]))
    with pytest.raises(InvalidTruthValueError) as info:
        execute(loaded_result([0.5, 0.9]))
    assert str(info.value) == str(expected.value) == "[0.5, 0.9] is not normalized"


def executed_column(plan: ContractionPlan, reg: int, m: Model, j: int) -> TruthVec:
    """Column ``j`` of register ``reg`` as ``execute`` computes it: the plan
    up to ``reg``, then a contraction with the one-hot vector of atom j."""
    k = reg + 1
    atom = Instr("load", k, payload=encode_atom(m, m.atom_names[j]), note="atom")
    read = Instr("contract", k + 1, srcs=(reg, k))
    shapes = plan.register_shapes[:k] + ((m.domain_size,), (2,))
    return execute(ContractionPlan(plan.steps[:k] + (atom, read), k + 1, shapes))


def columnwise_step(plan: ContractionPlan, kind: str) -> Instr:
    """The plan's one ``columnwise`` step, checked to read ``conn:kind``."""
    (step,) = (instr for instr in plan.steps if instr.op == "columnwise")
    assert plan.steps[step.srcs[0]].note == f"conn:{kind}"
    return step


@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize(
    "kind, node, setop",
    [
        ("and", Intersect, np.minimum),
        ("or", Union, np.maximum),
        ("and", And, None),
        ("or", Or, None),
        ("implies", Implies, None),
    ],
)
def test_columnwise_is_the_connective_at_every_column(n, kind, node, setop):
    """Column j of a set combination, and a formula connective between the
    (2,) registers of two applications to atom j, are both the connective
    of the operands' columns j."""
    rng = random.Random(n)
    names = [f"a{i}" for i in range(n)]
    pairs = set()
    for _ in range(10):
        m = Model.from_names(
            names, {s: [a for a in names if rng.random() < 0.5] for s in ("p", "q")}
        )
        if setop is None:
            columns = []
            for name in names:
                plan = compile_formula(node(Atom("p", name), Atom("q", name)), m)
                step = columnwise_step(plan, kind)
                assert step.dest == plan.result
                columns.append(execute(plan))
        else:
            plan = compile_formula(Exists(node(PredSet("p"), PredSet("q"))), m)
            step = columnwise_step(plan, kind)
            assert [plan.steps[s].note for s in step.srcs[1:]] == ["pred:p", "pred:q"]
            columns = [executed_column(plan, step.dest, m, j) for j in range(n)]
        left, right = m._tensors["pred:p"].array, m._tensors["pred:q"].array
        for j, column in enumerate(columns):
            expected = connective_binary(
                kind,
                TruthVec.from_tensor(Tensor(left[:, j])),
                TruthVec.from_tensor(Tensor(right[:, j])),
            )
            assert bits(column) == bits(expected)
            pairs.add((left[0, j], right[0, j]))
        if setop is not None:
            true_row = np.array([column.t for column in columns])
            assert true_row.tobytes() == setop(left[0], right[0]).tobytes()
    assert n < 5 or len(pairs) == 4


@pytest.mark.parametrize(
    "text, note",
    [
        pytest.param("~loves(m, j) | loves(j, m)", "rel:loves(m,_)", id="~loves(m, j) | loves(j, m)"),
        pytest.param("exists loves(j, _)", "rel:loves(j,_)", id="exists loves(j, _)"),
    ],
)
def test_cached_payloads_are_read_only(loves_model, text, note):
    f = parse_formula(text, loves_model)
    plan = compile_formula(f, loves_model)
    loads = [instr for instr in plan.steps if instr.op == "load"]
    assert note in {instr.note for instr in loads}
    for instr in loads:
        assert instr.payload is loves_model._tensors[instr.note]
        with pytest.raises(ValueError):
            instr.payload.array[(0,) * instr.payload.rank] = 0.5
    assert execute(plan) == execute(compile_formula(f, fresh_copy(loves_model)))


def test_memo_is_invisible_to_equality_and_repr(loves_model):
    fresh = fresh_copy(loves_model)
    execute(compile_formula(RelAtom("loves", ("m", "j")), loves_model))
    assert loves_model._tensors
    assert loves_model == fresh
    assert repr(loves_model) == repr(fresh)


def test_cap_is_checked_before_the_memo_and_before_any_build():
    # pred:p over 60 atoms is a 2 x 60 matrix: 120 elements.
    m = Model.from_names([f"x{i}" for i in range(60)], {"p": ["x0"]})
    with pytest.raises(PlanTooLargeError):
        compile_formula(Atom("p", "x0"), m, cap=100)
    assert "pred:p" not in m._tensors
    assert execute(compile_formula(Atom("p", "x0"), m)).as_bool()
    assert "pred:p" in m._tensors
    with pytest.raises(PlanTooLargeError):
        compile_formula(Atom("p", "x0"), m, cap=100)


def test_a_predicate_set_loads_the_predicate_matrix_under_the_cap(tmp_path, capsys):
    # As a set, p reads the true row of its 2 x 60 matrix: 120 elements, where
    # an (n, n) diagonal would be 3,600, above a cap of 1,000.
    names = [f"x{i}" for i in range(60)]
    m = Model.from_names(names, {"p": ["x0", "x7"]})
    for f in (Atom("p", "x0"), Exists(PredSet("p")), ForAll(PredSet("p"), PredSet("p"))):
        assert execute(compile_formula(f, m, cap=1000)).as_bool() == oracle_eval(f, m)
    assert set(m._tensors) == {"pred:p", "atom:x0", "true-row-probe"}
    path = tmp_path / "wide.model"
    path.write_text(f"domain {' '.join(names)}\npred p: x0 x7\n")
    assert main(["eval", "--model", str(path), "--cap", "1000", "--formula", "exists p"]) == 0
    assert capsys.readouterr().err == ""


def test_threads_sharing_a_model_load_one_object_per_symbol():
    rng = random.Random(7)
    names = [f"a{i}" for i in range(12)]
    m = Model.from_names(
        names,
        {"p": names[::2], "q": names[:5]},
        {"r": (3, [tuple(rng.sample(names, 3)) for _ in range(60)]),
         "s": (2, [tuple(rng.sample(names, 2)) for _ in range(30)])},
    )
    formulas = [random_formula(rng, m, max_depth=4) for _ in range(40)]
    expected = [oracle_eval(f, m) for f in formulas]
    workers = 8
    start = threading.Barrier(workers, timeout=30)
    deadline = time.monotonic() + 2.0
    loaded: list[list] = [[] for _ in range(workers)]
    errors: list[BaseException] = []

    def work(k: int) -> None:
        try:
            start.wait()
            order = list(range(len(formulas)))
            random.Random(k).shuffle(order)
            passes = 0
            while passes < 2 or (passes < 50 and time.monotonic() < deadline):
                for i in order:
                    plan = compile_formula(formulas[i], m)
                    assert execute(plan).as_bool() == expected[i]
                    loaded[k].extend(
                        (instr.note, instr.payload) for instr in plan.steps if instr.op == "load"
                    )
                passes += 1
        except BaseException as err:  # reported on the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert all(loaded)
    for per_thread in loaded:
        for note, payload in per_thread:
            assert payload is m._tensors[note]
