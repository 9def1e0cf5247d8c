"""The per-model tensor memo and the array-level executor.

Plans over one model load the tensors that model memoised on first use, and
``execute`` runs them on the payloads' raw read-only arrays.  These tests
check that path against a freshly built model, against a reference executor
that goes through the public ``Tensor`` operations, and against the oracle.
"""

import random
import sys
import threading
import time

import numpy as np
import pytest

from tensorlogic.dsl import Atom, RelAtom, parse_formula
from tensorlogic.errors import PlanTooLargeError
from tensorlogic.evaluator import compile_formula, execute, oracle_eval
from tensorlogic.generate import random_formula, random_model
from tensorlogic.model import Model, TruthVec
from tensorlogic.sets import SetVector, exists, forall
from tensorlogic.tensor import contract, elementwise_max, elementwise_min


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
            case "emin":
                value = elementwise_min(*srcs)
            case "emax":
                value = elementwise_max(*srcs)
            case "forall":
                value = forall(SetVector(srcs[0]), SetVector(srcs[1])).to_tensor()
            case "exists":
                value = exists(SetVector(srcs[0])).to_tensor()
        registers[instr.dest] = value
    return TruthVec.from_tensor(registers[plan.result])


def bits(v: TruthVec) -> bytes:
    return np.array([v.t, v.f]).tobytes()


def fresh_copy(m: Model) -> Model:
    copy = Model(m.atoms, m.predicates, m.relations)
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


@pytest.mark.parametrize("text", ["~loves(m, j) | loves(j, m)", "exists loves(j, _)"])
def test_cached_payloads_are_read_only(loves_model, text):
    f = parse_formula(text, loves_model)
    plan = compile_formula(f, loves_model)
    loads = [instr for instr in plan.steps if instr.op == "load"]
    assert "rel:loves" in {instr.note for instr in loads}
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
