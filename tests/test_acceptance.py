"""Acceptance suite: the worked examples and property sweeps, one test per
criterion, each printing a pass/fail line (run with ``pytest -s`` to see them
on success).

Tolerances are pinned here and nowhere else: worked examples and quantifier
decisions are exact; probabilistic truth arithmetic is checked at an absolute
1e-12; component non-negativity allows -1e-12 of float slack.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np

from tensorlogic.dsl import (
    Atom,
    PartialRel,
    PredSet,
    RelAtom,
    parse_formula,
    parse_model,
    print_formula,
    print_model,
)
from tensorlogic.evaluator import (
    SweepConfig,
    equivalence_sweep,
    evaluate,
    oracle_eval,
)
from tensorlogic.generate import random_formula, random_model
from tensorlogic.model import Model, TruthVec, decode_set, encode_atom, truth_bot, truth_top
from tensorlogic.sets import (
    SetVector,
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
from tensorlogic.tensor import Tensor
from tensorlogic.truth import (
    apply_predicate,
    apply_relation,
    build_predicate,
    build_relation,
    connective_binary,
    connective_not,
    connective_tensor,
    partial_apply,
)
from tests.conftest import BROWN_DOG_TEXT, LOVES_TEXT, MATHEMATICIAN_TEXT
from tests.helpers import (
    encode_set,
    formulas_up_to_depth,
    intersect,
    leaf_valuation_models,
    quantified_formulas,
    set_exprs_up_to_depth,
    signature_model,
    signature_model_count,
)

TOL = 1e-12


def _report(number, description, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_membership_matrix_example():
    m = parse_model(MATHEMATICIAN_TEXT)
    build_predicate(m, "mathematician")  # warm-up outside the timed window

    start = time.perf_counter()
    p = build_predicate(m, "mathematician")
    john = apply_predicate(p, encode_atom(m, "john"))
    tom = apply_predicate(p, encode_atom(m, "tom"))
    elapsed = time.perf_counter() - start

    ok = (
        p.tensor == Tensor([[1, 1, 0], [0, 0, 1]])
        and john == truth_top()
        and tom == truth_bot()
        and elapsed < 1e-3
    )
    _report(1, "unary membership matrix and its two applications (exact, <1ms)", ok)


def test_criterion_2_binary_relation_example():
    m = parse_model(LOVES_TEXT)
    build_relation(m, "loves")  # warm-up

    start = time.perf_counter()
    r = build_relation(m, "loves")
    j, mary = encode_atom(m, "j"), encode_atom(m, "m")
    mary_loves_john = apply_relation(r, [mary, j])
    john_loves_mary = apply_relation(r, [j, mary])
    john_loves = partial_apply(r, [j])
    at_j = apply_predicate(john_loves, j)
    at_m = apply_predicate(john_loves, mary)
    elapsed = time.perf_counter() - start

    ok = (
        mary_loves_john == truth_top()
        and john_loves_mary == truth_bot()
        and john_loves.tensor == Tensor([[1, 0], [0, 1]])
        and at_j == truth_top()
        and at_m == truth_bot()
        and elapsed < 1e-3
    )
    _report(2, "binary relation applications and partial application (exact, <1ms)", ok)


def test_criterion_3_connective_tensors_and_truth_tables():
    blocks = lambda t: np.hstack([t.array[:, :, 0], t.array[:, :, 1]]).tolist()
    tensors_ok = (
        connective_tensor("not").tensor == Tensor([[0, 1], [1, 0]])
        and blocks(connective_tensor("or").tensor) == [[1, 1, 1, 0], [0, 0, 0, 1]]
        and blocks(connective_tensor("and").tensor) == [[1, 0, 0, 0], [0, 1, 1, 1]]
        and blocks(connective_tensor("implies").tensor) == [[1, 0, 1, 1], [0, 1, 0, 0]]
    )

    vec = {True: truth_top(), False: truth_bot()}
    tables = {
        "and": lambda a, b: a and b,
        "or": lambda a, b: a or b,
        "implies": lambda a, b: (not a) or b,
    }
    cases = 0
    tables_ok = True
    for name, classical in tables.items():
        for a, b in itertools.product((True, False), repeat=2):
            tables_ok &= connective_binary(name, vec[a], vec[b]) == vec[classical(a, b)]
            cases += 1
    for a in (True, False):
        tables_ok &= connective_not(vec[a]) == vec[not a]
        cases += 1

    rng = random.Random(131)
    symbolic_ok = True
    for _ in range(100):
        a1, a2 = rng.random(), rng.random()
        v, w = TruthVec(a1, 1 - a1), TruthVec(a2, 1 - a2)
        out = connective_binary("and", v, w)
        symbolic_ok &= abs(out.t - v.t * w.t) <= TOL
        symbolic_ok &= abs(out.f - (v.f * w.t + (v.t + v.f) * w.f)) <= TOL

    ok = tensors_ok and tables_ok and cases == 14 and symbolic_ok
    _report(3, "connective tensors, 14 crisp cases, symbolic conjunction (1e-12)", ok)


def test_criterion_4_normalization_preservation():
    rng = random.Random(137)
    ok = True
    for _ in range(1000):
        a1, a2 = rng.random(), rng.random()
        v, w = TruthVec(a1, 1 - a1), TruthVec(a2, 1 - a2)
        for name in ("and", "or", "implies"):
            out = connective_binary(name, v, w)
            ok &= abs(out.t + out.f - 1.0) <= TOL
            ok &= out.t >= -TOL and out.f >= -TOL
        negated = connective_not(v)
        ok &= sorted((negated.t, negated.f)) == sorted((v.t, v.f))
    _report(4, "1000 random normalized pairs stay normalized through connectives", ok)


def test_criterion_5_set_filtering_example():
    m = parse_model(BROWN_DOG_TEXT)
    brown = build_set_predicate(m, "brown")
    dogs = SetVector(encode_set(m, {"a", "b"}))
    brown_dogs = apply_set_predicate(brown, dogs)
    witness = intersect(
        predicate_vector(build_set_predicate(m, "brown")),
        predicate_vector(build_set_predicate(m, "dog")),
    )
    ok = (
        brown.tensor == Tensor([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        and brown_dogs.tensor == Tensor([0, 1, 0])
        and decode_set(m, brown_dogs.tensor) == frozenset({"b"})
        and exists(witness) == truth_top()
    )
    _report(5, "diagonal predicate filters the dog set to {b}; a brown dog exists", ok)


def test_criterion_6_quantifier_semantics():
    start = time.perf_counter()
    subset_ok = True
    vectors4 = [list(bits) for bits in itertools.product((0.0, 1.0), repeat=4)]
    pairs = 0
    for x_bits in vectors4:
        x_set = {i for i, bit in enumerate(x_bits) if bit}
        for y_bits in vectors4:
            y_set = {i for i, bit in enumerate(y_bits) if bit}
            expected = truth_top() if x_set <= y_set else truth_bot()
            subset_ok &= forall(SetVector(Tensor(x_bits)), SetVector(Tensor(y_bits))) == expected
            pairs += 1

    exists_ok = True
    subsets = 0
    for bits in itertools.product((0.0, 1.0), repeat=6):
        expected = truth_top() if any(bits) else truth_bot()
        exists_ok &= exists(SetVector(Tensor(list(bits)))) == expected
        subsets += 1
    elapsed = time.perf_counter() - start

    ok = subset_ok and exists_ok and pairs == 256 and subsets == 64 and elapsed < 1.0
    _report(6, "forall == subset test (256 pairs), exists == nonempty test (64 subsets)", ok)


def test_criterion_7_nonlinearity_witnesses():
    rng = random.Random(139)
    ok = True
    for _ in range(20):
        alpha = rng.uniform(1.05, 9.0) if rng.random() < 0.5 else rng.uniform(0.05, 0.95)
        beta = rng.uniform(1.05, 9.0) if rng.random() < 0.5 else rng.uniform(0.05, 0.95)
        while abs(alpha * beta - 1.0) < 1e-2:
            beta = rng.uniform(1.05, 9.0)
        w_forall = nonlinearity_witness_forall(alpha, beta)
        w_exists = nonlinearity_witness_exists(alpha)
        # Scale invariance on empty sets, plus failure of the scaled equation.
        ok &= w_forall.output == truth_top() and not w_forall.multilinearity_holds
        ok &= w_exists.output == truth_bot() and not w_exists.multilinearity_holds
        ok &= "fails" in str(w_forall) and "fails" in str(w_exists)
    _report(7, "quantifiers are scale-invariant on empty sets, hence not multilinear", ok)


def test_criterion_8_formulation_conversion_bridge():
    rng = random.Random(149)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 6)
        atoms = [f"x{i}" for i in range(n)]
        m = Model.from_names(
            atoms, predicates={"p": [a for a in atoms if rng.random() < 0.5]}
        )
        truth_form = build_predicate(m, "p")
        set_form = build_set_predicate(m, "p")
        ok &= convert_truth_to_set(truth_form) == set_form
        ok &= convert_set_to_truth(set_form) == truth_form
        ok &= convert_set_to_truth(convert_truth_to_set(truth_form)) == truth_form
        ok &= convert_truth_to_set(convert_set_to_truth(set_form)) == set_form

    loves = parse_model(LOVES_TEXT)
    someone_john_loves = predicate_vector(
        convert_truth_to_set(
            partial_apply(build_relation(loves, "loves"), [encode_atom(loves, "j")])
        )
    )
    ok &= exists(someone_john_loves) == truth_top()
    ok &= evaluate(parse_formula("exists loves(j, _)", loves), loves) == truth_top()
    _report(8, "both predicate formulations interconvert exactly; partial-application pipeline", ok)


def test_criterion_9_oracle_soundness_sweep():
    start = time.perf_counter()
    rng = random.Random(151)
    disagreements = 0
    instances = 0

    def check(formula, m):
        nonlocal disagreements, instances
        instances += 1
        if evaluate(formula, m).as_bool() is not oracle_eval(formula, m):
            disagreements += 1

    # Every extension combination for domains of size 1 and 2, and a seeded
    # 4736-model sample of the 32768 combinations at size 3: 5000 models,
    # each checked on a canonical battery plus seeded random formulas.
    sampled = [(1, i) for i in range(signature_model_count(1))]
    sampled += [(2, i) for i in range(signature_model_count(2))]
    sampled += [
        (3, i)
        for i in sorted(rng.sample(range(signature_model_count(3)), 5000 - len(sampled)))
    ]
    assert len(sampled) == 5000
    battery = ["p(x0)", "~p(x0) | q(x0)", "r(x0, x0) -> p(x0)", "all p q", "exists (p & q)"]
    for domain_size, index in sampled:
        m = signature_model(domain_size, index)
        for text in battery:
            check(parse_formula(text, m), m)
        for _ in range(10):
            check(random_formula(rng, m, max_depth=3), m)

    # Every connective formula of depth <= 3 over three canonical leaves, on
    # models realizing all eight truth assignments to those leaves.
    leaves = [Atom("p", "a"), Atom("q", "b"), RelAtom("r", ("a", "b"))]
    all_formulas = formulas_up_to_depth(3, leaves)
    assert len(all_formulas) == 3303
    for m in leaf_valuation_models():
        for formula in all_formulas:
            check(formula, m)

    # Every root-quantified formula over set expressions of depth <= 2.
    set_leaves = [PredSet("p"), PredSet("q"), PartialRel("r", ("a",))]
    quantified = quantified_formulas(set_exprs_up_to_depth(2, set_leaves))
    for m in leaf_valuation_models():
        for formula in quantified:
            check(formula, m)

    # Plus 10,000 seeded random instances over domains up to size 5.
    report = equivalence_sweep(SweepConfig(max_domain=5, max_depth=3, seed=151, count=10_000))
    instances += len(report.verdicts)
    disagreements += len(report.disagreements)

    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and instances > 100_000 and elapsed < 60.0
    _report(
        9,
        f"tensor path == oracle on {instances} instances, "
        f"0 disagreements required ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_dsl_round_trips_and_cli_contract(tmp_path):
    rng = random.Random(157)
    ok = True
    models = [random_model(rng, max_domain=5) for _ in range(200)]
    for m in models:
        ok &= parse_model(print_model(m)) == m
    produced = 0
    while produced < 1000:
        m = models[produced % len(models)]
        f = random_formula(rng, m, max_depth=4)
        ok &= parse_formula(print_formula(f), m) == f
        produced += 1

    model_path = tmp_path / "people.model"
    model_path.write_text(MATHEMATICIAN_TEXT)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tensorlogic", *args], capture_output=True, text=True
        )

    true_run = run("eval", "--model", str(model_path), "--formula", "mathematician(john)")
    false_run = run("eval", "--model", str(model_path), "--formula", "mathematician(tom)")
    error_run = run("eval", "--model", str(model_path), "--formula", "mathematician(")
    record_run = run(
        "eval", "--model", str(model_path), "--formula", "mathematician(john)",
        "--output", "records",
    )
    ok &= true_run.returncode == 0 and true_run.stdout.strip() == "⊤"
    ok &= false_run.returncode == 1 and false_run.stdout.strip() == "⊥"
    ok &= error_run.returncode == 2 and "column" in error_run.stderr
    ok &= record_run.returncode == 0 and json.loads(record_run.stdout)["result"] == "T"
    _report(10, "parse/print round-trips (200 models, 1000 formulas); CLI exit codes", ok)
