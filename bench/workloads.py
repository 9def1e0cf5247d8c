"""The four workloads: their inputs, the timed program calls and the checks.

Each workload builds its inputs in rounds.  Round ``r`` of seed ``s`` is the
same fixed list of operations in every process.  A run's operation list is
the workload's first ``rounds`` rounds, and a run does whole passes over it,
so the share of failed operations is the same in every run.  Every answer is
checked against ``reference.holds`` over the generated spec.

Importing this module imports the program; the caller puts its ``src``
directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from tensorlogic import Model, Tensor, cli, dsl
from tensorlogic import compile_formula, contract, evaluate, execute, oracle_eval
from tensorlogic import build_predicate, build_relation, build_set_predicate
from tensorlogic import parse_formula, parse_model

from gen import Spec, formula_text, random_spec, set_tree, truth_tree, walk
from reference import holds


@dataclass
class Source:
    """One model as the program receives it: name lists, text or a file."""

    spec: Spec | None
    names: tuple = ()
    path: str = ""
    model: Model | None = None

    @classmethod
    def of(cls, spec: Spec) -> "Source":
        return cls(spec, spec.from_names_args())

    @cached_property
    def text(self) -> str:
        return self.spec.text()

    def file(self, directory: Path) -> str:
        """The model file, written on first use."""
        if not self.path:
            target = directory / f"model-{id(self)}.model"
            target.write_text(self.text, encoding="utf-8")
            self.path = str(target)
        return self.path


@dataclass
class Op:
    """One operation.  ``kind`` "eval" answers ``term``; "error" must exit 2."""

    kind: str
    source: Source
    term: tuple | None = None
    text: str = ""
    ast: object = None
    expect: bool | None = None
    result: dict = field(default_factory=dict)


def to_ast(f: tuple):
    """The program's AST for a formula term."""
    op = f[0]
    if op == "pred":
        return dsl.Atom(f[1], f[2])
    if op == "rel":
        return dsl.RelAtom(f[1], f[2])
    if op == "not":
        return dsl.Not(to_ast(f[1]))
    if op in ("and", "or", "implies"):
        node = {"and": dsl.And, "or": dsl.Or, "implies": dsl.Implies}[op]
        return node(to_ast(f[1]), to_ast(f[2]))
    if op == "all":
        return dsl.ForAll(_set_ast(f[1]), _set_ast(f[2]))
    if op == "exists":
        return dsl.Exists(_set_ast(f[1]))
    raise ValueError(f"not a formula term: {f!r}")


def _set_ast(s: tuple):
    op = s[0]
    if op == "pset":
        return dsl.PredSet(s[1])
    if op == "prel":
        return dsl.PartialRel(s[1], s[2])
    return (dsl.Intersect if op == "inter" else dsl.Union)(_set_ast(s[1]), _set_ast(s[2]))


def eval_op(source: Source, term: tuple, *, text=False, ast=False) -> Op:
    return Op("eval", source, term, formula_text(term) if text else "",
              to_ast(term) if ast else None, holds(term, source.spec))


# -- leaves ----------------------------------------------------------------
# Relation leaves pick a stored tuple half of the time, so both answers occur.


def pred_leaf(spec: Spec):
    preds = sorted(spec.predicates)
    return lambda rng: ("pred", rng.choice(preds), rng.choice(spec.atoms))


def rel_leaf(spec: Spec, name: str, stored: list):
    arity = spec.relations[name][0]

    def leaf(rng):
        if stored and rng.random() < 0.5:
            return ("rel", name, rng.choice(stored))
        return ("rel", name, tuple(rng.choice(spec.atoms) for _ in range(arity)))

    return leaf


def prel_leaf(spec: Spec, name: str, stored: list):
    arity = spec.relations[name][0]

    def leaf(rng):
        if stored and rng.random() < 0.5:
            return ("prel", name, rng.choice(stored)[:-1])
        return ("prel", name, tuple(rng.choice(spec.atoms) for _ in range(arity - 1)))

    return leaf


def pset_leaf(spec: Spec):
    preds = sorted(spec.predicates)
    return lambda rng: ("pset", rng.choice(preds))


def mix(*weighted):
    """A leaf drawn from ``(weight, leaf)`` pairs."""
    weights = [w for w, _ in weighted]
    leaves = [leaf for _, leaf in weighted]
    return lambda rng: rng.choices(leaves, weights)[0](rng)


def with_one(leaves: int, special, other):
    """A leaf source whose leaf at a random position is drawn by ``special``."""

    def make(rng):
        position = rng.randrange(leaves)
        calls = iter(range(leaves))
        return lambda r: special(r) if next(calls) == position else other(r)

    return make


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""
    #: rounds in the operation list that every pass runs
    rounds = 1
    #: latency_tail_us percentile, fixed per workload: the highest of p90, p99
    #: and p99.9 with ten or more of the list's timed operations beyond it.
    tail = 0.90
    #: layers the operation itself calls; the traced run replays the others.
    calls: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def prepare(self) -> None:
        """The benchmark's own inputs needed before the first operation."""

    def setup(self) -> None:
        """Program calls made before the first operation."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def operations(self) -> list[Op]:
        return [op for index in range(self.rounds) for op in self.round(index)]

    def call(self, op: Op, t) -> None:
        """The timed program calls; results go into ``op.result``."""
        raise NotImplementedError


class Sweep(Workload):
    """Fresh tiny model per operation: build, evaluate, oracle."""

    name = "sweep"
    rounds = 20
    tail = 0.99
    calls = frozenset({"model.build", "evaluator.oracle"})
    size = 100

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for _ in range(self.size):
            n = rng.randint(1, 5)
            arity = rng.choice((2, 3))
            spec = random_spec(rng, n, 2, {"r0": (arity, 0.5)}, prefix="a")
            stored = sorted(spec.relations["r0"][1])
            if rng.random() < 0.25:
                leaf = mix((1, pset_leaf(spec)), (1, prel_leaf(spec, "r0", stored)))
                if rng.random() < 0.5:
                    term = ("all", set_tree(rng, rng.randint(1, 2), leaf),
                            set_tree(rng, rng.randint(1, 2), leaf))
                else:
                    term = ("exists", set_tree(rng, rng.randint(1, 2), leaf))
            else:
                leaf = mix((3, pred_leaf(spec)), (2, rel_leaf(spec, "r0", stored)))
                term = truth_tree(rng, rng.randint(1, 4), 3, leaf)
            ops.append(eval_op(Source.of(spec), term, ast=True))
        return ops

    def call(self, op, t):
        m = t.call("model.build", Model.from_names, *op.source.names)
        op.result["model"] = m
        op.result["truth"] = t.call("evaluator.evaluate", evaluate, op.ast, m)
        op.result["oracle"] = t.call("evaluator.oracle", oracle_eval, op.ast, m)


class Query(Workload):
    """Many formula texts against one model parsed once at setup."""

    name = "query"
    rounds = 10
    calls = frozenset({"dsl.parse_formula", "evaluator.compile", "evaluator.execute"})

    def prepare(self):
        spec = random_spec(self.rng("model"), 40, 4, {"b": (2, 0.05), "t": (3, 0.01)})
        self.source = Source.of(spec)

    def setup(self):
        self.source.model = parse_model(self.source.text)

    def round(self, index):
        rng = self.rng(index)
        spec = self.source.spec
        b = sorted(spec.relations["b"][1])
        t = sorted(spec.relations["t"][1])
        small = mix((1, pred_leaf(spec)), (1, rel_leaf(spec, "b", b)))
        ternary = rel_leaf(spec, "t", t)
        sets = mix((1, pset_leaf(spec)), (1, prel_leaf(spec, "b", b)))
        pt = prel_leaf(spec, "t", t)
        # A fixed mix per round keeps the share of ternary loads, the slow
        # operations that set the tail, the same on every seed.
        terms = [truth_tree(rng, leaves, 4, small) for leaves in (2, 3, 4, 5, 6) * 4]
        terms += [truth_tree(rng, leaves, 4, with_one(leaves, ternary, small)(rng))
                  for leaves in (2, 3, 4) * 2]
        terms += [("exists", set_tree(rng, leaves, sets)) for leaves in (1, 2, 3, 2)]
        terms += [("all", set_tree(rng, x, sets), set_tree(rng, y, sets))
                  for x, y in ((1, 1), (1, 2), (2, 1), (2, 2))]
        terms += [("exists", set_tree(rng, leaves, with_one(leaves, pt, sets)(rng)))
                  for leaves in (1, 2, 3)]
        terms += [("all", set_tree(rng, 1, pt), set_tree(rng, 1, sets)),
                  ("all", set_tree(rng, 1, sets), set_tree(rng, 2, with_one(2, pt, sets)(rng))),
                  ("all", set_tree(rng, 2, with_one(2, pt, sets)(rng)), set_tree(rng, 1, sets))]
        rng.shuffle(terms)
        return [eval_op(self.source, term, text=True) for term in terms]

    def call(self, op, t):
        m = op.result["model"] = self.source.model
        ast = op.result["ast"] = t.call("dsl.parse_formula", parse_formula, op.text, m)
        plan = op.result["plan"] = t.call("evaluator.compile", compile_formula, ast, m)
        op.result["truth"] = t.call("evaluator.execute", execute, plan)


class Scale(Workload):
    """Dense ternary relations at growing domain sizes."""

    name = "scale"
    rounds = 8
    sizes = (40, 80, 120, 160)

    def prepare(self):
        rng = self.rng("models")
        self.sources = [
            Source.of(random_spec(rng, n, 1, {"b": (2, 0.05), "t": (3, 0.01)}))
            for n in self.sizes
        ]

    def setup(self):
        for source in self.sources:
            source.model = Model.from_names(*source.names)

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for source in self.sources:
            spec = source.spec
            b = sorted(spec.relations["b"][1])
            t = sorted(spec.relations["t"][1])
            terms = [
                rel_leaf(spec, "t", t)(rng),
                ("exists", prel_leaf(spec, "t", t)(rng)),
                ("and", pred_leaf(spec)(rng), rel_leaf(spec, "b", b)(rng)),
            ]
            if spec is self.sources[1].spec:
                # Three more partial applications at n = 80 put the median
                # inside that one group of equal cost, away from its edges;
                # one also intersects with the predicate's set form.
                terms += [("exists", prel_leaf(spec, "t", t)(rng)) for _ in range(2)]
                terms.append(("exists", ("inter", prel_leaf(spec, "t", t)(rng), ("pset", "p0"))))
            ops += [eval_op(source, term, ast=True) for term in terms]
        return ops

    def call(self, op, t):
        m = op.result["model"] = op.source.model
        op.result["truth"] = t.call("evaluator.evaluate", evaluate, op.ast, m)


class Cli(Workload):
    """In-process ``tensorlogic eval`` calls, each re-reading a model file."""

    name = "cli"
    rounds = 3
    calls = frozenset({"cli.main"})
    pool = 8
    normal = 45

    #: Fixed inputs that must exit 2 with "error:": two controls that pass,
    #: then three known faults (deep nesting, a model file that is not UTF-8).
    errors = (
        ("plain", "p0(zz)"),
        ("plain", "p0(e0) &"),
        ("plain", "~" * 3000 + "p0(e0)"),
        ("plain", "(" * 3000 + "p0(e0)" + ")" * 3000),
        ("latin1", "p0(e0)"),
    )

    def prepare(self):
        rng = self.rng("models")
        self.sources = []
        for _ in range(self.pool):
            source = Source.of(random_spec(rng, 8, 3, {"b": (2, 0.5), "t": (3, 0.125)}))
            source.file(self.workdir)
            self.sources.append(source)
        plain = self.workdir / "plain.model"
        plain.write_text("domain e0\npred p0: e0\n", encoding="utf-8")
        latin1 = self.workdir / "latin1.model"
        latin1.write_bytes("domain e0 caf\xe9\npred p0: e0\n".encode("latin-1"))
        self.error_sources = {"plain": Source(None, path=str(plain)),
                              "latin1": Source(None, path=str(latin1))}

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for i in range(self.normal):
            source = self.sources[i % self.pool]
            spec = source.spec
            b = sorted(spec.relations["b"][1])
            t = sorted(spec.relations["t"][1])
            if i % 5 < 3:
                leaf = mix((2, pred_leaf(spec)), (1, rel_leaf(spec, "b", b)),
                           (1, rel_leaf(spec, "t", t)))
                term = truth_tree(rng, 1 + i % 4, 3, leaf)
            else:
                leaf = mix((2, pset_leaf(spec)), (1, prel_leaf(spec, "b", b)),
                           (1, prel_leaf(spec, "t", t)))
                term = ("exists", set_tree(rng, 1 + i % 2, leaf)) if i % 5 == 3 else \
                    ("all", set_tree(rng, 1, leaf), set_tree(rng, 1 + i % 2, leaf))
            ops.append(eval_op(source, term, text=True))
        for k, (model, text) in enumerate(self.errors):
            ops.insert(10 * k + 9, Op("error", self.error_sources[model], text=text))
        return ops

    def call(self, op, t):
        argv = ["eval", "--model", op.source.path, "--formula", op.text, "--output", "records"]
        op.result["cli"] = run_cli(t, argv)


def run_cli(t, argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t.call("cli.main", cli.main, argv)
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Sweep, Query, Scale, Cli)}


# -- checks ----------------------------------------------------------------


def check(op: Op) -> str:
    """"ok", "wrong" (an answer differs from the reference) or "failed"
    (an error input did not exit 2 with an ``error:`` message)."""
    res = op.result
    if op.kind == "error":
        code, _, err = res["cli"]
        return "ok" if code == 2 and err.startswith("error:") else "failed"
    expect = op.expect
    if "truth" in res and (res["truth"].t, res["truth"].f) != ((1.0, 0.0) if expect else (0.0, 1.0)):
        return "wrong"
    if "oracle" in res and res["oracle"] is not expect:
        return "wrong"
    if "cli" in res:
        code, out, err = res["cli"]
        if code != (0 if expect else 1) or err:
            return "wrong"
        if json.loads(out)["result"] != ("T" if expect else "F"):
            return "wrong"
    return "ok"


# -- traced replay ---------------------------------------------------------

_BUILDERS = {
    "pred": ("truth.build_predicate", build_predicate),
    "rel": ("truth.build_relation", build_relation),
    "prel": ("truth.build_relation", build_relation),
    "pset": ("sets.build_set_predicate", build_set_predicate),
}


def replay(w: Workload, op: Op, t) -> None:
    """Time the layers the operation hides or skips, on the same inputs."""
    res, source, done = op.result, op.source, w.calls
    if "model.build" not in done:
        built = t.call("model.build", Model.from_names, *source.names)
        res.setdefault("model", source.model or built)
    if "dsl.parse_model" not in done:
        t.call("dsl.parse_model", parse_model, source.text)
    formula = op.text or formula_text(op.term)
    if "dsl.parse_formula" not in done:
        parsed = t.call("dsl.parse_formula", parse_formula, formula, res["model"])
        res.setdefault("ast", op.ast or parsed)
    m, ast = res["model"], res["ast"]
    for node in walk(op.term):
        if node[0] in _BUILDERS:
            layer, builder = _BUILDERS[node[0]]
            t.call(layer, builder, m, node[1])
    if "evaluator.compile" not in done:
        res["plan"] = t.call("evaluator.compile", compile_formula, ast, m)
    if "evaluator.execute" not in done:
        t.call("evaluator.execute", execute, res["plan"])
    if "evaluator.oracle" not in done:
        t.call("evaluator.oracle", oracle_eval, ast, m)
    replay_contracts(res["plan"], t)
    if "cli.main" not in done:
        path = source.file(w.workdir)
        run_cli(t, ["eval", "--model", path, "--formula", formula, "--output", "records"])


def replay_contracts(plan, t) -> None:
    """Time ``tensor.contract`` on the operand shapes of the plan's contract
    steps: connective-sized operands and (2, n, n, n) relations by a vector."""
    payload = {i.dest: i.payload for i in plan.steps if i.op == "load"}
    shapes = plan.register_shapes
    t.count("evaluator.plan_steps", len(plan.steps))
    t.count("evaluator.load_elements", sum(p.size for p in payload.values()))
    t.count("evaluator.peak_register_elements", max(int(np.prod(s)) for s in shapes))
    for instr in plan.steps:
        if instr.op != "contract":
            continue
        a, b = instr.srcs
        left, right = shapes[a], shapes[b]
        if len(left) in (2, 3) and set(left) == {2} and right == (2,):
            layer = "tensor.contract_small"
        elif len(left) == 4 and len(right) == 1:
            layer = "tensor.contract_rel3"
        else:
            continue
        operands = [payload.get(r) or Tensor(np.ones(shapes[r])) for r in (a, b)]
        t.call(layer, contract, *operands)
