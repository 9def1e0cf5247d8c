"""A relation's stored tuples, checked independently of the oracle.

The oracle and the slice builder read the same stored tuples, so a fault in
storing them would leave the two agreeing.  These tests pin the bytes of
every dense tensor and slice instead, and run a relation too wide for any
int64 flat position.
"""

import contextlib
import hashlib
import io
import itertools
import random

import pytest

from tensorlogic import dsl
from tensorlogic.cli import main
from tensorlogic.dsl import Exists, RelAtom, parse_model, print_model
from tensorlogic.evaluator import evaluate, oracle_eval
from tensorlogic.model import Model
from tensorlogic.truth import build_relation, relation_slice


def small_models(seed: int, count: int):
    """Seeded models holding one relation of each arity 1, 2 and 3."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"a{i}" for i in range(rng.randint(1, 4))]
        relations = {
            f"r{arity}": (
                arity,
                [t for t in itertools.product(names, repeat=arity) if rng.random() < 0.5],
            )
            for arity in (1, 2, 3)
        }
        yield Model.from_names(names, None, relations)


def scale_models(seed: int):
    """Models shaped like the ``scale`` benchmark's: a binary relation holding
    5% and a ternary one holding 1% of all tuples, at n = 40 to 160."""
    rng = random.Random(seed)
    for n in (40, 80, 120, 160):
        names = [f"e{i}" for i in range(n)]
        relations = {}
        for rel, arity, density in (("b", 2, 0.05), ("t", 3, 0.01)):
            codes = rng.sample(range(n**arity), round(density * n**arity))
            relations[rel] = (
                arity,
                [tuple(names[code // n**i % n] for i in range(arity)) for code in codes],
            )
        yield Model.from_names(names, None, relations), relations


def tensor_bytes_digest() -> str:
    digest = hashlib.sha256()

    def add(label, tensor):
        digest.update(f"{label} {tensor.shape}\n".encode())
        digest.update(tensor.array.tobytes())

    for m in small_models(2112, 40):
        for rel, decl in sorted(m.relations.items()):
            add(rel, build_relation(m, rel).tensor)
            for bound in itertools.product(m.atom_names, repeat=decl.arity - 1):
                add(f"{rel}{bound}", relation_slice(m, rel, bound))
    rng = random.Random(2113)
    for m, relations in scale_models(2114):
        for i in range(200):
            rel = rng.choice(("b", "t"))
            arity, stored = relations[rel]
            if i % 2:
                bound = rng.choice(stored)[:-1]
            else:
                bound = tuple(rng.choice(m.atom_names) for _ in range(arity - 1))
            add(f"{rel}{bound}", relation_slice(m, rel, bound))
    return digest.hexdigest()


def test_dense_and_sliced_tensor_bytes_are_pinned():
    """The sha256 was taken before relations were stored as keys."""
    assert tensor_bytes_digest() == (
        "55fb57afa9cd9edc6c63ce4bc38c139f42b45f260daafba4023a5d1d419c6b34"
    )


@pytest.mark.parametrize("args", [("j",), ("m", "j", "j")])
def test_oracle_refuses_a_tuple_of_another_length(loves_model, args):
    """(j) is a prefix of the stored (j, j), and (m, j, j) extends the stored
    (m, j); a tuple whose length is not the relation's arity is never a
    member of its tuple set."""
    assert oracle_eval(RelAtom("loves", args), loves_model) is False


WIDE_TEXT = "domain a b c\nrel r/70: ({}) ({})\n".format(
    ", ".join(["b"] * 69 + ["a"]), ", ".join(["c"] * 70)
)


def run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def test_relation_wider_than_int64_keys(tmp_path):
    """A 70-ary relation over 3 atoms: 3^70 flat positions overflow int64.
    Its slices, the oracle and the print round trip read the tuples, and
    ``show`` reckons its cap in Python ints."""
    path = tmp_path / "wide.model"
    path.write_text(WIDE_TEXT)
    stored = "r(" + ", ".join(["b"] * 69 + ["a"]) + ")"
    missing = "r(" + ", ".join(["b"] * 70) + ")"
    assert run(["eval", "--model", str(path), "--formula", stored]) == (0, "")
    assert run(["eval", "--model", str(path), "--formula", missing]) == (1, "")
    code, err = run(["show", "--model", str(path), "r"])
    assert code == 2 and err.startswith(f"error: r needs a tensor of {2 * 3**70} elements")

    m = parse_model(WIDE_TEXT)
    assert parse_model(print_model(m)) == m
    for atom, holds in (("b", True), ("c", True), ("a", False)):
        f = Exists(RelAtom("r", (atom,) * 69 + (dsl.VAR,)))
        assert evaluate(f, m).as_bool() is oracle_eval(f, m) is holds
