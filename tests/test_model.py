"""Model structures, vector encodings, and truth-vector basics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tensorlogic import tensor as tensor_module
from tensorlogic.dsl import parse_formula
from tensorlogic.errors import (
    ArityError,
    DimensionMismatchError,
    DuplicateNameError,
    InvalidTruthValueError,
    NonCharacteristicError,
    NonOneHotError,
    TensorLogicError,
    UnknownAtomError,
    UnknownPredicateError,
    UnknownRelationError,
)
from tensorlogic.evaluator import evaluate, execute
from tensorlogic.model import (
    Model,
    TruthVec,
    decode_set,
    encode_atom,
    truth_bot,
    truth_top,
)
from tensorlogic.sets import SetVector
from tensorlogic.tensor import FLOAT_TOL, Tensor, _snap01
from tensorlogic.truth import (
    apply_predicate,
    apply_relation,
    build_predicate,
    build_relation,
    partial_apply,
)
from tests.helpers import encode_set, quantifier_plan


class TestModelValidation:
    def test_duplicate_atom_names(self):
        with pytest.raises(DuplicateNameError):
            Model.from_names(["a", "a"])

    def test_symbol_name_clashes(self):
        with pytest.raises(DuplicateNameError):
            Model.from_names(["a"], predicates={"a": []})
        with pytest.raises(DuplicateNameError):
            Model.from_names(["a"], predicates={"p": []}, relations={"p": (2, [])})

    def test_from_names_is_the_only_constructor(self):
        m = Model.from_names(["a"], predicates={"p": ["a"]})
        with pytest.raises(TypeError):
            Model(m.atom_names, m.predicates, m.relations)
        with pytest.raises(TypeError):
            Model()

    def test_unknown_atom_in_extension(self):
        with pytest.raises(UnknownAtomError):
            Model.from_names(["a"], predicates={"p": ["b"]})
        with pytest.raises(UnknownAtomError):
            Model.from_names(["a"], relations={"r": (2, [("a", "b")])})

    def test_tuple_length_must_match_arity(self):
        with pytest.raises(ArityError):
            Model.from_names(["a"], relations={"r": (2, [("a",)])})

    def test_arity_must_be_positive(self):
        with pytest.raises(ArityError):
            Model.from_names(["a"], relations={"r": (0, [])})

    def test_empty_domain_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Model.from_names([])

    def test_lookup_errors(self):
        m = Model.from_names(["a"], predicates={"p": []}, relations={"r": (2, [])})
        with pytest.raises(UnknownAtomError):
            m.atom_index("zz")
        with pytest.raises(UnknownPredicateError):
            m.predicate_extension("zz")
        with pytest.raises(UnknownRelationError):
            m.relation_decl("zz")


# Each row: from_names arguments, then the exact error class and message.
# The two-fault rows fix which check wins.
FROM_NAMES_ERRORS = {
    "empty-domain": (([],), DimensionMismatchError, "a model needs at least one domain atom"),
    "duplicate-atom": (
        (["a", "b", "a"],),
        DuplicateNameError,
        "duplicate atom names in ['a', 'b', 'a']",
    ),
    "atom-symbol-clash": (
        (["a"], {"a": []}), DuplicateNameError, "symbol name 'a' is already declared"
    ),
    "pred-rel-clash": (
        (["a"], {"p": []}, {"p": (2, [])}),
        DuplicateNameError,
        "symbol name 'p' is already declared",
    ),
    "unknown-atom-in-pred": (
        (["a"], {"p": ["a", "b"]}),
        UnknownAtomError,
        "unknown atom: 'b' in predicate 'p'",
    ),
    "unknown-atom-in-rel": (
        (["a"], None, {"r": (2, [("a", "b")])}),
        UnknownAtomError,
        "unknown atom: 'b' in relation 'r'",
    ),
    "arity-0": ((["a"], None, {"r": (0, [])}), ArityError, "relation 'r' declared with arity 0"),
    "short-tuple": (
        (["a"], None, {"r": (2, [("a",)])}),
        ArityError,
        "tuple ('a',) in relation 'r' has length 1, declared arity is 2",
    ),
    "unknown-atom-before-empty-domain": (
        ([], {"p": ["a"]}),
        UnknownAtomError,
        "unknown atom: 'a' in predicate 'p'",
    ),
    "empty-domain-before-arity": (
        ([], None, {"r": (0, [])}),
        DimensionMismatchError,
        "a model needs at least one domain atom",
    ),
    "duplicate-atom-before-clash": (
        (["a", "a"], {"a": []}),
        DuplicateNameError,
        "duplicate atom names in ['a', 'a']",
    ),
    "clash-before-arity": (
        (["a"], {"p": []}, {"p": (0, [])}),
        DuplicateNameError,
        "symbol name 'p' is already declared",
    ),
    "unknown-atom-before-arity": (
        (["a"], None, {"r": (0, [("b",)])}),
        UnknownAtomError,
        "unknown atom: 'b' in relation 'r'",
    ),
    "unknown-atom-before-tuple-length": (
        (["a"], None, {"r": (2, [("a", "a", "zz")])}),
        UnknownAtomError,
        "unknown atom: 'zz' in relation 'r'",
    ),
    "pred-before-rel": (
        (["a"], {"p": ["x"]}, {"r": (1, [("y",)])}),
        UnknownAtomError,
        "unknown atom: 'x' in predicate 'p'",
    ),
    "clashes-in-declaration-order": (
        (["a", "b"], {"p": [], "b": []}, {"p": (1, [])}),
        DuplicateNameError,
        "symbol name 'b' is already declared",
    ),
    "relations-in-declaration-order": (
        (["a"], None, {"r": (0, []), "s": (2, [("a",)])}),
        ArityError,
        "relation 'r' declared with arity 0",
    ),
}


@pytest.mark.parametrize(
    "args, error, message", FROM_NAMES_ERRORS.values(), ids=FROM_NAMES_ERRORS.keys()
)
def test_from_names_error_table(args, error, message):
    with pytest.raises(TensorLogicError) as info:
        Model.from_names(*args)
    assert type(info.value) is error
    assert str(info.value) == message
    if error is UnknownAtomError:
        assert message.startswith(f"unknown atom: {info.value.name!r} in ")


class TestEncoding:
    def test_first_atom_is_first_basis_vector(self, mathematician_model):
        assert encode_atom(mathematician_model, "john") == Tensor([1, 0, 0])
        assert encode_atom(mathematician_model, "chris") == Tensor([0, 1, 0])
        assert encode_atom(mathematician_model, "tom") == Tensor([0, 0, 1])

    def test_single_atom_domain(self):
        m = Model.from_names(["only"])
        assert encode_atom(m, "only") == Tensor([1])

    def test_atom_encodings_are_orthonormal(self):
        m = Model.from_names([f"x{i}" for i in range(5)])
        vectors = [encode_atom(m, a).array for a in m.atom_names]
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                assert float(u @ v) == (1.0 if i == j else 0.0)

    def test_encode_set_example(self):
        m = Model.from_names(["a", "b", "c"])
        assert encode_set(m, {"a", "b"}) == Tensor([1, 1, 0])

    def test_encode_empty_set(self):
        m = Model.from_names(["a", "b"])
        assert encode_set(m, set()) == Tensor([0, 0])

    def test_encode_atom_equals_singleton_set(self, brown_dog_model):
        for name in brown_dog_model.atom_names:
            assert encode_atom(brown_dog_model, name) == encode_set(brown_dog_model, {name})

    def test_unknown_atom(self):
        m = Model.from_names(["a"])
        with pytest.raises(UnknownAtomError):
            encode_atom(m, "b")
        with pytest.raises(UnknownAtomError):
            encode_set(m, {"b"})


class TestDecoding:
    def test_decode_example(self):
        m = Model.from_names(["a", "b", "c"])
        assert decode_set(m, Tensor([0, 1, 0])) == frozenset({"b"})

    def test_decode_zero_vector(self):
        m = Model.from_names(["a", "b"])
        assert decode_set(m, Tensor([0, 0])) == frozenset()

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_round_trip_all_subsets(self, size):
        m = Model.from_names([f"x{i}" for i in range(size)])
        for bits in itertools.product((0, 1), repeat=size):
            subset = frozenset(name for name, bit in zip(m.atom_names, bits) if bit)
            assert decode_set(m, encode_set(m, subset)) == subset

    def test_non_characteristic_rejected(self):
        m = Model.from_names(["a", "b"])
        with pytest.raises(NonCharacteristicError):
            decode_set(m, Tensor([0.5, 0]))
        with pytest.raises(NonCharacteristicError):
            decode_set(m, Tensor([2, 0]))

    def test_tolerant_to_float_noise(self):
        m = Model.from_names(["a", "b"])
        assert decode_set(m, Tensor([1 + 5e-13, -5e-13])) == frozenset({"a"})

    @pytest.mark.parametrize("values", [[1 + 2e-12, 0], [0, -2e-12], [0.9, 0.1]])
    def test_noise_beyond_the_tolerance_rejected(self, values):
        m = Model.from_names(["a", "b"])
        with pytest.raises(NonCharacteristicError):
            decode_set(m, Tensor(values))

    def test_wrong_length_rejected(self):
        m = Model.from_names(["a", "b"])
        with pytest.raises(DimensionMismatchError):
            decode_set(m, Tensor([1, 0, 0]))

    def test_predicate_extension_decodes_to_itself(self, mathematician_model):
        m = mathematician_model
        extension_names = {m.atom_names[i] for i in m.predicate_extension("mathematician")}
        assert extension_names == {"john", "chris"}
        assert decode_set(m, encode_set(m, extension_names)) == extension_names


class TestTruthVec:
    def test_basis_values(self):
        assert truth_top() == TruthVec(1.0, 0.0)
        assert truth_bot() == TruthVec(0.0, 1.0)
        assert truth_top() != truth_bot()

    def test_as_bool(self):
        assert truth_top().as_bool() is True
        assert truth_bot().as_bool() is False
        with pytest.raises(InvalidTruthValueError):
            TruthVec(0.5, 0.5).as_bool()

    def test_is_normalized(self):
        assert TruthVec(0.25, 0.75).is_normalized
        assert not TruthVec(0.5, 0.6).is_normalized
        assert not TruthVec(-0.1, 1.1).is_normalized

    def test_tensor_round_trip(self):
        v = TruthVec(0.3, 0.7)
        assert TruthVec.from_tensor(v.to_tensor()) == v

    def test_from_tensor_validation(self):
        with pytest.raises(DimensionMismatchError):
            TruthVec.from_tensor(Tensor([1, 0, 0]))
        with pytest.raises(InvalidTruthValueError):
            TruthVec.from_tensor(Tensor([0.9, 0.3]))
        unchecked = TruthVec.from_tensor(Tensor([0.9, 0.3]), check=False, extrapolated=True)
        assert unchecked.extrapolated

    def test_extrapolated_excluded_from_equality(self):
        assert TruthVec(1.0, 0.0, extrapolated=True) == truth_top()

    def test_str_forms(self):
        assert str(truth_top()) == "⊤"
        assert str(truth_bot()) == "⊥"
        assert str(TruthVec(0.25, 0.75)) == "[0.25, 0.75]"


# Each row, the bits it snaps to (None: it is not a 0/1 vector), and whether
# it is also one-hot.
ZERO_ONE_ROWS = [
    ([1.0, 0.0], [1.0, 0.0], True),
    ([1 + 5e-13, -5e-13], [1.0, 0.0], True),
    ([1 + 2e-12, 0.0], None, False),
    ([1.0, math.nan], None, False),
    ([1.0, math.inf], None, False),
    ([0.5, 0.5], None, False),
    ([1.0, 1.0], [1.0, 1.0], False),
]


@pytest.mark.parametrize(
    "row, bits, one_hot",
    ZERO_ONE_ROWS,
    ids=["exact", "within-tol", "beyond-tol", "nan", "inf", "half", "both"],
)
def test_zero_one_checks_agree_at_the_tolerance_edge(row, bits, one_hot):
    """The two characteristic-vector checks and the two one-hot checks
    accept and reject alike, and read the same bits from what they accept."""
    m = Model.from_names(["a", "b"], predicates={"p": ["a"]})
    v = Tensor(row)
    if bits is None:
        with pytest.raises(NonCharacteristicError):
            SetVector(v)
        with pytest.raises(NonCharacteristicError):
            decode_set(m, v)
    else:
        assert SetVector(v).tensor.tolist() == bits
        assert decode_set(m, v) == {a for a, bit in zip(m.atom_names, bits) if bit}
    truth = TruthVec(*row)
    assert truth.is_crisp is one_hot
    if one_hot:
        assert truth.as_bool() is (bits[0] == 1.0)
        assert apply_predicate(build_predicate(m, "p"), v).as_bool() is (bits[0] == 1.0)
    else:
        with pytest.raises(NonOneHotError):
            apply_predicate(build_predicate(m, "p"), v)


def reference_bits(values) -> list[bool] | None:
    """The 0/1 check entry by entry in plain Python: each entry's bit, or
    ``None`` if some entry is within ``FLOAT_TOL`` of neither 0 nor 1."""
    bits = []
    for x in values:
        if abs(x - 1.0) <= FLOAT_TOL:
            bits.append(True)
        elif abs(x) <= FLOAT_TOL:
            bits.append(False)
        else:
            return None
    return bits


TOL = FLOAT_TOL
# Entries at and around the tolerance edge.  ``1 + TOL`` is stored a little
# more than ``TOL`` above 1, so the reference refuses it, while ``1 - TOL``
# lands within it; the reference decides each such edge, not this list.
SPECIAL_ENTRIES = {
    "zero": 0.0,
    "negative-zero": -0.0,
    "one": 1.0,
    "zero-plus-tol": TOL,
    "zero-minus-tol": -TOL,
    "one-plus-half-tol": 1 + TOL / 2,
    "one-minus-half-tol": 1 - TOL / 2,
    "one-plus-tol": 1 + TOL,
    "one-minus-tol": 1 - TOL,
    "zero-plus-two-tol": 2 * TOL,
    "one-plus-two-tol": 1 + 2 * TOL,
    "one-minus-two-tol": 1 - 2 * TOL,
    "below-the-member-threshold": 1e-13,
    "half": 0.5,
    "nan": math.nan,
    "inf": math.inf,
    "negative-inf": -math.inf,
    "smallest-subnormal": 5e-324,
    "negative-subnormal": -1e-310,
}
LONG = 3000
# Each vector pairs one special entry with exact bits: alone (n = 1), in
# the middle of three, and last of 3,000.  Two more hold noise within
# ``TOL / 2`` on every entry, one of them with a single 0.5 at its end.
_rng = np.random.default_rng(27)
_long_bits = (np.arange(LONG) % 3 == 0).astype(np.float64)
_noise = _long_bits + _rng.uniform(-TOL / 2, TOL / 2, size=LONG)
ZERO_ONE_BATTERY = {
    **{f"{name}-alone": [x] for name, x in SPECIAL_ENTRIES.items()},
    **{f"{name}-of-three": [1.0, x, 0.0] for name, x in SPECIAL_ENTRIES.items()},
    **{f"{name}-last-of-{LONG}": [*_long_bits[:-1], x] for name, x in SPECIAL_ENTRIES.items()},
    f"noise-of-{LONG}": list(_noise),
    f"noise-of-{LONG}-then-half": [*_noise[:-1], 0.5],
}
# One model per length: atom i is in ``p`` when i is odd.
_MODELS = {
    n: Model.from_names(
        [f"a{i}" for i in range(n)], predicates={"p": [f"a{i}" for i in range(1, n, 2)]}
    )
    for n in (1, 3, LONG)
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values", ZERO_ONE_BATTERY.values(), ids=ZERO_ONE_BATTERY.keys())
def test_zero_one_check_matches_the_reference_through_every_caller(values):
    """The one 0/1 check, and every caller of it, accept and refuse exactly
    what the plain-Python reference does, and read the same bits."""
    expected = reference_bits(values)
    arr = np.array(values)
    v = Tensor(values)
    m = _MODELS[len(values)]
    ones_v, zeros_v = Tensor(np.ones(len(values))), Tensor(np.zeros(len(values)))
    exists_plan = quantifier_plan("exists", (0,), v, v)
    subset_plan = quantifier_plan("forall", (0, 1), v, zeros_v)
    superset_plan = quantifier_plan("forall", (0, 1), ones_v, v)
    bits = _snap01(arr)
    if expected is None:
        assert bits is None
        for plan in (exists_plan, subset_plan, superset_plan):
            with pytest.raises(NonCharacteristicError):
                execute(plan)
        with pytest.raises(NonCharacteristicError):
            SetVector(v)
        with pytest.raises(NonCharacteristicError):
            decode_set(m, v)
        with pytest.raises(NonOneHotError):
            apply_predicate(build_predicate(m, "p"), v)
        return
    assert bits.dtype == np.bool_ and bits.tolist() == expected
    assert execute(exists_plan) == (truth_top() if any(expected) else truth_bot())
    assert execute(subset_plan) == (truth_bot() if any(expected) else truth_top())
    assert execute(superset_plan) == (truth_top() if all(expected) else truth_bot())
    stored = SetVector(v).tensor.array
    assert stored.dtype == np.float64 and stored.tolist() == [float(b) for b in expected]
    assert decode_set(m, v) == {a for a, bit in zip(m.atom_names, expected) if bit}
    if sum(expected) == 1:
        # The contraction reads the exact one-hot the check accepted, so
        # every accepted argument gives its crisp verdict.
        truth = apply_predicate(build_predicate(m, "p"), v)
        assert truth == (truth_top() if expected.index(True) in m.predicates["p"] else truth_bot())
    else:
        with pytest.raises(NonOneHotError):
            apply_predicate(build_predicate(m, "p"), v)


@st.composite
def zero_one_grids(draw) -> np.ndarray:
    """A float64 array of rank 1 to 3, possibly empty, of exact 0/1 entries:
    left exact, with one entry from ``SPECIAL_ENTRIES``, or with noise
    within ``2 * TOL`` on every entry."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    size = math.prod(shape)
    arr = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size)))
    kind = draw(st.sampled_from(["exact", "special", "noise"]))
    if kind == "special" and size:
        arr[draw(st.integers(0, size - 1))] = draw(st.sampled_from(list(SPECIAL_ENTRIES.values())))
    elif kind == "noise":
        noise = st.floats(-2 * TOL, 2 * TOL)
        arr += np.array(draw(st.lists(noise, min_size=size, max_size=size)))
    return arr.reshape(shape)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(zero_one_grids())
def test_zero_one_check_matches_the_reference_on_any_shape(arr):
    """The check's exact-grid tier and its tolerant tier together read the
    same bits as the plain-Python reference, and refuse what it refuses."""
    expected = reference_bits(arr.ravel().tolist())
    bits = _snap01(arr)
    if expected is None:
        assert bits is None
    else:
        assert bits.dtype == np.bool_ and bits.shape == arr.shape
        assert bits.ravel().tolist() == expected


def test_an_exact_grid_never_reaches_the_tolerant_reduction(monkeypatch):
    """An exact 0/1 array of any shape, empty or holding -0.0, is decided by
    the one comparison; so is every quantifier step of a compiled plan."""

    def refuse(arr, bits):
        raise AssertionError("the tolerant reduction ran on an exact grid")

    monkeypatch.setattr(tensor_module, "_within_tol", refuse)
    grids = ([0.0], [-0.0, 1.0], np.zeros(0), np.zeros((2, 0)), np.eye(3), np.ones((2, 2, 2)))
    for values in grids:
        arr = np.array(values, dtype=np.float64)
        assert _snap01(arr).tolist() == (arr > 0.5).tolist()
    m = _MODELS[LONG]
    assert evaluate(parse_formula("exists p", m), m) == truth_top()
    assert evaluate(parse_formula("all p (~p)", m), m) == truth_bot()
    assert evaluate(parse_formula("all (p & ~p) p", m), m) == truth_top()
    assert decode_set(m, Tensor(np.arange(LONG) == 1)) == {"a1"}
    with pytest.raises(AssertionError, match="tolerant reduction"):
        _snap01(np.array([1.0, 0.5]))


@pytest.mark.parametrize("noise", [FLOAT_TOL, -FLOAT_TOL], ids=["plus-tol", "minus-tol"])
def test_crisp_application_contracts_the_snapped_one_hot(noise):
    """Noise within ``FLOAT_TOL`` on an accepted one-hot gives the crisp
    verdict whatever its sign: the argument contracted is the exact one-hot
    that the check reads, so a raw sum just above 1 cannot leave the result
    unnormalized.  Each function that applies a symbol contracts it."""
    m = Model.from_names(
        ["a", "b", "c"], predicates={"p": ["b"]}, relations={"r": (2, [("a", "a")])}
    )
    v = Tensor([1.0, noise, 0.0])
    assert apply_predicate(build_predicate(m, "p"), v) == truth_bot()
    assert apply_relation(build_relation(m, "r"), [v, v]) == truth_top()
    bound = partial_apply(build_relation(m, "r"), [v]).tensor
    assert bound == Tensor([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])


def test_no_caller_can_hand_the_zero_one_check_an_empty_array():
    """Every caller checks a ``Tensor``'s array or a plan register loaded
    from one, and no ``Tensor`` has a zero dimension.  The check itself
    reads an empty array as the empty set, as an elementwise check would."""
    with pytest.raises(DimensionMismatchError):
        Tensor([])
    assert _snap01(np.zeros(0)).tolist() == []
