"""Tensor storage and contraction, checked against loop-based references.

The reference implementation here (`loop_contract`) is deliberately naive
and independent of the library code paths it verifies.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tensorlogic.tensor as tensor_module
from tensorlogic.errors import (
    DimensionMismatchError,
    ElementCapError,
    RankError,
)
from tensorlogic.model import Model
from tensorlogic.sets import build_set_predicate
from tensorlogic.tensor import (
    DEFAULT_ELEMENT_CAP,
    Tensor,
    _contract_arrays,
    contract,
    diag_build,
    one_hot,
    ones,
)


def loop_contract(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Reference contraction: explicit summation over every index tuple."""
    out_shape = left.shape[:-1] + right.shape[1:]
    out = np.zeros(out_shape if out_shape else (1,))
    left_free = left.ndim - 1
    for index in np.ndindex(*out.shape):
        li = index[:left_free]
        ri = index[left_free:] if out_shape else ()
        total = 0.0
        for s in range(left.shape[-1]):
            total += left[li + (s,)] * right[(s,) + ri]
        out[index] = total
    return out


class TestTensorInvariants:
    def test_rank_zero_rejected(self):
        with pytest.raises(RankError):
            Tensor(3.0)

    def test_empty_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Tensor(np.zeros((2, 0)))

    def test_element_cap(self, monkeypatch):
        with pytest.raises(ElementCapError):
            Tensor(np.broadcast_to(0.0, (DEFAULT_ELEMENT_CAP + 1,)))
        # ``Tensor`` reads the module's cap on every construction, so a small
        # cap shows the boundary without a cap-sized array.
        monkeypatch.setattr(tensor_module, "DEFAULT_ELEMENT_CAP", 10)
        Tensor(np.zeros(10))
        with pytest.raises(ElementCapError):
            Tensor(np.zeros(11))

    def test_cap_is_checked_before_the_copy(self):
        # A zero-copy view of one element more than the cap.
        values = np.broadcast_to(0.0, (DEFAULT_ELEMENT_CAP + 1,))
        tracemalloc.start()
        try:
            with pytest.raises(ElementCapError) as info:
                Tensor(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"Tensor construction needs a tensor of {DEFAULT_ELEMENT_CAP + 1} elements, "
            f"above the cap of {DEFAULT_ELEMENT_CAP}"
        )
        assert peak < 100_000

    def test_ragged_input_is_a_value_error(self):
        with pytest.raises(ValueError):
            Tensor([[1.0, 0.0], [1.0]])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_equality_and_hash(self):
        assert Tensor([1, 2]) == Tensor([1.0, 2.0])
        assert Tensor([1, 2]) != Tensor([[1, 2]])
        assert hash(Tensor([1, 2])) == hash(Tensor([1, 2]))
        assert Tensor([1.0, 0.0]) == Tensor([1.0, -0.0])
        assert hash(Tensor([1.0, 0.0])) == hash(Tensor([1.0, -0.0]))
        assert len({Tensor([1.0, 0.0]), Tensor([1.0, -0.0])}) == 1

    def test_scalar_carrier_item(self):
        assert Tensor([4.0]).item() == 4.0
        with pytest.raises(RankError):
            Tensor([1.0, 2.0]).item()


class TestContract:
    def test_membership_matrix_times_one_hot(self):
        # Frozen from the worked two-row membership matrix applied to the
        # first individual's one-hot vector.
        m = Tensor([[1, 1, 0], [0, 0, 1]])
        v = Tensor([1, 0, 0])
        assert contract(m, v) == Tensor([1, 0])

    def test_identity_matrix(self):
        v = Tensor([0.3, 0.7])
        assert contract(Tensor(np.eye(2)), v) == v

    def test_chained_application_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(2, 3, 4))
        u = rng.normal(size=(4, 5))
        v = rng.normal(size=5)
        left_first = contract(contract(Tensor(t), Tensor(u)), Tensor(v))
        right_first = contract(Tensor(t), contract(Tensor(u), Tensor(v)))
        reference = loop_contract(loop_contract(t, u), v)
        assert left_first.allclose(right_first)
        assert np.allclose(left_first.array, reference, atol=1e-12, rtol=0)

    def test_double_application_equals_double_sum(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=(2, 3, 4))
        v = rng.normal(size=4)
        w = rng.normal(size=3)
        applied = contract(contract(Tensor(t), Tensor(v)), Tensor(w))
        expected = np.zeros(2)
        for i in range(2):
            for s in range(4):
                for u in range(3):
                    expected[i] += t[i, u, s] * v[s] * w[u]
        assert np.allclose(applied.array, expected, atol=1e-12, rtol=0)

    def test_rank_arithmetic(self):
        rng = np.random.default_rng(3)
        for left_shape, right_shape in [
            ((2,), (2,)),
            ((3, 2), (2,)),
            ((2, 3, 4), (4, 5)),
            ((2, 2, 2), (2, 2, 2)),
        ]:
            left = Tensor(rng.normal(size=left_shape))
            right = Tensor(rng.normal(size=right_shape))
            result = contract(left, right)
            assert result.rank == max(left.rank + right.rank - 2, 1)
            assert np.allclose(
                result.array,
                loop_contract(left.array, right.array).reshape(result.shape),
                atol=1e-12,
                rtol=0,
            )

    def test_linearity(self):
        rng = np.random.default_rng(19)
        t = Tensor(rng.normal(size=(4, 3)))
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        alpha, beta = rng.normal(), rng.normal()
        combined = contract(t, Tensor(alpha * v + beta * w))
        parts = alpha * contract(t, Tensor(v)).array + beta * contract(t, Tensor(w)).array
        assert np.allclose(combined.array, parts, atol=1e-12, rtol=0)

    def test_full_reduction_yields_scalar_carrier(self):
        result = contract(Tensor([1, 2, 3]), Tensor([4, 5, 6]))
        assert result.shape == (1,)
        assert result.item() == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contract(Tensor([[1, 2]]), Tensor([1, 2, 3]))

    def test_matches_tensordot_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            left_shape = tuple(rng.integers(1, 5, size=rng.integers(0, 4))) + (k,)
            right_shape = (k,) + tuple(rng.integers(1, 5, size=rng.integers(0, 4)))
            left, right = rng.normal(size=left_shape), rng.normal(size=right_shape)
            expected = np.tensordot(left, right, axes=([left.ndim - 1], [0]))
            result = contract(Tensor(left), Tensor(right)).array
            assert result.shape == (expected.shape or (1,))
            assert result.tobytes() == expected.tobytes()


def reshape_contract(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The kernel's general form: one ``np.dot`` of the two matrix reshapes."""
    k = right.shape[0]
    shape = left.shape[:-1] + right.shape[1:] or (1,)
    return np.dot(left.reshape(-1, k), right.reshape(k, -1)).reshape(shape)


@pytest.mark.parametrize(
    "ranks", [(1, 1), (1, 2), (2, 1), (2, 2)], ids=lambda r: f"{r[0]}x{r[1]}"
)
def test_rank_two_operands_match_tensordot_and_the_reshape_form_bitwise(ranks):
    # Probability-valued operands with every contracted length of the scale
    # workload's sizes, 1 to 160, and free lengths from 1 to 160.  Two
    # vectors contract to the scalar carrier, of shape (1,).
    rng = np.random.default_rng(31 + 10 * ranks[0] + ranks[1])
    for k in range(1, 161):
        free = [int(n) for n in rng.integers(1, 161, size=2)]
        left = rng.random(size=tuple(free[:1]) * (ranks[0] - 1) + (k,))
        right = rng.random(size=(k,) + tuple(free[1:]) * (ranks[1] - 1))
        shape = left.shape[:-1] + right.shape[1:] or (1,)
        result = _contract_arrays(left, right, shape)
        expected = np.tensordot(left, right, axes=([left.ndim - 1], [0]))
        assert result.shape == shape
        assert result.tobytes() == expected.tobytes()
        assert result.tobytes() == reshape_contract(left, right).tobytes()
        assert contract(Tensor(left), Tensor(right)).array.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "ranks",
    [(3, 1), (1, 3), (3, 2), (2, 3), (4, 1), (1, 4), (3, 3), (4, 2)],
    ids=lambda r: f"{r[0]}x{r[1]}",
)
def test_rank_three_and_four_operands_still_match_tensordot_bitwise(ranks):
    rng = np.random.default_rng(41 + 10 * ranks[0] + ranks[1])
    for _ in range(60):
        k = int(rng.integers(1, 161))
        left_free = tuple(int(n) for n in rng.integers(1, 7, size=ranks[0] - 1))
        right_free = tuple(int(n) for n in rng.integers(1, 7, size=ranks[1] - 1))
        left, right = rng.random(size=left_free + (k,)), rng.random(size=(k,) + right_free)
        expected = np.tensordot(left, right, axes=([left.ndim - 1], [0]))
        result = _contract_arrays(left, right, expected.shape)
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()


# Each result has 4000 x 4000 = 16 million elements, above the default cap:
# 128 MB that must never be allocated.
WIDE = 4000
CAP_BEFORE_ALLOCATION = {
    "contract": lambda: (contract, Tensor(np.ones((WIDE, 1))), Tensor(np.ones((1, WIDE)))),
    "diag_build": lambda: (diag_build, ones(WIDE)),
    "build_set_predicate": lambda: (
        build_set_predicate,
        Model.from_names([f"a{i}" for i in range(WIDE)], {"p": ["a0"]}),
        "p",
    ),
}


@pytest.mark.parametrize("setup", CAP_BEFORE_ALLOCATION.values(), ids=CAP_BEFORE_ALLOCATION.keys())
def test_cap_is_checked_before_allocation(setup):
    function, *args = setup()
    tracemalloc.start()
    try:
        with pytest.raises(ElementCapError) as info:
            function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        f"Tensor construction needs a tensor of {WIDE * WIDE} elements, "
        f"above the cap of {DEFAULT_ELEMENT_CAP}"
    )
    assert peak < 2**20


class TestDiagonal:
    def test_build_frozen_example(self):
        assert diag_build(Tensor([0, 1, 1])) == Tensor([[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_build_ones_is_identity(self):
        assert diag_build(ones(5)) == Tensor(np.eye(5))

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = Tensor(rng.normal(size=rng.integers(1, 8)))
            assert Tensor(np.diagonal(diag_build(v).array)) == v


@given(st.integers(0, 4), st.integers(1, 5))
def test_one_hot_entries(index, size):
    if index >= size:
        with pytest.raises(DimensionMismatchError):
            one_hot(index, size)
    else:
        v = one_hot(index, size)
        assert v.array.sum() == 1.0 and v.array[index] == 1.0


def test_vectors_the_package_fills_are_read_only_and_capped():
    for v in (one_hot(1, 3), ones(3)):
        assert not v.array.flags.writeable
    with pytest.raises(DimensionMismatchError):
        ones(0)
    for build in (lambda: ones(DEFAULT_ELEMENT_CAP + 1), lambda: one_hot(0, DEFAULT_ELEMENT_CAP + 1)):
        with pytest.raises(ElementCapError):
            build()
