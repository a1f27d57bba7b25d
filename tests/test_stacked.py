"""A (B, T) stack through ``apply_to_values`` against B separate 1-D calls.

The LOOCV engine smooths all deletion series of a nonlinear method in one
stacked call, so a report stays byte-identical only if every row of the stack
comes out bit for bit as the 1-D call on that row.  Results are compared as
int64 bit patterns, which also tells -0.0 from 0.0 and NaN payloads apart.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench.calibration import repair_genome, search_bounds
from smoothbench.errors import SmoothbenchError
from smoothbench.evaluation import deletion_imputations
from smoothbench.smoothers import MethodId, SmootherSpec, apply_to_values
from smoothbench.timeseries import TimeSeries, impute_linear


def spec_at(method: MethodId, n: int, fractions) -> SmootherSpec:
    """Spec whose genes sit at ``fractions`` of the length-n search box."""
    bounds = search_bounds(method, n)
    raw = [b.lo + f * (b.hi - b.lo) for b, f in zip(bounds, fractions)]
    return SmootherSpec(method, repair_genome(method, bounds, raw))


def outcome(spec: SmootherSpec, values: np.ndarray):
    """The bit pattern of the smooth, or the type of the error it raised."""
    try:
        return apply_to_values(spec, values).view(np.int64)
    except SmoothbenchError as exc:
        return type(exc)


def assert_stack_matches_rows(spec: SmootherSpec, stack: np.ndarray) -> None:
    rows = [outcome(spec, row.copy()) for row in stack]
    errors = [r for r in rows if isinstance(r, type)]
    stacked = outcome(spec, stack)
    if errors:
        assert stacked is errors[0]
        return
    assert stacked.shape == stack.shape
    for b, row in enumerate(rows):
        np.testing.assert_array_equal(stacked[b], row, err_msg=f"row {b} of {spec}")


def deletion_stack(y: np.ndarray) -> np.ndarray:
    """The T single-deletion series the LOOCV engine smooths together."""
    n = len(y)
    stack = np.tile(y, (n, 1))
    np.fill_diagonal(stack, deletion_imputations(y, np.arange(n, dtype=float)))
    return stack


@st.composite
def stacks(draw):
    method = draw(st.sampled_from(list(MethodId)))
    n = draw(st.integers(5, 36))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    spec = spec_at(method, n, fractions)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    rows = [y]
    for _ in range(draw(st.integers(0, 4))):
        row = y.copy()
        hit = gen.integers(n, size=draw(st.integers(1, 3)))
        row[hit] = scale * gen.normal(size=len(hit))
        rows.append(row)
    if draw(st.booleans()):
        rows.append(gen.permutation(y))
    return spec, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stack_matches_row_by_row_calls(case):
    spec, stack = case
    assert_stack_matches_rows(spec, stack)


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_deletion_stack_matches_rows(method, rng):
    n = 23
    y = np.cumsum(rng.normal(size=n)) + 5.0
    for fractions in ((0.0,) * 4, (0.5,) * 4, (1.0,) * 4):
        assert_stack_matches_rows(spec_at(method, n, fractions), deletion_stack(y))


def test_single_series_keeps_its_shape(rng):
    y = rng.normal(size=12)
    for method in MethodId:
        spec = spec_at(method, 12, (0.5,) * 4)
        assert apply_to_values(spec, y).shape == (12,)
        assert apply_to_values(spec, y[None, :]).shape == (1, 12)


def test_stack_of_wrong_rank_rejected():
    spec = spec_at(MethodId.RRM, 8, (0.0,))
    with pytest.raises(ValueError):
        apply_to_values(spec, np.zeros((2, 2, 8)))


def _two_thirds_missing(gen: np.random.Generator, n: int) -> np.ndarray:
    values = list(np.cumsum(gen.normal(size=n)) + 10.0)
    for i in range(n):
        if i % 3 and 0 < i < n - 1:
            values[i] = None
    return impute_linear(TimeSeries.from_values(values)).values()


def _degenerate_inputs() -> dict[str, np.ndarray]:
    gen = np.random.default_rng(4)
    noise = gen.normal(size=24)
    mostly_zero = np.zeros(24)
    mostly_zero[[5, 17]] = (3.0, -1.5)
    return {
        "t5": np.array([1.0, 4.0, 2.0, 8.0, 5.0]),
        "constant": np.full(24, 2.5),
        "all_zero": np.zeros(24),
        "mostly_zero": mostly_zero,
        "huge": 1e17 * (1.0 + 0.1 * noise),
        "tiny": 1e-17 * (1.0 + 0.1 * noise),
        "step_1e6": np.where(np.arange(24) < 12, 0.0, 1e6) + noise,
        "two_thirds_missing": _two_thirds_missing(gen, 24),
    }


DEGENERATE = _degenerate_inputs()


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_degenerate_inputs(method, name):
    y = DEGENERATE[name]
    for fractions in ((0.0,) * 4, (1.0,) * 4):
        assert_stack_matches_rows(spec_at(method, len(y), fractions), deletion_stack(y))
