"""The exact-sum kernel against ``math.fsum``: equal by ``repr``, sign of zero
included, and the same exception where ``math.fsum`` raises.  The exact parts
of two arrays sum, by ``math.fsum``, to ``exact_sum`` of their concatenation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivasim import exactsum
from ivasim.exactsum import exact_parts, exact_sum, row_sums

KERNEL_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
KINDS = ("spread", "uniform", "cancel", "subnormal", "zeros", "ties", "mixed")
SHORT = exactsum._SHORT
CHUNK = exactsum._CHUNK
CHUNK_LENGTHS = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]  # one to four chunks


def _values(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """n floats of one shape of difficulty."""
    if kind == "spread":  # mixed signs over 24 decades
        return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
    if kind == "uniform":  # one sign and one binade: the partial sums grow fastest
        return rng.uniform(1.0, 2.0, n) * 2.0 ** int(rng.integers(-60, 60))
    if kind == "cancel":  # values next to their negations, so the sum is tiny
        x = _values(rng, n, "spread")
        x[1::2] = -x[: n // 2]
        if n:
            x[-1] *= 1e-20
        return rng.permutation(x)
    if kind == "subnormal":
        return rng.integers(-(2**20), 2**20, n) * 5e-324
    if kind == "zeros":
        return rng.choice([0.0, -0.0, 1.5, -2.25e-300], n, p=[0.45, 0.45, 0.05, 0.05])
    if kind == "ties":  # exact sums half-way between floats, tipped by a tiny part
        return rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-200, 0.0], n)
    parts = [_values(rng, n, k) for k in KINDS[:-1]]
    return np.choose(rng.integers(0, len(parts), n), parts)


def _outcome(fn, *args):
    """``repr`` of the result, or the exception type and message."""
    try:
        result = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return repr(result.tolist() if isinstance(result, np.ndarray) else result)


def _fsum_rows(matrix):
    return np.array([math.fsum(row) for row in matrix.tolist()])


@KERNEL_SETTINGS
@given(
    st.sampled_from([0, 1, 2, SHORT - 1, SHORT, SHORT + 1, SHORT + 2, 1000, 20_000,
                     *CHUNK_LENGTHS]),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_equals_fsum(n, seed):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        x = _values(rng, n, kind)
        assert _outcome(exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x), kind


def _part_values(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """``_values``, or an all-zero, all-negative-zero or non-finite array."""
    if kind == "all_zero":
        return np.zeros(n)
    if kind == "all_negative_zero":
        return np.full(n, -0.0)
    x = _values(rng, n, "spread" if kind == "non_finite" else kind)
    if kind == "non_finite" and n:
        x[rng.integers(n)] = rng.choice([math.inf, -math.inf, math.nan])
    return x


PART_KINDS = KINDS + ("all_zero", "all_negative_zero", "non_finite")
PART_LENGTHS = [0, 1, SHORT - 1, SHORT, SHORT + 1, 1000, *CHUNK_LENGTHS]


@KERNEL_SETTINGS
@given(
    st.sampled_from(PART_LENGTHS),
    st.sampled_from(PART_LENGTHS),
    st.sampled_from(PART_KINDS),
    st.sampled_from(PART_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_parts_of_two_arrays_sum_to_their_concatenation(na, nb, kind_a, kind_b, seed):
    rng = np.random.default_rng(seed)
    a, b = _part_values(rng, na, kind_a), _part_values(rng, nb, kind_b)
    assert _outcome(lambda: math.fsum(exact_parts(a) + exact_parts(b))) == _outcome(
        exact_sum, np.concatenate([a, b])
    )


@pytest.mark.parametrize("n", [SHORT + 1, 1000])
def test_all_zero_arrays_give_one_signed_zero(n):
    assert repr(exact_parts(np.zeros(n))) == repr([0.0])
    assert repr(exact_parts(np.full(n, -0.0))) == repr([-0.0])
    mixed = np.full(n, -0.0)
    mixed[n // 2] = 0.0
    assert repr(exact_parts(mixed)) == repr([0.0])


@KERNEL_SETTINGS
@given(
    st.integers(1, 300),
    st.sampled_from([1, 2, 3, 7, 20, 40]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_row_sums_equal_fsum(n, k, fortran, seed):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        matrix = _values(rng, n * k, kind).reshape(n, k)
        if fortran:
            matrix = np.asfortranarray(matrix)
        assert _outcome(row_sums, matrix) == _outcome(_fsum_rows, matrix), kind


def test_row_sums_across_blocks_and_without_columns():
    matrix = _values(np.random.default_rng(3), 3 * (exactsum._ROW_BLOCK + 5), "mixed")
    matrix = matrix.reshape(-1, 3)
    assert row_sums(matrix).tolist() == _fsum_rows(matrix).tolist()
    assert repr(row_sums(np.empty((4, 0))).tolist()) == repr([math.fsum([])] * 4)


def test_negative_zeros_sum_as_fsum_sums_them():
    zeros = np.full(SHORT + 10, -0.0)
    assert repr(exact_sum(zeros)) == repr(math.fsum(zeros.tolist()))
    rows = np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
    assert repr(row_sums(rows).tolist()) == repr(_fsum_rows(rows).tolist())


def test_half_way_ties_are_rounded_in_the_vectorised_path(monkeypatch):
    """Rows whose exact sum lies just past a half-way point between two floats.

    The two largest parts tie, so round-half-even on them alone goes the wrong
    way; only the half-way correction, which looks at the part below, rounds
    like ``math.fsum``.  No row may fall back to ``math.fsum``.
    """
    rng = np.random.default_rng(7)
    base = [[1.0, 2.0**-53, 2.0**-200], [1.0, -(2.0**-54), -(2.0**-200)],
            [-1.0, -(2.0**-53), -(2.0**-200)], [3.0, 2.0**-52, 2.0**-300]]
    rows = np.array([[v * 2.0 ** int(e) for v in rng.permutation(row)]
                     for row in base for e in rng.integers(-500, 500, 8)])
    expected = _fsum_rows(rows)
    naive = np.array([math.fsum(sorted(row, key=abs, reverse=True)[:2]) for row in rows.tolist()])
    assert (naive != expected).all()  # every row needs the correction
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
    assert row_sums(rows).tolist() == expected.tolist()
    assert calls == []


def test_rows_spanning_too_many_binades_fall_back_to_fsum(monkeypatch):
    # each value has a full mantissa and needs two extractions of its own
    wide = [[1e200 / 3, 1 / 3, 1e-200 / 3], [-2e100 / 3, 1 / 7, 5e-250 / 7],
            [1e300, 1.0 / 3, 1e-300]]
    narrow = [[1.0, 2.0, 3.0]] * 5
    rows = np.array(narrow + wide)
    expected = _fsum_rows(rows)
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(list(xs)) or fsum(xs))
    assert row_sums(rows).tolist() == expected.tolist()
    assert calls == wide


@pytest.mark.filterwarnings("error")  # as quiet as math.fsum
@pytest.mark.parametrize(
    "special",
    [
        [math.inf],
        [-math.inf],
        [math.nan],
        [math.inf, -math.inf],  # ValueError
        [1.7e308, 1.7e308],  # OverflowError
        [1.7e308, -1.7e308],  # near overflow, but the sum is 0
        [math.inf, math.nan],
    ],
)
def test_non_finite_and_huge_values_behave_as_in_fsum(special):
    rng = np.random.default_rng(11)
    x = np.concatenate([_values(rng, SHORT + 5, "spread"), special])
    rng.shuffle(x)
    assert _outcome(exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)

    rows = np.tile(_values(rng, 4, "spread"), (6, 1))
    rows[[1, 4], : len(special)] = special
    assert _outcome(row_sums, rows) == _outcome(_fsum_rows, rows)


@pytest.mark.filterwarnings("error")  # as quiet as math.fsum
@pytest.mark.parametrize(
    "special",
    [
        [math.inf, -math.inf, math.nan],  # ValueError
        [math.nan, math.inf, -math.inf],
        [-math.inf, math.inf],  # ValueError
        [math.inf, math.nan],
        [-math.inf, -math.inf, -math.inf],
        [1.7e308, 1.7e308],  # OverflowError
        [1.7e308, -1.7e308],  # near overflow in two chunks, but the sum is small
        [2.0**1010, 1.0, -(2.0**1010)],  # below overflow, but not below the whole array's bound
    ],
)
@pytest.mark.parametrize("n", CHUNK_LENGTHS)
def test_non_finite_and_huge_values_in_different_chunks_behave_as_in_fsum(special, n):
    """Each special value in its own chunk: the first, a middle one and the last."""
    x = _values(np.random.default_rng(17), n, "spread")
    x[[3, n // 2, n - 2][:len(special)]] = special
    assert _outcome(exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)
    assert _outcome(lambda a: math.fsum(exact_parts(a)), x) == _outcome(exact_sum, x)


def test_partial_sums_that_overflow_inside_one_chunk_raise_as_in_fsum():
    """Values below the bound one chunk alone would need, but not below the
    whole array's: 2^19 of them bring the sum next to overflow, and the last
    chunk climbs past it and back.  ``math.fsum`` raises on the climb."""
    v = 1.9999 * 2.0**1004
    half = CHUNK // 2
    x = np.concatenate([np.full(2**19, v), np.full(half, v), np.full(half, -v)])
    assert _outcome(exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)
    assert _outcome(exact_sum, x)[0] is OverflowError
