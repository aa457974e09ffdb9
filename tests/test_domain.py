import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defiparity.domain import (
    WEIGHT_SUM_TOL,
    DatedSeries,
    ProtocolRecord,
    Universe,
    WeightVector,
    check_weights,
    validate_universe,
)
from defiparity.errors import DuplicateId, DuplicateObservation, EmptyUniverse, NonPositiveScore
from reference_engine import reference_fill_forward


def test_validate_universe_sorts_by_id():
    universe = validate_universe([
        ProtocolRecord("b", 2.0),
        ProtocolRecord("a", 1.0),
    ])
    assert universe.ids == ("a", "b")
    assert universe.scores == (1.0, 2.0)


def test_zero_score_rejected():
    with pytest.raises(NonPositiveScore) as exc:
        ProtocolRecord("a", 0.0)
    assert exc.value.protocol_id == "a"


def test_negative_score_rejected():
    with pytest.raises(NonPositiveScore):
        ProtocolRecord("a", -3.0)


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId) as exc:
        validate_universe([ProtocolRecord("a", 1.0), ProtocolRecord("a", 2.0)])
    assert exc.value.protocol_id == "a"


def test_empty_universe_rejected():
    with pytest.raises(EmptyUniverse):
        validate_universe([])


def test_validate_universe_idempotent():
    records = [ProtocolRecord("c", 3.0), ProtocolRecord("a", 1.0), ProtocolRecord("b", 2.0)]
    first = validate_universe(records)
    second = validate_universe(first)
    assert first == second


def test_canonical_order_is_permutation_independent():
    records = [ProtocolRecord("a", 1.0), ProtocolRecord("b", 2.0), ProtocolRecord("c", 3.0)]
    a = validate_universe(records)
    b = validate_universe(records[::-1])
    c = validate_universe([records[1], records[2], records[0]])
    assert a == b == c


def test_universe_constructor_requires_sorted_ids():
    with pytest.raises(ValueError):
        Universe((ProtocolRecord("b", 1.0), ProtocolRecord("a", 1.0)))


def test_negative_tvl_rejected():
    with pytest.raises(ValueError):
        ProtocolRecord("a", 1.0, tvl=-5.0)


@pytest.mark.parametrize("bad_id", ["", "with space", "semi;colon", "tab\tid"])
def test_protocol_id_must_be_a_token(bad_id):
    with pytest.raises(ValueError):
        ProtocolRecord(bad_id, 1.0)


class TestWeightVector:
    def test_valid(self):
        w = WeightVector(("a", "b"), (0.25, 0.75))
        assert w.as_dict() == {"a": 0.25, "b": 0.75}

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            WeightVector(("a", "b"), (0.5, 0.6))

    def test_bounds(self):
        with pytest.raises(ValueError):
            WeightVector(("a", "b"), (1.5, -0.5))

    def test_length_must_match(self):
        with pytest.raises(ValueError):
            WeightVector(("a",), (0.5, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^weight vector must not be empty$"):
            WeightVector((), ())

    def test_tiny_drift_tolerated(self):
        WeightVector(("a", "b"), (0.5 + 1e-12, 0.5 - 1e-12))

    def test_sum_overflowing_fsum_rejected_as_a_sum(self):
        with pytest.raises(ValueError, match=r"^weights must sum to 1 \(got inf\)$"):
            WeightVector(("a", "b"), (1e308, 1e308))

    @pytest.mark.parametrize("values, first_bad", [
        ((1.5, -0.5), "1.5"),
        ((-0.5, 1.5), "-0.5"),
        ((0.5, math.nan, 0.5), "nan"),
        ((1.0, 0.0, 1.0, -1.0), "-1.0"),
    ])
    def test_first_weight_outside_bounds_named(self, values, first_bad):
        ids = tuple("abcd"[:len(values)])
        with pytest.raises(ValueError, match=rf"^weight {first_bad} outside \[0, 1\]$"):
            WeightVector(ids, values)


def reference_weights_error(values):
    """The error of checking `values` one weight at a time, None if none."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    except ValueError as exc:  # inf and -inf
        return str(exc)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        return f"weights must sum to 1 (got {total!r})"
    for w in values:
        if not math.isfinite(w) or w < -WEIGHT_SUM_TOL or w > 1.0 + WEIGHT_SUM_TOL:
            return f"weight {w!r} outside [0, 1]"
    return None


@st.composite
def near_simplex_vectors(draw):
    """Weights that sum to 1, some then replaced by NaN, an infinity, a huge,
    negative or just-out-of-bounds value, or shifted between two weights."""
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    values = [r / math.fsum(raw) for r in raw]
    special = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -1e-8, -1e-10,
                               1.0 + 1e-8, 1.0 + 1e-10, -0.0, 0.0, 1.0])
    for i, j, value, shift in draw(st.lists(st.tuples(
            st.integers(0, len(values) - 1), st.integers(0, len(values) - 1), special,
            st.booleans()), max_size=3)):
        if shift:
            values[i], values[j] = values[i] + 0.3, values[j] - 0.3
        else:
            values[i] = value
    return tuple(values)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_simplex_vectors())
def test_check_weights_raises_what_checking_each_weight_in_turn_raises(values):
    expected = reference_weights_error(values)
    if expected is None:
        check_weights(len(values), values)
    else:
        with pytest.raises(ValueError) as exc:
            check_weights(len(values), values)
        assert str(exc.value) == expected


class TestDatedSeries:
    def test_strictly_increasing_enforced(self):
        d = dt.date(2022, 1, 1).toordinal()
        with pytest.raises(ValueError, match="strictly increasing") as exc:
            DatedSeries([d, d - 1], [1.0, 2.0])
        assert not isinstance(exc.value, DuplicateObservation)
        # the first bad step decides, so a later repeat does not change the error
        with pytest.raises(ValueError, match="strictly increasing"):
            DatedSeries([d, d - 1, d + 5, d + 5], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DuplicateObservation, match="on 2022-01-02"):
            DatedSeries([d, d + 1, d + 1, d], [1.0, 2.0, 3.0, 4.0])

    def test_duplicate_dates_rejected(self):
        d = dt.date(2022, 1, 1)
        with pytest.raises(DuplicateObservation):
            DatedSeries.from_pairs([(d, 1.0), (d, 2.0)])

    def test_from_pairs_entries_are_sorted_python_objects(self):
        d = dt.date(2022, 1, 1)
        pairs = [(d + dt.timedelta(days=k), v) for k, v in ((3, 0.5), (0, -0.25), (1, 2.0))]
        s = DatedSeries.from_pairs(pairs)
        assert s.entries == tuple(sorted(pairs))
        for date, value in s.entries:
            assert type(date) is dt.date and type(value) is float
        assert s == DatedSeries(s.ordinals, s.levels)
        assert s != DatedSeries(s.ordinals, s.levels + 1.0)

    def test_arrays_are_read_only_copies(self):
        ordinals = np.array([738000, 738001])
        levels = np.array([0.1, 0.2])
        s = DatedSeries(ordinals, levels)
        ordinals[0] = 1
        levels[0] = 9.0
        assert s.dates == (dt.date.fromordinal(738000), dt.date.fromordinal(738001))
        assert s.values == (0.1, 0.2)
        assert (s.ordinals.dtype, s.levels.dtype) == (np.int64, np.float64)
        with pytest.raises(ValueError):
            s.levels[0] = 1.0

    def test_one_level_per_ordinal(self):
        with pytest.raises(ValueError):
            DatedSeries([738000, 738001], [0.1])

    def test_from_pairs_sorts(self):
        d = dt.date(2022, 1, 1)
        s = DatedSeries.from_pairs([(d + dt.timedelta(days=2), 3.0), (d, 1.0)])
        assert s.dates == (d, d + dt.timedelta(days=2))
        assert s.values == (1.0, 3.0)

    def test_fill_forward_within_gap(self):
        d = dt.date(2022, 1, 1)
        s = DatedSeries.from_pairs([(d, 0.05)])
        assert s.fill_forward(d + dt.timedelta(days=2), max_gap_days=3) == 0.05
        assert s.fill_forward(d + dt.timedelta(days=5), max_gap_days=3) is None
        assert s.fill_forward(d - dt.timedelta(days=1), max_gap_days=3) is None

    def test_exact_date_ignores_gap_window(self):
        d = dt.date(2022, 1, 1)
        s = DatedSeries.from_pairs([(d, 0.05)])
        assert s.fill_forward(d, max_gap_days=0) == 0.05

    def test_datetime_rejected(self):
        with pytest.raises(TypeError, match="datetime.date"):
            DatedSeries.from_pairs([(dt.datetime(2022, 1, 1, 12, 0), 1.0)])
        with pytest.raises(TypeError, match="datetime.date"):
            DatedSeries.from_pairs([(dt.datetime(2022, 1, 3), 1.0),
                                    (dt.datetime(2022, 1, 1), 2.0)])


@st.composite
def series_and_gap(draw):
    """A random series (steps of 1-7 days, so gaps inside and beyond the
    fill window), a fill window of 0-5 days and the days to look up, from
    before the first observation to past the last one's window."""
    first = dt.date(2021, 12, 1) + dt.timedelta(days=draw(st.integers(0, 60)))
    steps = draw(st.lists(st.integers(1, 7), max_size=25))
    days = [first]
    for step in steps:
        days.append(days[-1] + dt.timedelta(days=step))
    values = draw(st.lists(st.floats(-0.99, 5.0), min_size=len(days), max_size=len(days)))
    gap = draw(st.integers(0, 5))
    lookups = [first + dt.timedelta(days=k)
               for k in range(-3, (days[-1] - first).days + gap + 3)]
    return DatedSeries.from_pairs(zip(days, values)), gap, lookups


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_and_gap())
def test_fill_forward_matches_reference(case):
    series, gap, lookups = case
    for date in lookups:
        got = series.fill_forward(date, gap)
        want = reference_fill_forward(series, date, gap)
        assert got == want and type(got) is type(want), (date, gap)
