import numpy as np
import pytest

from defiparity.domain import ProtocolRecord, WeightVector, validate_universe
from defiparity.errors import AlreadyNormalized, NotNormalized, UniverseMismatch, ZeroMatrix
from defiparity.risk import (
    RiskDecomposition,
    RiskMatrix,
    build_risk_matrix,
    normalize,
    portfolio_risk_report,
    risk_contributions,
)


def universe_of(scores):
    return validate_universe(
        [ProtocolRecord(f"p{i:02d}", float(s)) for i, s in enumerate(scores)]
    )


def matrix_of(scores, normalized=False):
    m = build_risk_matrix(universe_of(scores))
    return normalize(m) if normalized else m


class TestBuild:
    def test_scores_land_on_diagonal(self):
        m = matrix_of([1.0, 4.0])
        assert np.array_equal(m.entries, np.diag([1.0, 4.0]))
        assert not m.normalized

    def test_single_protocol(self):
        m = matrix_of([0.6673])
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == 0.6673

    def test_off_diagonals_zero(self):
        m = matrix_of([2.0, 3.0, 5.0])
        assert np.array_equal(np.diagonal(m.entries), [2.0, 3.0, 5.0])
        assert np.count_nonzero(m.entries - np.diag(np.diagonal(m.entries))) == 0

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            RiskMatrix(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_positive_diagonal_required(self):
        with pytest.raises(ValueError):
            RiskMatrix(("a", "b"), np.diag([1.0, 0.0]))

    def test_square_matrix_required(self):
        with pytest.raises(ValueError, match=r"^risk matrix must be square$"):
            RiskMatrix(("a", "b"), np.ones(2))

    def test_matrix_must_match_the_universe(self):
        with pytest.raises(ValueError,
                           match=r"^risk matrix dimension must equal universe size$"):
            RiskMatrix(("a",), np.eye(2))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one protocol"):
            RiskMatrix((), np.zeros((0, 0)))

    def test_entries_are_frozen(self):
        m = matrix_of([1.0, 2.0])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0


class TestNormalize:
    def test_three_four_five(self):
        # Frobenius norm of diag(3, 4) is sqrt(9 + 16) = 5
        m = normalize(matrix_of([3.0, 4.0]))
        assert np.allclose(np.diagonal(m.entries), [0.6, 0.8], rtol=0, atol=1e-15)
        assert m.normalized

    def test_unit_fixed_point(self):
        m = normalize(matrix_of([1.0]))
        assert m.entries[0, 0] == 1.0

    @pytest.mark.parametrize("c", [0.5, 1.0, 7.25, 1e3])
    def test_constant_diagonal(self, c):
        # ||diag(c, c)|| = c * sqrt(2)
        m = normalize(matrix_of([c, c]))
        assert np.allclose(np.diagonal(m.entries), 1.0 / np.sqrt(2.0), rtol=1e-15)

    def test_already_normalized_rejected(self):
        m = normalize(matrix_of([3.0, 4.0]))
        with pytest.raises(AlreadyNormalized):
            normalize(m)

    def test_original_untouched(self):
        raw = matrix_of([3.0, 4.0])
        normalize(raw)
        assert np.array_equal(raw.entries, np.diag([3.0, 4.0]))
        assert not raw.normalized

    def test_direction_idempotence(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            scores = rng.uniform(0.1, 10.0, size=n)
            c = float(rng.uniform(1e-3, 1e3))
            a = normalize(matrix_of(scores))
            b = normalize(matrix_of(c * scores))
            assert np.allclose(a.entries, b.entries, rtol=1e-12, atol=0)

    def test_zero_matrix_names_the_row_of_its_largest_entry(self):
        m = RiskMatrix(("a", "b"), np.array([[1.0, 1e200], [1e200, 1e300]]))
        with pytest.raises(ZeroMatrix, match=r"largest entry 1e\+300 for 'b'$"):
            normalize(m)

    def test_unit_frobenius_norm(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = normalize(matrix_of(rng.uniform(0.1, 10.0, size=n)))
            assert abs(np.linalg.norm(m.entries) - 1.0) < 1e-12


class TestContributions:
    def test_hand_computed(self):
        # w_i^2 * sigma_i: (0.25*0.6, 0.25*0.8)
        m = matrix_of([0.6, 0.8])
        w = WeightVector(m.universe_ids, (0.5, 0.5))
        d = risk_contributions(w, m)
        assert d.contributions == pytest.approx((0.15, 0.20), abs=1e-15)
        assert d.total == pytest.approx(0.35, abs=1e-15)

    def test_total_must_equal_the_sum(self):
        with pytest.raises(ValueError, match=r"^total must equal the sum of contributions$"):
            RiskDecomposition((0.15, 0.20), 0.5)

    def test_single_asset(self):
        m = matrix_of([0.37])
        d = risk_contributions(WeightVector(m.universe_ids, (1.0,)), m)
        assert d.contributions == (0.37,)
        assert d.total == 0.37

    def test_zero_weight_contributes_zero(self):
        m = matrix_of([2.0, 5.0])
        d = risk_contributions(WeightVector(m.universe_ids, (1.0, 0.0)), m)
        assert d.contributions == (2.0, 0.0)

    def test_concentrated_weight_exact(self):
        m = matrix_of([0.9, 1.7, 4.2])
        d = risk_contributions(WeightVector(m.universe_ids, (0.0, 1.0, 0.0)), m)
        assert d.contributions == (0.0, 1.7, 0.0)

    def test_total_equals_quadratic_form(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = matrix_of(rng.uniform(0.1, 10.0, size=n), normalized=True)
            w_raw = rng.dirichlet(np.ones(n))
            w = WeightVector(m.universe_ids, tuple(w_raw / w_raw.sum()))
            d = risk_contributions(w, m)
            quad = float(w_raw @ m.entries @ w_raw)
            assert d.total == pytest.approx(quad, rel=1e-12)

    def test_universe_mismatch(self):
        m = matrix_of([1.0, 2.0])
        with pytest.raises(UniverseMismatch):
            risk_contributions(WeightVector(("x", "y"), (0.5, 0.5)), m)


class TestRiskReport:
    def test_weighted_mean(self):
        m = RiskMatrix(("a", "b"), np.diag([0.6, 0.8]), normalized=True)
        assert portfolio_risk_report(WeightVector(("a", "b"), (0.5, 0.5)), m) == \
            pytest.approx(0.7, abs=1e-15)

    def test_single_asset(self):
        m = RiskMatrix(("a",), np.diag([0.4024]), normalized=True)
        assert portfolio_risk_report(WeightVector(("a",), (1.0,)), m) == 0.4024

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_constant_scores_give_that_score(self, n):
        s = 0.31
        m = RiskMatrix(
            tuple(f"p{i}" for i in range(n)), np.diag([s] * n), normalized=True
        )
        w = WeightVector(m.universe_ids, tuple([1.0 / n] * n))
        assert portfolio_risk_report(w, m) == pytest.approx(s, rel=1e-15)

    def test_requires_normalized(self):
        m = matrix_of([0.6, 0.8])
        with pytest.raises(NotNormalized):
            portfolio_risk_report(WeightVector(m.universe_ids, (0.5, 0.5)), m)
