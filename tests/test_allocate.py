import numpy as np
import pytest

from defiparity.allocate import (
    ErcSolution,
    ErcSolverOptions,
    closed_form_diagonal,
    equal_weights,
    erc_objective,
    project_to_simplex,
    solve_erc,
    tvl_weights,
)
from defiparity.domain import ProtocolRecord, WeightVector, validate_universe
from defiparity.errors import (
    EmptyVector,
    MissingTvl,
    NotConverged,
    NotDiagonal,
    NotNormalized,
    ZeroTotalTvl,
)
from defiparity.risk import build_risk_matrix, normalize

ITERATIVE = ErcSolverOptions(
    tolerance=1e-24, max_iterations=50_000, allow_closed_form=False
)


def universe_of(scores, tvls=None):
    tvls = tvls or [None] * len(scores)
    return validate_universe([
        ProtocolRecord(f"p{i:02d}", float(s), tvl=t)
        for i, (s, t) in enumerate(zip(scores, tvls))
    ])


def normalized_matrix(scores):
    return normalize(build_risk_matrix(universe_of(scores)))


def normalized_matrix_from(score_by_id):
    u = validate_universe([ProtocolRecord(pid, s) for pid, s in score_by_id.items()])
    return normalize(build_risk_matrix(u))


def simplex_grid(n, step=0.01):
    """All points of the n-simplex whose coordinates are multiples of step."""
    k = round(1.0 / step)
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        i = np.arange(k + 1)
        return np.column_stack([i, k - i]) / k
    assert n == 3
    points = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            points.append((i, j, k - i - j))
    return np.asarray(points, dtype=float) / k


def objective_on_grid(entries, grid):
    contribs = grid * (grid @ entries.T)
    diffs = contribs[:, :, None] - contribs[:, None, :]
    return np.sum(diffs * diffs, axis=(1, 2))


class TestEqualWeights:
    def test_four(self):
        w = equal_weights(universe_of([1, 2, 3, 4]))
        assert w.values == (0.25, 0.25, 0.25, 0.25)

    def test_single(self):
        assert equal_weights(universe_of([5])).values == (1.0,)

    def test_three_renormalized(self):
        w = equal_weights(universe_of([1, 2, 3]))
        assert all(v == pytest.approx(1 / 3, rel=1e-15) for v in w.values)
        assert sum(w.values) == pytest.approx(1.0, abs=1e-12)


class TestTvlWeights:
    def test_proportional(self):
        w = tvl_weights(universe_of([1, 1], tvls=[100.0, 300.0]))
        assert w.values == (0.25, 0.75)

    def test_single(self):
        assert tvl_weights(universe_of([1], tvls=[5.0])).values == (1.0,)

    def test_three(self):
        w = tvl_weights(universe_of([1, 1, 1], tvls=[1.0, 1.0, 2.0]))
        assert w.values == (0.25, 0.25, 0.5)

    def test_missing_tvl(self):
        with pytest.raises(MissingTvl) as exc:
            tvl_weights(universe_of([1, 1], tvls=[100.0, None]))
        assert exc.value.protocol_id == "p01"

    def test_zero_total(self):
        with pytest.raises(ZeroTotalTvl):
            tvl_weights(universe_of([1, 1], tvls=[0.0, 0.0]))


class TestErcObjective:
    def test_hand_enumerated_pairs(self):
        # contributions (0.15, 0.20): pairs (1,2) and (2,1) each add 0.0025,
        # the two i=j terms add 0
        from defiparity.risk import RiskMatrix

        m = RiskMatrix(("a", "b"), np.diag([0.6, 0.8]), normalized=True)
        w = WeightVector(("a", "b"), (0.5, 0.5))
        assert erc_objective(w, m) == pytest.approx(0.005, abs=1e-15)

    def test_zero_at_parity(self):
        m = normalized_matrix([2.0, 2.0, 2.0])
        w = equal_weights(universe_of([2.0, 2.0, 2.0]))
        assert erc_objective(w, m) == 0.0

    def test_single_asset_is_zero(self):
        m = normalized_matrix([3.3])
        assert erc_objective(WeightVector(m.universe_ids, (1.0,)), m) == 0.0

    def test_requires_normalized(self):
        m = build_risk_matrix(universe_of([1.0, 2.0]))
        with pytest.raises(NotNormalized):
            erc_objective(WeightVector(m.universe_ids, (0.5, 0.5)), m)


class TestProjection:
    def test_feasible_point_unchanged(self):
        w = project_to_simplex([0.2, 0.3, 0.5])
        assert w.values == (0.2, 0.3, 0.5)

    def test_two_zero(self):
        # brute-force oracle: nearest feasible point on a 1e-3 grid
        target = np.array([2.0, 0.0])
        grid = simplex_grid(2, step=1e-3)
        nearest = grid[np.argmin(np.sum((grid - target) ** 2, axis=1))]
        assert tuple(nearest) == (1.0, 0.0)
        assert project_to_simplex([2.0, 0.0]).values == (1.0, 0.0)

    def test_negative_entry_clipped(self):
        target = np.array([0.5, 0.5, -1.0])
        grid = simplex_grid(3, step=1e-3)
        nearest = grid[np.argmin(np.sum((grid - target) ** 2, axis=1))]
        assert np.allclose(nearest, [0.5, 0.5, 0.0], atol=1e-12)
        assert project_to_simplex([0.5, 0.5, -1.0]).values == (0.5, 0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            project_to_simplex([])

    def test_nearest_among_random_feasible_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            v = rng.normal(scale=2.0, size=n)
            proj = np.asarray(project_to_simplex(v).values)
            d_proj = np.sum((proj - v) ** 2)
            candidates = rng.dirichlet(np.ones(n), size=1000)
            d_best = np.min(np.sum((candidates - v) ** 2, axis=1))
            assert d_proj <= d_best + 1e-12

    def test_custom_ids(self):
        w = project_to_simplex([0.4, 0.6], universe_ids=("a", "b"))
        assert w.universe_ids == ("a", "b")


class TestClosedForm:
    def test_one_four(self):
        w = closed_form_diagonal(normalized_matrix([1.0, 4.0]))
        assert w.values == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_equal_scores(self):
        w = closed_form_diagonal(normalized_matrix([7.0, 7.0]))
        assert w.values == (0.5, 0.5)

    def test_one_one_four(self):
        w = closed_form_diagonal(normalized_matrix([1.0, 1.0, 4.0]))
        assert w.values == pytest.approx((0.4, 0.4, 0.2), abs=1e-15)

    def test_raw_matrix_accepted(self):
        # w ~ 1/sqrt(score) is scale free, so raw scores work too
        w = closed_form_diagonal(build_risk_matrix(universe_of([1.0, 4.0])))
        assert w.values == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_non_diagonal_rejected(self):
        from defiparity.risk import RiskMatrix

        m = RiskMatrix(("a", "b"), np.array([[1.0, 0.1], [0.1, 1.0]]), normalized=True)
        with pytest.raises(NotDiagonal):
            closed_form_diagonal(m)


class TestSolveErc:
    def test_scores_one_four(self):
        sol = solve_erc(normalized_matrix([1.0, 4.0]))
        assert sol.converged
        assert sol.weights.values == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_scores_one_four_nine(self):
        sol = solve_erc(normalized_matrix([1.0, 4.0, 9.0]), ITERATIVE)
        assert sol.weights.values == pytest.approx(
            (6 / 11, 3 / 11, 2 / 11), abs=1e-10
        )

    def test_equal_scores_match_equal_weights_exactly(self):
        u = universe_of([3.0] * 5)
        m = normalize(build_risk_matrix(u))
        ew = equal_weights(u)
        assert solve_erc(m).weights == ew
        assert solve_erc(m, ITERATIVE).weights == ew

    def test_single_protocol(self):
        sol = solve_erc(normalized_matrix([2.0]))
        assert sol.weights.values == (1.0,)
        assert sol.converged and sol.iterations == 0

    def test_requires_normalized(self):
        with pytest.raises(NotNormalized):
            solve_erc(build_risk_matrix(universe_of([1.0, 4.0])))

    def test_diagonal_oracle_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = normalized_matrix(rng.uniform(0.1, 10.0, size=n))
            expected = closed_form_diagonal(m)
            got = solve_erc(m, ITERATIVE)
            assert got.weights.values == pytest.approx(expected.values, abs=1e-8)

    def test_feasibility(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            sol = solve_erc(normalized_matrix(rng.uniform(0.1, 10.0, size=n)), ITERATIVE)
            values = np.asarray(sol.weights.values)
            assert abs(values.sum() - 1.0) < 1e-9
            assert np.all(values >= -1e-9) and np.all(values <= 1.0 + 1e-9)

    def test_scale_invariance_of_minimizer(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            scores = rng.uniform(0.1, 10.0, size=n)
            base = solve_erc(normalized_matrix(scores), ITERATIVE).weights.values
            for c in (1e-3, 1e3):
                scaled = solve_erc(normalized_matrix(c * scores), ITERATIVE).weights.values
                assert scaled == pytest.approx(base, abs=1e-8)

    def test_local_minimality_small(self):
        rng = np.random.default_rng(104)
        for n in (2, 3):
            for _ in range(5):
                m = normalized_matrix(rng.uniform(0.1, 10.0, size=n))
                sol = solve_erc(m, ITERATIVE)
                f_star = erc_objective(sol.weights, m)
                grid = simplex_grid(n, step=0.01)
                assert np.all(f_star <= objective_on_grid(m.entries, grid) + 1e-18)
                random_points = rng.dirichlet(np.ones(n), size=1000)
                assert np.all(
                    f_star <= objective_on_grid(m.entries, random_points) + 1e-18
                )

    def test_permutation_equivariance_exact_on_default_path(self):
        scores = {"a": 2.0, "b": 5.0, "c": 9.0}
        w1 = solve_erc(normalized_matrix_from(scores)).weights.as_dict()
        renamed = {"c": 2.0, "b": 5.0, "a": 9.0}
        w2 = solve_erc(normalized_matrix_from(renamed)).weights.as_dict()
        assert w1["a"] == w2["c"] and w1["b"] == w2["b"] and w1["c"] == w2["a"]

    def test_permutation_equivariance_iterative(self):
        scores = {"a": 2.0, "b": 5.0, "c": 9.0}
        renamed = {"c": 2.0, "b": 5.0, "a": 9.0}
        w1 = solve_erc(normalized_matrix_from(scores), ITERATIVE).weights.as_dict()
        w2 = solve_erc(normalized_matrix_from(renamed), ITERATIVE).weights.as_dict()
        assert w1["a"] == pytest.approx(w2["c"], abs=1e-10)
        assert w1["b"] == pytest.approx(w2["b"], abs=1e-10)
        assert w1["c"] == pytest.approx(w2["a"], abs=1e-10)

    def test_monotonic_in_scores(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            scores = np.sort(rng.uniform(0.1, 10.0, size=n)) * np.geomspace(
                1.0, 2.0, n
            )  # enforce separation
            sol = solve_erc(normalized_matrix(scores), ITERATIVE)
            values = sol.weights.values
            for i in range(n - 1):
                assert values[i] > values[i + 1]

    def test_objective_zero_at_closed_form(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = normalized_matrix(rng.uniform(0.1, 10.0, size=n))
            w = closed_form_diagonal(m)
            assert erc_objective(w, m) <= 1e-12

    def test_not_converged_carries_best_iterate(self):
        m = normalized_matrix([1.0, 4.0])
        opts = ErcSolverOptions(
            tolerance=1e-30, max_iterations=1, allow_closed_form=False
        )
        with pytest.raises(NotConverged) as exc:
            solve_erc(m, opts)
        assert isinstance(exc.value.weights, WeightVector)
        assert exc.value.objective > 0
        assert exc.value.iterations == 1

    def test_plateau_reported_when_tolerance_unreachable(self):
        m = normalized_matrix([1.0, 4.0, 2.5])
        opts = ErcSolverOptions(
            tolerance=1e-300, max_iterations=50_000, allow_closed_form=False
        )
        sol = solve_erc(m, opts)
        assert sol.plateaued and not sol.converged
        # the iterate is still essentially optimal
        expected = closed_form_diagonal(m)
        assert sol.weights.values == pytest.approx(expected.values, abs=1e-10)


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"tolerance": -1.0},
        ],
    )
    def test_invalid_options(self, kwargs):
        with pytest.raises(ValueError):
            ErcSolverOptions(**kwargs)

    def test_solution_objective_nonnegative(self):
        with pytest.raises(ValueError):
            ErcSolution(WeightVector(("a",), (1.0,)), -0.1, 0, True)
