import numpy as np
import pytest

from ctxcert.ontomodel import (
    Distribution,
    IndicatorSet,
    OntModel,
    OnticSpace,
    disjoint,
    is_outcome_deterministic,
    outcome_determinism_from_prep_nc,
    predict,
    support,
)
from ctxcert.operational import hexagon_states
from ctxcert.qmath import Effect


def _delta(index: int, size: int) -> Distribution:
    w = np.zeros(size)
    w[index] = 1.0
    return Distribution(w)


def _deterministic_xi(outcomes_per_point: list[int], outcome_count: int) -> IndicatorSet:
    values = np.zeros((outcome_count, len(outcomes_per_point)))
    for point, outcome in enumerate(outcomes_per_point):
        values[outcome, point] = 1.0
    return IndicatorSet(values)


class TestPredict:
    def test_constant_indicator_gives_fair_coin(self):
        mu = Distribution(np.array([0.2, 0.3, 0.5]))
        xi = IndicatorSet(np.full((2, 3), 0.5))
        assert predict(mu, xi) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_point_mass_with_deterministic_indicators(self):
        mu = _delta(1, 3)
        xi = _deterministic_xi([0, 2, 1], 3)
        assert predict(mu, xi) == pytest.approx([0.0, 0.0, 1.0], abs=0)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            predict(_delta(0, 2), IndicatorSet(np.full((2, 3), 0.5)))

    def test_output_is_a_probability_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            w = rng.random(n)
            mu = Distribution(w / w.sum())
            raw = rng.random((k, n))
            xi = IndicatorSet(raw / raw.sum(axis=0, keepdims=True))
            probs = predict(mu, xi)
            assert probs.min() >= -1e-12
            assert probs.sum() == pytest.approx(1.0, abs=1e-8)

class TestSupportAndDisjointness:
    def test_point_mass_support(self):
        assert support(_delta(2, 5)) == {2}

    def test_uniform_support(self):
        assert support(Distribution(np.full(4, 0.25))) == {0, 1, 2, 3}

    def test_threshold_drops_trace_mass(self):
        mu = Distribution(np.array([0.5, 1e-15, 0.5]))
        assert support(mu) == {0, 2}

    def test_point_masses_at_distinct_points_are_disjoint(self):
        assert disjoint(_delta(0, 4), _delta(3, 4))

    def test_identical_distributions_overlap(self):
        mu = Distribution(np.array([0.5, 0.5]))
        assert not disjoint(mu, mu)

    def test_split_against_remainder(self):
        assert disjoint(
            Distribution(np.array([0.5, 0.5, 0.0])), Distribution(np.array([0.0, 0.0, 1.0]))
        )

    def test_disjoint_iff_supports_disjoint_away_from_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mask_a = rng.random(n) < 0.5
            mask_b = rng.random(n) < 0.5
            wa = np.where(mask_a, rng.uniform(0.1, 1.0, n), 0.0)
            wb = np.where(mask_b, rng.uniform(0.1, 1.0, n), 0.0)
            if wa.sum() == 0 or wb.sum() == 0:
                continue
            mu, nu = Distribution(wa / wa.sum()), Distribution(wb / wb.sum())
            assert disjoint(mu, nu) == (not (support(mu) & support(nu)))


class TestOutcomeDeterminism:
    def test_constant_half_half_is_not_deterministic(self):
        assert not is_outcome_deterministic(IndicatorSet(np.full((2, 3), 0.5)))

    def test_point_coded_set_is_deterministic(self):
        assert is_outcome_deterministic(_deterministic_xi([0, 1, 2, 0], 3))

    def test_third_fractions_are_not_deterministic(self):
        values = np.array([[2 / 3, 1.0], [1 / 3, 0.0]])
        assert not is_outcome_deterministic(IndicatorSet(values))

    def test_deterministic_columns_are_one_hot(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            xi = _deterministic_xi(list(rng.integers(0, k, size=n)), k)
            assert is_outcome_deterministic(xi)
            assert np.all(xi.values.sum(axis=0) == 1.0)
            assert np.all((xi.values == 0.0) | (xi.values == 1.0))


def _two_point_model() -> OntModel:
    return OntModel(
        OnticSpace(2),
        prep_map={"a": _delta(0, 2), "A": _delta(1, 2)},
        meas_map={"Ma": _deterministic_xi([0, 1], 2)},
    )


class TestOutcomeDeterminismDerivation:
    @staticmethod
    def _conforming_model() -> OntModel:
        return OntModel(
            OnticSpace(2),
            prep_map={
                "a": _delta(0, 2),
                "A": _delta(1, 2),
                "I/d": Distribution(np.array([0.5, 0.5])),
            },
            meas_map={"Ma": _deterministic_xi([0, 1], 2)},
        )

    def test_conforming_two_point_model_passes_all_steps(self):
        report = outcome_determinism_from_prep_nc(
            self._conforming_model(), "Ma", ["a", "A"], d=2
        )
        assert report.passed
        assert [s.name for s in report.steps] == [
            "disjoint-supports",
            "support-union-covers-space",
            "mixture-sum",
            "indicators-idempotent",
        ]

    def test_ray_style_model_fails_the_support_union_step(self):
        # Point masses on 2 of 4 ontic points, with the mixed state spread
        # over the same 2: the union never covers the whole space.
        from ctxcert.qmath import born_probability

        states = hexagon_states()
        labels = list("aAbB")
        rows = [
            [born_probability(states[l], Effect(states["a"].matrix)) for l in labels],
            [born_probability(states[l], Effect(states["A"].matrix)) for l in labels],
        ]
        model = OntModel(
            OnticSpace(4),
            prep_map={
                "a": _delta(0, 4),
                "A": _delta(1, 4),
                "I/d": Distribution(np.array([0.5, 0.5, 0.0, 0.0])),
            },
            meas_map={"Ma": IndicatorSet(np.array(rows))},
        )
        report = outcome_determinism_from_prep_nc(model, "Ma", ["a", "A"], d=2)
        assert not report.passed
        assert report.failing_step == "support-union-covers-space"

    def test_degenerate_one_dimensional_case_passes(self):
        model = OntModel(
            OnticSpace(1),
            prep_map={"only": _delta(0, 1), "I/d": _delta(0, 1)},
            meas_map={"M": IndicatorSet(np.array([[1.0]]))},
        )
        report = outcome_determinism_from_prep_nc(model, "M", ["only"], d=1)
        assert report.passed

    def test_random_conforming_models_always_pass(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            block_sizes = rng.integers(1, 4, size=d)
            n = int(block_sizes.sum())
            prep_map = {}
            outcomes = []
            start = 0
            for k in range(d):
                block = slice(start, start + int(block_sizes[k]))
                w = np.zeros(n)
                w[block] = rng.uniform(0.2, 1.0, int(block_sizes[k]))
                w /= w.sum()
                prep_map[f"p{k}"] = Distribution(w)
                outcomes.extend([k] * int(block_sizes[k]))
                start += int(block_sizes[k])
            prep_map["I/d"] = Distribution(
                sum(prep_map[f"p{k}"].weights for k in range(d)) / d
            )
            model = OntModel(
                OnticSpace(n),
                prep_map=prep_map,
                meas_map={"M": _deterministic_xi(outcomes, d)},
            )
            report = outcome_determinism_from_prep_nc(
                model, "M", [f"p{k}" for k in range(d)], d=d
            )
            assert report.passed, report

    def test_overlapping_supports_fail_the_first_step(self):
        model = OntModel(
            OnticSpace(2),
            prep_map={
                "a": Distribution(np.array([0.6, 0.4])),
                "A": Distribution(np.array([0.4, 0.6])),
                "I/d": Distribution(np.array([0.5, 0.5])),
            },
            meas_map={"Ma": _deterministic_xi([0, 1], 2)},
        )
        report = outcome_determinism_from_prep_nc(model, "Ma", ["a", "A"], d=2)
        assert report.failing_step == "disjoint-supports"


class TestValidationAndJson:
    def test_distribution_must_normalize(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Distribution(np.array([1.5, -0.5]))

    def test_indicator_columns_must_normalize(self):
        with pytest.raises(ValueError):
            IndicatorSet(np.array([[0.5, 0.2], [0.4, 0.8]]))

    def test_model_size_consistency_enforced(self):
        with pytest.raises(ValueError):
            OntModel(OnticSpace(3), prep_map={"a": _delta(0, 2)})
