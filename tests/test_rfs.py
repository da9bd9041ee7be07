"""Tests for multi-Bernoulli models, sampling and the Monte Carlo estimators."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gospa import rfs
from gospa.metrics import GospaParams, gospa, ospa
from gospa.rfs import (
    BernoulliComponent,
    CustomJointSampler,
    EstimatorConfig,
    IndependentPairSampler,
    MetricEstimate,
    MultiBernoulli,
    derive_sample_seed,
    estimate_metric,
    run_table1,
    sample_multi_bernoulli,
    table1_scenario,
)


def _point_model(means, existences=None):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    zero = np.zeros((means.shape[1], means.shape[1]))
    if existences is None:
        existences = [1.0] * len(means)
    return MultiBernoulli(tuple(
        BernoulliComponent(e, m, zero) for e, m in zip(existences, means)))


class TestBernoulliComponent:
    def test_rejects_existence_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="existence"):
                BernoulliComponent(bad, [0.0], [[1.0]])

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            BernoulliComponent(1.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="semidefinite"):
            BernoulliComponent(1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_accepts_semidefinite_covariance(self):
        comp = BernoulliComponent(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        assert comp.scale_tril.shape == (2, 2)

    def test_zero_covariance_is_exact(self):
        comp = BernoulliComponent(1.0, [3.0, -1.0], np.zeros((2, 2)))
        assert np.all(comp.scale_tril == 0.0)

    @pytest.mark.parametrize("cov,diagonal", [
        ([[1e30, 1e30], [1e30, 1e30]], (1e15, 1.414e10)),
        ([[1e-20, 0.0], [0.0, 0.0]], (1e-10, 1e-15)),
        ([[1.0, 0.0], [0.0, 0.0]], (1.0, 1e-5)),
        ([[1.0, 2.0], [2.0, 1.0]], None),
    ])
    def test_jitter_is_relative_to_the_largest_variance(self, cov, diagonal):
        if diagonal is None:
            with pytest.raises(ValueError, match="semidefinite"):
                BernoulliComponent(1.0, [0.0, 0.0], cov)
            return
        factor = BernoulliComponent(1.0, [0.0, 0.0], cov).scale_tril
        assert np.diag(factor) == pytest.approx(diagonal, rel=1e-3)
        assert factor @ factor.T == pytest.approx(np.asarray(cov), rel=1e-9,
                                                  abs=1e-9 * np.abs(cov).max())

    def test_unit_scale_factor_is_unchanged(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        factor = BernoulliComponent(1.0, [0.0, 0.0], cov).scale_tril
        assert np.array_equal(factor, np.linalg.cholesky(cov + 1e-10 * np.eye(2)))

    def test_rejects_mean_covariance_shape_mismatch(self):
        with pytest.raises(ValueError):
            BernoulliComponent(1.0, [0.0, 0.0], [[1.0]])


HUGE = 10 ** 400  # an integer too large for any float


@pytest.mark.parametrize("call, message", [
    (lambda: BernoulliComponent(HUGE, [0.0], [[1.0]]), "existence"),
    (lambda: BernoulliComponent(1.0, [0.0, HUGE], np.eye(2)), "mean"),
    (lambda: BernoulliComponent(1.0, [0.0], [[HUGE]]), "covariance"),
    (lambda: EstimatorConfig(p_prime=HUGE), "p_prime"),
], ids=["existence", "mean", "covariance", "p_prime"])
def test_an_integer_beyond_the_float_range_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMultiBernoulli:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            MultiBernoulli(())

    def test_requires_consistent_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            MultiBernoulli((
                BernoulliComponent(1.0, [0.0], [[1.0]]),
                BernoulliComponent(1.0, [0.0, 0.0], np.eye(2)),
            ))


class TestSampling:
    def test_existence_zero_never_contributes(self):
        model = MultiBernoulli((BernoulliComponent(0.0, [0.0, 0.0], np.eye(2)),))
        for seed in range(50):
            assert len(sample_multi_bernoulli(model, seed)) == 0

    def test_existence_one_zero_covariance_gives_mean(self):
        model = _point_model([[1.5, -2.0]])
        for seed in range(20):
            sample = sample_multi_bernoulli(model, seed)
            assert np.array_equal(sample, [[1.5, -2.0]])

    def test_empirical_inclusion_rate(self):
        model = MultiBernoulli((BernoulliComponent(0.5, [0.0], [[1.0]]),))
        included = sum(len(sample_multi_bernoulli(model, seed)) for seed in range(10000))
        # 3-sigma binomial band around 0.5
        assert 0.485 <= included / 10000 <= 0.515

    def test_same_seed_same_sample(self):
        model = MultiBernoulli((
            BernoulliComponent(0.7, [0.0, 0.0], np.eye(2)),
            BernoulliComponent(0.4, [5.0, 5.0], np.eye(2)),
        ))
        a = sample_multi_bernoulli(model, 1234)
        b = sample_multi_bernoulli(model, 1234)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_multi_bernoulli(model, 1235))

    def test_empty_sample_keeps_dimension(self):
        model = MultiBernoulli((BernoulliComponent(0.0, [0.0, 0.0, 0.0], np.eye(3)),))
        assert sample_multi_bernoulli(model, 0).shape == (0, 3)

    def test_rejects_bad_seed(self):
        model = _point_model([[0.0]])
        for bad in (-1, 1 << 64, 0.5, None):
            with pytest.raises(ValueError):
                sample_multi_bernoulli(model, bad)


class TestDrawLayout:
    """Draw layout v2: from a ``PCG64(seed)`` generator, K existence
    uniforms, then a (K, D) block of standard normals, whichever components
    exist; the present components in index order."""

    MEANS = np.array([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0], [20.0, 21.0, 22.0],
                      [30.0, 31.0, 32.0]])
    COVARIANCES = [np.eye(3), [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 0.5]],
                   np.diag([0.1, 4.0, 1.0]), [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 0.2]]]

    def model(self, existences):
        return MultiBernoulli(tuple(
            BernoulliComponent(e, m, cov)
            for e, m, cov in zip(existences, self.MEANS, self.COVARIANCES)))

    def test_matches_an_independent_implementation(self):
        existences = [0.3, 0.9, 0.5, 1.0]
        model = self.model(existences)
        factors = [np.linalg.cholesky(np.asarray(cov)) for cov in self.COVARIANCES]
        for seed in range(40):
            rng = np.random.Generator(np.random.PCG64(seed))
            uniforms = rng.random(4)
            noise = rng.standard_normal((4, 3))
            expected = [self.MEANS[k] + factors[k] @ noise[k]
                        for k in range(4) if uniforms[k] < existences[k]]
            sample = sample_multi_bernoulli(model, seed)
            assert sample.shape == (len(expected), 3)
            if expected:
                np.testing.assert_allclose(sample, expected, rtol=1e-12, atol=1e-12)

    def test_present_components_come_in_index_order(self):
        model = _point_model(np.arange(8.0)[:, None], [0.5] * 8)
        for seed in range(40):
            sample = sample_multi_bernoulli(model, seed)[:, 0]
            assert np.all(np.diff(sample) > 0)

    def test_existence_changes_only_which_points_appear(self):
        always = self.model([1.0, 1.0, 1.0, 1.0])
        some = self.model([1.0, 0.0, 1.0, 0.0])
        rarely = self.model([0.2, 0.2, 0.2, 0.2])
        for seed in range(40):
            full = sample_multi_bernoulli(always, seed)
            assert np.array_equal(sample_multi_bernoulli(some, seed), full[[0, 2]])
            for point in sample_multi_bernoulli(rarely, seed):
                assert (full == point).all(axis=1).any()

    def test_draw_count_does_not_depend_on_existence(self):
        next_values = []
        for existences in ([1.0] * 4, [0.0] * 4, [0.5] * 4):
            rng = np.random.Generator(np.random.PCG64(9))
            rfs._sample_with_rng(self.model(existences), rng)
            next_values.append(rng.random())
        assert next_values[0] == next_values[1] == next_values[2]

    def test_zero_covariance_component_gives_its_mean_exactly(self):
        mean = [0.1, -2.7, 1e-300]
        model = MultiBernoulli((
            BernoulliComponent(1.0, [5.0, 5.0, 5.0], np.eye(3)),
            BernoulliComponent(1.0, mean, np.zeros((3, 3))),
            BernoulliComponent(1.0, [9.0, 9.0, 9.0], np.eye(3)),
        ))
        for seed in range(20):
            assert np.array_equal(sample_multi_bernoulli(model, seed)[1], mean)

    def test_all_absent_draw_keeps_dimension(self):
        model = self.model([0.2, 0.2, 0.2, 0.2])
        empty = [sample_multi_bernoulli(model, seed) for seed in range(40)]
        empty = [sample for sample in empty if len(sample) == 0]
        assert empty
        assert all(sample.shape == (0, 3) for sample in empty)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_sample_seed(42, 7) == derive_sample_seed(42, 7)

    def test_spreads_over_indices_and_masters(self):
        seeds = {derive_sample_seed(m, k) for m in range(4) for k in range(256)}
        assert len(seeds) == 4 * 256

    def test_stays_in_64_bits(self):
        for master in (0, 1, (1 << 64) - 1):
            for index in (0, 1, 10**6):
                assert 0 <= derive_sample_seed(master, index) < (1 << 64)


class TestSamplers:
    def test_independent_pair_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            IndependentPairSampler(_point_model([[0.0]]), _point_model([[0.0, 0.0]]))

    def test_independent_pair_deterministic(self):
        sampler = IndependentPairSampler(_point_model([[0.0, 0.0]]),
                                         _point_model([[1.0, 1.0]]))
        x1, y1 = sampler.sample_pair(5)
        x2, y2 = sampler.sample_pair(5)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_custom_joint_sampler(self):
        def draw(seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            base = rng.normal(size=(2, 2))
            return base, base + 0.1

        sampler = CustomJointSampler(draw)
        xs, ys = sampler.sample_pair(3)
        assert xs.shape == (2, 2) and ys.shape == (2, 2)
        assert np.allclose(ys - xs, 0.1)


class TestEstimatorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"p_prime": 0.5}, {"p_prime": math.inf},
        {"samples": 0}, {"samples": 2.5},
        {"master_seed": -1}, {"master_seed": 1 << 64},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("p_prime", ["2", None, 2j, [2.0]])
    def test_rejects_non_real_p_prime(self, p_prime):
        with pytest.raises(ValueError, match="p_prime"):
            EstimatorConfig(p_prime=p_prime)


class TestEstimateMetric:
    def test_degenerate_models_match_deterministic_metric(self):
        truth = _point_model([[-6.0, -6.0], [0.0, 3.0]])
        estimate = _point_model([[-6.7, -5.1], [-1.8, 2.9]])
        sampler = IndependentPairSampler(truth, estimate)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        result = estimate_metric(sampler, params, EstimatorConfig(samples=64, master_seed=3))
        expected = gospa([[-6.0, -6.0], [0.0, 3.0]], [[-6.7, -5.1], [-1.8, 2.9]], params).total
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.standard_error <= 1e-9
        assert result.samples == 64

    def test_degenerate_ospa_variant(self):
        truth = _point_model([[0.0, 0.0], [10.0, 0.0]])
        estimate = _point_model([[1.0, 0.0]])
        sampler = IndependentPairSampler(truth, estimate)
        params = GospaParams(c=8.0, p=1.0)
        result = estimate_metric(sampler, params, EstimatorConfig(samples=16),
                                 variant="ospa")
        assert result.value == pytest.approx(
            ospa([[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.0]], c=8.0, p=1.0), rel=1e-12)

    def test_two_missed_cell_is_exact(self):
        sampler = table1_scenario(2, 0)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        result = estimate_metric(sampler, params, EstimatorConfig(samples=200, master_seed=1))
        assert result.value == pytest.approx(8.0, abs=1e-12)
        assert result.standard_error <= 1e-12

    def test_deterministic_and_parallel_consistent(self):
        sampler = table1_scenario(0, 1)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        cfg = EstimatorConfig(samples=128, master_seed=77)
        serial = estimate_metric(sampler, params, cfg)
        again = estimate_metric(sampler, params, cfg)
        parallel = estimate_metric(sampler, params, cfg, workers=4)
        assert serial == again == parallel

    def test_standard_error_scales_with_sample_count(self):
        sampler = table1_scenario(0, 0)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        small = estimate_metric(sampler, params, EstimatorConfig(samples=500, master_seed=5))
        large = estimate_metric(sampler, params, EstimatorConfig(samples=2000, master_seed=5))
        ratio = small.standard_error / large.standard_error
        assert 1.6 <= ratio <= 2.4

    def test_outer_exponent_jensen_ordering(self):
        sampler = table1_scenario(0, 0)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        mean = estimate_metric(sampler, params,
                               EstimatorConfig(p_prime=1.0, samples=300, master_seed=2))
        rms = estimate_metric(sampler, params,
                              EstimatorConfig(p_prime=2.0, samples=300, master_seed=2))
        assert rms.value >= mean.value

    def test_rejects_unknown_variant(self):
        sampler = table1_scenario(0, 0)
        with pytest.raises(ValueError, match="variant"):
            estimate_metric(sampler, GospaParams(c=8.0), EstimatorConfig(samples=2),
                            variant="hausdorff")

    @pytest.mark.parametrize("variant", ["unnormalized_ospa", "GOSPA", "unnormalizedospa", "OSPA"])
    def test_accepts_only_the_three_metric_names(self, variant):
        sampler = table1_scenario(0, 0)
        with pytest.raises(ValueError, match="variant"):
            estimate_metric(sampler, GospaParams(c=8.0), EstimatorConfig(samples=2),
                            variant=variant)

    @pytest.mark.parametrize("variant,params", [
        ("gospa", GospaParams(c=8.0, alpha=1.5, p=2.0, base_distance="manhattan")),
        ("uospa", GospaParams(c=8.0, p=2.0)),
        ("ospa", GospaParams(c=8.0, p=1.0)),
    ])
    def test_matches_a_plain_loop_over_the_public_metrics(self, variant, params):
        sampler = table1_scenario(1, 3)
        cfg = EstimatorConfig(p_prime=3.0, samples=40, master_seed=13)
        result = estimate_metric(sampler, params, cfg, variant=variant)
        powers = []
        for k in range(cfg.samples):
            xs, ys = sampler.sample_pair(derive_sample_seed(cfg.master_seed, k))
            if variant == "ospa":
                value = ospa(xs, ys, c=params.c, p=params.p, base_distance=params.base_distance)
            elif variant == "uospa":
                value = gospa(xs, ys, GospaParams(c=params.c, alpha=1.0, p=params.p,
                                                  base_distance=params.base_distance)).total
            else:
                value = gospa(xs, ys, params).total
            powers.append(value ** cfg.p_prime)
        expected = np.mean(powers) ** (1.0 / cfg.p_prime)
        assert result.value == expected
        se = np.std(powers, ddof=1) / math.sqrt(cfg.samples) * expected \
            / (cfg.p_prime * np.mean(powers))
        assert result.standard_error == pytest.approx(se, rel=1e-12)

    def test_single_cpu_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("no thread pool should start")

        sampler = table1_scenario(0, 1)
        params = GospaParams(c=8.0, alpha=2.0, p=1.0)
        cfg = EstimatorConfig(samples=16, master_seed=3)
        serial = estimate_metric(sampler, params, cfg)
        monkeypatch.setattr(rfs, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(rfs, "ThreadPoolExecutor", no_pool)
        assert estimate_metric(sampler, params, cfg, workers=4) == serial

    def test_pool_is_capped_by_cpus_and_blocks(self, monkeypatch):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(rfs, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(rfs, "ThreadPoolExecutor", RecordingPool)
        done = []
        rfs._run_blocks(10, 6, lambda lo, hi: done.extend(range(lo, hi)))
        rfs._run_blocks(3, 6, lambda lo, hi: None)
        monkeypatch.setattr(rfs, "_usable_cpus", lambda: 8)
        rfs._run_blocks(3, 6, lambda lo, hi: None)
        assert sizes == [2, 2, 3]
        assert sorted(done) == list(range(10))

    def test_rejects_bad_workers(self):
        sampler = table1_scenario(0, 0)
        with pytest.raises(ValueError, match="workers"):
            estimate_metric(sampler, GospaParams(c=8.0), EstimatorConfig(samples=2),
                            workers=0)


@pytest.mark.parametrize("workers", ["2", 2.0, True, None])
def test_rejects_non_integer_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        estimate_metric(table1_scenario(0, 0), GospaParams(c=8.0), EstimatorConfig(samples=2),
                        workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_table1(samples=2, workers=workers)


class TestTable1Scenario:
    def test_all_missed_estimate_always_empty(self):
        sampler = table1_scenario(2, 0)
        for seed in range(25):
            _, estimate = sampler.sample_pair(seed)
            assert len(estimate) == 0

    def test_no_missed_no_false_always_two_points(self):
        sampler = table1_scenario(0, 0)
        for seed in range(25):
            truth, estimate = sampler.sample_pair(seed)
            assert len(truth) == 2 and len(estimate) == 2

    def test_one_missed_three_false_cardinality(self):
        sampler = table1_scenario(1, 3)
        for seed in range(25):
            _, estimate = sampler.sample_pair(seed)
            assert len(estimate) == 4

    def test_false_components_far_from_everything(self):
        sampler = table1_scenario(0, 10)
        truth_means = [comp.mean for comp in sampler.truth.components]
        detected = [comp.mean for comp in sampler.estimate.components[:2]]
        false_means = [comp.mean for comp in sampler.estimate.components[2:]]
        cutoff = 8.0
        for false_mean in false_means:
            for other in truth_means + detected:
                assert np.linalg.norm(false_mean - other) > 2 * cutoff

    @pytest.mark.parametrize("n_missed,n_false", [(-1, 0), (3, 0), (0, -1), (0, 11)])
    def test_rejects_out_of_range(self, n_missed, n_false):
        with pytest.raises(ValueError):
            table1_scenario(n_missed, n_false)


class TestRunTable1:
    def test_cells_match_estimate_metric_bitwise(self):
        result = run_table1(samples=60, master_seed=11)
        for metric, p, n_missed, n_false in [
            ("gospa", 1.0, 0, 1), ("ospa", 2.0, 1, 3), ("uospa", 2.0, 0, 10),
            ("gospa", 2.0, 2, 0),
        ]:
            sampler = table1_scenario(n_missed, n_false)
            params = GospaParams(c=8.0, alpha=2.0, p=p)
            cfg = EstimatorConfig(p_prime=p, samples=60, master_seed=11)
            direct = estimate_metric(sampler, params, cfg, variant=metric)
            cell = result.estimate(metric, p, n_missed, n_false)
            assert direct == cell

    def test_parallel_bitwise_identical(self):
        serial = run_table1(samples=48, master_seed=4)
        parallel = run_table1(samples=48, master_seed=4, workers=4)
        assert serial.cells == parallel.cells

    def test_grid_shape(self):
        result = run_table1(samples=5, master_seed=0)
        assert len(result.cells) == 3 * 2 * 12
        keys = {(c.metric, c.p, c.n_missed, c.n_false) for c in result.cells}
        assert len(keys) == 72

    def test_far_false_additivity_of_mean_gospa(self):
        base = run_table1(samples=150, master_seed=21)
        for n_missed in (0, 1, 2):
            reference = base.estimate("gospa", 1.0, n_missed, 0).value
            for n_false in (1, 3, 10):
                grown = base.estimate("gospa", 1.0, n_missed, n_false).value
                assert grown - reference == pytest.approx(n_false * 4.0, abs=1e-9)

    def test_unknown_cell_raises(self):
        result = run_table1(samples=2, master_seed=0)
        with pytest.raises(KeyError):
            result.estimate("gospa", 1.0, 0, 2)

    def test_estimate_accepts_only_the_three_metric_names(self):
        result = run_table1(samples=2, master_seed=0)
        for metric in ("unnormalized_ospa", "GOSPA"):
            with pytest.raises(ValueError, match="variant"):
                result.estimate(metric, 1.0, 0, 0)

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            run_table1(samples=0)
        with pytest.raises(ValueError):
            run_table1(samples=2, master_seed=-3)

    def test_cutoff_is_checked_and_reported_as_a_float(self):
        for c in (0.0, math.inf, "8", None):
            with pytest.raises(ValueError):
                run_table1(samples=2, c=c)
        assert isinstance(run_table1(samples=2, c=8).c, float)


def test_metric_estimate_is_plain_record():
    est = MetricEstimate(value=1.0, standard_error=0.1, samples=10)
    assert est.value == 1.0 and est.standard_error == 0.1 and est.samples == 10
