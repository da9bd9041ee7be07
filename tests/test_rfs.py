"""Tests for multi-Bernoulli models, sampling and the Monte Carlo estimators."""

import math
import warnings

import numpy as np
import pytest

from gospa import metrics, rfs
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

    @pytest.mark.parametrize("off_diagonal", [0.0, 0.5, -0.5])
    def test_symmetry_tolerance_boundary(self, off_diagonal):
        # entries a and b are symmetric when |a - b| <= 1e-12 + 1e-9 |b|,
        # checked both ways round, so the smaller magnitude sets the bound
        bound = 1e-12 + 1e-9 * abs(off_diagonal)
        for gap, accepted in ((0.99 * bound, True), (1.01 * bound, False)):
            far = off_diagonal + math.copysign(gap, off_diagonal)
            cov = [[1.0, far], [off_diagonal, 1.0]]
            if accepted:
                comp = BernoulliComponent(1.0, [0.0, 0.0], cov)
                assert comp.covariance[0, 1] == comp.covariance[1, 0]
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    BernoulliComponent(1.0, [0.0, 0.0], cov)

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


MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_words(key, count):
    """The first words of a key's stream, with Python integers: SplitMix64
    started from the mixed key."""
    state, words = mix64(key), []
    for _ in range(count):
        state = (state + GOLDEN_GAMMA) & MASK64
        words.append(mix64(state))
    return words


def reference_draw(means, factors, existences, key, start=0):
    """Draw layout v3 with Python floats and libm: the present points, in
    index order, of a model drawn from words ``start`` onward."""
    n_components, dimension = np.shape(means)
    n_pairs = -(-n_components * dimension // 2)
    words = splitmix64_words(key, start + n_components + 2 * n_pairs)[start:]
    uniforms = [(word >> 11) * 2.0 ** -53 for word in words]
    normals = []
    for m in range(n_pairs):
        u1, u2 = uniforms[n_components + 2 * m], uniforms[n_components + 2 * m + 1]
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        normals += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return [np.asarray(means[k]) + np.asarray(factors[k]) @ normals[k * dimension:(k + 1)
                                                                    * dimension]
            for k in range(n_components) if uniforms[k] < existences[k]]


class TestDrawLayout:
    """Draw layout v3: from the key's SplitMix64 stream, K existence
    uniforms, then K * D standard normals by Box-Muller, whichever
    components exist; the present components in index order."""

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
            expected = reference_draw(self.MEANS, factors, existences, seed)
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
        # the estimate takes the words after the truth's, so it is the same
        # only if the truth takes as many words whichever components exist
        estimate = self.model([1.0] * 4)
        for seed in range(9, 49):
            after = [IndependentPairSampler(self.model(existences), estimate).sample_pair(seed)[1]
                     for existences in ([1.0] * 4, [0.0] * 4, [0.5] * 4)]
            assert np.array_equal(after[0], after[1]) and np.array_equal(after[0], after[2])

    @pytest.mark.parametrize("key", [0, 1, 9, 2 ** 63, MASK64, 0x0123456789ABCDEF])
    def test_words_and_uniforms_match_python_integers(self, key):
        words = rfs._stream_words(np.array([key], dtype=np.uint64), 0, 40)[0]
        assert words.tolist() == splitmix64_words(key, 40)
        tail = rfs._stream_words(np.array([key], dtype=np.uint64), 33, 7)[0]
        assert tail.tolist() == splitmix64_words(key, 40)[33:]
        uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert uniforms.tolist() == [(w >> 11) * 2.0 ** -53 for w in splitmix64_words(key, 40)]

    def test_sample_keys_are_the_derived_seeds(self):
        for master in (0, 7, MASK64):
            keys = rfs._sample_keys(master, 5, 300).tolist()
            assert keys == [derive_sample_seed(master, k) for k in range(5, 300)]

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_normals_match_libm(self, dimension):
        # three components: an odd count of normals when D is odd
        rng = np.random.default_rng(dimension)
        means = rng.normal(size=(3, dimension))
        factors = [np.linalg.cholesky(a @ a.T + np.eye(dimension))
                   for a in rng.normal(size=(3, dimension, dimension))]
        model = MultiBernoulli(tuple(BernoulliComponent(1.0, m, f @ f.T)
                                     for m, f in zip(means, factors)))
        keys = rfs._sample_keys(3, 0, 50)
        points, present = model._draw(keys, 4)
        assert present.all()
        for key, drawn in zip(keys.tolist(), points):
            expected = reference_draw(means, model._scale_trils, [1.0] * 3, key, start=4)
            np.testing.assert_allclose(drawn, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_a_chunk_draws_what_single_seeds_draw(self, dimension):
        def model(count, existence):
            return MultiBernoulli(tuple(
                BernoulliComponent(existence, np.full(dimension, 3.0 * k),
                                   np.eye(dimension) * (k + 1)) for k in range(count)))

        sampler = IndependentPairSampler(model(3, 0.6), model(5, 0.4))
        keys = rfs._sample_keys(21, 0, rfs._CHUNK_SAMPLES + 3)
        for lo, hi in [(0, 1), (4, 7), (0, rfs._CHUNK_SAMPLES),
                       (rfs._CHUNK_SAMPLES - 2, rfs._CHUNK_SAMPLES + 3)]:
            (xs, x_present), (ys, y_present) = sampler._draw(keys[lo:hi])
            for k, key in enumerate(keys[lo:hi].tolist()):
                x, y = sampler.sample_pair(key)
                assert np.array_equal(xs[k][x_present[k]], x)
                assert np.array_equal(ys[k][y_present[k]], y)
                assert np.array_equal(
                    sample_multi_bernoulli(sampler.truth, key), x)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 6])
    def test_points_are_the_column_broadcast_product(self, dimension):
        rng = np.random.default_rng(40 + dimension)
        means = rng.normal(0.0, 50.0, (7, dimension))
        model = MultiBernoulli(tuple(
            BernoulliComponent(0.5, m, a @ a.T + 0.1 * np.eye(dimension))
            for m, a in zip(means, rng.normal(size=(7, dimension, dimension)))))
        assert np.count_nonzero(model._scale_trils) == 7 * dimension * (dimension + 1) // 2
        keys = rfs._sample_keys(5, 0, 97)
        points, _ = model._draw(keys, 3)
        # unit factors and zero means draw the standard normals themselves
        unit = MultiBernoulli(tuple(
            BernoulliComponent(0.5, np.zeros(dimension), np.eye(dimension)) for _ in range(7)))
        normals, _ = unit._draw(keys, 3)
        # the Cholesky product one normal column at a time, broadcast over
        # every output coordinate
        trils = model._scale_trils
        noise = trils[:, :, 0] * normals[:, :, None, 0]
        for j in range(1, dimension):
            noise = noise + trils[:, :, j] * normals[:, :, None, j]
        assert points.tobytes() == (model._means + noise).tobytes()

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

    def test_custom_joint_sampler_rejects_a_pair_of_two_dimensions(self):
        sampler = CustomJointSampler(lambda seed: (np.zeros((1, 2)), np.zeros((2, 3))))
        with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 3$"):
            sampler.sample_pair(3)

    def test_custom_joint_sampler_rejects_states_without_coordinates(self):
        sampler = CustomJointSampler(lambda seed: ([[], []], [[0.0]]))
        with pytest.raises(ValueError, match="at least one coordinate"):
            sampler.sample_pair(3)
        with pytest.raises(ValueError, match="at least one coordinate"):
            estimate_metric(sampler, GospaParams(c=1.0), EstimatorConfig(samples=4))
        empty = CustomJointSampler(lambda seed: ([], np.zeros((0, 2))))
        assert estimate_metric(empty, GospaParams(c=1.0), EstimatorConfig(samples=4)).value == 0.0


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


# custom joint draws from a generator, for chunks that pad or cannot pad

def both_empty(rng):
    return np.zeros((0, 0)), np.zeros((0, 0))


def one_side_empty(rng):
    return rng.normal(size=(int(rng.integers(0, 3)), 2)), np.zeros((0, 0))


def two_or_three_dimensions(rng):
    dim = int(rng.integers(2, 4))
    return rng.normal(size=(2, dim)), rng.normal(size=(3, dim))


def three_clusters_of_two_by_two(rng):
    # each cluster lies within c, so a sample's remainder is 6 x 6
    sites = np.repeat([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]], 2, axis=0)
    return (sites + rng.normal(scale=0.3, size=(6, 2)),
            sites + rng.normal(scale=0.3, size=(6, 2)))


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

    def test_chunk_boundaries_and_workers_change_nothing(self, monkeypatch):
        sampler = table1_scenario(0, 1)
        params = GospaParams(c=8.0, alpha=1.5, p=2.0)
        cfg = EstimatorConfig(p_prime=1.5, samples=rfs._CHUNK_SAMPLES + 5, master_seed=8)
        results = [estimate_metric(sampler, params, cfg, variant=variant, workers=workers)
                   for variant in ("gospa", "ospa") for workers in (1, 2)]
        for chunk in (1, 3):
            monkeypatch.setattr(rfs, "_CHUNK_SAMPLES", chunk)
            assert results == [estimate_metric(sampler, params, cfg, variant=variant,
                                               workers=workers)
                               for variant in ("gospa", "ospa") for workers in (1, 2)]
        powers = [gospa(*sampler.sample_pair(derive_sample_seed(8, k)), params).total ** 1.5
                  for k in range(cfg.samples)]
        assert results[0].value == np.mean(powers) ** (1.0 / 1.5)

    @pytest.mark.parametrize("chunk", [1, 54, 256])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_padded_chunks_match_a_plain_loop(self, monkeypatch, chunk, workers):
        # ten truths, each with a perturbed copy among the estimates and
        # some near a neighbour, so most samples are solved on their padded
        # draw, with forced pairs and small clusters
        rng = np.random.default_rng(21)
        means = rng.uniform(0.0, 40.0, (10, 2))
        truth = MultiBernoulli(tuple(BernoulliComponent(0.8, m, 0.5 * np.eye(2)) for m in means))
        estimate = MultiBernoulli(tuple(
            BernoulliComponent(0.85, m, 0.5 * np.eye(2))
            for m in means + rng.normal(0.0, 1.5, means.shape)))
        sampler = IndependentPairSampler(truth, estimate)
        assert rfs._chunk_size(sampler) >= 256
        monkeypatch.setattr(rfs, "_CHUNK_SAMPLES", chunk)
        params = GospaParams(c=4.0, alpha=1.5, p=2.0)
        cfg = EstimatorConfig(p_prime=1.5, samples=300, master_seed=17)
        pairs = [sampler.sample_pair(derive_sample_seed(17, k)) for k in range(cfg.samples)]
        assert sum(not metrics._enumerable(len(x), len(y)) for x, y in pairs) > 250
        for variant in ("gospa", "ospa"):
            result = estimate_metric(sampler, params, cfg, variant=variant, workers=workers)
            if variant == "ospa":
                values = [ospa(x, y, c=4.0, p=2.0) for x, y in pairs]
            else:
                values = [gospa(x, y, params).total for x, y in pairs]
            assert result.value == np.mean([v ** 1.5 for v in values]) ** (1.0 / 1.5)

    def test_chunks_of_large_models_stay_within_the_word_budget(self):
        large = _point_model(np.zeros((60, 3)))  # 60 + 2 * 90 words a draw
        assert rfs._chunk_size(IndependentPairSampler(large, large)) == rfs._CHUNK_WORDS // 480
        assert rfs._chunk_size(table1_scenario(0, 10)) == rfs._CHUNK_SAMPLES
        assert rfs._chunk_size(CustomJointSampler(lambda seed: ([], []))) == rfs._CHUNK_SAMPLES

    def test_custom_sampler_of_varying_shape_matches_a_plain_loop(self):
        def draw(seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            return (rng.normal(size=(int(rng.integers(0, 3)), 2)) * 3.0,
                    rng.normal(size=(int(rng.integers(0, 6)), 2)) * 3.0)

        sampler = CustomJointSampler(draw)
        params = GospaParams(c=4.0, alpha=2.0, p=2.0)
        cfg = EstimatorConfig(p_prime=2.0, samples=60, master_seed=5)
        result = estimate_metric(sampler, params, cfg)
        powers = [gospa(*sampler.sample_pair(derive_sample_seed(5, k)), params).total ** 2.0
                  for k in range(cfg.samples)]
        assert result.value == np.mean(powers) ** 0.5

    @pytest.mark.parametrize("draw", [
        both_empty, one_side_empty, two_or_three_dimensions, three_clusters_of_two_by_two])
    @pytest.mark.parametrize("variant", ["gospa", "uospa", "ospa"])
    def test_custom_chunks_match_a_plain_loop_bitwise(self, draw, variant):
        sampler = CustomJointSampler(lambda seed: draw(np.random.Generator(np.random.PCG64(seed))))
        c, alpha, p = 4.0, 1.5, 2.0
        keys = rfs._sample_keys(5, 0, 40)
        got = rfs._chunk_values([sampler], keys, "euclidean", c, alpha, {p: [variant]})
        expected = []
        for k in range(len(keys)):
            x, y = sampler.sample_pair(derive_sample_seed(5, k))
            if variant == "ospa":
                expected.append(ospa(x, y, c=c, p=p))
            else:
                params = GospaParams(c=c, alpha=alpha if variant == "gospa" else 1.0, p=p)
                expected.append(gospa(x, y, params).total)
        assert np.array(got[variant, p]).tobytes() == np.array(expected).tobytes()

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


REMOTE_PAIR = (
    MultiBernoulli((BernoulliComponent(1.0, [0.0, 0.0], np.eye(2)),)),
    MultiBernoulli((BernoulliComponent(0.5, [1e200, 0.0], np.eye(2)),)),
)


@pytest.mark.parametrize("variant, c, p_prime", [("gospa", 1e200, 2.0),
                                                 ("ospa", 1e300, 1.5)])
def test_an_overflowing_outer_power_is_a_value_error(variant, c, p_prime):
    sampler = IndependentPairSampler(*REMOTE_PAIR)
    with pytest.raises(ValueError, match="overflows"):
        estimate_metric(sampler, GospaParams(c=c, p=1.0),
                        EstimatorConfig(p_prime=p_prime, samples=50), variant=variant)


@pytest.mark.parametrize("p_prime", [1.0, 2.0, 3.7, 400.0])
def test_outer_powers_are_pythons_powers(power_bases, p_prime):
    values, powers = [], []
    for value in power_bases.tolist():
        try:
            powers.append(value ** p_prime)
        except OverflowError:
            continue
        values.append(value)
    assert rfs._outer_powers(np.array(values), p_prime).tobytes() == np.array(powers).tobytes()
    if len(values) < len(power_bases):
        with pytest.raises(ValueError, match="overflows"):
            rfs._outer_powers(power_bases, p_prime)


def test_standard_error_of_huge_values_is_finite_without_warnings():
    sampler = IndependentPairSampler(*REMOTE_PAIR)
    cfg = EstimatorConfig(p_prime=2.0, samples=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate_metric(sampler, GospaParams(c=1e150, p=2.0), cfg)
    assert 1e149 < result.value < 1e150
    assert 0.0 < result.standard_error < result.value


def test_mean_of_powers_whose_sum_overflows_is_finite_without_warnings():
    # every power is finite, near the largest float, but their sum is not
    sampler = IndependentPairSampler(*REMOTE_PAIR)
    cfg = EstimatorConfig(p_prime=2.0, samples=50)
    c = 1.2e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate_metric(sampler, GospaParams(c=c, p=2.0), cfg)
    assert c / math.sqrt(2.0) < result.value < c
    assert 0.0 < result.standard_error < result.value


def test_standard_error_scaling_is_exact():
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e-3, 7.5, 1e12):
        powers = rng.random(100) * scale
        mean_power = float(np.mean(powers))
        se_mean = float(np.std(powers, ddof=1)) / math.sqrt(100)
        result, = rfs._estimate_from_powers(powers[None], [1.0])
        assert result.standard_error == se_mean / mean_power * mean_power


def one_row_estimate(powers, p_prime):
    """A cell's value and standard error from its row of powers alone, by
    1-D NumPy calls on the row scaled by a power of two."""
    n = len(powers)
    exponent = math.frexp(float(powers.max()))[1]
    scaled = np.ldexp(powers, -exponent)
    mean_scaled = float(np.mean(scaled))
    mean_power = math.ldexp(mean_scaled, exponent)
    value = mean_power ** (1.0 / p_prime)
    if n > 1 and mean_power > 0.0:
        se_scaled = float(np.std(scaled, ddof=1)) / math.sqrt(n)
        return value, se_scaled / (p_prime * mean_scaled) * value
    return value, 0.0


@pytest.mark.parametrize("n", [1, 2, 8, 9, 1000])
def test_every_rows_moments_are_those_of_the_row_alone(n):
    rng = np.random.default_rng(n)
    rows = [rng.random(n) * scale for scale in (1.0, 1e-3, 7.5, 1e12)]
    rows.append(np.zeros(n))
    # near the top of the float range: unscaled, their squares or sums overflow
    rows += [1e300 * rng.uniform(0.5, 1.0, n), 1.7e308 * rng.uniform(0.5, 1.0, n)]
    rows += [rng.exponential(1.0, n) for _ in range(72 - len(rows))]  # as many rows as Table 1
    p_primes = [(1.0, 2.0, 3.7)[r % 3] for r in range(len(rows))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = rfs._estimate_from_powers(np.array(rows), p_primes)
    assert len(estimates) == len(rows)
    for estimate, row, p_prime in zip(estimates, rows, p_primes):
        assert (estimate.value, estimate.standard_error) == one_row_estimate(row, p_prime)
        assert estimate.samples == n
    assert (estimates[4].value, estimates[4].standard_error) == (0.0, 0.0)


def test_padded_points_far_apart_warn_of_nothing():
    # differences of coordinates beyond the float range, in odd samples
    def draw(seed):
        side = 1.0 if seed % 2 else -1.0
        return ([[side * 1.7e308, 0.0], [1.0, 2.0]],
                [[-1.7e308, 1.0], [1.5, 2.0], [1e308, 1e308]])

    expected = {"gospa": (2.1862490369793983, 0.07957622903019555),
                "ospa": (1.5073658623372679, 0.03828436334659284)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in ("euclidean", "manhattan"):
            for variant, (value, standard_error) in expected.items():
                result = estimate_metric(CustomJointSampler(draw),
                                         GospaParams(c=2.0, p=2.0, base_distance=base),
                                         EstimatorConfig(samples=20), variant=variant)
                assert (result.value, result.standard_error) == (value, standard_error)


def test_values_that_do_not_fit_in_memory_are_a_value_error(monkeypatch):
    real_empty = np.empty
    huge = 10 ** 11

    def empty(shape, *args, **kwargs):
        if huge in np.atleast_1d(shape):
            raise MemoryError("cannot allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(rfs.np, "empty", empty)
    with pytest.raises(ValueError, match=str(huge)):
        run_table1(samples=huge)
    with pytest.raises(ValueError, match=str(huge)):
        estimate_metric(table1_scenario(0, 0), GospaParams(c=8.0), EstimatorConfig(samples=huge))


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_matches_estimate_metric_bitwise(self, workers):
        # 600 samples span three chunks of 256
        result = run_table1(samples=600, master_seed=29, workers=workers)
        assert 600 > 2 * rfs._chunk_size(table1_scenario(0, 0))
        for cell in result.cells:
            sampler = table1_scenario(cell.n_missed, cell.n_false)
            params = GospaParams(c=8.0, alpha=2.0, p=cell.p)
            cfg = EstimatorConfig(p_prime=cell.p, samples=600, master_seed=29)
            assert cell.estimate == estimate_metric(sampler, params, cfg, variant=cell.metric,
                                                    workers=workers)

    def test_each_chunk_is_drawn_once_for_every_scenario(self, monkeypatch):
        draws = []
        real_draw = MultiBernoulli._draw

        def counting_draw(model, keys, start):
            draws.append(len(keys))
            return real_draw(model, keys, start)

        monkeypatch.setattr(MultiBernoulli, "_draw", counting_draw)
        chunk = rfs._chunk_size(table1_scenario(0, 0))
        samples = 2 * chunk + 7
        run_table1(samples=samples, master_seed=3)
        # one truth and one estimate draw per chunk, shared by the scenarios
        assert draws == [chunk, chunk, chunk, chunk, 7, 7]

    def test_each_chunk_is_solved_by_one_padded_call(self, monkeypatch):
        points, stacks, edge_stacks = [], [], []
        real_evaluate_padded = rfs._evaluate_padded
        real_padded_edges = metrics._padded_edges

        def counting(xs, x_present, *args):
            points.append(len(xs))
            stacks.append(len(x_present))
            return real_evaluate_padded(xs, x_present, *args)

        def counting_edges(xs, *args):
            edge_stacks.append(len(xs))
            return real_padded_edges(xs, *args)

        monkeypatch.setattr(rfs, "_evaluate_padded", counting)
        monkeypatch.setattr(metrics, "_padded_edges", counting_edges)
        chunk = rfs._chunk_size(table1_scenario(0, 0))
        run_table1(samples=600, master_seed=2)
        # the twelve scenarios' masks of a chunk form one stack over one
        # copy of its points, whose edges are found once
        assert stacks == [12 * chunk, 12 * chunk, 12 * (600 - 2 * chunk)]
        assert points == edge_stacks == [chunk, chunk, 600 - 2 * chunk]

    def test_a_warm_run_builds_no_component(self, monkeypatch):
        run_table1(samples=2, master_seed=0)
        built = []
        real_post_init = BernoulliComponent.__post_init__

        def counting(component):
            built.append(component)
            real_post_init(component)

        monkeypatch.setattr(BernoulliComponent, "__post_init__", counting)
        run_table1(samples=2, master_seed=0)
        assert built == []

    def test_samplers_sharing_a_draw_must_differ_only_in_existence(self):
        params = GospaParams(c=8.0)
        cells = [("gospa", 1.0, 1.0)]
        moved = table1_scenario(0, 0)
        moved = IndependentPairSampler(moved.truth, MultiBernoulli(tuple(
            BernoulliComponent(comp.existence, comp.mean + 1.0, comp.covariance)
            for comp in moved.estimate.components)))
        for other in (moved, CustomJointSampler(lambda seed: ([], []))):
            with pytest.raises(ValueError, match="existence"):
                rfs._estimate_cells([table1_scenario(0, 0), other], params, cells, 4, 0, 1)
        half_truth = IndependentPairSampler(MultiBernoulli(tuple(
            BernoulliComponent(0.5, comp.mean, comp.covariance)
            for comp in moved.truth.components)), table1_scenario(0, 1).estimate)
        alike = [table1_scenario(1, 3), table1_scenario(2, 10), half_truth]
        shared = rfs._estimate_cells(alike, params, cells, 40, 6, 1)
        assert shared == [rfs._estimate_cells([sampler], params, cells, 40, 6, 1)[0]
                          for sampler in alike]

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


def test_an_overflowing_total_is_a_value_error_without_warnings():
    # four sure truths 1,000 apart against one likely-absent estimate: with
    # c = 1e308 and p = 1 each sample's GOSPA sum (c**p / 2) * 4 overflows.
    # A stop-gap: costs scaled by a power of two would give finite answers.
    truth = _point_model([[1e3 * k, 0.0] for k in range(4)])
    estimate = _point_model([[5e3, 0.0]], [0.1])
    sampler = IndependentPairSampler(truth, estimate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("gospa", "uospa", "ospa"):
            with pytest.raises(ValueError, match="cost matrix entries must be finite"):
                estimate_metric(sampler, GospaParams(c=1e308, p=1.0),
                                EstimatorConfig(samples=50, master_seed=1), variant)
