"""Multi-Bernoulli random finite sets and Monte Carlo metric estimators.

The estimators approximate ``E[d(X, Y)**p'] ** (1/p')`` for jointly
distributed random finite sets, where d is GOSPA, OSPA or unnormalized
OSPA.  Sampling is reproducible: every Monte Carlo sample draws from its
own random stream keyed by mixing the master seed with the sample index, so
results are bit-identical for a fixed master seed however the samples are
split into chunks.  The estimators accept a ``workers`` count, which must
be a positive integer and has no effect: every run draws and solves its
chunks one after another in the calling thread.

Draw layout v3.  Sample k's key is ``derive_sample_seed(master_seed, k)``,
and its i-th word is ``_mix64(_mix64(key) + (i + 1) * 0x9E3779B97F4A7C15)``:
output i of the SplitMix64 generator (Steele, Lea and Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014) whose state starts
at the mixed key.  Mixing the key first means that keys differing by a
multiple of the increment do not give shifted copies of one stream.  A
uniform is ``(word >> 11) * 2**-53``.

A multi-Bernoulli model with K components in D dimensions takes K uniforms
(component k exists when the k-th is below its existence probability), then
K * D standard normals, row k being component k's noise mapped through its
Cholesky factor.  The normals come by Box-Muller from ceil(K * D / 2) pairs
of uniforms (u1, u2): ``r = sqrt(-2 ln(1 - u1))`` and ``theta = 2 pi u2``
give ``r cos(theta)`` and then ``r sin(theta)``, and an odd count drops the
last sine.  The existing components are returned in index order.  The words
a model takes depend only on K and D, never on which components exist, so
models that differ only in existence probabilities share every common
point.  A pair sampler's truth takes the first words of the stream and its
estimate the words after them.

Every word is a function of the key and its index alone, so a whole chunk
of samples is drawn with a few array operations, and a sample drawn alone
is bit-identical to the same sample drawn in a chunk.  Pair samplers whose
models differ only in existence probabilities, such as the twelve Table 1
scenarios, draw the same points and existence uniforms, so
:func:`run_table1` draws each chunk once for all of them and compares the
uniforms with each scenario's own probabilities.  Each chunk's points and
one copy of the masks per scenario go to one ``metrics._evaluate_padded``
call, which finds the close pairs once and solves every copy as
:func:`gospa.metrics.gospa` would.  Layout v3 replaced v2 (a ``PCG64``
generator per sample); every seeded estimate changed within Monte Carlo error.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .metrics import (GospaParams, _evaluate_each, _evaluate_padded, _is_finite, _powers,
                      _require_same_dimension, as_state_array)

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# Samples drawn and evaluated together: at most _CHUNK_SAMPLES, and no more
# than keep a chunk's stream words within _CHUNK_WORDS.  The two bound the
# transient memory of a run, whatever the number of components: a chunk of
# 109 samples of two 50-component planar models allocates at most 1.5 MB at
# once, and `gospa mean` on them peaks at 43.3 MB RSS, against 41.6 MB with
# half the words per chunk (2 vCPU, Python 3.11, NumPy 2.4).
_CHUNK_SAMPLES = 256
_CHUNK_WORDS = 32768

TABLE1_N_MISSED = (0, 1, 2)
TABLE1_N_FALSE = (0, 1, 3, 10)
TABLE1_EXPONENTS = (1.0, 2.0)
TABLE1_METRICS = ("gospa", "ospa", "uospa")

_TABLE1_TRUTH_MEANS = ((-6.0, -6.0), (0.0, 3.0))
_TABLE1_DETECTED_MEANS = ((-6.7, -5.1), (-1.8, 2.9))
# Positions of the possible false targets: far enough from every truth and
# detected-estimate mean (and from each other) that their pairings always
# saturate at the cut-off in the benchmark scenarios.
_TABLE1_FALSE_MEANS = tuple((20.0 * k, 20.0) for k in range(1, 11))


def derive_sample_seed(master_seed: int, index: int) -> int:
    """Per-sample 64-bit seed: splitmix-style mix of master seed and index."""
    z = (master_seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser of :func:`derive_sample_seed`, on uint64
    arrays, whose arithmetic wraps modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _splitmix64(states: np.ndarray, start: int, count: int) -> np.ndarray:
    """Outputs ``start`` to ``start + count - 1`` of the SplitMix64
    generators with the given initial states, as a (len(states), count)
    uint64 array; output i of state s is ``_mix64(s + (i + 1) * gamma)``."""
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA)
    return _mix64(states[:, None] + steps)


def _sample_keys(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_sample_seed(master_seed, k)`` for k in [lo, hi): outputs lo
    to hi - 1 of the SplitMix64 generator whose state is the master seed."""
    return _splitmix64(np.array([master_seed], dtype=np.uint64), lo, hi - lo)[0]


def _stream_words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words ``start`` to ``start + count - 1`` of each key's stream: the
    SplitMix64 generator whose state starts at ``_mix64(key)``."""
    return _splitmix64(_mix64(keys), start, count)


def _validated_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an unsigned 64-bit integer")
    seed = int(seed)
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


def _cholesky_factor(covariance: np.ndarray) -> np.ndarray:
    # all-zero covariance means a point mass; keep it exact instead of jittered
    if not covariance.any():
        return np.zeros_like(covariance)
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        pass
    # relative to the largest variance, so the fix-up scales with the matrix
    jitter = 1e-10 * np.abs(np.diag(covariance)).max() * np.eye(covariance.shape[0])
    try:
        return np.linalg.cholesky(covariance + jitter)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be symmetric positive semidefinite") from None


@dataclass(frozen=True, eq=False)
class BernoulliComponent:
    """One potential target: exists with probability ``existence`` and, when
    it does, draws its state from a Gaussian."""

    existence: float
    mean: np.ndarray
    covariance: np.ndarray
    scale_tril: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            existence = float(self.existence)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("existence probability must lie in [0, 1]") from None
        if not 0.0 <= existence <= 1.0:
            raise ValueError("existence probability must lie in [0, 1]")
        try:
            mean = np.asarray(self.mean, dtype=float).reshape(-1)
        except OverflowError:  # an integer too large for a float
            raise ValueError("mean must be a non-empty finite vector") from None
        if mean.size < 1 or not np.all(np.isfinite(mean)):
            raise ValueError("mean must be a non-empty finite vector")
        try:
            cov = np.asarray(self.covariance, dtype=float)
        except OverflowError:
            raise ValueError("covariance must be a finite square matrix matching the mean") \
                from None
        if cov.shape != (mean.size, mean.size) or not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be a finite square matrix matching the mean")
        # np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12) written out, which
        # costs half as much; the two agree on finite matrices
        if not (np.abs(cov - cov.T) <= 1e-12 + 1e-9 * np.abs(cov.T)).all():
            raise ValueError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        object.__setattr__(self, "existence", existence)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "scale_tril", _cholesky_factor(cov))

    @property
    def dimension(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class MultiBernoulli:
    """Union of independent Bernoulli components, all of one dimension."""

    components: tuple[BernoulliComponent, ...]
    # the components stacked once, in index order, for draw layout v3
    _existence: np.ndarray = field(init=False, repr=False)
    _means: np.ndarray = field(init=False, repr=False)
    _scale_trils: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a multi-Bernoulli model needs at least one component")
        dims = {comp.dimension for comp in components}
        if len(dims) != 1:
            raise ValueError("all components must share one dimension")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_existence",
                           np.array([comp.existence for comp in components]))
        object.__setattr__(self, "_means", np.stack([comp.mean for comp in components]))
        object.__setattr__(self, "_scale_trils",
                           np.stack([comp.scale_tril for comp in components]))

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def _word_count(self) -> int:
        """Stream words one draw takes: K uniforms, then the uniform pairs
        of K * D normals."""
        n_components, dimension = self._means.shape
        return n_components + 2 * -(-n_components * dimension // 2)

    def _draw(self, keys: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw layout v3, stated in the module docstring, from words
        ``start`` onward of each key's stream.  Returns every component's
        point as (len(keys), K, D) and the existence uniforms as
        (len(keys), K); component k exists where its uniform is below its
        existence probability, which the caller compares, so that models
        differing only in existence probabilities can share one draw."""
        n_components, dimension = self._means.shape
        n_normals = n_components * dimension
        words = _stream_words(keys, start, self._word_count)
        uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[:, n_components::2]))
        angle = (2.0 * math.pi) * uniforms[:, n_components + 1::2]
        normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2)
        normals = normals.reshape(len(keys), -1)[:, :n_normals].reshape(
            len(keys), n_components, dimension)
        # the Cholesky product one output coordinate at a time, summed over
        # the normals left to right: elementwise, so a point does not depend
        # on how many samples are drawn with it
        trils = self._scale_trils
        points = np.empty((len(keys), n_components, dimension))
        for d in range(dimension):
            noise = trils[:, d, 0] * normals[:, :, 0]
            for j in range(1, dimension):
                noise = noise + trils[:, d, j] * normals[:, :, j]
            points[:, :, d] = noise + self._means[:, d]
        return points, uniforms[:, :n_components]

    def _draws_like(self, other: MultiBernoulli) -> bool:
        """Whether both models draw the same points from every stream, which
        holds when they differ at most in existence probabilities."""
        return (np.array_equal(self._means, other._means)
                and np.array_equal(self._scale_trils, other._scale_trils))


def sample_multi_bernoulli(model: MultiBernoulli, seed: int) -> np.ndarray:
    """Draw one realization of the model, fully determined by the seed."""
    points, uniforms = model._draw(np.array([_validated_seed(seed)], dtype=np.uint64), 0)
    return points[0][uniforms[0] < model._existence]


class PairSampler(Protocol):
    def sample_pair(self, seed: int) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True, eq=False)
class IndependentPairSampler:
    """Draws (truth, estimate) pairs from two independent models."""

    truth: MultiBernoulli
    estimate: MultiBernoulli

    def __post_init__(self):
        if self.truth.dimension != self.estimate.dimension:
            raise ValueError("truth and estimate models must share one dimension")

    def sample_pair(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        (xs, x_present), (ys, y_present) = self._draw(
            np.array([_validated_seed(seed)], dtype=np.uint64))
        return xs[0][x_present[0]], ys[0][y_present[0]]

    def _draw(self, keys: np.ndarray):
        """``(xs, x_present), (ys, y_present)``: each model's points, as
        ``MultiBernoulli._draw`` returns them, and which exist."""
        (xs, x_uniforms), (ys, y_uniforms) = self._raw_draw(keys)
        return ((xs, x_uniforms < self.truth._existence),
                (ys, y_uniforms < self.estimate._existence))

    def _raw_draw(self, keys: np.ndarray):
        """The truth from the first words of each key's stream, then the
        estimate from the words after them, as ``MultiBernoulli._draw``
        returns them."""
        return self.truth._draw(keys, 0), self.estimate._draw(keys, self.truth._word_count)


@dataclass(frozen=True, eq=False)
class CustomJointSampler:
    """Wraps a user-supplied generator from a seed to a (truth, estimate)
    pair, for jointly distributed models."""

    draw: Callable[[int], tuple]

    def sample_pair(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.draw(_validated_seed(seed))
        xs = as_state_array(x)
        ys = as_state_array(y)
        _require_same_dimension(xs, ys)
        return xs, ys


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo settings: outer exponent p', sample count, master seed."""

    p_prime: float = 1.0
    samples: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.p_prime, numbers.Real) and _is_finite(self.p_prime)
                and self.p_prime >= 1.0):
            raise ValueError("p_prime must lie in [1, inf)")
        if isinstance(self.samples, bool) or not isinstance(self.samples, (int, np.integer)) \
                or self.samples < 1:
            raise ValueError("samples must be a positive integer")
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "master_seed", _validated_seed(self.master_seed))


@dataclass(frozen=True)
class MetricEstimate:
    """Monte Carlo estimate of a set-metric expectation.

    ``standard_error`` propagates the sample standard error of the p'-th
    moment through the 1/p' root by the delta method.
    """

    value: float
    standard_error: float
    samples: int


def _require_metric(metric: str) -> None:
    if metric not in TABLE1_METRICS:
        raise ValueError(f"unknown metric variant {metric!r}; choose gospa, ospa or uospa")


def _estimate_from_powers(powers: np.ndarray, p_primes: Sequence[float]) -> list[MetricEstimate]:
    """One estimate per row of ``powers``, a (rows, samples) array whose row
    r holds every sample's value to the power ``p_primes[r]``.

    The moments of all rows are taken in one pass.  A mean or standard
    deviation along the rows of a C-contiguous array sums each row as a
    1-D call on it does, so every estimate is bit for bit that of its row
    alone; the rest is scalar arithmetic per row.
    """
    n = powers.shape[1]
    # each row scaled by a power of two, which is exact, so that neither
    # the sum nor a square overflows; the standard error is divided by the
    # mean before the product with the value, and the scale cancels in that
    # quotient
    exponents = np.frexp(powers.max(axis=1))[1]
    scaled = np.ldexp(powers, -exponents[:, None])
    means = scaled.mean(axis=1).tolist()
    stds = scaled.std(axis=1, ddof=1).tolist() if n > 1 else [0.0] * len(powers)
    estimates = []
    for mean_scaled, std_scaled, exponent, p_prime in zip(means, stds, exponents.tolist(),
                                                          p_primes):
        mean_power = math.ldexp(mean_scaled, exponent)
        value = mean_power ** (1.0 / p_prime)
        if n > 1 and mean_power > 0.0:
            standard_error = std_scaled / math.sqrt(n) / (p_prime * mean_scaled) * value
        else:
            standard_error = 0.0
        estimates.append(MetricEstimate(value=value, standard_error=standard_error, samples=n))
    return estimates


def _chunk_size(sampler: PairSampler) -> int:
    if isinstance(sampler, IndependentPairSampler):
        words = sampler.truth._word_count + sampler.estimate._word_count
        return max(1, min(_CHUNK_SAMPLES, _CHUNK_WORDS // words))
    return _CHUNK_SAMPLES


def _chunk_values(samplers: Sequence[PairSampler], keys: np.ndarray, base, c: float,
                  alpha: float, requests: dict) -> dict:
    """The values of a chunk of sample keys for every sampler, as
    ``{(name, p): values}``, sampler by sampler and each in key order.

    Pair samplers of independent models that differ only in existence
    probabilities draw the chunk once; its points come once, with one copy
    of the existence masks per sampler.  Any other sampler comes alone, is
    called once per key and has its sets padded to the largest.  The stack
    is solved by one ``metrics._evaluate_padded`` call, and a chunk whose
    sets differ in dimension by one ``metrics._evaluate_each`` call.
    """
    first = samplers[0]
    if isinstance(first, IndependentPairSampler):
        (xs, x_uniforms), (ys, y_uniforms) = first._raw_draw(keys)
        return _evaluate_padded(
            xs, np.concatenate([x_uniforms < sampler.truth._existence for sampler in samplers]),
            ys, np.concatenate([y_uniforms < sampler.estimate._existence for sampler in samplers]),
            base, c, alpha, requests)
    pairs = [first.sample_pair(key) for key in keys.tolist()]
    dimensions = {points.shape[1] for pair in pairs for points in pair if len(points)}
    if len(dimensions) > 1:
        return _evaluate_each(pairs, base, c, alpha, requests)
    dimension = dimensions.pop() if dimensions else 0
    (xs, x_present), (ys, y_present) = (
        _padded([pair[side] for pair in pairs], dimension) for side in (0, 1))
    return _evaluate_padded(xs, x_present, ys, y_present, base, c, alpha, requests)


def _padded(sets: list[np.ndarray], dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Sets of one dimension as a (len(sets), K, dimension) stack, padded
    to the largest cardinality K, and the mask of the slots each set fills."""
    sizes = np.array([len(points) for points in sets])
    stack = np.zeros((len(sets), sizes.max(), dimension))
    for k, points in enumerate(sets):
        if len(points):  # an empty set may have dimension 0
            stack[k, :len(points)] = points
    return stack, np.arange(stack.shape[1]) < sizes[:, None]


def _outer_powers(values: np.ndarray, p_prime: float) -> np.ndarray:
    try:
        return _powers(values, p_prime)
    except OverflowError:
        raise ValueError(f"a metric value to the power p' = {p_prime:g} overflows "
                         "a float") from None


def _estimate_cells(samplers: Sequence[PairSampler], params: GospaParams, cells, samples: int,
                    master_seed: int, workers: int) -> list[list[MetricEstimate]]:
    """Estimate every cell ``(metric, p, p')`` of every sampler from one draw
    per sample.

    Several samplers must be :class:`IndependentPairSampler` objects whose
    models differ only in existence probabilities, so that they share each
    sample's draw.  Sample k uses the seed ``derive_sample_seed(master_seed,
    k)`` for all samplers and cells.  The samples are drawn in chunks and
    each chunk is evaluated at once by :func:`_chunk_values`, whose values
    are those of the scalar kernel.  The per-sample values are reduced in
    index order, every cell of every sampler in one
    :func:`_estimate_from_powers` call, so each sampler's results are those
    it gets alone and do not depend on the chunk boundaries.  ``workers``
    must be a positive integer and has no effect.  Returns one list of
    estimates per sampler, in the order of ``cells``.
    """
    first = samplers[0]
    if len(samplers) > 1 and not all(
            isinstance(sampler, IndependentPairSampler)
            and sampler.truth._draws_like(first.truth)
            and sampler.estimate._draws_like(first.estimate) for sampler in samplers):
        raise ValueError("samplers that share a draw may differ only in existence "
                         "probabilities")
    requests: dict[float, list[str]] = {}
    for metric, p, _ in cells:
        _require_metric(metric)
        requests.setdefault(p, []).append(metric)
    base, c, alpha = params.base_distance, params.c, params.alpha
    try:
        powers = np.empty((len(samplers), len(cells), samples))
    except MemoryError:
        raise ValueError(f"not enough memory for the values of {samples} samples") from None

    chunk = _chunk_size(first)
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be a positive integer")
    for start in range(0, samples, chunk):
        stop = min(start + chunk, samples)
        values = _chunk_values(samplers, _sample_keys(master_seed, start, stop), base, c,
                               alpha, requests)
        for index, (metric, p, p_prime) in enumerate(cells):
            powers[:, index, start:stop] = _outer_powers(
                values[metric, p], p_prime).reshape(len(samplers), -1)
        del values  # before the next chunk's values are made
    estimates = _estimate_from_powers(powers.reshape(-1, samples),
                                      [p_prime for _, _, p_prime in cells] * len(samplers))
    return [estimates[k:k + len(cells)] for k in range(0, len(estimates), len(cells))]


def estimate_metric(sampler: PairSampler, params: GospaParams, cfg: EstimatorConfig,
                    variant: str = "gospa", workers: int = 1) -> MetricEstimate:
    """Estimate ``E[d(X, Y)**p'] ** (1/p')`` over sampled set pairs.

    ``variant`` is "gospa" (at ``params.alpha``), "ospa" or "uospa".
    Sample k uses the seed ``derive_sample_seed(cfg.master_seed, k)`` and
    the per-sample values are reduced in index order.  ``workers`` must be
    a positive integer and has no effect.
    """
    return _estimate_cells([sampler], params, [(variant, params.p, cfg.p_prime)],
                           cfg.samples, cfg.master_seed, workers)[0][0]


def table1_scenario(n_missed: int, n_false: int) -> IndependentPairSampler:
    """Benchmark scenario: two always-present planar truth targets versus an
    estimate that misses ``n_missed`` of them and adds ``n_false`` false
    targets far beyond the cut-off.

    The truth components are unit-covariance Gaussians at (-6, -6) and
    (0, 3); the detected-estimate components sit at (-6.7, -5.1) and
    (-1.8, 2.9).  Missing targets are modelled by zeroing the existence of
    estimate components (the second one first), false targets by enabling
    the first ``n_false`` of ten remote components.
    """
    if isinstance(n_missed, bool) or n_missed not in (0, 1, 2):
        raise ValueError("n_missed must be 0, 1 or 2")
    if isinstance(n_false, bool) or not isinstance(n_false, (int, np.integer)) \
            or not 0 <= n_false <= 10:
        raise ValueError("n_false must be an integer in [0, 10]")
    n_missed, n_false = int(n_missed), int(n_false)
    eye = np.eye(2)
    truth = MultiBernoulli(tuple(
        BernoulliComponent(1.0, mean, eye) for mean in _TABLE1_TRUTH_MEANS))
    detected_existence = ((1.0, 1.0), (1.0, 0.0), (0.0, 0.0))[n_missed]
    components = [
        BernoulliComponent(existence, mean, eye)
        for existence, mean in zip(detected_existence, _TABLE1_DETECTED_MEANS)
    ]
    components.extend(
        BernoulliComponent(1.0 if k < n_false else 0.0, mean, eye)
        for k, mean in enumerate(_TABLE1_FALSE_MEANS)
    )
    return IndependentPairSampler(truth=truth, estimate=MultiBernoulli(tuple(components)))


@functools.cache
def _table1_samplers() -> tuple[IndependentPairSampler, ...]:
    """The twelve scenarios of :func:`run_table1`, missed counts outer and
    false counts inner, built once per process; no caller outside this
    module sees them."""
    return tuple(table1_scenario(n_missed, n_false)
                 for n_missed in TABLE1_N_MISSED for n_false in TABLE1_N_FALSE)


@dataclass(frozen=True)
class Table1Cell:
    metric: str
    p: float
    n_missed: int
    n_false: int
    estimate: MetricEstimate


@dataclass(frozen=True)
class Table1Result:
    """All 3 metrics x 2 exponents x 12 scenarios of the benchmark grid."""

    c: float
    samples: int
    master_seed: int
    cells: tuple[Table1Cell, ...]

    def estimate(self, metric: str, p: float, n_missed: int, n_false: int) -> MetricEstimate:
        _require_metric(metric)
        for cell in self.cells:
            if (cell.metric == metric and cell.p == p
                    and cell.n_missed == n_missed and cell.n_false == n_false):
                return cell.estimate
        raise KeyError(f"no cell for ({metric}, p={p}, missed={n_missed}, false={n_false})")


def run_table1(samples: int = 1000, master_seed: int = 0, c: float = 8.0,
               workers: int = 1) -> Table1Result:
    """Estimate every benchmark-grid cell with p' = p in {1, 2}.

    Scenario cells share per-sample seeds (common random numbers).  The
    twelve scenarios, built once per process, differ only in existence
    probabilities, so each chunk of samples is drawn once for all of them,
    each scenario compares the shared existence uniforms with its own
    probabilities, and the chunk's points are solved once with the twelve
    scenarios' masks.  Each cell equals what :func:`estimate_metric`
    returns for the corresponding scenario, metric and exponent, bit for
    bit.
    """
    cfg = EstimatorConfig(samples=samples, master_seed=master_seed)
    params = GospaParams(c=c)
    cells = [(metric, p, p) for metric in TABLE1_METRICS for p in TABLE1_EXPONENTS]
    scenarios = [(n_missed, n_false)
                 for n_missed in TABLE1_N_MISSED for n_false in TABLE1_N_FALSE]
    grid = dict(zip(scenarios, _estimate_cells(
        _table1_samplers(), params, cells, cfg.samples, cfg.master_seed, workers)))
    ordered = tuple(
        Table1Cell(metric=metric, p=p, n_missed=n_missed, n_false=n_false,
                   estimate=grid[n_missed, n_false][index])
        for index, (metric, p, _) in enumerate(cells)
        for n_false in TABLE1_N_FALSE
        for n_missed in TABLE1_N_MISSED
    )
    return Table1Result(c=float(params.c), samples=cfg.samples,
                        master_seed=cfg.master_seed, cells=ordered)
