"""Multi-Bernoulli random finite sets and Monte Carlo metric estimators.

The estimators approximate ``E[d(X, Y)**p'] ** (1/p')`` for jointly
distributed random finite sets, where d is GOSPA, OSPA or unnormalized
OSPA.  Sampling is reproducible: every Monte Carlo sample draws from its
own random stream keyed by mixing the master seed with the sample index, so
results are bit-identical for a fixed master seed however the samples are
split into chunks.  Every run draws and solves its chunks one after
another in the calling thread.

Draw layout v3.  Sample k's key is ``derive_sample_seed(master_seed, k)``,
and its i-th word is ``_mix64(_mix64(key) + (i + 1) * 0x9E3779B97F4A7C15)``:
output i of the SplitMix64 generator (Steele, Lea and Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014) whose state starts
at the mixed key.  Mixing the key first means that keys differing by a
multiple of the increment do not give shifted copies of one stream.  A
uniform is ``(word >> 11) * 2**-53``.

A multi-Bernoulli model holds its K components as stacks in index order:
existence probabilities (K,), means (K, D), and covariances and their
Cholesky factors (K, D, D).  One validator checks and factors components
as stacks, once for each model the package builds; a
:class:`BernoulliComponent` is its one-component case.  A singular covariance
is factored after a jitter of 1e-10 times its largest variance, and at
least the smallest normal float, is added to its diagonal.

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
is bit-identical to the same sample drawn in a chunk.  :func:`run_table1`
gives the twelve Table 1 scenarios, which differ only in existence
probabilities, as existence rows of one pair sampler's draw.  Layout v3
replaced v2 (a ``PCG64`` generator per sample); every seeded estimate
changed within Monte Carlo error.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .metrics import (GospaParams, _evaluate_each, _evaluate_padded, _is_finite, _power,
                      _powers, _require_same_dimension, as_state_array)

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
# run_table1's one order of the scenarios: missed counts outer, false inner
_TABLE1_SCENARIOS = tuple((n_missed, n_false)
                          for n_missed in TABLE1_N_MISSED for n_false in TABLE1_N_FALSE)


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


def _component_fields(existence, mean, covariance) -> tuple[float, np.ndarray, np.ndarray]:
    """One component's fields as floats: the existence probability by
    ``float()``, the mean flattened and the covariance as an array.  A value
    that does not convert becomes one that fails its own check in
    :func:`_checked`: a NaN probability, an empty mean, a 0-d covariance."""
    try:
        existence = float(existence)
    except (TypeError, ValueError, OverflowError):
        existence = math.nan
    try:
        mean = np.asarray(mean, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        mean = np.empty(0)
    try:
        covariance = np.asarray(covariance, dtype=float)
    except (TypeError, ValueError, OverflowError):
        covariance = np.array(math.nan)
    return existence, mean, covariance


def _cholesky_factors(covariances: np.ndarray) -> tuple[np.ndarray, int]:
    """Cholesky factors of a (K, D, D) stack of symmetric matrices, and the
    index of the first that has none, or K.  An all-zero matrix has an exact
    zero factor.  The others are factored by one ``np.linalg.cholesky`` call,
    which factors each as a call on it alone does; only where that fails is
    each factored alone, with a jitter on its diagonal if it must."""
    factors = np.zeros_like(covariances)
    nonzero = covariances.any(axis=(1, 2))
    try:
        factors[nonzero] = np.linalg.cholesky(covariances[nonzero])
        return factors, len(covariances)
    except np.linalg.LinAlgError:
        pass
    for k in np.flatnonzero(nonzero).tolist():
        largest = float(np.abs(np.diag(covariances[k])).max())
        # relative to the largest variance, so the fix-up scales with the
        # matrix, and at least the smallest normal float, so never zero
        jitter = max(1e-10 * largest, float(np.finfo(float).tiny))
        # where the jittered diagonal would overflow, a quarter of the
        # matrix is factored and its factor doubled, both exactly
        doubling = 2.0 if largest + jitter == math.inf else 1.0
        jittered = (covariances[k] / doubling ** 2
                    + jitter / doubling ** 2 * np.eye(len(covariances[k])))
        for covariance, scale in ((covariances[k], 1.0), (jittered, doubling)):
            try:
                factors[k] = scale * np.linalg.cholesky(covariance)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            return factors, k
    return factors, len(covariances)


def _checked(fields: Sequence[tuple], first: int | None = None) -> tuple[np.ndarray, ...] | None:
    """The one validator of components given by :func:`_component_fields`.
    Returns their stacks: existence (K,), means (K, D), and the covariances
    made exactly symmetric and their Cholesky factors (K, D, D); fields that
    do not stack, as of different dimensions, are checked one at a time and
    give None.  Each check is one (K,) boolean array, in this order: an
    existence probability in [0, 1], a non-empty finite mean, a finite
    D x D covariance, a symmetric one, one with a factor.  The first failing
    component raises a ValueError with its first failing check, named as
    component ``first + k`` unless ``first`` is None."""
    existence = np.array([field[0] for field in fields])
    try:
        means = np.stack([field[1] for field in fields])
        covariances = np.stack([field[2] for field in fields])
    except ValueError:  # no fields, or fields of different shapes; one field always stacks
        for k, field in enumerate(fields):
            _checked([field], first + k)
        return None
    n, dim = means.shape
    if covariances.shape != (n, dim, dim):  # checked as a covariance of NaN
        covariances = np.full((n, dim, dim), math.nan)
    transposed = covariances.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [
            ((existence >= 0.0) & (existence <= 1.0), "existence probability must lie in [0, 1]"),
            (np.isfinite(means).all(axis=1) & (dim > 0), "mean must be a non-empty finite vector"),
            (np.isfinite(covariances).all(axis=(1, 2)),
             "covariance must be a finite square matrix matching the mean"),
            # np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12), matrix by matrix
            ((np.abs(covariances - transposed) <= 1e-12 + 1e-9 * np.abs(transposed)).all(
                axis=(1, 2)), "covariance must be symmetric"),
        ]
    passed = np.logical_and.reduce([check for check, _ in checks])
    good = n if passed.all() else int(passed.argmin())
    # halving is exact unless a half is subnormal, and the sum of two halves
    # cannot overflow as cov + cov.T can
    covariances = covariances[:good] / 2.0 + transposed[:good] / 2.0
    factors, index = _cholesky_factors(covariances)
    if index == n:
        return existence, means, covariances, factors
    checks.append((np.arange(n) != index, "covariance must be symmetric positive semidefinite"))
    message = next(message for check, message in checks if not check[index])
    raise ValueError(message if first is None else f"component {first + index}: {message}")


@dataclass(frozen=True, eq=False)
class BernoulliComponent:
    """One potential target: exists with probability ``existence`` and, when
    it does, draws its state from a Gaussian."""

    existence: float
    mean: np.ndarray
    covariance: np.ndarray
    scale_tril: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fields = _component_fields(self.existence, self.mean, self.covariance)
        _, means, covariances, factors = _checked([fields])
        self._set(fields[0], means[0], covariances[0], factors[0])

    def _set(self, existence: float, mean: np.ndarray, covariance: np.ndarray,
             scale_tril: np.ndarray) -> None:
        object.__setattr__(self, "existence", existence)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "scale_tril", scale_tril)

    @property
    def dimension(self) -> int:
        return self.mean.size


class MultiBernoulli:
    """Union of independent Bernoulli components, all of one dimension.

    The model holds its components as stacks in index order, as draw layout
    v3 takes them: existence probabilities (K,), means (K, D), and
    covariances and their Cholesky factors (K, D, D).
    """

    def __init__(self, components: Sequence[BernoulliComponent]):
        components = tuple(components)
        if not components:
            raise ValueError("a multi-Bernoulli model needs at least one component")
        if len({comp.dimension for comp in components}) != 1:
            raise ValueError("all components must share one dimension")
        self.__dict__["components"] = components  # where the cached property keeps it
        self._existence = np.array([comp.existence for comp in components])
        self._means = np.stack([comp.mean for comp in components])
        self._covariances = np.stack([comp.covariance for comp in components])
        self._scale_trils = np.stack([comp.scale_tril for comp in components])

    @classmethod
    def _from_fields(cls, fields: Sequence[tuple]) -> MultiBernoulli:
        """The model of one or more :func:`_component_fields`, checked by one
        :func:`_checked` call, bit for bit each one's ``BernoulliComponent``."""
        stacks = _checked(fields, first=0)
        if stacks is None:  # every field passed alone, so their dimensions differ
            raise ValueError("all components must share one dimension")
        model = object.__new__(cls)
        model._existence, model._means, model._covariances, model._scale_trils = stacks
        return model

    @functools.cached_property
    def components(self) -> tuple[BernoulliComponent, ...]:
        """The components; a model built from stacks makes them from the
        stacks' rows, which have passed every check, when first asked."""
        components = []
        for fields in zip(self._existence.tolist(), self._means, self._covariances,
                          self._scale_trils):
            component = object.__new__(BernoulliComponent)
            component._set(*fields)
            components.append(component)
        return tuple(components)

    @property
    def dimension(self) -> int:
        return self._means.shape[1]

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
        existence probability, which the caller compares, so that rows of
        other existence probabilities can share one draw."""
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


def sample_multi_bernoulli(model: MultiBernoulli, seed: int) -> np.ndarray:
    """Draw one realization of the model, fully determined by the seed."""
    points, uniforms = model._draw(np.array([_validated_seed(seed)], dtype=np.uint64), 0)
    return points[0][uniforms[0] < model._existence]


class PairSampler(Protocol):
    """Draws a (truth, estimate) pair from a seed; any sampler that is not
    built in is read as ``CustomJointSampler(sampler.sample_pair)``."""

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
        (xs, x_uniforms), (ys, y_uniforms) = self._raw_draw(
            np.array([_validated_seed(seed)], dtype=np.uint64))
        return (xs[0][x_uniforms[0] < self.truth._existence],
                ys[0][y_uniforms[0] < self.estimate._existence])

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
    alone; the rest is scalar arithmetic per row, with the root by the
    power rule of ``metrics._power``.
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
        value = _power(mean_power, 1.0 / p_prime)
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


def _chunk_values(sampler: PairSampler, existences, keys: np.ndarray, base, c: float,
                  alpha: float, requests: dict) -> dict:
    """The values of a chunk of sample keys, as ``{(name, p): values}``,
    row by row of ``existences`` and each row in key order.

    A pair sampler of independent models draws the chunk once; its points
    come once, with one copy of the existence masks per row of
    ``existences``, a pair of (S, K_x) and (S, K_y) existence probabilities
    that replace the models' own.  A :class:`CustomJointSampler` has one row
    and ``existences`` None; it is called once per key and has its sets padded
    to the largest.  The stack is solved by one ``metrics._evaluate_padded``
    call, and a chunk whose sets differ in dimension by one
    ``metrics._evaluate_each`` call.
    """
    if isinstance(sampler, IndependentPairSampler):
        (xs, x_uniforms), (ys, y_uniforms) = sampler._raw_draw(keys)
        x_rows, y_rows = existences
        return _evaluate_padded(
            xs, (x_uniforms < x_rows[:, None]).reshape(-1, x_uniforms.shape[1]),
            ys, (y_uniforms < y_rows[:, None]).reshape(-1, y_uniforms.shape[1]),
            base, c, alpha, requests)
    pairs = [sampler.sample_pair(key) for key in keys.tolist()]
    dimensions = {points.shape[1] for pair in pairs for points in pair if len(points)}
    if len(dimensions) > 1:
        return _evaluate_each(pairs, base, c, alpha, requests)
    dimension = dimensions.pop() if dimensions else 0
    (xs, x_present), (ys, y_present) = (
        _padded([pair[side] for pair in pairs], dimension) for side in (0, 1))
    return _evaluate_padded(xs, x_present, ys, y_present, base, c, alpha, requests)


def _padded(sets: list[np.ndarray], dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Sets of one dimension as a (len(sets), K, dimension) stack, padded
    to the largest cardinality K with NaN, and the mask of the slots each
    set fills."""
    sizes = np.array([len(points) for points in sets])
    stack = np.full((len(sets), sizes.max(), dimension), np.nan)
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


def _estimate_cells(sampler: PairSampler, params: GospaParams, cells, samples: int,
                    master_seed: int, existences=None) -> list[list[MetricEstimate]]:
    """Estimate every cell ``(metric, p, p')`` of every existence row from
    one draw per sample.

    For an :class:`IndependentPairSampler`, ``existences`` is a pair of
    (S, K_x) and (S, K_y) arrays whose row s replaces the models' existence
    probabilities for scenario s; None means one row, the sampler's own.
    Any other sampler has one row and is read as a
    :class:`CustomJointSampler` of its ``sample_pair``, which checks its
    sets.  Sample k uses the seed ``derive_sample_seed(master_seed, k)`` for
    every row and cell.  The samples are drawn in chunks, each evaluated at
    once by :func:`_chunk_values`, whose values are those of the scalar
    kernel, and reduced in index order, every cell of every row in one
    :func:`_estimate_from_powers` call, so each row's results are those of
    its scenario alone, whatever the chunk boundaries.  Returns one list of
    estimates per row, in the order of ``cells``.
    """
    if existences is None and isinstance(sampler, IndependentPairSampler):
        existences = sampler.truth._existence[None], sampler.estimate._existence[None]
    elif not isinstance(sampler, (IndependentPairSampler, CustomJointSampler)):
        sampler = CustomJointSampler(sampler.sample_pair)
    rows = 1 if existences is None else len(existences[0])
    requests: dict[float, list[str]] = {}
    for metric, p, _ in cells:
        _require_metric(metric)
        requests.setdefault(p, []).append(metric)
    base, c, alpha = params.base_distance, params.c, params.alpha
    try:
        powers = np.empty((rows, len(cells), samples))
    except MemoryError:
        raise ValueError(f"not enough memory for the values of {samples} samples") from None

    chunk = _chunk_size(sampler)
    for start in range(0, samples, chunk):
        stop = min(start + chunk, samples)
        values = _chunk_values(sampler, existences, _sample_keys(master_seed, start, stop),
                               base, c, alpha, requests)
        for index, (metric, p, p_prime) in enumerate(cells):
            powers[:, index, start:stop] = _outer_powers(
                values[metric, p], p_prime).reshape(rows, -1)
        del values  # before the next chunk's values are made
    estimates = _estimate_from_powers(powers.reshape(-1, samples),
                                      [p_prime for _, _, p_prime in cells] * rows)
    return [estimates[k:k + len(cells)] for k in range(0, len(estimates), len(cells))]


def estimate_metric(sampler: PairSampler, params: GospaParams, cfg: EstimatorConfig,
                    variant: str = "gospa") -> MetricEstimate:
    """Estimate ``E[d(X, Y)**p'] ** (1/p')`` over sampled set pairs.

    ``variant`` is "gospa" (at ``params.alpha``), "ospa" or "uospa".
    Sample k uses the seed ``derive_sample_seed(cfg.master_seed, k)`` and
    the per-sample values are reduced in index order.
    """
    return _estimate_cells(sampler, params, [(variant, params.p, cfg.p_prime)],
                           cfg.samples, cfg.master_seed)[0][0]


def _table1_existence(n_missed: int, n_false: int) -> list[float]:
    """A Table 1 estimate's existence probabilities: of two detected
    components the last ``n_missed`` absent, of ten remote ones the first
    ``n_false`` present."""
    return [float(k < 2 - n_missed) for k in range(2)] + [float(k < n_false) for k in range(10)]


def table1_scenario(n_missed: int, n_false: int) -> IndependentPairSampler:
    """Benchmark scenario: two always-present planar truth targets versus an
    estimate that misses ``n_missed`` of them and adds ``n_false`` false
    targets far beyond the cut-off.

    The truth components are unit-covariance Gaussians at (-6, -6) and
    (0, 3); the detected-estimate components sit at (-6.7, -5.1) and
    (-1.8, 2.9), then ten remote ones, with :func:`_table1_existence`'s
    probabilities.  Each model is checked as stacks by one call.
    """
    if isinstance(n_missed, bool) or n_missed not in (0, 1, 2):
        raise ValueError("n_missed must be 0, 1 or 2")
    if isinstance(n_false, bool) or not isinstance(n_false, (int, np.integer)) \
            or not 0 <= n_false <= 10:
        raise ValueError("n_false must be an integer in [0, 10]")
    eye = np.eye(2)
    truth = MultiBernoulli._from_fields(
        [_component_fields(1.0, mean, eye) for mean in _TABLE1_TRUTH_MEANS])
    estimate = MultiBernoulli._from_fields([
        _component_fields(existence, mean, eye) for existence, mean in zip(
            _table1_existence(n_missed, n_false), _TABLE1_DETECTED_MEANS + _TABLE1_FALSE_MEANS)])
    return IndependentPairSampler(truth=truth, estimate=estimate)


@functools.cache
def _table1_draw() -> tuple[IndependentPairSampler, tuple[np.ndarray, np.ndarray]]:
    """``table1_scenario(0, 0)`` and, in ``_TABLE1_SCENARIOS`` order, its truth
    rows (ones) and estimate rows (:func:`_table1_existence`), built once."""
    return table1_scenario(0, 0), (np.ones((len(_TABLE1_SCENARIOS), 2)), np.array(
        [_table1_existence(*scenario) for scenario in _TABLE1_SCENARIOS]))


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


def run_table1(samples: int = 1000, master_seed: int = 0, c: float = 8.0) -> Table1Result:
    """Estimate every benchmark-grid cell with p' = p in {1, 2}.

    Scenario cells share per-sample seeds (common random numbers).  The
    twelve scenarios, built once per process, differ only in existence
    probabilities, so they are twelve existence rows of one sampler: each
    chunk of samples is drawn once, its existence uniforms are compared
    with every row, and its points are solved once with the twelve rows'
    masks.  Each cell equals what :func:`estimate_metric` returns for the
    corresponding scenario, metric and exponent, bit for bit.
    """
    cfg = EstimatorConfig(samples=samples, master_seed=master_seed)
    params = GospaParams(c=c)
    cells = [(metric, p, p) for metric in TABLE1_METRICS for p in TABLE1_EXPONENTS]
    sampler, existences = _table1_draw()
    grid = dict(zip(_TABLE1_SCENARIOS, _estimate_cells(
        sampler, params, cells, cfg.samples, cfg.master_seed, existences)))
    ordered = tuple(
        Table1Cell(metric=metric, p=p, n_missed=n_missed, n_false=n_false,
                   estimate=grid[n_missed, n_false][index])
        for index, (metric, p, _) in enumerate(cells)
        for n_false in TABLE1_N_FALSE
        for n_missed in TABLE1_N_MISSED
    )
    return Table1Result(c=float(params.c), samples=cfg.samples,
                        master_seed=cfg.master_seed, cells=ordered)
