"""Multi-Bernoulli random finite sets and Monte Carlo metric estimators.

The estimators approximate ``E[d(X, Y)**p'] ** (1/p')`` for jointly
distributed random finite sets, where d is GOSPA, OSPA or unnormalized
OSPA.  Sampling is reproducible: every Monte Carlo sample draws from its
own generator seeded by mixing the master seed with the sample index, so
results are bit-identical for a fixed master seed regardless of how the
samples are distributed over workers.

Draw layout v2.  A multi-Bernoulli model with K components in D dimensions
takes, from the generator, K uniforms (component k exists when the k-th is
below its existence probability) and then one (K, D) block of standard
normals (row k is component k's noise, mapped through its Cholesky
factor).  The existing components are returned in index order.  The values
drawn depend only on K and D, never on which components exist, so models
that differ only in existence probabilities share every common point.  A
pair sampler draws the truth before the estimate from one generator.
Layout v2 replaced the v1 per-component loop (one uniform per component,
then that component's D normals only if it existed), so every seeded
estimate changed within Monte Carlo error.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .metrics import GospaParams, _evaluate, as_state_array

_MASK64 = (1 << 64) - 1

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
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


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
        except (TypeError, ValueError):
            raise ValueError("existence probability must lie in [0, 1]") from None
        if not 0.0 <= existence <= 1.0:
            raise ValueError("existence probability must lie in [0, 1]")
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if mean.size < 1 or not np.all(np.isfinite(mean)):
            raise ValueError("mean must be a non-empty finite vector")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size) or not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be a finite square matrix matching the mean")
        if not np.allclose(cov, cov.T, rtol=1e-9, atol=1e-12):
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
    # the components stacked once, in index order, for draw layout v2
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


def _sample_with_rng(model: MultiBernoulli, rng: np.random.Generator) -> np.ndarray:
    # draw layout v2, stated in the module docstring
    present = rng.random(len(model._existence)) < model._existence
    noise = rng.standard_normal(model._means.shape)
    return (model._means + np.einsum("kij,kj->ki", model._scale_trils, noise))[present]


def sample_multi_bernoulli(model: MultiBernoulli, seed: int) -> np.ndarray:
    """Draw one realization of the model, fully determined by the seed."""
    rng = np.random.Generator(np.random.PCG64(_validated_seed(seed)))
    return _sample_with_rng(model, rng)


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
        rng = np.random.Generator(np.random.PCG64(_validated_seed(seed)))
        return _sample_with_rng(self.truth, rng), _sample_with_rng(self.estimate, rng)


@dataclass(frozen=True, eq=False)
class CustomJointSampler:
    """Wraps a user-supplied generator from a seed to a (truth, estimate)
    pair, for jointly distributed models."""

    draw: Callable[[int], tuple]

    def sample_pair(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.draw(_validated_seed(seed))
        xs = as_state_array(x)
        ys = as_state_array(y)
        if xs.shape[1] > 0 and ys.shape[1] > 0 and xs.shape[1] != ys.shape[1]:
            raise ValueError("sampled pair must share one dimension")
        return xs, ys


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo settings: outer exponent p', sample count, master seed."""

    p_prime: float = 1.0
    samples: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.p_prime, numbers.Real) and math.isfinite(self.p_prime)
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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _run_blocks(total: int, workers: int, task: Callable[[int, int], None]) -> None:
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be a positive integer")
    n_blocks = min(workers, _usable_cpus(), total)
    if n_blocks <= 1:
        task(0, total)
        return
    step = -(-total // n_blocks)
    bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    with ThreadPoolExecutor(max_workers=n_blocks) as pool:
        futures = [pool.submit(task, lo, hi) for lo, hi in bounds]
        for future in futures:
            future.result()


def _estimate_from_powers(powers: np.ndarray, p_prime: float) -> MetricEstimate:
    n = len(powers)
    mean_power = float(np.mean(powers))
    value = mean_power ** (1.0 / p_prime)
    if n > 1 and mean_power > 0.0:
        se_mean = float(np.std(powers, ddof=1)) / math.sqrt(n)
        standard_error = se_mean * value / (p_prime * mean_power)
    else:
        standard_error = 0.0
    return MetricEstimate(value=value, standard_error=standard_error, samples=n)


def _estimate_cells(sampler: PairSampler, params: GospaParams, cells, samples: int,
                    master_seed: int, workers: int) -> list[MetricEstimate]:
    """Estimate every cell ``(metric, p, p')`` from one draw per sample.

    Sample k uses the seed ``derive_sample_seed(master_seed, k)`` for all
    cells, and the per-sample values are reduced in index order, so the
    results do not depend on ``workers``.
    """
    requests: dict[float, list[str]] = {}
    for metric, p, _ in cells:
        _require_metric(metric)
        requests.setdefault(p, []).append(metric)
    base, c, alpha = params.base_distance, params.c, params.alpha
    powers = [(np.empty(samples), (metric, p), p_prime) for metric, p, p_prime in cells]

    def block(lo: int, hi: int) -> None:
        for k in range(lo, hi):
            xs, ys = sampler.sample_pair(derive_sample_seed(master_seed, k))
            values = _evaluate(xs, ys, base, c, alpha, requests)
            for row, key, p_prime in powers:
                row[k] = values[key] ** p_prime

    _run_blocks(samples, workers, block)
    return [_estimate_from_powers(row, p_prime) for row, _, p_prime in powers]


def estimate_metric(sampler: PairSampler, params: GospaParams, cfg: EstimatorConfig,
                    variant: str = "gospa", workers: int = 1) -> MetricEstimate:
    """Estimate ``E[d(X, Y)**p'] ** (1/p')`` over sampled set pairs.

    ``variant`` is "gospa" (at ``params.alpha``), "ospa" or "uospa".
    Sample k uses the seed ``derive_sample_seed(cfg.master_seed, k)`` and
    the per-sample values are reduced in index order, so the result does
    not depend on ``workers``.
    """
    return _estimate_cells(sampler, params, [(variant, params.p, cfg.p_prime)],
                           cfg.samples, cfg.master_seed, workers)[0]


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

    Scenario cells share per-sample seeds (common random numbers), and each
    cell equals what :func:`estimate_metric` returns for the corresponding
    scenario, metric and exponent, bit for bit.
    """
    cfg = EstimatorConfig(samples=samples, master_seed=master_seed)
    params = GospaParams(c=c)
    cells = [(metric, p, p) for metric in TABLE1_METRICS for p in TABLE1_EXPONENTS]
    grid = {
        (n_missed, n_false): _estimate_cells(table1_scenario(n_missed, n_false), params, cells,
                                             cfg.samples, cfg.master_seed, workers)
        for n_missed in TABLE1_N_MISSED for n_false in TABLE1_N_FALSE
    }
    ordered = tuple(
        Table1Cell(metric=metric, p=p, n_missed=n_missed, n_false=n_false,
                   estimate=grid[n_missed, n_false][index])
        for index, (metric, p, _) in enumerate(cells)
        for n_false in TABLE1_N_FALSE
        for n_missed in TABLE1_N_MISSED
    )
    return Table1Result(c=float(params.c), samples=cfg.samples,
                        master_seed=cfg.master_seed, cells=ordered)
