"""GOSPA-family metrics between finite sets of targets, their
localization/missed/false decomposition, and Monte Carlo estimators of
their expectations over random finite sets."""

from .assignment import AssignmentSet, solve_full_assignment
from .metrics import (
    GospaBreakdown,
    GospaParams,
    as_state_array,
    cutoff_distance,
    gospa,
    ospa,
)
from .rfs import (
    BernoulliComponent,
    CustomJointSampler,
    EstimatorConfig,
    IndependentPairSampler,
    MetricEstimate,
    MultiBernoulli,
    Table1Cell,
    Table1Result,
    derive_sample_seed,
    estimate_metric,
    run_table1,
    sample_multi_bernoulli,
    table1_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentSet",
    "BernoulliComponent",
    "CustomJointSampler",
    "EstimatorConfig",
    "GospaBreakdown",
    "GospaParams",
    "IndependentPairSampler",
    "MetricEstimate",
    "MultiBernoulli",
    "Table1Cell",
    "Table1Result",
    "as_state_array",
    "cutoff_distance",
    "derive_sample_seed",
    "estimate_metric",
    "gospa",
    "ospa",
    "run_table1",
    "sample_multi_bernoulli",
    "solve_full_assignment",
    "table1_scenario",
]
