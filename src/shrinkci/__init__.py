"""Robust empirical Bayes confidence intervals for normal-means problems."""

from shrinkci.moments import MomentEstimates, UnitError, Units, estimate_moments
from shrinkci.pipeline import (
    EbciOutput,
    FitResult,
    average_power,
    fit,
    optimal_shrinkage,
    parametric_worst_noncoverage,
)
from shrinkci.worstcase import (
    CriticalValueResult,
    DiscreteDistribution,
    MomentConstraints,
    critical_value,
    critical_values,
    least_favorable,
    majorant_kink,
    noncoverage,
    worst_noncoverage,
    worst_noncoverage_fourth,
    worst_noncoverage_second,
)

__version__ = "0.1.0"
