"""Exact desk-scale computations in coarse geometry on finitely generated groups."""

from .groups import BudgetExceededError, GroupSpec
from .metrics import (
    HORIZON,
    Entry12Pseudometric,
    InducedMetric,
    MaxEntryMetric,
    QuotientWordMetric,
    WordMetric,
    WordNorm,
    is_horizon,
    max_entry_distance,
    rho_plus_truncated,
)
from .bornology import (
    Explicit,
    GeneratedBasis,
    GeometricSeed,
    MetricBallsBasis,
    MinimalBasis,
    member,
    metric_from_basis,
)
from .coarse import (
    BoundedByMetric,
    Entourage,
    EntourageFamily,
    LeftBornological,
    bounded_set_check,
    closeness_probe,
    coarse_map_probe,
    controlled_probe,
    left_shadow,
    right_shadow,
    theta_image,
)
from .scenarios import SCENARIOS, ScenarioReport, run_scenario

__version__ = "0.1.0"
