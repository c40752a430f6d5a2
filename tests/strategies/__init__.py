"""Hypothesis strategies shared by the property-based tests.

Re-exports the commonly used names::

    from tests.strategies import STANDARD_SETTINGS, lsm_op_sequences
"""

from tests.strategies.engine import EngineScenario, engine_scenarios
from tests.strategies.lsm import (LsmOp, db_options, lsm_op_sequences,
                                  sorted_runs, table_probes)
from tests.strategies.planes import PlaneCase, plane_cases
from tests.strategies.scoring import (ScoringCase, SimpleCase,
                                      scoring_cases, simple_cases)
from tests.strategies.settings import (COMPOSITION_SETTINGS,
                                       DETERMINISM_SETTINGS,
                                       STANDARD_SETTINGS)

__all__ = [
    "COMPOSITION_SETTINGS",
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "EngineScenario",
    "LsmOp",
    "PlaneCase",
    "ScoringCase",
    "SimpleCase",
    "db_options",
    "engine_scenarios",
    "lsm_op_sequences",
    "plane_cases",
    "scoring_cases",
    "simple_cases",
    "sorted_runs",
    "table_probes",
]
