"""Hypothesis strategies shared by the property-based tests.

Re-exports the commonly used names::

    from tests.strategies import STANDARD_SETTINGS, lsm_op_sequences
"""

from tests.strategies.block import BlockSchedule, block_schedules
from tests.strategies.engine import EngineScenario, engine_scenarios
from tests.strategies.eviction import EvictionCase, eviction_cases
from tests.strategies.lsm import (LsmOp, db_options, lsm_op_sequences,
                                  sorted_runs, table_probes)
from tests.strategies.planes import PlaneCase, plane_cases
from tests.strategies.registry import RegistryCase, registry_cases
from tests.strategies.scoring import (ScoringCase, SimpleCase,
                                      scoring_cases, simple_cases)
from tests.strategies.settings import (COMPOSITION_SETTINGS,
                                       DETERMINISM_SETTINGS,
                                       STANDARD_SETTINGS)
from tests.strategies.ycsb import YcsbCase, ycsb_cases

__all__ = [
    "COMPOSITION_SETTINGS",
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "BlockSchedule",
    "EngineScenario",
    "EvictionCase",
    "LsmOp",
    "PlaneCase",
    "RegistryCase",
    "ScoringCase",
    "SimpleCase",
    "YcsbCase",
    "block_schedules",
    "db_options",
    "engine_scenarios",
    "eviction_cases",
    "lsm_op_sequences",
    "plane_cases",
    "registry_cases",
    "scoring_cases",
    "simple_cases",
    "sorted_runs",
    "table_probes",
    "ycsb_cases",
]
