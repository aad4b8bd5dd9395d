"""Round-synchronous simulator and algorithm library for token dissemination
on adversarial dynamic networks."""

from .core import (
    AdversarySchedule,
    EngineRun,
    InsertionEvent,
    NetworkSnapshot,
    SimulationResult,
    TokenState,
    TokenUniverse,
    run_simulation,
    validate_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarySchedule",
    "EngineRun",
    "InsertionEvent",
    "NetworkSnapshot",
    "SimulationResult",
    "TokenState",
    "TokenUniverse",
    "run_simulation",
    "validate_snapshot",
    "__version__",
]
