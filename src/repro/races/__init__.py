"""Race detection: happens-before vector clocks."""

from repro.races.happens_before import (
    HbRace,
    VectorClock,
    happens_before_races,
    transformed_trace_races,
)

__all__ = [
    "VectorClock",
    "HbRace",
    "happens_before_races",
    "transformed_trace_races",
]
