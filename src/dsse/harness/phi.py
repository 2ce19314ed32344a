"""Synthetic personal-health-information stream.

Each file carries exactly 15 attribute:value keyword pairs with bounded
integer value ranges, so the keyword universe is finite (~28k strings) and
counters recur the way a periodic vitals feed makes them recur.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

from ..errors import UsageError

STREAM_START = 1_700_000_000  # fixed epoch so runs are reproducible
DEFAULT_PERIOD = 600  # one file every 10 minutes

# (attribute, low, high), inclusive integer ranges
ATTRIBUTES: list[tuple[str, int, int]] = [
    ("heartbeat", 40, 180),
    ("blood_sugar", 50, 400),
    ("systolic", 80, 220),
    ("diastolic", 40, 140),
    ("temperature", 950, 1060),   # tenths of a degree F
    ("pulse_oxygen", 80, 100),
    ("respiration", 8, 40),
    ("steps", 0, 19999),
    ("calories", 0, 4999),
    ("hrv", 10, 200),             # heart-rate variability, ms
    ("sleep_quality", 0, 100),
    ("stress", 0, 100),
    ("hydration", 30, 70),
    ("weight", 400, 1500),        # tenths of a kg
    ("posture", 0, 359),
]

ATTRIBUTE_NAMES = [name for name, _, _ in ATTRIBUTES]

KEYWORD_UNIVERSE_SIZE = sum(hi - lo + 1 for _, lo, hi in ATTRIBUTES)


@dataclass
class PHIFile:
    timestamp: int
    readings: dict[str, int]

    def keywords(self) -> list[str]:
        return [f"{attr}:{value}" for attr, value in self.readings.items()]

    def force_keyword(self, keyword: str) -> None:
        """Pin one attribute's value so this file contains `keyword`."""
        attr, value = keyword.split(":", 1)
        if attr not in self.readings:
            raise ValueError(f"unknown attribute {attr!r}")
        self.readings[attr] = int(value)

    def to_bytes(self) -> bytes:
        record = {"ts": self.timestamp, "readings": self.readings}
        return json.dumps(record, sort_keys=True).encode("utf-8")


def synthesize_stream(
    seed: int,
    n_files: int,
    period_seconds: int = DEFAULT_PERIOD,
    start_time: int = STREAM_START,
) -> Iterator[PHIFile]:
    """Deterministic stream of n_files records spaced period_seconds apart."""
    if n_files < 1:
        raise UsageError(f"n_files must be >= 1, got {n_files}")
    rng = random.Random(seed)
    for i in range(n_files):
        readings = {name: rng.randint(lo, hi) for name, lo, hi in ATTRIBUTES}
        yield PHIFile(start_time + i * period_seconds, readings)
