"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Outcome:
    """Metrics, operation tallies and failed checks of one run.

    ``metrics`` maps a name to ``(value, unit, samples)``; ``absent`` maps a
    name to the reason it could not be measured.
    """

    workload: str
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    absent: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Traced runs: ``{span name: [calls, total s, self s]}``.
    spans: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, name: str, value: Optional[float], unit: str, samples: int = 1,
            why_absent: str = "not measured") -> None:
        if value is None:
            self.absent[name] = why_absent
        else:
            self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def add_spans(self, table: Dict[str, List[float]]) -> None:
        for name, row in table.items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                mine[i] += value
