"""Per-sensor damage localization indices and the ranked report.

Sensors near the damage see the largest shift between their pre- and
post-damage feature distributions, measured as the Gaussian KL distance
(first index), and they cross the detection threshold soonest (second
index, the detection step itself, which costs no extra computation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detector import GaussianParams
from .errors import DimensionMismatch


def kl_gaussian(f: GaussianParams, g: GaussianParams) -> float:
    """KL distance D(f || g) between Gaussians, via g's cached inverse factor.

    0.5 * [tr(S0^-1 S1) + (m0-m1)' S0^-1 (m0-m1) - m + ln(det S0 / det S1)]
    with f = (m1, S1) and g = (m0, S0). Tiny negative rounding results are
    clamped to zero.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimensions differ: {f.dim} vs {g.dim}")
    a = g.chol_inv @ f.chol
    z = g.chol_inv @ (g.mean - f.mean)
    kl = 0.5 * (float(np.sum(a * a)) + float(z @ z) - f.dim + (g.log_det - f.log_det))
    return max(kl, 0.0)


@dataclass
class SensorOutcome:
    """Everything the report needs about one sensor's finished (or running) run."""

    sensor_id: int
    position: str
    pre: GaussianParams
    post: GaussianParams | None = None
    detection_time: int | None = None


@dataclass
class SensorEntry:
    sensor_id: int
    position: str
    di1: float | None
    di2: int | None
    rank_di1: int = 0
    rank_di2: int = 0


@dataclass
class LocalizationReport:
    """Ranked localization indices for all reporting sensors."""

    sensors: list[SensorEntry] = field(default_factory=list)
    detected: bool = False
    alpha: float | None = None
    rho: float | None = None

    def ranked_by_di1(self) -> list[int]:
        return [e.sensor_id for e in sorted(self.sensors, key=lambda e: e.rank_di1)]

    def ranked_by_di2(self) -> list[int]:
        return [e.sensor_id for e in sorted(self.sensors, key=lambda e: e.rank_di2)]

    def to_dict(self) -> dict:
        return {
            "sensors": [
                {
                    "id": e.sensor_id,
                    "position": e.position,
                    "di1": e.di1,
                    "di2": e.di2,
                    "rank_di1": e.rank_di1,
                    "rank_di2": e.rank_di2,
                }
                for e in self.sensors
            ],
            "detected": self.detected,
            "alpha": self.alpha,
            "rho": self.rho,
        }


def build_report(
    outcomes: list[SensorOutcome],
    alpha: float | None = None,
    rho: float | None = None,
) -> LocalizationReport:
    """Rank sensors by KL distance (descending) and detection step (ascending).

    The KL index uses the known post-damage parameters when supplied and the
    adaptive estimates otherwise; sensors whose estimates are not ready get
    empty index fields and rank last. Non-detections rank last in the
    detection-time ordering so that every ranking is a total order.
    """
    if not outcomes:
        raise ValueError("need at least one sensor outcome")
    entries = []
    for oc in outcomes:
        di1 = kl_gaussian(oc.post, oc.pre) if oc.post is not None else None
        entries.append(
            SensorEntry(
                sensor_id=oc.sensor_id,
                position=oc.position,
                di1=di1,
                di2=oc.detection_time,
            )
        )
    # a missing index ranks last; a tie goes to the lower sensor id
    by_di1 = sorted(entries, key=lambda e: (e.di1 is None, -(e.di1 or 0.0), e.sensor_id))
    for rank, e in enumerate(by_di1, start=1):
        e.rank_di1 = rank
    by_di2 = sorted(entries, key=lambda e: (e.di2 is None, e.di2 or 0, e.sensor_id))
    for rank, e in enumerate(by_di2, start=1):
        e.rank_di2 = rank
    return LocalizationReport(
        sensors=entries,
        detected=any(e.di2 is not None for e in entries),
        alpha=alpha,
        rho=rho,
    )
