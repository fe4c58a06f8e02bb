"""Pillar adapters: batched runners + loop-facing component wrappers.

A *runner* is what a :class:`repro.serve.BatchedService` worker calls:
``runner(items) -> results`` with row ``i`` answering item ``i``.  Each
pillar's batched entry point (added alongside its per-sample path and
parity-tested against it) slots in directly:

====================  ==========================================
pillar                batched entry point
====================  ==========================================
STARNet monitor       :meth:`repro.starnet.monitor.STARNet.assess_batch`
BEV detector          :meth:`repro.detect.heads.BEVDetector.detect_batch`
R-MAE occupancy       :meth:`RMAE.occupancy_probability_batch`
SNN optical flow      :meth:`FlowModel.predict_batch`
Koopman rollout       :meth:`ContrastiveKoopmanEncoder.rollout_batch`
====================  ==========================================

The wrappers on the other side implement the :mod:`repro.core`
component protocols, so a :class:`SensingToActionLoop` plugs into a
shared batched service without knowing it is being multiplexed: its
``Monitor.assess`` / ``Perception.perceive`` calls block in
``service.submit`` while the scheduler coalesces them with the other
loops' requests.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..core.components import Monitor, Percept, Perception, SensorReading
from .scheduler import BatchedService

__all__ = ["BatchedMonitor", "BatchedPerception", "monitor_runner",
           "detector_runner", "occupancy_runner", "flow_runner",
           "koopman_rollout_runner"]


# ------------------------------------------------------------------ runners
def monitor_runner(monitor) -> Callable[[List[Percept]], Sequence[float]]:
    """Batch runner over a monitor with ``assess_batch`` (STARNet)."""
    def run(percepts: List[Percept]) -> Sequence[float]:
        return [float(t) for t in monitor.assess_batch(percepts)]
    return run


def detector_runner(detector, score_threshold: Optional[float] = None
                    ) -> Callable[[List[Any]], Sequence[Any]]:
    """Batch runner over :meth:`BEVDetector.detect_batch`."""
    def run(clouds: List[Any]) -> Sequence[Any]:
        return detector.detect_batch(clouds, score_threshold=score_threshold)
    return run


def occupancy_runner(rmae) -> Callable[[List[Any]], Sequence[np.ndarray]]:
    """Batch runner over :meth:`RMAE.occupancy_probability_batch`."""
    def run(clouds: List[Any]) -> Sequence[np.ndarray]:
        return list(rmae.occupancy_probability_batch(clouds))
    return run


def flow_runner(model) -> Callable[[List[Any]], Sequence[np.ndarray]]:
    """Batch runner over :meth:`FlowModel.predict_batch`."""
    def run(samples: List[Any]) -> Sequence[np.ndarray]:
        return list(model.predict_batch(samples))
    return run


def koopman_rollout_runner(encoder
                           ) -> Callable[[List[Any]], Sequence[np.ndarray]]:
    """Batch runner over :meth:`ContrastiveKoopmanEncoder.rollout_batch`.

    Items are ``(image, actions)`` pairs with homogeneous shapes.
    """
    def run(items: List[Any]) -> Sequence[np.ndarray]:
        images = np.stack([img for img, _ in items])
        actions = np.stack([np.asarray(a) for _, a in items])
        return list(encoder.rollout_batch(images, actions))
    return run


# ----------------------------------------------------------- loop wrappers
class BatchedMonitor(Monitor):
    """A :class:`Monitor` whose assessments run through a shared batched
    service (runner built with :func:`monitor_runner`)."""

    def __init__(self, service: BatchedService,
                 timeout: Optional[float] = None):
        self.service = service
        self.timeout = timeout

    def assess(self, percept: Percept) -> float:
        return float(self.service.submit(percept, timeout=self.timeout))


class BatchedPerception(Perception):
    """A :class:`Perception` stage served by a shared batched service.

    The runner receives the raw :class:`SensorReading` payloads;
    ``wrap`` turns each routed result into the loop's :class:`Percept`
    (default: treat the result as the feature vector).
    """

    def __init__(self, service: BatchedService,
                 wrap: Optional[Callable[[Any, SensorReading], Percept]] = None,
                 timeout: Optional[float] = None):
        self.service = service
        self.wrap = wrap
        self.timeout = timeout

    def perceive(self, reading: SensorReading) -> Percept:
        result = self.service.submit(reading.data, timeout=self.timeout)
        if self.wrap is not None:
            return self.wrap(result, reading)
        return Percept(features=np.asarray(result))
