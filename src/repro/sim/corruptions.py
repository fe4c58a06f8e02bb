"""LiDAR corruption suite (the KITTI-C substitute, Sec. V).

STARNet is evaluated against natural corruptions (rain, fog, snow),
external disruptions (beam missing, motion blur), and internal sensor
failures (crosstalk, cross-sensor interference).  Each corruption here is
a pure function ``scan -> corrupted scan`` with a ``severity`` knob in
[0, 1], modelled on the physical mechanism:

* **snow/rain** — near-sensor spurious backscatter returns + attenuation
  dropout of true returns;
* **fog** — range-dependent dropout (extinction) + range noise inflation;
* **beam_missing** — entire elevation rows silently drop (blocked or
  failed emitters);
* **motion_blur** — azimuth jitter smearing points tangentially;
* **crosstalk** — a fraction of returns replaced by echoes at wrong
  ranges (inter-channel leakage inside the unit);
* **cross_sensor** — periodic ghost returns from another LiDAR's pulses.

RNG contract: every corruption requires an *explicit*
``numpy.random.Generator``.  The historical ``rng=None ->
default_rng(0)`` fallback silently handed every stage of a sweep the
same stream (and made "independent" scenarios correlated), so it now
fails loudly instead.  Severity handling is normalized in one place:
:func:`apply_corruption` / :func:`apply_corruption_stack` clip to
[0, 1], and severity 0.0 is a guaranteed *exact identity* — fresh
arrays, bit-equal values, zero RNG draws — for every corruption.

:func:`apply_corruption_stack` composes several corruptions in one call:
the stages run in order through the functions below, each on the
previous stage's output.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lidar import LidarScan

__all__ = ["CORRUPTIONS", "apply_corruption", "apply_corruption_stack",
           "normalize_stack", "corruption_names",
           "snow", "rain", "fog", "beam_missing", "motion_blur",
           "crosstalk", "cross_sensor"]


def _copy(scan: LidarScan, points, labels, beams, ranges) -> LidarScan:
    return LidarScan(points=points, labels=labels, beam_ids=beams,
                     fired_mask=scan.fired_mask.copy(), ranges=ranges,
                     config=scan.config)


def _identity(scan: LidarScan) -> LidarScan:
    """An exact copy: bit-equal arrays, no aliasing, no RNG draws."""
    return _copy(scan, scan.points.copy(), scan.labels.copy(),
                 scan.beam_ids.copy(), scan.ranges.copy())


def _require_rng(rng: Optional[np.random.Generator],
                 name: str) -> np.random.Generator:
    if rng is None:
        raise ValueError(
            f"corruption {name!r} requires an explicit rng "
            "(e.g. rng=np.random.default_rng(seed)); the old implicit "
            "default_rng(0) fallback gave every stage of a sweep the "
            "same stream and is no longer supported")
    return rng


def _drop(scan: LidarScan, keep: np.ndarray) -> tuple:
    return (scan.points[keep], scan.labels[keep], scan.beam_ids[keep],
            scan.ranges[keep])


def _add_spurious(scan_pts, scan_lbl, scan_beam, scan_rng, new_pts,
                  new_ranges, rng) -> tuple:
    n_new = new_pts.shape[0]
    lbl = np.full(n_new, -2, dtype=np.int64)  # -2 marks spurious returns
    beam = rng.integers(0, max(len(scan_beam), 1) + 1, size=n_new)
    pts = np.concatenate([scan_pts, new_pts]) if n_new else scan_pts
    return (pts,
            np.concatenate([scan_lbl, lbl]),
            np.concatenate([scan_beam, beam.astype(np.int64)]),
            np.concatenate([scan_rng, new_ranges]))


def snow(scan: LidarScan, severity: float = 0.5,
         rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Snowfall: dense near-range backscatter + dropout of true returns."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "snow")
    keep = rng.random(scan.num_points) > 0.35 * severity
    pts, lbl, beam, rngs = _drop(scan, keep)
    n_flakes = int(severity * max(scan.num_points, 40) * 0.8)
    r = rng.exponential(3.0, size=n_flakes) + 0.5
    az = rng.uniform(-np.pi, np.pi, size=n_flakes)
    el = rng.uniform(-0.3, 0.3, size=n_flakes)
    flakes = np.stack([r * np.cos(az) * np.cos(el),
                       r * np.sin(az) * np.cos(el),
                       r * np.sin(el) + scan.config.sensor_height_m,
                       rng.uniform(0.6, 1.0, size=n_flakes)], axis=1)
    pts, lbl, beam, rngs = _add_spurious(pts, lbl, beam, rngs, flakes, r, rng)
    return _copy(scan, pts, lbl, beam, rngs)


def rain(scan: LidarScan, severity: float = 0.5,
         rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Rain: lighter backscatter than snow, intensity attenuation."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "rain")
    keep = rng.random(scan.num_points) > 0.2 * severity
    pts, lbl, beam, rngs = _drop(scan, keep)
    pts = pts.copy()
    if pts.size:
        pts[:, 3] *= (1.0 - 0.5 * severity)
    n_drops = int(severity * max(scan.num_points, 40) * 0.3)
    r = rng.exponential(5.0, size=n_drops) + 0.5
    az = rng.uniform(-np.pi, np.pi, size=n_drops)
    drops = np.stack([r * np.cos(az), r * np.sin(az),
                      rng.uniform(0.0, 3.0, size=n_drops),
                      rng.uniform(0.2, 0.5, size=n_drops)], axis=1)
    pts, lbl, beam, rngs = _add_spurious(pts, lbl, beam, rngs, drops, r, rng)
    return _copy(scan, pts, lbl, beam, rngs)


def fog(scan: LidarScan, severity: float = 0.5,
        rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Fog: extinction — dropout probability grows with range."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "fog")
    if scan.num_points == 0:
        return _identity(scan)
    # Beer-Lambert extinction: survival = exp(-2 * sigma * R).
    sigma = 0.03 * severity
    survival = np.exp(-2.0 * sigma * scan.ranges)
    keep = rng.random(scan.num_points) < survival
    pts, lbl, beam, rngs = _drop(scan, keep)
    pts = pts.copy()
    if pts.size:
        noise = rng.normal(0.0, 0.1 * severity, size=(pts.shape[0], 3))
        pts[:, :3] += noise
        pts[:, 3] *= (1.0 - 0.4 * severity)
    return _copy(scan, pts, lbl, beam, rngs)


def beam_missing(scan: LidarScan, severity: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Whole elevation rows drop out (blocked/failed emitters)."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "beam_missing")
    n_el = scan.config.n_elevation
    n_dead = int(round(severity * n_el * 0.6))
    dead_rows = set(rng.choice(n_el, size=min(n_dead, n_el), replace=False).tolist())
    rows = scan.beam_ids % n_el
    keep = ~np.isin(rows, list(dead_rows))
    pts, lbl, beam, rngs = _drop(scan, keep)
    return _copy(scan, pts, lbl, beam, rngs)


def motion_blur(scan: LidarScan, severity: float = 0.5,
                rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Ego-motion smear: tangential displacement growing with range."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "motion_blur")
    pts = scan.points.copy()
    if pts.size:
        az = np.arctan2(pts[:, 1], pts[:, 0])
        jitter = rng.normal(0.0, 0.02 * severity, size=pts.shape[0])
        tangent = np.stack([-np.sin(az), np.cos(az)], axis=1)
        pts[:, :2] += tangent * (jitter * scan.ranges)[:, None]
    return _copy(scan, pts, scan.labels.copy(), scan.beam_ids.copy(),
                 scan.ranges.copy())


def crosstalk(scan: LidarScan, severity: float = 0.5,
              rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Inter-channel leakage: returns teleport to wrong ranges."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "crosstalk")
    pts = scan.points.copy()
    rngs = scan.ranges.copy()
    lbl = scan.labels.copy()
    if pts.size:
        n = pts.shape[0]
        hit = rng.random(n) < 0.5 * severity
        if hit.any():
            norm = np.linalg.norm(pts[hit, :3], axis=1)
            norm = np.where(norm < 1e-9, 1.0, norm)
            fake_r = rng.uniform(2.0, scan.config.max_range_m * 0.8,
                                 size=int(hit.sum()))
            pts[hit, :3] *= (fake_r / norm)[:, None]
            rngs[hit] = fake_r
            lbl[hit] = -2
    return _copy(scan, pts, lbl, scan.beam_ids.copy(), rngs)


def cross_sensor(scan: LidarScan, severity: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Interference from another LiDAR: periodic ghost-return arcs."""
    severity = float(severity)
    if severity <= 0.0:
        return _identity(scan)
    rng = _require_rng(rng, "cross_sensor")
    n_ghost = int(severity * 120)
    phase = rng.uniform(0, 2 * np.pi)
    az = phase + np.linspace(0, np.pi, max(n_ghost, 1))
    r = 8.0 + 4.0 * np.sin(6.0 * az) + rng.normal(0, 0.3, size=az.shape)
    r = np.clip(r, 1.0, None)
    ghosts = np.stack([r * np.cos(az), r * np.sin(az),
                       np.full_like(az, scan.config.sensor_height_m),
                       np.full_like(az, 0.9)], axis=1)
    pts, lbl, beam, rngs = _add_spurious(
        scan.points, scan.labels, scan.beam_ids, scan.ranges, ghosts, r, rng)
    return _copy(scan, pts, lbl, beam, rngs)


CORRUPTIONS: Dict[str, Callable] = {
    "snow": snow,
    "rain": rain,
    "fog": fog,
    "beam_missing": beam_missing,
    "motion_blur": motion_blur,
    "crosstalk": crosstalk,
    "cross_sensor": cross_sensor,
}


def corruption_names() -> List[str]:
    return list(CORRUPTIONS.keys())


def _clip_severity(severity: float) -> float:
    return float(np.clip(float(severity), 0.0, 1.0))


def apply_corruption(scan: LidarScan, name: str, severity: float = 0.5,
                     rng: Optional[np.random.Generator] = None) -> LidarScan:
    """Apply the named corruption at the given severity.

    Severity is clipped to [0, 1] here (the single normalization point);
    severity 0.0 short-circuits to an exact identity copy without
    touching (or requiring) ``rng``.  Unknown names raise ``ValueError``
    listing the valid choices; a missing ``rng`` raises ``ValueError``
    rather than falling back to a shared default generator.
    """
    if name not in CORRUPTIONS:
        raise ValueError(
            f"unknown corruption {name!r}; valid corruptions: "
            f"{', '.join(sorted(CORRUPTIONS))}")
    severity = _clip_severity(severity)
    if severity == 0.0:
        return _identity(scan)
    return CORRUPTIONS[name](scan, severity=severity,
                             rng=_require_rng(rng, name))


def normalize_stack(stack: Sequence) -> Tuple[Tuple[str, float], ...]:
    """Canonicalize a corruption stack to ``((name, severity), ...)``.

    Accepts ``(name, severity)`` pairs or objects with ``.name`` /
    ``.severity`` attributes (e.g. ``repro.scenario.CorruptionStage``).
    Names are validated (``ValueError`` listing valid choices) and
    severities clipped to [0, 1].  Severity-0 stages are *kept* — it is
    :func:`apply_corruption_stack` that filters them.
    """
    stages: List[Tuple[str, float]] = []
    for stage in stack:
        if hasattr(stage, "name") and hasattr(stage, "severity"):
            name, severity = stage.name, stage.severity
        else:
            name, severity = stage
        if name not in CORRUPTIONS:
            raise ValueError(
                f"unknown corruption {name!r} in stack; valid "
                f"corruptions: {', '.join(sorted(CORRUPTIONS))}")
        stages.append((str(name), _clip_severity(severity)))
    return tuple(stages)


def apply_corruption_stack(scan: LidarScan, stack: Sequence,
                           rngs: Optional[Sequence] = None,
                           seed: Optional[int] = None) -> LidarScan:
    """Compose a stack of corruptions, applied stage by stage in order.

    ``stack`` is a sequence of ``(name, severity)`` pairs (or stage
    objects, see :func:`normalize_stack`); ``rngs`` must supply one
    *private* generator per stage (aliased generators are rejected via
    :func:`repro.runtime.assert_private_rngs`).  Alternatively pass
    ``seed`` to derive the per-stage streams with
    :func:`repro.runtime.spawn_rngs`.  Severity-0 stages are skipped
    together with their generators (each is an exact identity, so
    skipping it is semantics-free); a stack with no live stage returns
    an exact copy.
    """
    from ..runtime.seeding import assert_private_rngs, spawn_rngs

    stages = normalize_stack(stack)
    if rngs is None:
        if seed is None:
            raise ValueError(
                "apply_corruption_stack needs per-stage rngs (one "
                "private Generator per stage) or a seed to derive them "
                "from; implicit shared defaults are not supported")
        rngs = spawn_rngs(seed, len(stages))
    rngs = list(rngs)
    if len(rngs) != len(stages):
        raise ValueError(
            f"stack has {len(stages)} stage(s) but {len(rngs)} rng(s) "
            "were supplied; pass exactly one private generator per stage")
    assert_private_rngs(rngs, owners=[name for name, _ in stages])
    live = [(stage, rng) for stage, rng in zip(stages, rngs)
            if stage[1] > 0.0]
    if not live:
        return _identity(scan)
    out = scan
    for (name, severity), rng in live:
        out = CORRUPTIONS[name](out, severity=severity,
                                rng=_require_rng(rng, name))
    return out
