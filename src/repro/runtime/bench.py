"""Benchmark registry: every benchmark declared once, driven from one place.

Each :data:`BENCHES` entry names a module under ``benchmarks/`` whose
entry point is a pure, explicitly seeded function returning a plain
dict.  The nine *gated* benches additionally declare, in that module:

* ``run(smoke=False)`` — the entry point (``smoke=True`` selects the
  seconds-scale CI variant where the entry says it has one);
* ``CLAIMS`` — the shape claims the paper's evaluation stands on, as
  :class:`Claim` objects;
* ``BASELINE`` — the stem of the committed ``benchmarks/results/`` JSON
  the pytest-benchmark wrapper writes and the regression gate diffs.

``repro bench NAME...`` runs entries through :func:`run_suite` under a
:class:`~repro.runtime.pool.WorkerPool` and evaluates their claims
without a baseline; ``benchmarks/check_regressions.py`` runs the gated
entries and evaluates the same claims against the committed baselines.
Results are **bit-identical for any worker count** because each bench
seeds itself explicitly; only the wall-clock metadata varies.

The default set covers the fast shape-level benches; heavier paper
artifacts (Table I, Fig. 7, Fig. 9) and the timing-valued or
process-spawning benches (kernels, serving, fleet, control, federated,
scenario) are opt-in by name.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .pool import WorkerPool

__all__ = ["Bench", "BENCHES", "Claim", "DEFAULT_BENCHES", "GATED_BENCHES",
           "format_outcome", "load_bench", "needs_base", "run_bench",
           "run_suite"]

#: ``(ok, detail)``, or ``None`` when the claim does not apply.
Outcome = Optional[Tuple[bool, str]]


@dataclass(frozen=True)
class Claim:
    """One named shape claim.

    ``check(now, base)`` receives the fresh payload and the committed
    baseline (``None`` outside the regression gate) and returns
    ``(ok, detail)``, or ``None`` when the claim does not apply: it
    needs a baseline and there is none, or it is a scale claim on a
    smoke run.  A failed blocking claim fails the run; a failed
    non-blocking claim is reported as a warning.
    """

    name: str
    blocking: bool
    check: Callable[[dict, Optional[dict]], Outcome]


def needs_base(check: Callable[[dict, dict], Tuple[bool, str]]
               ) -> Callable[[dict, Optional[dict]], Outcome]:
    """Wrap a check that compares against the baseline: without one it
    does not apply."""
    return lambda now, base: None if base is None else check(now, base)


@dataclass(frozen=True)
class Bench:
    """One registry entry: where the bench lives and how it is run."""

    module: str              # file stem under benchmarks/
    func: str = "run"        # entry point in that module
    default: bool = False    # in the fast set run when no names are given
    gated: bool = False      # declares CLAIMS + BASELINE for the gate
    smoke: bool = False      # run(smoke=True) is a seconds-scale variant


# Registry order is run order; the gated entries appear in gate order.
BENCHES: Dict[str, Bench] = {
    "fig1_loop_adaptation": Bench("bench_fig1_loop_adaptation",
                                  default=True, gated=True),
    "fig2_imc": Bench("bench_fig2_imc", "run_imc", default=True),
    "starnet_auc": Bench("bench_starnet_auc", default=True, gated=True),
    "fig5a_model_macs": Bench("bench_fig5a_model_macs", default=True,
                              gated=True),
    "fig5b_disturbance": Bench("bench_fig5b_disturbance", "run_fig5b"),
    "fig11_federated": Bench("bench_fig11_federated", "run_fig11",
                             default=True),
    "table2_lidar_energy": Bench("bench_table2_lidar_energy", "run_table2"),
    "codesign": Bench("bench_codesign", "run_codesign", default=True),
    "speculative_decoding": Bench("bench_speculative_decoding",
                                  "run_speculative", default=True),
    "multiagent_energy": Bench("bench_claim_multiagent_energy", "run_swarm",
                               default=True),
    "sensing_fraction": Bench("bench_claim_sensing_fraction", "run_sweep"),
    "lora_adaptation": Bench("bench_lora_adaptation", "run_lora"),
    "ablation_halo_precision": Bench("bench_ablation_halo_precision",
                                     "run_ablation"),
    "ablation_koopman_spectrum": Bench("bench_ablation_koopman_spectrum",
                                       "run_ablation"),
    "ablation_snn_dynamics": Bench("bench_ablation_snn_dynamics",
                                   "run_ablation"),
    "ablation_starnet_scores": Bench("bench_ablation_starnet_scores",
                                     "run_ablation"),
    "table1_detection_ap": Bench("bench_table1_detection_ap", "run_table1"),
    "fig7_starnet_recovery": Bench("bench_fig7_starnet_recovery",
                                   "run_fig7"),
    "fig9_optical_flow": Bench("bench_fig9_optical_flow", "run_fig9"),
    "ablation_masking": Bench("bench_ablation_masking", "run_ablation"),
    # Timing-valued and/or process-spawning: kept out of the default
    # set, so the cross-worker bit-identity promise above is not theirs
    # and they never run nested inside a pool worker unasked.
    "kernel_hotpaths": Bench("bench_kernel_hotpaths", gated=True),
    "serving_throughput": Bench("bench_serving_throughput", gated=True,
                                smoke=True),
    "fleet_scaling": Bench("bench_fleet_scaling", gated=True, smoke=True),
    "control_adaptation": Bench("bench_control_adaptation", gated=True,
                                smoke=True),
    "federated_async": Bench("bench_federated_async", gated=True,
                             smoke=True),
    "scenario_sweep": Bench("bench_scenario_sweep", gated=True, smoke=True),
}

DEFAULT_BENCHES: Tuple[str, ...] = tuple(
    n for n, b in BENCHES.items() if b.default)
GATED_BENCHES: Tuple[str, ...] = tuple(
    n for n, b in BENCHES.items() if b.gated)


def benchmarks_dir() -> str:
    """The repo's ``benchmarks/`` directory (sibling of ``src``)."""
    src_parent = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(src_parent, "benchmarks")


def _check_known(names: Iterable[str]) -> None:
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown benches: {', '.join(unknown)}; choose "
                       f"from {', '.join(sorted(BENCHES))}")


def load_bench(name: str):
    """Import the module behind a registered bench (fresh each call)."""
    _check_known([name])
    module_name = BENCHES[name].module
    bench_dir = benchmarks_dir()
    path = os.path.join(bench_dir, f"{module_name}.py")
    if not os.path.exists(path):
        raise FileNotFoundError(f"bench module not found: {path}")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)  # benches import bench_utils
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(name: str, smoke: bool = False) -> Tuple[str, dict, float]:
    """Execute one registered bench; returns ``(name, result, wall_s)``.

    Module-level and argument-pure so it can cross a process boundary.
    """
    fn = getattr(load_bench(name), BENCHES[name].func)
    t0 = time.perf_counter()
    result = fn(smoke=True) if smoke else fn()
    return name, result, time.perf_counter() - t0


def _run_task(task: Tuple[str, bool]) -> Tuple[str, dict, float]:
    return run_bench(*task)


def format_outcome(claim: Claim, outcome: Outcome) -> str:
    """One report line, in the regression gate's format."""
    if outcome is None:
        return f"  [n/a ] {claim.name}: does not apply"
    ok, detail = outcome
    status = "ok  " if ok else ("FAIL" if claim.blocking else "warn")
    return f"  [{status}] {claim.name}: {detail}"


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=os.path.dirname(benchmarks_dir()),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance() -> dict:
    """What produced a run: code version, toolchain and backends."""
    import numpy

    from ..kernels import active_backend
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": active_backend(),
        "host_cpus": os.cpu_count(),
    }


def run_suite(names: Optional[Iterable[str]] = None,
              workers: Optional[int] = None, smoke: bool = False) -> dict:
    """Run benches (default: the fast subset) under a worker pool.

    Returns ``{"results": {...}, "meta": {...}}`` where ``results`` is
    deterministic (identical for any worker count) and ``meta`` carries
    the timing and provenance facts of *this* run.  Raises
    :class:`KeyError` on an unknown name and :class:`ValueError` on
    ``smoke`` for a bench without a smoke variant.
    """
    selected: List[str] = list(names) if names else list(DEFAULT_BENCHES)
    _check_known(selected)
    if smoke:
        no_smoke = [n for n in selected if not BENCHES[n].smoke]
        if no_smoke:
            raise ValueError(f"no smoke variant: {', '.join(no_smoke)}")
    t0 = time.perf_counter()
    with WorkerPool(workers) as pool:
        outs = pool.map(_run_task, [(n, smoke) for n in selected],
                        label="bench")
    wall_s = time.perf_counter() - t0
    return {
        "results": {name: result for name, result, _ in outs},
        "meta": {
            "workers": pool.workers,
            "smoke": smoke,
            **_provenance(),
            "wall_s": round(wall_s, 3),
            "bench_wall_s": {name: round(w, 3) for name, _, w in outs},
        },
    }
