#!/usr/bin/env python
"""CI benchmark gate: re-run the gated benches and diff *shape-level*
claims against the committed ``benchmarks/results/*.json`` baselines.

Absolute numbers from the simulated substrates may drift with numpy or
seed changes; what must not drift silently is the paper's qualitative
shape — who wins, by roughly what factor, where the ordering falls.
Every gated bench declares its claims once, as ``CLAIMS`` in its
``bench_*.py`` module (see :mod:`repro.runtime.bench`); this gate walks
the registry's gated entries in order — loads the baseline named by the
module's ``BASELINE``, runs the bench at full size (``run_gate`` where
the module declares one: the scenario sweep re-proves its deterministic
claims live on a reduced grid and trusts the committed 10^4-scenario
JSON for scale) and evaluates every claim against the baseline:

* ``fig1_loop_adaptation`` — adaptive loop saves energy at matched
  recall; event-driven compute beats clocked by >10x;
* ``starnet_auc``          — every corruption family stays detectable;
* ``fig5a_model_macs``     — the analytic MAC ordering is bit-exact;
* ``kernel_hotpaths``      — the vectorized kernel backend stays a
  clear wall-clock win over the reference one and numerically
  equivalent to it;
* ``serving_throughput``   — micro-batched serving stays equivalent to
  serial per-request inference;
* ``fleet_scaling``        — the sharded serving fleet answers every
  request with the single-process trust value and sheds nothing below
  saturation;
* ``control_adaptation``   — the adaptive control plane matches the
  best static config's accuracy at no more than its energy, and the
  payload is bit-identical to the committed baseline;
* ``federated_async``      — async aggregation over the 10^3-client
  fleet reaches lockstep accuracy in >=2x less simulated fleet time,
  byte-identically under 1/2/4 pooled workers;
* ``scenario_sweep``       — byte-identical payloads at 1/2/4 workers,
  warm-cache re-sweep >= 10x cold, incremental extensions executing
  only novel scenarios.

Checks come in two severities.  **Blocking** checks guard shape-level
claims (who wins, orderings, detectability floors) and fail the gate.
**Warning** checks guard numeric and wall-clock drift against the stored
baseline (ratios, AUC deltas, speedup multiples); they are reported but
do not fail CI, because those numbers legitimately move with the host,
numpy or seeds.

Exit status: 0 = no blocking regression (warnings allowed),
1 = blocking regression, 2 = harness error.
Run from anywhere: ``python benchmarks/check_regressions.py``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.runtime.bench import (GATED_BENCHES, format_outcome,  # noqa: E402
                                 load_bench)


def run_gate(name: str):
    """Run one gated bench and pair each claim with its outcome."""
    module = load_bench(name)
    with open(os.path.join(RESULTS_DIR, f"{module.BASELINE}.json")) as f:
        base = json.load(f)
    now = getattr(module, "run_gate", module.run)()
    return [(claim, claim.check(now, base)) for claim in module.CLAIMS]


def main() -> int:
    print("benchmark regression gate "
          "(shape-level diffs vs benchmarks/results/)")
    failures, warnings = [], []
    summary = []  # (gate, checks, blocking fails, warnings, error?)
    for name in GATED_BENCHES:
        print(f"{name}:")
        try:
            outcomes = run_gate(name)
        except Exception as exc:  # harness failure, not a regression
            print(f"ERROR running {name}: {exc!r}")
            summary.append((name, 0, 0, 0, True))
            _print_summary(summary)
            return 2
        fails = warns = checks = 0
        for claim, outcome in outcomes:
            print(format_outcome(claim, outcome))
            if outcome is None:
                continue
            checks += 1
            ok, detail = outcome
            if not ok:
                (failures if claim.blocking else warnings).append(
                    f"{claim.name}: {detail}")
                fails += claim.blocking
                warns += not claim.blocking
        summary.append((name, checks, fails, warns, False))
    checked = sum(n for _, n, *_ in summary)
    print(f"\n{checked} checks, {len(failures)} blocking regressions, "
          f"{len(warnings)} warnings")
    for w in warnings:
        print(f"  warning (non-blocking): {w}")
    for f in failures:
        print(f"  regression (blocking): {f}")
    _print_summary(summary)
    return 1 if failures else 0


def _print_summary(summary) -> None:
    """One line per gate so a CI log scan answers 'what failed?'."""
    width = max(len(gate) for gate, *_ in summary)
    print("\ngate summary:")
    for gate, n, fails, warns, errored in summary:
        if errored:
            status = "ERROR"
        elif fails:
            status = f"FAIL ({fails} blocking)"
        else:
            status = "PASS" + (f" ({warns} warnings)" if warns else "")
        print(f"  {gate.ljust(width)}  {n:3d} checks  {status}")


if __name__ == "__main__":
    raise SystemExit(main())
