"""Control-adaptation benchmark — adaptive policy vs static configs.

Thin wrapper around :func:`repro.control.driver.run_control_adaptation`:
a corruption x load sweep of the same analytic sensing-to-action
workload under four static operating points and under the declarative
:class:`repro.control.Controller`.  The committed JSON witnesses the
control plane's claim — the adaptive policy matches the best static
config's accuracy at strictly lower energy and Pareto-dominates every
individual static config — and ``check_regressions.py`` gates on it.

The sweep is fully analytic (no RNG, no clock reads), so unlike the
timing benches the payload is bit-reproducible on any host; there are
no wall-clock fields to jitter.
"""

import json

from repro.control.driver import run_control_adaptation
from repro.runtime.bench import Claim, needs_base

from bench_utils import print_table, save_result

BASELINE = "bench_control_adaptation"


def run(smoke: bool = False) -> dict:
    return run_control_adaptation(smoke=smoke)


def _print_frontier_table(result: dict) -> None:
    rows = []
    for point in result["points"]:
        for name, r in point["configs"].items():
            rows.append([
                f"{point['severity']:.2f}", f"{point['load_rps']:.0f}",
                name, f"{r['accuracy']:.3f}",
                f"{r['energy_per_cycle_mj']:.3f}",
                str(len(r.get("decisions", []))) if name == "adaptive"
                else "-"])
    print_table(
        "Control adaptation — energy/accuracy frontier per sweep point "
        "(adaptive vs static; post-warmup cycles)",
        ["Severity", "Load rps", "Config", "Accuracy", "mJ/cycle",
         "Decisions"],
        rows)

    agg = result["aggregate"]
    print_table(
        "Aggregate over the sweep (accuracy mean, energy total)",
        ["Config", "Accuracy", "Energy mJ", "Dominated by adaptive"],
        [[name, f"{a['accuracy']:.4f}", f"{a['energy_mj']:.2f}",
          ("yes" if name in result["statics_dominated"]
           else "-" if name == "adaptive" else "no")]
         for name, a in agg.items()])


def test_control_adaptation(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _print_frontier_table(result)
    save_result(BASELINE, result)

    # The blocking claims the committed JSON must keep witnessing.
    assert result["adaptive_matches_best_accuracy"], result["aggregate"]
    assert result["adaptive_energy_leq_best_static"], result["aggregate"]
    assert result["n_statics_dominated"] == result["n_statics"], \
        result["statics_dominated"]
    # The policy actually reconfigured — the win is not a vacuous tie.
    assert result["adaptive_decisions"] > 0


# ------------------------------------------------------------ gate claims
def _matches_accuracy(now, base):
    agg, best = now["aggregate"], now["best_static"]
    return (now["adaptive_matches_best_accuracy"],
            f"adaptive {agg['adaptive']['accuracy']:.4f} vs {best} "
            f"{agg[best]['accuracy']:.4f}")


def _energy_leq(now, base):
    agg, best = now["aggregate"], now["best_static"]
    return (now["adaptive_energy_leq_best_static"],
            f"adaptive {agg['adaptive']['energy_mj']:.1f} mJ vs {best} "
            f"{agg[best]['energy_mj']:.1f} mJ")


CLAIMS = [
    # Adaptation never costs accuracy ...
    Claim("adaptive-matches-best-accuracy", True, _matches_accuracy),
    # ... and that accuracy comes at no more than the best static's energy.
    Claim("adaptive-energy-leq-best-static", True, _energy_leq),
    # The win is not a vacuous tie: the policy actually fired.
    Claim("policy-reconfigured", True, lambda now, base: (
        now["adaptive_decisions"] > 0,
        f"{now['adaptive_decisions']} decisions over "
        f"{now['adaptive_steps']} controller steps")),
    # Analytic, no RNG, no clock reads: regeneration is bit-identical to
    # the committed baseline, so any diff is a semantics change.
    Claim("bit-identical-to-baseline", True, needs_base(lambda now, base: (
        json.dumps(now, sort_keys=True) == json.dumps(base, sort_keys=True),
        "payload matches committed baseline byte-for-byte"))),
    # A partial-dominance tradeoff should be visible, not a CI failure.
    Claim("dominates-every-static", False, lambda now, base: (
        now["n_statics_dominated"] == now["n_statics"],
        f"{now['n_statics_dominated']}/{now['n_statics']} statics "
        f"dominated ({', '.join(now['statics_dominated']) or 'none'})")),
]
