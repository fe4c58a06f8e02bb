"""The bench registry: ``repro bench`` exit codes and the gated claims.

Each gated benchmark declares ``run``, ``CLAIMS`` and ``BASELINE`` once
in its ``benchmarks/bench_*.py`` module; ``repro bench`` and
``benchmarks/check_regressions.py`` both evaluate those claims.  These
tests drive the CLI in-process against fake registered benches, and pin
the gate's check names and severities against the committed baselines
without running any bench.
"""

import json
import os

import pytest

from repro.cli import main
from repro.runtime import bench as registry
from repro.runtime.bench import GATED_BENCHES, Bench, load_bench, run_suite

FAKE_BENCH = '''
from repro.runtime.bench import Claim, needs_base

def run(smoke=False):
    return {{"blocking_ok": {blocking_ok}, "warning_ok": {warning_ok},
            "smoke": smoke}}

CLAIMS = [
    Claim("blocking-claim", True,
          lambda now, base: (now["blocking_ok"], "blocking")),
    Claim("warning-claim", False,
          lambda now, base: (now["warning_ok"], "warning")),
    Claim("needs-baseline", True,
          needs_base(lambda now, base: (False, "never evaluated"))),
]
'''


@pytest.fixture
def fake_benches(tmp_path, monkeypatch):
    for stem, blocking_ok, warning_ok in (("pass", True, True),
                                          ("warn", True, False),
                                          ("block", False, True)):
        (tmp_path / f"bench_fake_{stem}.py").write_text(FAKE_BENCH.format(
            blocking_ok=blocking_ok, warning_ok=warning_ok))
    benches = dict(registry.BENCHES)
    benches.update({
        "fake_pass": Bench("bench_fake_pass", gated=True, smoke=True),
        "fake_warn": Bench("bench_fake_warn", gated=True, smoke=True),
        "fake_block": Bench("bench_fake_block", gated=True, smoke=True),
        "fake_nosmoke": Bench("bench_fake_pass", gated=True),
    })
    monkeypatch.setattr(registry, "BENCHES", benches)
    monkeypatch.setattr(registry, "benchmarks_dir", lambda: str(tmp_path))
    return tmp_path


def test_bench_exits_0_when_all_claims_pass(fake_benches, capsys):
    assert main(["bench", "fake_pass", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ] blocking-claim: blocking" in out
    assert "[ok  ] warning-claim: warning" in out
    # Without a baseline, a baseline claim does not apply.
    assert "[n/a ] needs-baseline: does not apply" in out


def test_bench_exits_0_when_only_a_warning_fails(fake_benches, capsys):
    assert main(["bench", "fake_warn", "--workers", "1"]) == 0
    assert "[warn] warning-claim" in capsys.readouterr().out


def test_bench_exits_1_when_a_blocking_claim_fails(fake_benches, capsys):
    assert main(["bench", "fake_pass", "fake_block", "--workers", "1"]) == 1
    assert "[FAIL] blocking-claim" in capsys.readouterr().out


def test_bench_exits_2_on_unknown_name(fake_benches):
    assert main(["bench", "fake_pass", "not_a_bench"]) == 2


def test_bench_exits_2_on_smoke_without_variant(fake_benches):
    assert main(["bench", "fake_nosmoke", "--smoke"]) == 2


def test_bench_smoke_reaches_run_and_out(fake_benches, tmp_path):
    out = tmp_path / "bench.json"
    assert main(["bench", "fake_pass", "--smoke", "--workers", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["fake_pass"]["smoke"] is True
    assert payload["meta"]["smoke"] is True


def test_bench_cli_surface(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    help_text = capsys.readouterr().out
    for option in ("--smoke", "--workers", "--out"):
        assert option in help_text
    for gone in ("--micro", "--help-names", "--json", "--replicas"):
        assert gone not in help_text
    for command in ("serve-bench", "fleet-bench", "compile-bench",
                    "control-bench", "fed-bench", "scenario-bench"):
        with pytest.raises(SystemExit):
            main([command])


def test_run_suite_meta_carries_provenance_outside_results():
    payload = run_suite(["fig5a_model_macs"], workers=1)
    meta = payload["meta"]
    for key in ("git_sha", "python", "numpy", "kernel_backend",
                "host_cpus"):
        assert key in meta
    assert "compile_mode" not in meta
    assert set(payload["results"]) == {"fig5a_model_macs"}
    assert "git_sha" not in payload["results"]["fig5a_model_macs"]


# The regression gate's checks, in gate order; "~" marks a warning.
GATE_CHECKS = {
    "fig1_loop_adaptation": [
        "adaptive-wins-energy", "~energy-ratio-stable", "recall-held",
        "event-driven-wins"],
    "starnet_auc": ["same-corruption-families"] + [
        name for family in ("beam_missing", "cross_sensor", "crosstalk",
                            "fog", "motion_blur", "rain", "snow")
        for name in (f"auc-floor-{family}", f"~auc-drift-{family}")],
    "fig5a_model_macs": [
        "mac-ordering", "spectral-wins", "analytic-macs-exact"],
    "kernel_hotpaths": ["same-kernel-set", "vectorized-wins"] + [
        name for kernel in ("bev_match", "likelihood_regret", "snn_bptt",
                            "sparse_conv3d")
        for name in (f"equivalent-{kernel}", f"~no-slowdown-{kernel}")],
    "serving_throughput": [
        "batched-serial-equivalent", "no-shedding", "p95-within-max-wait",
        "~throughput-multiple"],
    "fleet_scaling": [
        "fleet-serial-equivalent", "zero-sheds-below-saturation",
        "~overload-sheds-engage", "~throughput-multiple"],
    "control_adaptation": [
        "adaptive-matches-best-accuracy", "adaptive-energy-leq-best-static",
        "policy-reconfigured", "bit-identical-to-baseline",
        "~dominates-every-static"],
    "federated_async": [
        "fleet-scale", "async-reaches-lockstep-accuracy",
        "simulated-speedup", "identical-across-workers",
        "~accuracy-vs-baseline", "~sharding-wall-speedup"],
    "scenario_sweep": [
        "sweep-scale", "baseline-identical-across-workers",
        "baseline-warm-speedup-ok", "baseline-incremental-only-novel",
        "identical-across-workers", "warm-cache-speedup",
        "incremental-only-novel", "~pool-scaling"],
}


def _committed_baseline(name):
    module = load_bench(name)
    path = os.path.join(registry.benchmarks_dir(), "results",
                        f"{module.BASELINE}.json")
    with open(path) as f:
        return module, json.load(f)


def test_gated_claims_match_the_gate_on_committed_baselines():
    assert GATED_BENCHES == tuple(GATE_CHECKS)
    emitted = {}
    for name in GATED_BENCHES:
        module, base = _committed_baseline(name)
        outcomes = [(claim, claim.check(base, base))
                    for claim in module.CLAIMS]
        emitted[name] = [("" if claim.blocking else "~") + claim.name
                         for claim, _ in outcomes]
        for claim, outcome in outcomes:
            assert outcome is not None, (name, claim.name)
            # Committed baselines still pass every blocking claim.
            assert outcome[0] or not claim.blocking, (name, outcome)
    assert emitted == GATE_CHECKS
    flat = [c for checks in emitted.values() for c in checks]
    assert len(flat) == 59
    assert sum(not c.startswith("~") for c in flat) == 40


@pytest.mark.parametrize("name, claim_name", [
    ("fleet_scaling", "throughput-multiple"),
    ("federated_async", "sharding-wall-speedup"),
])
def test_scale_claims_do_not_apply_to_smoke_payloads(name, claim_name):
    # The targets are set for the full-size replica/worker counts; a
    # smoke run has fewer, so comparing it with them says nothing.
    module, base = _committed_baseline(name)
    (claim,) = [c for c in module.CLAIMS if c.name == claim_name]
    assert claim.check(base, base) is not None
    assert claim.check({**base, "smoke": True}, base) is None


def test_median_wall_s_reports_median_and_iqr():
    load_bench("kernel_hotpaths")  # puts benchmarks/ on sys.path
    from bench_utils import median_wall_s

    calls = []
    median, iqr = median_wall_s(lambda: calls.append(1), reps=5)
    assert len(calls) == 5
    assert median >= 0.0 and iqr >= 0.0
