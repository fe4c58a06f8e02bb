"""Tests for the ``repro.obs`` telemetry layer."""

import gc
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.energy import EnergyLedger
from repro.obs import (
    NOOP_REGISTRY,
    Histogram,
    MetricsRegistry,
    aggregate_spans,
    export_jsonl,
    get_registry,
    read_jsonl,
    registry_payload,
    render_metrics,
    render_report,
    render_span_tree,
    run_profile_scenario,
    trace_span,
    use_registry,
)


# ------------------------------------------------------------ instruments
def test_counter_monotone_and_named():
    reg = MetricsRegistry()
    c = reg.counter("x")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert reg.counter("x") is c
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_value_wins():
    reg = MetricsRegistry()
    g = reg.gauge("trust")
    g.set(0.25)
    g.set(0.75)
    assert g.value == 0.75


def test_histogram_exact_below_reservoir():
    h = Histogram("lat", reservoir_size=128)
    for v in range(101):
        h.observe(float(v))
    assert h.count == 101
    assert h.min == 0.0 and h.max == 100.0
    assert h.quantile(0.5) == pytest.approx(50.0)
    assert h.quantile(0.95) == pytest.approx(95.0)
    assert h.mean == pytest.approx(50.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=400))
def test_histogram_quantile_sanity(values):
    """Property: quantiles bounded by [min, max] and monotone in q."""
    h = Histogram("h", reservoir_size=64)
    for v in values:
        h.observe(v)
    lo, hi = min(values), max(values)
    q50, q95, q99 = h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
    for q in (q50, q95, q99):
        assert lo <= q <= hi
    assert q50 <= q95 <= q99
    assert h.quantile(0.0) >= lo
    assert h.quantile(1.0) <= hi
    assert h.count == len(values)


def test_histogram_reservoir_is_deterministic():
    def build():
        h = Histogram("h", reservoir_size=32)
        for v in range(1000):
            h.observe(float(v % 97))
        return h.quantiles()

    assert build() == build()


def test_worker_histogram_merge_keeps_exact_totals():
    # A busy worker overflows its 1,024-slot reservoir; the parent must
    # still see every observation in count/sum/min/max.
    values = [(i % 1000) * 1.1e-3 for i in range(100_000)]
    worker = MetricsRegistry()
    for v in values:
        worker.histogram("kernels.op_s").observe(v)
    parent = MetricsRegistry()
    parent.histogram("kernels.op_s").observe(5.0)
    for _ in range(2):  # two workers shipping the same delta
        parent.merge_worker_snapshot(worker.worker_snapshot())

    merged = parent.histogram("kernels.op_s")
    assert merged.count == 2 * len(values) + 1
    assert merged.total == pytest.approx(2 * sum(values) + 5.0)
    assert merged.min == 0.0
    assert merged.max == 5.0
    # Quantiles stay reservoir estimates of the merged stream.
    assert merged.quantile(0.5) == pytest.approx(np.median(values),
                                                 abs=0.05)


# ------------------------------------------------------------------ spans
def test_span_nesting_and_timing_monotonicity():
    reg = MetricsRegistry()
    with reg.trace_span("outer") as outer:
        with reg.trace_span("middle") as middle:
            with reg.trace_span("inner") as inner:
                sum(range(1000))
    assert reg.spans == [outer]
    assert outer.children == [middle]
    assert middle.children == [inner]
    # Children start after and end before their parents.
    assert outer.start_s <= middle.start_s <= inner.start_s
    assert inner.end_s <= middle.end_s <= outer.end_s
    assert inner.duration_s <= middle.duration_s <= outer.duration_s
    assert outer.duration_s > 0


def test_span_energy_deltas():
    reg = MetricsRegistry()
    ledger = EnergyLedger()
    with reg.trace_span("cycle", ledger=ledger):
        ledger.charge_sensing(5.0)
        with reg.trace_span("compute", ledger=ledger) as inner:
            ledger.charge_compute(2.0)
    cycle = reg.spans[0]
    assert cycle.energy_mj["sensing_mj"] == pytest.approx(5.0)
    assert cycle.energy_mj["total_mj"] == pytest.approx(7.0)
    assert inner.energy_mj["compute_mj"] == pytest.approx(2.0)
    assert inner.energy_mj["sensing_mj"] == pytest.approx(0.0)


def test_span_uses_duck_typed_snapshot_delta():
    """Spans consume any meter object exposing snapshot()/delta() — the
    same windowed-reading contract EnergyLedger and the control plane's
    EnergyWindow are built on."""

    class FakeMeters:
        def __init__(self):
            self.joules = 0.0

        def snapshot(self):
            return {"joules": self.joules}

        def delta(self, since):
            return {"joules": self.joules - since.get("joules", 0.0)}

    reg = MetricsRegistry()
    meters = FakeMeters()
    with reg.trace_span("work", ledger=meters):
        meters.joules += 4.0
    assert reg.spans[0].energy_mj == {"joules": pytest.approx(4.0)}


def test_span_attrs_and_annotate():
    reg = MetricsRegistry()
    with reg.trace_span("s", attrs={"phase": "train"}) as s:
        s.annotate(epoch=3)
    assert s.attrs == {"phase": "train", "epoch": 3}
    assert reg.spans[0].as_dict()["attrs"]["epoch"] == 3


def test_span_retention_cap_counts_drops():
    reg = MetricsRegistry(max_spans=5)
    for _ in range(9):
        with reg.trace_span("s"):
            pass
    assert len(reg.spans) == 5
    assert reg.tracer.dropped == 4


def test_span_survives_exceptions():
    reg = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with reg.trace_span("outer"):
            with reg.trace_span("inner"):
                raise RuntimeError("boom")
    assert [s.name for s in reg.spans] == ["outer"]
    assert [c.name for c in reg.spans[0].children] == ["inner"]
    # The stack fully unwound: a new span becomes a root.
    with reg.trace_span("after"):
        pass
    assert reg.spans[-1].name == "after"


# ------------------------------------------------------------ JSONL export
def test_jsonl_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("cycles").inc(3)
    reg.gauge("trust").set(0.5)
    h = reg.histogram("lat")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    with reg.trace_span("cycle"):
        with reg.trace_span("sense"):
            pass
    path = str(tmp_path / "obs.jsonl")
    n = export_jsonl(reg, path)
    records = read_jsonl(path)
    assert len(records) == n == 4
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    assert by_kind["counter"][0] == {"kind": "counter", "name": "cycles",
                                     "value": 3.0}
    assert by_kind["gauge"][0]["value"] == 0.5
    hist = by_kind["histogram"][0]
    assert hist["count"] == 3 and hist["p50"] == 2.0
    tree = by_kind["span"][0]["tree"]
    assert tree["name"] == "cycle"
    assert tree["children"][0]["name"] == "sense"
    # The JSON payload form carries the same data.
    payload = registry_payload(reg)
    assert payload["metrics"]["counters"]["cycles"] == 3.0
    assert payload["spans"][0]["name"] == "cycle"
    json.dumps(payload)  # fully serializable


def test_render_report_smoke():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    with reg.trace_span("root"):
        with reg.trace_span("leaf"):
            pass
    text = render_report(reg, title="t")
    assert "root" in text and "leaf" in text and "histograms" in text
    assert "t" in text
    assert render_span_tree([]) == "(no spans recorded)"
    assert "c" in render_metrics(reg)


def test_aggregate_spans_merges_siblings():
    reg = MetricsRegistry()
    for _ in range(4):
        with reg.trace_span("cycle"):
            with reg.trace_span("sense"):
                pass
    aggs = aggregate_spans(reg.spans)
    assert len(aggs) == 1
    assert aggs[0].count == 4
    assert aggs[0].children["sense"].count == 4
    assert aggs[0].children["sense"].total_s <= aggs[0].total_s


# ----------------------------------------------------------- no-op path
def test_disabled_is_default_and_noop():
    reg = get_registry()
    assert reg is NOOP_REGISTRY
    assert not reg.enabled
    reg.counter("x").inc(5)
    assert reg.counter("x").value == 0.0
    reg.histogram("h").observe(1.0)
    assert reg.histogram("h").quantile(0.5) == 0.0
    with trace_span("s") as s:
        pass
    assert s.duration_s == 0.0
    assert reg.spans == []


@pytest.mark.skipif(not hasattr(sys, "getallocatedblocks"),
                    reason="needs CPython block accounting")
def test_noop_path_zero_allocations_per_cycle():
    """The disabled instrumentation must not allocate in steady state."""
    reg = NOOP_REGISTRY
    counter = reg.counter("loop.cycles")
    hist = reg.histogram("loop.cycle_wall_s")

    def cycle():
        with reg.trace_span("loop.cycle"):
            with reg.trace_span("loop.sense"):
                counter.inc()
            hist.observe(0.5)

    for _ in range(512):  # warm up caches, bytecode, freelists
        cycle()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(4096):
        cycle()
    gc.collect()
    after = sys.getallocatedblocks()
    # Allow a few blocks of interpreter noise; the per-cycle cost must
    # be indistinguishable from zero.
    assert (after - before) / 4096 < 0.01


# ---------------------------------------------------- use_registry/scenario
def test_use_registry_restores_previous():
    outer = get_registry()
    reg = MetricsRegistry()
    with use_registry(reg):
        assert get_registry() is reg
        reg.counter("c").inc()
    assert get_registry() is outer
    assert reg.counter("c").value == 1.0


def test_profile_scenario_covers_all_five_stages():
    reg = MetricsRegistry()
    with use_registry(reg):
        metrics = run_profile_scenario(cycles=40, seed=1)
    names = set()

    def walk(span):
        names.add(span.name)
        for child in span.children:
            walk(child)

    for root in reg.spans:
        walk(root)
    assert {"loop.cycle", "loop.sense", "loop.perceive", "loop.monitor",
            "loop.act", "loop.actuate"} <= names
    # Energy deltas reached the per-stage spans.
    sense = reg.spans[0].children[0]
    assert sense.name == "loop.sense"
    assert sense.energy_mj["sensing_mj"] > 0
    # Cycle-latency quantiles are reported.
    q = reg.histogram("loop.cycle_latency_s").quantiles()
    assert q["p50"] > 0 and q["p50"] <= q["p95"] <= q["p99"]
    assert metrics.cycles == 40
    assert metrics.latency_quantiles()["p95"] == pytest.approx(0.01)


def test_loop_metrics_histogram_views():
    from repro.core import LoopMetrics
    m = LoopMetrics()
    assert m.mean_latency_s == 0.0
    assert m.max_staleness_s == 0.0
    m.latency.observe(0.01)
    m.latency.observe(0.03)
    m.staleness.observe(0.02)
    m.cycles = 2
    assert m.total_latency_s == pytest.approx(0.04)
    assert m.mean_latency_s == pytest.approx(0.02)
    assert m.max_staleness_s == pytest.approx(0.02)


def test_starnet_monitor_emits_metrics():
    from repro.core.components import Percept
    from repro.starnet import STARNet

    rng = np.random.default_rng(0)
    net = STARNet(feature_dim=6, spsa_steps=5, rng=rng)
    net.fit(rng.standard_normal((24, 6)), epochs=2)
    reg = MetricsRegistry()
    with use_registry(reg):
        net.assess(Percept(features=rng.standard_normal(6)))
    snap = reg.snapshot()
    assert snap["counters"]["starnet.assessments"] == 1.0
    assert snap["counters"]["starnet.spsa_iterations"] == 5.0
    assert snap["histograms"]["starnet.trust"]["count"] == 1
    assert [s.name for s in reg.spans] == ["starnet.assess"]


def test_snn_spike_counters_feed_energy_model():
    from repro.neuromorphic import SpikingConv2d, registry_snn_energy_pj
    from repro.neuromorphic.energy import E_AC_PJ

    reg = MetricsRegistry()
    layer = SpikingConv2d(1, 2, kernel=3,
                          rng=np.random.default_rng(0))
    x = (np.random.default_rng(1).random((3, 1, 1, 6, 6)) > 0.5
         ).astype(np.float64)
    with use_registry(reg):
        out = layer.forward(x)
    spikes = reg.counter("snn.spikes").value
    assert spikes == pytest.approx(float(out.sum()))
    assert reg.counter("snn.neuron_steps").value == out.size
    assert registry_snn_energy_pj(reg, fanout_macs=10.0) == pytest.approx(
        spikes * 10.0 * E_AC_PJ)


def test_federated_round_reports_comm_bytes():
    from repro.federated import FLClient, FLServer, make_fleet
    from repro.sim import make_synthetic_cifar, shard_dirichlet

    ds = make_synthetic_cifar(n_per_class=8, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, 2, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(2, rng=np.random.default_rng(3))
    clients = [FLClient(i, s, p, rng=np.random.default_rng(10 + i))
               for i, (s, p) in enumerate(zip(shards, fleet))]
    reg = MetricsRegistry()
    with use_registry(reg):
        server = FLServer(clients, test, hidden=8, mode="fedavg",
                          rng=np.random.default_rng(4))
        summary = server.run_round()
    assert summary.comm_bytes > 0
    assert summary.wall_s > 0
    assert server.totals()["comm_bytes"] == pytest.approx(
        summary.comm_bytes)
    snap = reg.snapshot()
    assert snap["counters"]["federated.comm_bytes"] == pytest.approx(
        summary.comm_bytes)
    assert snap["histograms"]["federated.round_wall_s"]["count"] == 1
    assert snap["counters"]["federated.client_macs"] > 0
    assert [s.name for s in reg.spans] == ["federated.round"]


# ------------------------------------------------------------------- CLI
def test_cli_profile_demo_writes_artifacts(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "trace.json")
    jsonl = str(tmp_path / "trace.jsonl")
    assert main(["profile", "demo", "--cycles", "20",
                 "--out", out, "--jsonl", jsonl]) == 0
    text = capsys.readouterr().out
    assert "loop.sense" in text and "p95" in text
    payload = json.loads(open(out).read())
    assert payload["target"] == "demo"
    stages = {c["name"] for s in payload["spans"]
              for c in s.get("children", [])}
    assert {"loop.sense", "loop.perceive", "loop.monitor", "loop.act",
            "loop.actuate"} <= stages
    assert payload["metrics"]["histograms"]["loop.cycle_latency_s"][
        "count"] == 20
    assert any(r["kind"] == "span" for r in read_jsonl(jsonl))


def test_cli_profile_unknown_target_fails(capsys):
    from repro.cli import main

    assert main(["profile", "definitely-not-a-target"]) == 2
    assert "unknown profile target" in capsys.readouterr().err
