"""Kernel hot-path micro-benchmarks — reference vs vectorized wall clock.

Times each ``repro.kernels`` pair (sparse 3-D conv, SNN surrogate-BPTT,
likelihood regret, BEV matching) on scenario-sized seeded inputs under
both backends, and records the speedup alongside the numerical gap
between them.  The committed JSON is the before/after evidence for the
vectorization PR; ``check_regressions.py`` re-runs this bench and gates
on the speedups holding and the backends staying equivalent.

The reference backend *is* the pre-vectorization implementation (moved
verbatim into ``repro.kernels``), so ``reference_s`` here is a faithful
"before" measurement, not a reconstruction.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.detect.ap import Detection
from repro.kernels import BACKENDS, get_kernel, kernel_backend
from repro.neuromorphic.snn import SpikingConv2d
from repro.nn.sparse3d import (SparseConv3d, SparseGrad, SparseReLU,
                               SparseSequential, SparseVoxelTensor)
from repro.nn.vae import VAE
from repro.runtime.bench import Claim, needs_base

from bench_utils import median_wall_s, print_table, save_result

BASELINE = "bench_kernel_hotpaths"
KERNELS = ("bev_match", "likelihood_regret", "snn_bptt", "sparse_conv3d")

# Median-of-REPS wall times; first rep warms per-tensor index caches,
# which is the steady-state the pipelines actually run in.
REPS = 5


# ------------------------------------------------------- workload builders
def _sparse_conv_setup() -> Tuple[SparseSequential, SparseVoxelTensor]:
    """Two-layer submanifold conv stack on a scenario-sized BEV grid."""
    rng = np.random.default_rng(7)
    grid = (16, 16, 2)
    flat = rng.choice(grid[0] * grid[1] * grid[2], size=220, replace=False)
    coords = np.stack(np.unravel_index(np.sort(flat), grid), axis=1)
    features = {tuple(int(v) for v in c): rng.standard_normal(4)
                for c in coords}
    x = SparseVoxelTensor(features, channels=4, grid_shape=grid)
    model = SparseSequential(
        SparseConv3d(4, 16, rng=np.random.default_rng(1)),
        SparseReLU(),
        SparseConv3d(16, 24, rng=np.random.default_rng(2)))
    return model, x


def _sparse_conv_run(backend: str, model: SparseSequential,
                     x: SparseVoxelTensor) -> np.ndarray:
    with kernel_backend(backend):
        out = model.forward(x)
        oc, om = out.packed()
        model.backward(SparseGrad(oc, np.ones_like(om)))
    return out.dense()


def _snn_setup() -> Tuple[SpikingConv2d, np.ndarray]:
    """Spike-FlowNet-sized spiking conv: T=8 timesteps on 16x16 events."""
    layer = SpikingConv2d(2, 6, rng=np.random.default_rng(3),
                          learnable_dynamics=True)
    x = np.random.default_rng(4).standard_normal((8, 2, 2, 16, 16))
    return layer, x


def _snn_run(backend: str, layer: SpikingConv2d,
             x: np.ndarray) -> np.ndarray:
    with kernel_backend(backend):
        out = layer.forward(x)
        return layer.backward(np.ones_like(out))


def _regret_setup() -> Tuple[VAE, np.ndarray]:
    """STARNet-sized monitor: feature_dim=33 VAE, a 12-scan batch."""
    vae = VAE(33, rng=np.random.default_rng(5))
    X = np.random.default_rng(6).standard_normal((12, 33))
    return vae, X


def _regret_run(backend: str, vae: VAE, X: np.ndarray) -> np.ndarray:
    # Fresh generator per run: both backends consume the identical seed
    # stream, so the scores are directly comparable.
    return get_kernel("likelihood_regret", backend=backend).score_rows(
        vae, X, "spsa", 25, np.random.default_rng(11))


def _bev_setup() -> List[Tuple[List[Detection], np.ndarray]]:
    """40 detection scenes at Table-I density (~30 preds, 12 GTs)."""
    rng = np.random.default_rng(8)
    scenes = []
    for _ in range(40):
        preds = [Detection("Car", float(x), float(y), float(s))
                 for x, y, s in rng.uniform(0, 40, size=(30, 3))]
        gts = rng.uniform(0, 40, size=(12, 2))
        scenes.append((preds, gts))
    return scenes


def _bev_run(backend: str,
             scenes: List[Tuple[List[Detection], np.ndarray]]) -> list:
    kernel = get_kernel("bev_match", backend=backend)
    out = []
    for preds, gts in scenes:
        out.extend(kernel.match_scene(preds, gts, 4.0))
    return out


# --------------------------------------------------------------- the bench
def run() -> dict:
    results: Dict[str, dict] = {}

    model, x = _sparse_conv_setup()
    outs = {b: _sparse_conv_run(b, *_sparse_conv_setup()) for b in BACKENDS}
    walls = {b: median_wall_s(lambda b=b: _sparse_conv_run(b, model, x),
                              REPS)
             for b in BACKENDS}
    results["sparse_conv3d"] = {
        "workload": "2-layer submanifold conv fwd+bwd, 220 sites, "
                    "16x16x2 grid, 4->16->24 ch",
        "max_abs_diff": float(np.max(np.abs(
            outs["reference"] - outs["vectorized"]))),
        **_timing(walls),
    }

    layer, xt = _snn_setup()
    grads = {}
    for b in BACKENDS:
        lyr, xi = _snn_setup()
        grads[b] = _snn_run(b, lyr, xi)
    walls = {b: median_wall_s(lambda b=b: _snn_run(b, layer, xt), REPS)
             for b in BACKENDS}
    results["snn_bptt"] = {
        "workload": "SpikingConv2d fwd+BPTT, T=8, N=2, 2->6 ch, 16x16, "
                    "learnable dynamics",
        "max_abs_diff": float(np.max(np.abs(
            grads["reference"] - grads["vectorized"]))),
        **_timing(walls),
    }

    vae, X = _regret_setup()
    scores = {b: _regret_run(b, vae, X) for b in BACKENDS}
    walls = {b: median_wall_s(lambda b=b: _regret_run(b, vae, X), REPS)
             for b in BACKENDS}
    results["likelihood_regret"] = {
        "workload": "SPSA regret, batch of 12 rows, feature_dim=33, "
                    "25 steps",
        "max_abs_diff": float(np.max(np.abs(
            scores["reference"] - scores["vectorized"]))),
        **_timing(walls),
    }

    scenes = _bev_setup()
    matches = {b: _bev_run(b, scenes) for b in BACKENDS}
    walls = {b: median_wall_s(lambda b=b: _bev_run(b, scenes), REPS)
             for b in BACKENDS}
    results["bev_match"] = {
        "workload": "greedy BEV matching, 40 scenes, 30 preds / 12 GTs",
        "max_abs_diff": 0.0 if matches["reference"] == matches["vectorized"]
        else float("nan"),
        **_timing(walls),
    }

    return {"reps": REPS, "kernels": results}


def _timing(walls: Dict[str, Tuple[float, float]]) -> dict:
    (ref, ref_iqr), (vec, vec_iqr) = walls["reference"], walls["vectorized"]
    return {
        "reference_s": round(ref, 6),
        "reference_iqr_s": round(ref_iqr, 6),
        "vectorized_s": round(vec, 6),
        "vectorized_iqr_s": round(vec_iqr, 6),
        "speedup": round(ref / vec, 2),
    }


def test_kernel_hotpaths(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, f"{r['reference_s'] * 1e3:.2f}ms",
             f"{r['vectorized_s'] * 1e3:.2f}ms", f"{r['speedup']:.2f}x",
             f"{r['max_abs_diff']:.2e}"]
            for name, r in result["kernels"].items()]
    print_table(
        "Kernel hot paths — reference vs vectorized "
        "(median wall clock, scenario-sized inputs)",
        ["Kernel", "Reference", "Vectorized", "Speedup", "Max |diff|"],
        rows)
    save_result(BASELINE, result)

    for name, r in result["kernels"].items():
        assert r["max_abs_diff"] < 1e-6, name
    # The vectorization must stay a clear win somewhere; individual
    # kernels may jitter on loaded CI hosts, the best one must not.
    assert max(r["speedup"] for r in result["kernels"].values()) >= 1.5


# ------------------------------------------------------------ gate claims
def _vectorized_wins(now, base):
    # Per-kernel factors are wall clock and jitter with the host, so only
    # the best one is blocking, with a floor well under the committed
    # baseline's headline speedup.
    best = max(r["speedup"] for r in now["kernels"].values())
    return best >= 2.0, f"best speedup {best:.2f}x (floor 2.0x)"


def _equivalent(name):
    # Backends stay numerically equivalent at scenario-sized inputs.
    def check(now, base):
        if name not in now["kernels"]:
            return None
        diff = now["kernels"][name]["max_abs_diff"]
        return diff < 1e-6, f"max |diff| {diff:.2e}"
    return check


def _no_slowdown(name):
    def check(now, base):
        if name not in now["kernels"]:
            return None
        detail = f"{now['kernels'][name]['speedup']:.2f}x"
        if base is not None:
            detail += (f" vs baseline "
                       f"{base['kernels'][name]['speedup']:.2f}x")
        return now["kernels"][name]["speedup"] >= 1.0, detail
    return check


CLAIMS = [
    Claim("same-kernel-set", True, needs_base(
        lambda now, base: (set(now["kernels"]) == set(base["kernels"]),
                           f"kernels {sorted(now['kernels'])}"))),
    Claim("vectorized-wins", True, _vectorized_wins),
]
for _name in KERNELS:
    CLAIMS += [
        Claim(f"equivalent-{_name}", True, _equivalent(_name)),
        Claim(f"no-slowdown-{_name}", False, _no_slowdown(_name)),
    ]
