"""Fig. 5a — computational load (MACs) of dynamical models.

The paper shows the spectral Koopman approach requiring the fewest
multiply-accumulate operations for control and prediction among MLP,
dense-Koopman, Transformer, and recurrent dynamics models.  MACs are
analytic (architecture-derived), evaluated at a shared latent dimension
since every model consumes the same visual encoder's embedding.
"""

from repro.koopman import fig5a_macs
from repro.runtime.bench import Claim, needs_base

from bench_utils import print_table, save_result

BASELINE = "fig5a_model_macs"


def run(latent_dim: int = 16, action_dim: int = 1) -> dict:
    return fig5a_macs(latent_dim=latent_dim, action_dim=action_dim)


def test_fig5a_model_macs(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    order = sorted(result, key=lambda k: result[k]["total"])
    print_table(
        "Fig. 5a — MACs for control + prediction per step "
        "(paper: spectral Koopman fewest, Transformer most)",
        ["Model", "Prediction MACs", "Control MACs", "Total"],
        [[name, result[name]["prediction"], result[name]["control"],
          result[name]["total"]] for name in order])
    save_result(BASELINE, result)

    totals = {k: v["total"] for k, v in result.items()}
    # The paper's ordering.
    assert min(totals, key=totals.get) == "spectral_koopman"
    assert max(totals, key=totals.get) == "transformer"
    assert totals["dense_koopman"] < totals["mlp"]
    assert totals["recurrent"] < totals["transformer"]
    # And the headline gap: orders of magnitude between the spectral
    # core and the sampled-MPC nonlinear families.
    assert totals["spectral_koopman"] * 1000 < totals["mlp"]


# ------------------------------------------------------------ gate claims
def _order(result: dict) -> list:
    return sorted(result, key=lambda k: result[k]["total"])


def _analytic_exact(now, base):
    # The counts are analytic: they must be bit-exact.
    drift = {k for k in base
             if k in now and now[k]["total"] != base[k]["total"]}
    return not drift, ("all totals match baseline" if not drift
                       else f"totals drifted for {sorted(drift)}")


CLAIMS = [
    Claim("mac-ordering", True, needs_base(
        lambda now, base: (_order(now) == _order(base),
                           " < ".join(_order(now))))),
    Claim("spectral-wins", True, lambda now, base: (
        _order(now)[:1] == ["spectral_koopman"],
        f"cheapest model: {(_order(now) or ['?'])[0]}")),
    Claim("analytic-macs-exact", True, needs_base(_analytic_exact)),
]
