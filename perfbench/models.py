"""The perception stack shared by the loop and serve workloads.

Untrained weights: the benchmark times the models' compute and checks
their outputs for well-formedness, not their accuracy.  STARNet is the
one model that must be fitted, because it cannot score before it has a
nominal feature distribution; its calibration set comes from the same
sensing operating point the workload then runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core import SensingToActionLoop
from repro.detect import BEVDetector, DetectionExperimentConfig
from repro.generative import RMAE
from repro.hardware import model_inference_energy_mj
from repro.hardware.lidar_power import LidarPowerModel
from repro.nn.counting import count_macs
from repro.nn.sparse3d import SparseConv3d
from repro.scenario import TRAFFIC
from repro.sim import LidarScanner, sample_scene
from repro.starnet import LidarFeatureExtractor, STARNet

# The Table I experiment's geometry: 64 x 14 = 896 beams over a frontal
# 100 degree field, and a 24 x 24 x 2 voxel grid.
CONFIG = DetectionExperimentConfig()
LIDAR = CONFIG.lidar
GRID = CONFIG.grid
POWER = LidarPowerModel()

# STARNet scoring method.  "exact" is deterministic, so a batched
# assessment can be checked against the per-item one.
SCORE_METHOD = "exact"
STARNET_EPOCHS = 40
# VAE passes of one exact score: the ELBO, then 50 latent steps of a
# decode, a decoder backward and an ELBO each.
EXACT_SCORE_VAE_PASSES = 1 + 50 * 3
# ``starnet.rejected_frac`` counts the frames STARNet trusts less than the
# loop's default gate does, whatever gate a workload itself runs with.
REJECT_BELOW = inspect.signature(
    SensingToActionLoop).parameters["trust_threshold"].default


def urban_scenes(rng: np.random.Generator, n: int) -> list:
    """A seeded stream of urban street scenes in the sensor's frontal view."""
    return [sample_scene(rng, **TRAFFIC["urban"], max_range=30.0,
                         azimuth_limit=np.pi / 4)
            for _ in range(n)]


@dataclass
class Stack:
    rmae: RMAE
    detector: BEVDetector
    extractor: LidarFeatureExtractor
    monitor: STARNet
    scanner: LidarScanner
    decoder_macs: int        # R-MAE dense decoder, per frame
    neck_macs: int           # detector neck, per frame
    vae_macs: int            # one VAE forward pass
    params: int


def build_stack(seed: int) -> Stack:
    """Construct the untrained R-MAE, detector, feature extractor and an
    unfitted STARNet, all seeded from ``seed``."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(4)]
    rmae = RMAE(GRID, rng=rngs[0])
    detector = BEVDetector(GRID, encoder=rmae, rng=rngs[1])
    extractor = LidarFeatureExtractor(rmae)
    monitor = STARNet(extractor.feature_dim, score_method=SCORE_METHOD,
                      rng=rngs[2])
    scanner = LidarScanner(LIDAR, rng=rngs[3])
    ds = rmae.config.bev_downsample
    c2 = rmae.config.encoder_channels[1]
    neck = count_macs(detector.neck, (c2, GRID.nx // ds, GRID.ny // ds))
    vae = monitor.vae
    hidden = vae.mu_head.in_features
    vae_macs = (count_macs(vae.encoder, (vae.input_dim,))
                + count_macs(vae.mu_head, (hidden,))
                + count_macs(vae.logvar_head, (hidden,))
                + count_macs(vae.decoder, (vae.latent_dim,)))
    params = (rmae.num_parameters() + detector.neck.num_parameters()
              + vae.num_parameters())
    return Stack(rmae, detector, extractor, monitor, scanner,
                 rmae.reconstruction_macs(0), neck, vae_macs, params)


def sparse_macs(stack: Stack, n_occupied: int) -> int:
    return sum(n_occupied * layer.macs_per_active_voxel()
               for layer in stack.rmae.encoder.layers
               if isinstance(layer, SparseConv3d))


def compute_energy_mj(stack: Stack, n_occupied: int, rmae: bool) -> float:
    """Modelled compute energy of one frame through the stack.

    Sparse encoder passes: R-MAE (when run), detector and feature
    extractor each encode the frame once.  Dense: R-MAE decoder (when
    run) and the detector neck.  STARNet: the VAE passes of one exact
    likelihood-regret score.  Weights are read once per frame.
    """
    encodes = 3 if rmae else 2
    macs = (encodes * sparse_macs(stack, n_occupied) + stack.neck_macs
            + (stack.decoder_macs if rmae else 0)
            + EXACT_SCORE_VAE_PASSES * stack.vae_macs)
    return model_inference_energy_mj(macs, params=stack.params)


def fit_monitor(stack: Stack, features: List[np.ndarray]) -> None:
    stack.monitor.fit(np.stack(features), epochs=STARNET_EPOCHS)
