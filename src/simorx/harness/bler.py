"""Monte-Carlo block error rate evaluation.

A block is in error when any of its information bits is wrong after LDPC
decoding.  Each Eb/No point accumulates whole batches until it has seen
``max_blocks`` blocks or ``max_block_errors`` erroneous ones.

Every batch draws its randomness from ``SeedSequence(seed,
spawn_key=(point_index, batch_index))``, so the stream of any batch is
independent of how many batches ran before it.  Batches run one after
another and are folded with integer counters; the counts depend on the
config alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chain import TransmissionBatch, code_for_grid, simulate_batch
from ..channel.fading import ebno_to_n0
from ..channel.profiles import load_profile
from ..errors import ConfigError, is_finite_real, is_integer
from ..phy.grid import GridConfig
from ..phy.ldpc import decode
from ..phy.modulation import get_scheme
from ..receiver import ReceiverModel, extract_llr_bits, preprocess
from ..training import CODE_RATE
from .genie import genie_lmmse_baseline


@dataclass(frozen=True)
class EvalConfig:
    modulation: str = "qpsk"
    profile: str = "cdl_c_like"
    grid: GridConfig = GridConfig()
    n_rx: int = 2
    ebno_grid_db: tuple = tuple(range(-4, 9))
    max_blocks: int = 2000
    max_block_errors: int = 100
    batch: int = 32
    seed: int = 0
    ldpc_seed: int = 1
    decoder_iters: int = 20

    def __post_init__(self):
        for name in ("n_rx", "max_blocks", "max_block_errors", "batch", "decoder_iters"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.ebno_grid_db:
            raise ConfigError("ebno_grid_db cannot be empty")
        # Checked, not converted: the values are echoed into manifests as given.
        bad = [v for v in self.ebno_grid_db if not is_finite_real(v)]
        if bad:
            raise ConfigError(f"ebno_grid_db entries must be finite numbers, got {bad!r}")


@dataclass(frozen=True)
class BlerPoint:
    ebno_db: float
    blocks: int
    block_errors: int
    bit_errors: int

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks


@dataclass
class BlerCurve:
    points: list
    metadata: dict = field(default_factory=dict)

    def blers(self) -> np.ndarray:
        return np.array([p.bler for p in self.points])


class NeuralReceiver:
    """Evaluation adapter around a trained model."""

    def __init__(self, model: ReceiverModel, cfg: GridConfig, fingerprint_id: str = ""):
        self.model = model
        self.cfg = cfg
        self.fingerprint_id = fingerprint_id

    def llrs(self, tb: TransmissionBatch) -> np.ndarray:
        grid = self.model.forward(preprocess(tb.rx))
        return extract_llr_bits(grid, self.cfg).astype(np.float64)

    def describe(self) -> dict:
        return {"receiver": "neural", "target_fp": self.fingerprint_id}


class GenieReceiver:
    """Perfect-CSI combining baseline."""

    def __init__(self, scheme, cfg: GridConfig):
        self.scheme = scheme
        self.cfg = cfg

    def llrs(self, tb: TransmissionBatch) -> np.ndarray:
        return genie_lmmse_baseline(tb.rx, tb.h, tb.n0, self.scheme, self.cfg)

    def describe(self) -> dict:
        return {"receiver": "genie", "target_fp": ""}


def run_bler(cfg: EvalConfig, receiver) -> BlerCurve:
    """Evaluate one receiver over the Eb/No grid."""
    scheme = get_scheme(cfg.modulation)
    profile = load_profile(cfg.profile)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)

    points = []
    for point_idx, ebno in enumerate(cfg.ebno_grid_db):
        n0 = ebno_to_n0(float(ebno), scheme.bits_per_symbol, CODE_RATE)
        blocks = block_errors = bit_errors = 0
        batch_idx = 0
        while blocks < cfg.max_blocks and block_errors < cfg.max_block_errors:
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, batch_idx))
            )
            tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
            info, _ = decode(receiver.llrs(tb), code, max_iters=cfg.decoder_iters)
            wrong_bits = (info != tb.info_bits).sum(axis=1)[: cfg.max_blocks - blocks]
            blocks += wrong_bits.size
            block_errors += int((wrong_bits > 0).sum())
            bit_errors += int(wrong_bits.sum())
            batch_idx += 1
        points.append(BlerPoint(float(ebno), blocks, block_errors, bit_errors))
    meta = {"modulation": cfg.modulation, "profile": cfg.profile, "seed": cfg.seed}
    meta.update(receiver.describe())
    return BlerCurve(points, meta)
