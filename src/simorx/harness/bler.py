"""Monte-Carlo block error rate evaluation.

A block is in error when any of its information bits is wrong after LDPC
decoding.  Each Eb/No point accumulates whole batches until it has seen
``max_blocks`` blocks or ``max_block_errors`` erroneous ones.

Every batch draws its randomness from ``SeedSequence(seed,
spawn_key=(point_index, batch_index))``, so the stream of any batch is
independent of how many batches ran before it.  Batches may therefore be
computed in parallel; results are folded in batch order with integer
counters, which keeps the counts identical to a serial run.  The
``SIMORX_MAX_WORKERS`` environment variable caps the thread pool (default
1, meaning serial).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..chain import TransmissionBatch, code_for_grid, simulate_batch
from ..channel.fading import ebno_to_n0
from ..channel.profiles import load_profile
from ..errors import ConfigError, is_finite_real
from ..phy.grid import GridConfig
from ..phy.ldpc import decode
from ..phy.modulation import get_scheme
from ..receiver import ReceiverModel, extract_llr_bits, preprocess
from ..training import CODE_RATE
from .genie import genie_lmmse_baseline

MAX_WORKERS_ENV = "SIMORX_MAX_WORKERS"


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
        if self.max_blocks < 1 or self.batch < 1:
            raise ConfigError("max_blocks and batch must be positive")
        if self.max_block_errors < 1 or self.decoder_iters < 1:
            raise ConfigError("max_block_errors and decoder_iters must be positive")
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

    def ebnos(self) -> np.ndarray:
        return np.array([p.ebno_db for p in self.points])


class NeuralReceiver:
    """Evaluation adapter around a trained model."""

    def __init__(self, model: ReceiverModel, cfg: GridConfig, fingerprint_id: str = ""):
        self.model = model
        self.cfg = cfg
        self.fingerprint_id = fingerprint_id

    def llrs(self, tb: TransmissionBatch) -> np.ndarray:
        grid = self.model.forward(preprocess(tb.rx), train=False)
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


def _num_workers() -> int:
    raw = os.environ.get(MAX_WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{MAX_WORKERS_ENV}={raw!r} is not an integer") from None


def run_bler(cfg: EvalConfig, receiver) -> BlerCurve:
    """Evaluate one receiver over the Eb/No grid."""
    scheme = get_scheme(cfg.modulation)
    profile = load_profile(cfg.profile)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)
    workers = _num_workers()

    def one_batch(point_idx: int, batch_idx: int, n0: float):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, batch_idx))
        )
        tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
        info, _ = decode(receiver.llrs(tb), code, max_iters=cfg.decoder_iters)
        return (info != tb.info_bits).sum(axis=1)

    points = []
    for point_idx, ebno in enumerate(cfg.ebno_grid_db):
        n0 = ebno_to_n0(float(ebno), scheme.bits_per_symbol, CODE_RATE)
        blocks = block_errors = bit_errors = 0
        next_idx = 0

        def fold(wrong_bits: np.ndarray) -> bool:
            nonlocal blocks, block_errors, bit_errors
            take = min(cfg.batch, cfg.max_blocks - blocks)
            taken = wrong_bits[:take]
            blocks += take
            block_errors += int((taken > 0).sum())
            bit_errors += int(taken.sum())
            return blocks >= cfg.max_blocks or block_errors >= cfg.max_block_errors

        if workers == 1:
            while True:
                if fold(one_batch(point_idx, next_idx, n0)):
                    break
                next_idx += 1
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                done = False
                while not done:
                    futures = [
                        pool.submit(one_batch, point_idx, next_idx + j, n0)
                        for j in range(workers)
                    ]
                    next_idx += workers
                    for fut in futures:  # fold strictly in batch order
                        if not done and fold(fut.result()):
                            done = True
        points.append(BlerPoint(float(ebno), blocks, block_errors, bit_errors))
    meta = {"modulation": cfg.modulation, "profile": cfg.profile, "seed": cfg.seed}
    meta.update(receiver.describe())
    return BlerCurve(points, meta)
