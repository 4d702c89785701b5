"""Monte-Carlo block error rate evaluation.

A block is in error when any of its information bits is wrong after LDPC
decoding.  Each Eb/No point accumulates whole batches until it has seen
``max_blocks`` blocks or ``max_block_errors`` erroneous ones.

Every batch draws its randomness from ``SeedSequence(seed,
spawn_key=(point_index, batch_index))``, so the stream of any batch is
independent of how many batches ran before it.  Batches run one after
another and are folded with integer counters; the counts depend on the
config alone.

Each batch is simulated whole, then cut into the shards of
``chain.shard_slices``; the receiver's ``llrs`` runs once per shard,
through ``chain.shard_map`` held open for the whole call (the ``chain``
docstring says when that uses threads), and the shard LLRs are joined in
shard order and decoded as one batch on the calling thread.  A
receiver's ``llrs`` must therefore give each block's LLRs from that block
alone, and must be safe to call from two threads at once.  The last
batch of a point runs only the shards that hold the blocks the point
still counts.  The counts never depend on the thread count; LLR float
bits may depend on the shard boundaries, which depend on ``batch`` alone.

A ``BlerCurve`` holds the points and the run columns of its CSV rows as
fields.  ``run_bler`` fills ``technique`` and ``target_fp`` from the
receiver's ``describe()`` and ``seed`` from the config; a caller that knows
the technique, α or source fingerprint sets them with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chain import TransmissionBatch, code_for_grid, shard_map, shard_slices, simulate_batch
from ..channel.fading import ebno_to_n0
from ..channel.profiles import load_profile
from ..errors import ConfigError, is_finite_real, is_integer
from ..phy.grid import GridConfig
from ..phy.ldpc import decode
from ..phy.modulation import get_scheme
from ..receiver import ReceiverModel, extract_llr_bits, preprocess
from .genie import genie_lmmse_baseline


@dataclass(frozen=True, kw_only=True)
class EvalConfig:
    # make_eval_config fills the fields without a default from a scale preset.
    modulation: str = "qpsk"
    profile: str = "cdl_c_like"
    grid: GridConfig
    n_rx: int = 2
    ebno_grid_db: tuple
    max_blocks: int
    max_block_errors: int
    batch: int
    seed: int = 0
    ldpc_seed: int = 1

    def __post_init__(self):
        for name in ("n_rx", "max_blocks", "max_block_errors", "batch"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("seed", "ldpc_seed"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 0):
                raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
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


@dataclass(frozen=True)
class BlerCurve:
    points: list
    technique: str            # the receiver's ``describe()`` unless a caller names it
    alpha: float | None       # the adaptation budget; None where none was spent
    seed: int
    source_fp: str            # fingerprint of the source domain, "" if none
    target_fp: str

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
    """Evaluate one receiver over the Eb/No grid.

    ``receiver.llrs`` is called once per shard, two shards at a time when
    ``chain.shard_map`` uses threads: it must be per-block and thread-safe.
    """
    scheme = get_scheme(cfg.modulation)
    profile = load_profile(cfg.profile)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)

    points = []
    with shard_map(cfg.batch) as smap:
        for point_idx, ebno in enumerate(cfg.ebno_grid_db):
            n0 = ebno_to_n0(float(ebno), scheme.bits_per_symbol, code.rate)
            blocks = block_errors = bit_errors = 0
            batch_idx = 0
            while blocks < cfg.max_blocks and block_errors < cfg.max_block_errors:
                rng = np.random.default_rng(
                    np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, batch_idx))
                )
                tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
                need = min(tb.batch, cfg.max_blocks - blocks)
                shards = [tb.blocks(s) for s in shard_slices(need)]
                llrs = np.concatenate(list(smap(receiver.llrs, shards)))
                info, _ = decode(llrs[:need], code)
                wrong_bits = (info != tb.info_bits[:need]).sum(axis=1)
                blocks += need
                block_errors += int((wrong_bits > 0).sum())
                bit_errors += int(wrong_bits.sum())
                batch_idx += 1
            points.append(BlerPoint(float(ebno), blocks, block_errors, bit_errors))
    described = receiver.describe()
    return BlerCurve(points, described["receiver"], None, cfg.seed, "", described["target_fp"])
