"""Training loop for the convolutional receiver.

Data is generated on the fly, one fresh batch per iteration, with a
per-example information-bit SNR drawn uniformly from the configured range.
The optimised quantity is the mean binary cross-entropy between logits and
coded bits over data resource elements; the reported achievable-rate
metric is ``L = 1 - bce``.

Every iteration appends one CSV row to the run log::

    iter,L,mean_bce_bits,ebno_lo,ebno_hi,seed

Each batch is cut into the shards of ``chain.shard_slices`` (the last may
be shorter).  A shard runs its forward and backward on a tape of its own,
with the loss gradient of every element normalised by the full batch's
bit count; the shard gradients are then summed in shard order, and one
Adam step follows, so the update is the full batch's gradient (Goyal et
al., arXiv:1706.02677).  L is taken over the whole batch.  The shards run
through ``chain.shard_map``, held open for the whole run; the ``chain``
docstring says when they run on threads.  The output bits depend on the
shard size alone, never on the thread count.

Each iteration draws from a stream of its own (``chain.spawn_rng``, whose
docstring lists the keys), so runs are reproducible.  They are not
resumable: Adam's moments are not saved and the run log is written only
when the run ends, so an interrupted run starts over (see ROADMAP's open
item on resumable training).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .chain import code_for_grid, shard_map, shard_slices, simulate_batch, spawn_rng
from .channel.fading import ebno_to_n0
from .channel.profiles import load_profile
from .checkpoint import Checkpoint, checkpoint_from_model, save_checkpoint
from .errors import ConfigError, TrainingDiverged, check_integers, is_finite_real
from .numerics.adam import Adam
from .phy.grid import NUM_SYMBOLS, SCS_KHZ, GridConfig
from .phy.modulation import get_scheme
from .receiver import (
    ModelSpec,
    ReceiverModel,
    bmd_loss,
    bmd_loss_grad,
    extract_llr_bits,
    preprocess,
    scatter_llr_bit_grad,
)

RUN_LOG_HEADER = "iter,L,mean_bce_bits,ebno_lo,ebno_hi,seed"


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    # make_train_config fills the fields without a default from a scale preset.
    modulation: str = "qpsk"
    profile: str = "cdl_c_like"
    grid: GridConfig
    n_rx: int = 2
    width_in: int
    width_res: int
    num_blocks: int = 4
    batch: int
    iterations: int
    ebno_lo_db: float = -4.0
    ebno_hi_db: float = 8.0
    seed: int = 0
    ldpc_seed: int = 1

    def __post_init__(self):
        check_integers(self, ("n_rx", "width_in", "width_res", "num_blocks", "batch"), 1)
        check_integers(self, ("iterations", "seed", "ldpc_seed"), 0)
        for name in ("ebno_lo_db", "ebno_hi_db"):
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.ebno_hi_db < self.ebno_lo_db:
            raise ConfigError("ebno_hi_db must not be below ebno_lo_db")

    @property
    def samples(self) -> int:
        return self.batch * self.iterations

    def scheme(self):
        return get_scheme(self.modulation)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            in_channels=2 * self.n_rx,
            width_in=self.width_in,
            width_res=self.width_res,
            num_blocks=self.num_blocks,
            out_bits=self.scheme().bits_per_symbol,
        )

    def fingerprint(self) -> dict:
        g = self.grid
        return {
            "modulation": self.modulation,
            "profile": self.profile,
            "n_rx": self.n_rx,
            "num_symbols": NUM_SYMBOLS,
            "num_subcarriers": g.num_subcarriers,
            "guard_lo": g.guard_lo,
            "guard_hi": g.guard_hi,
            "scs_khz": SCS_KHZ,
            "seed": self.seed,
            "ldpc_seed": self.ldpc_seed,
        }


@dataclass
class TrainResult:
    """One run: source training, an adaptation, or a benchmark.

    ``transplant_delta`` lists what loading the source checkpoint changed
    (adaptation and ``model_transfer`` only); ``model_transfer`` has no
    log lines and no losses.
    """

    checkpoint: Checkpoint
    model: ReceiverModel
    log_lines: list = field(default_factory=list)
    losses: np.ndarray = field(default_factory=lambda: np.empty(0))
    transplant_delta: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return self.losses.size

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1]) if self.losses.size else float("nan")

    def save(self, out_dir, name: str) -> list:
        """Write ``<name>.ckpt`` and, if the run has log lines,
        ``<name>_log.csv`` into ``out_dir``; returns their paths."""
        paths = [os.path.join(out_dir, f"{name}.ckpt")]
        save_checkpoint(self.checkpoint, paths[0])
        if self.log_lines:
            paths.append(os.path.join(out_dir, f"{name}_log.csv"))
            with open(paths[1], "w", encoding="utf-8") as fh:
                fh.write("\n".join(self.log_lines) + "\n")
        return paths


def _shard_gradients(model: ReceiverModel, x, bits, grid: GridConfig, n_bits: int):
    """One shard's flat logits and the gradients of its part of the batch
    loss, whose bit count is ``n_bits``, on a tape of its own."""
    tape = {}
    flat = extract_llr_bits(model.forward(x, tape), grid)
    grad = scatter_llr_bit_grad(bmd_loss_grad(flat, bits, n_bits), grid, model.spec.out_bits)
    return flat, model.backward(grad, tape)


def _batch_gradients(model: ReceiverModel, x, bits, grid: GridConfig, smap=map):
    """The batch's flat logits and loss gradients, from its shards run
    through ``smap`` and summed in shard order."""
    shards = shard_slices(x.shape[0])
    task = functools.partial(_shard_gradients, model, grid=grid, n_bits=bits.size)
    flats, total = [], None
    for flat, grads in smap(task, [x[s] for s in shards], [bits[s] for s in shards]):
        flats.append(flat)
        if total is None:
            total = grads
        else:
            for acc, g in zip(total, grads):
                acc += g
    return np.concatenate(flats), total


def run_training(model: ReceiverModel, cfg: TrainConfig, fingerprint: dict | None = None) -> TrainResult:
    """Run ``cfg.iterations`` steps of the BMD loop on an existing model
    (source training, and adaptation with its α budget as ``iterations``).
    Each shard's forward records on a fresh tape, which its backward
    consumes; the backward returns the gradients of
    ``model.trainable_params()``, and only those parameters receive
    updates, so frozen tensors keep their exact bit patterns.

    Every checkpoint it builds, the result's and a ``TrainingDiverged``
    snapshot alike, carries ``fingerprint`` (default ``cfg.fingerprint()``).
    """
    model.spec.check_fits(cfg.modulation, cfg.n_rx, "training")
    scheme = cfg.scheme()
    profile = load_profile(cfg.profile)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)
    fp = cfg.fingerprint() if fingerprint is None else fingerprint

    params = model.trainable_params()
    opt = Adam(params)
    log_lines = [RUN_LOG_HEADER]
    losses = np.empty(cfg.iterations)
    with shard_map(cfg.batch) as smap:
        for it in range(cfg.iterations):
            rng = spawn_rng(cfg.seed, it)
            ebno = rng.uniform(cfg.ebno_lo_db, cfg.ebno_hi_db, size=cfg.batch)
            n0 = ebno_to_n0(ebno, scheme.bits_per_symbol, code.rate)
            tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
            flat, grads = _batch_gradients(model, preprocess(tb.rx), tb.coded_bits, cfg.grid, smap)
            if not np.isfinite(flat).all():
                last = losses[it - 1] if it else float("nan")
                raise TrainingDiverged(
                    f"non-finite logits at iteration {it} (last finite L={last!r}); "
                    f"parameters kept at their pre-update values",
                    iteration=it,
                    checkpoint=checkpoint_from_model(model, fp),
                )
            metric, bce = bmd_loss(flat, tb.coded_bits)
            try:
                opt.step(params, grads)
            except FloatingPointError as exc:
                # Adam checks every gradient before it updates any parameter.
                raise TrainingDiverged(
                    f"non-finite gradient at iteration {it} ({exc}); "
                    f"parameters kept at their pre-update values",
                    iteration=it,
                    checkpoint=checkpoint_from_model(model, fp),
                ) from exc
            # Not held while the next step computes its own.
            del grads
            losses[it] = metric
            log_lines.append(
                f"{it},{metric!r},{bce!r},{cfg.ebno_lo_db!r},{cfg.ebno_hi_db!r},{cfg.seed}"
            )
    return TrainResult(
        checkpoint=checkpoint_from_model(model, fp),
        model=model,
        log_lines=log_lines,
        losses=losses,
    )


def train_source(cfg: TrainConfig) -> TrainResult:
    """Train a fresh receiver on the source domain described by ``cfg``."""
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    return run_training(model, cfg)
