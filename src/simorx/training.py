"""Training loop for the convolutional receiver.

Data is generated on the fly, one fresh batch per iteration, with a
per-example information-bit SNR drawn uniformly from the configured range.
The optimised quantity is the mean binary cross-entropy between logits and
coded bits over data resource elements; the reported achievable-rate
metric is ``L = 1 - bce``.

Every iteration appends one CSV row to the run log::

    iter,L,mean_bce_bits,ebno_lo,ebno_hi,seed

Randomness is derived per iteration from ``SeedSequence(seed,
spawn_key=(iteration,))``, so runs are reproducible.  They are not
resumable: Adam's moments are not saved and the run log is written only
when the run ends, so an interrupted run starts over (ROADMAP open item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import code_for_grid, simulate_batch
from .channel.fading import ebno_to_n0
from .channel.profiles import load_profile
from .checkpoint import Checkpoint, checkpoint_from_model
from .errors import ConfigError, TrainingDiverged, is_finite_real, is_integer
from .numerics.adam import Adam
from .phy.grid import GridConfig
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
CODE_RATE = 0.5


@dataclass(frozen=True)
class TrainConfig:
    modulation: str = "qpsk"
    profile: str = "cdl_c_like"
    grid: GridConfig = GridConfig()
    n_rx: int = 2
    width_in: int = 128
    width_res: int = 256
    num_blocks: int = 4
    batch: int = 128
    iterations: int = 27188
    lr: float = 1e-3
    ebno_lo_db: float = -4.0
    ebno_hi_db: float = 8.0
    seed: int = 0
    ldpc_seed: int = 1

    def __post_init__(self):
        for name in ("n_rx", "width_in", "width_res", "num_blocks", "batch"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not (is_integer(self.iterations) and self.iterations >= 0):
            raise ConfigError(f"iterations must be an integer >= 0, got {self.iterations!r}")
        if not (is_finite_real(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite positive number, got {self.lr!r}")
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
            "num_symbols": g.num_symbols,
            "num_subcarriers": g.num_subcarriers,
            "guard_lo": g.guard_lo,
            "guard_hi": g.guard_hi,
            "scs_khz": g.scs_khz,
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

    def write_log(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.log_lines) + "\n")


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iteration,)))


def run_training(model: ReceiverModel, cfg: TrainConfig, iterations: int | None = None) -> TrainResult:
    """Run the BMD training loop on an existing model (shared by source
    training and adaptation).  Each iteration's forward records on a fresh
    tape, which its backward consumes; the backward returns the gradients
    of ``model.trainable_params()``, and only those parameters receive
    updates, so frozen tensors keep their exact bit patterns.
    """
    scheme = cfg.scheme()
    if model.spec.out_bits != scheme.bits_per_symbol:
        raise ConfigError(
            f"model emits {model.spec.out_bits} bits per RE but "
            f"{cfg.modulation} needs {scheme.bits_per_symbol}"
        )
    if model.spec.in_channels != 2 * cfg.n_rx:
        raise ConfigError("model input planes do not match 2 * n_rx")
    profile = load_profile(cfg.profile)
    code = code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)
    steps = cfg.iterations if iterations is None else iterations

    params = model.trainable_params()
    opt = Adam(params, lr=cfg.lr)
    log_lines = [RUN_LOG_HEADER]
    losses = np.empty(steps)
    for it in range(steps):
        rng = _iteration_rng(cfg.seed, it)
        ebno = rng.uniform(cfg.ebno_lo_db, cfg.ebno_hi_db, size=cfg.batch)
        n0 = ebno_to_n0(ebno, scheme.bits_per_symbol, CODE_RATE)
        tb = simulate_batch(cfg.grid, scheme, code, profile, n0, cfg.batch, cfg.n_rx, rng)
        tape = {}
        llr_grid = model.forward(preprocess(tb.rx), tape)
        flat = extract_llr_bits(llr_grid, cfg.grid)
        if not np.isfinite(flat).all():
            last = losses[it - 1] if it else float("nan")
            raise TrainingDiverged(
                f"non-finite logits at iteration {it} (last finite L={last!r}); "
                f"parameters kept at their pre-update values",
                iteration=it,
                checkpoint=checkpoint_from_model(model, cfg.fingerprint()),
            )
        metric, bce = bmd_loss(flat, tb.coded_bits)
        grad = scatter_llr_bit_grad(bmd_loss_grad(flat, tb.coded_bits), cfg.grid, scheme.bits_per_symbol)
        try:
            opt.step(params, model.backward(grad, tape))
        except FloatingPointError as exc:
            # Adam checks every gradient before it updates any parameter.
            raise TrainingDiverged(
                f"non-finite gradient at iteration {it} ({exc}); "
                f"parameters kept at their pre-update values",
                iteration=it,
                checkpoint=checkpoint_from_model(model, cfg.fingerprint()),
            ) from exc
        losses[it] = metric
        log_lines.append(
            f"{it},{metric!r},{bce!r},{cfg.ebno_lo_db!r},{cfg.ebno_hi_db!r},{cfg.seed}"
        )
    return TrainResult(
        checkpoint=checkpoint_from_model(model, cfg.fingerprint()),
        model=model,
        log_lines=log_lines,
        losses=losses,
    )


def train_source(cfg: TrainConfig) -> TrainResult:
    """Train a fresh receiver on the source domain described by ``cfg``."""
    model = ReceiverModel(cfg.model_spec(), seed=cfg.seed)
    return run_training(model, cfg)
