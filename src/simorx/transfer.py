"""Transfer of a trained receiver to a new domain.

Three adaptation techniques, all α-budgeted (the target sees a fraction α
of the source sample budget):

- ``fine_tuning``: load the six-layer model and update everything.
- ``fine_tuning_plus``: insert a fresh residual block before the output
  conv (seven layers) and freeze the first two coarse layers, so the input
  conv and first block keep their source weights bit-exactly.
- ``feature_extraction``: same surgery, but everything transferred stays
  frozen; only the added block and the output conv train.

One rule sets the trainable flags: the coarse layers in ``names[:k]``
freeze and all others train, with k from ``FROZEN_PREFIX`` (0, 2 and -2),
so the rule holds for any block count.  ``load_checkpoint`` transplants
each source tensor whose shape fits the target and re-initialises the
rest: the output conv when the modulation changes the bit count, the
input conv when the antenna count changes.  A coarse layer holding a
re-initialised tensor always trains, whatever k says: freezing it would
keep a random layer random, and refusing the adaptation would leave
those mismatch axes without transfer.

Frozen coarse layers in front of the first trainable one run their
forward without a tape and no backward at all (see
``ReceiverModel.backward``), so partial fine-tuning costs less per step
than ``fine_tuning``.

Two benchmarks bracket the techniques: ``without_tl`` trains from scratch
on the same α budget, and ``model_transfer`` evaluates the source model on
the target domain with zero updates.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import (
    Checkpoint,
    LoadResult,
    checkpoint_from_model,
    load_checkpoint,
    read_checkpoint,
)
from .errors import ConfigError
from .receiver import ReceiverModel, ResNetBlock
from .training import TrainConfig, TrainResult, run_training

logger = logging.getLogger(__name__)

# k of the freeze rule for each technique: nothing, the input conv and the
# first block, everything but the added block and the output conv.
FROZEN_PREFIX = {"fine_tuning": 0, "fine_tuning_plus": 2, "feature_extraction": -2}
TECHNIQUES = tuple(FROZEN_PREFIX)
BENCHMARKS = ("without_tl", "model_transfer")

# Published totals for the architecture family this model approximates
# (report-only; see reference_comparison).  That layout feeds five input
# planes (four I/Q planes plus a noise level plane) into uniformly
# 128-wide convolutions and gives the normalisations a full-grid affine
# shape, so its totals differ from this package by construction.
REFERENCE_PARAM_TOTALS = {
    "fine_tuning_trainable": 4_858_882,
    "seven_layer_total": 6_071_554,
    "feature_extraction_trainable": 1_214_978,
    "fine_tuning_plus_trainable": 4_852_994,
}


def add_resnet_block(model: ReceiverModel, rng: np.random.Generator | None = None) -> ReceiverModel:
    """Insert a fresh width-preserving block just before the output conv.

    Existing tensors and trainable flags are untouched; the new block
    trains until ``set_trainable`` says otherwise.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(99,)))
    width = model.spec.width_res
    model.blocks.append(ResNetBlock(width, width, rng, dtype=model.dtype))
    model.spec = model.spec.with_extra_block()
    model.trainable = {name: model.trainable.get(name, True) for name, _ in model.coarse_layers()}
    return model


def set_trainable(model: ReceiverModel, k: int, fresh=()) -> ReceiverModel:
    """The freeze rule: the coarse layers in ``names[:k]`` freeze, except
    those named in ``fresh`` (layers holding a re-initialised tensor), and
    every other coarse layer trains."""
    names = [name for name, _ in model.coarse_layers()]
    frozen = set(names[:k]).difference(fresh)
    model.trainable = {name: name not in frozen for name in names}
    return model


@dataclass
class LayerCount:
    name: str
    params: int
    trainable: bool


@dataclass
class ParamReport:
    layers: list

    @property
    def total(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def trainable_total(self) -> int:
        return sum(l.params for l in self.layers if l.trainable)

    @property
    def frozen_total(self) -> int:
        return sum(l.params for l in self.layers if not l.trainable)

    def format(self) -> str:
        width = max(len(l.name) for l in self.layers)
        lines = [f"{'layer':<{width}}  {'params':>9}  state"]
        for l in self.layers:
            state = "trainable" if l.trainable else "frozen"
            lines.append(f"{l.name:<{width}}  {l.params:>9}  {state}")
        lines.append(
            f"total {self.total}  trainable {self.trainable_total}  frozen {self.frozen_total}"
        )
        return "\n".join(lines)


def count_params(model: ReceiverModel) -> ParamReport:
    """Exact per-coarse-layer parameter counts with trainable flags."""
    layers = []
    for name, layer in model.coarse_layers():
        if isinstance(layer, ResNetBlock):
            n = sum(arr.size for _, prim in layer.primitive_items() for _, arr in prim.param_items())
        else:
            n = sum(arr.size for _, arr in layer.param_items())
        layers.append(LayerCount(name, int(n), model.trainable[name]))
    return ParamReport(layers)


def reference_comparison(train_cfg: TrainConfig) -> str:
    """Our exact counts for each technique beside the published totals.

    The published architecture differs from the one built here (five input
    planes including a noise plane, every conv 128 wide, full-grid norm
    affines), so the columns are expected to disagree; the table exists to
    make the gap explicit rather than to match.
    """
    base = ReceiverModel(train_cfg.model_spec(), seed=train_cfg.seed)
    ft = count_params(set_trainable(base, FROZEN_PREFIX["fine_tuning"]))

    wide = ReceiverModel(train_cfg.model_spec(), seed=train_cfg.seed)
    add_resnet_block(wide)
    seven_total = count_params(wide).total
    ftp = count_params(set_trainable(wide, FROZEN_PREFIX["fine_tuning_plus"]))
    fe = count_params(set_trainable(wide, FROZEN_PREFIX["feature_extraction"]))

    ours = {
        "fine_tuning_trainable": ft.trainable_total,
        "seven_layer_total": seven_total,
        "feature_extraction_trainable": fe.trainable_total,
        "fine_tuning_plus_trainable": ftp.trainable_total,
    }
    lines = [
        f"{'variant':<32}  {'this package':>14}  {'reference':>11}",
    ]
    for key, ref in REFERENCE_PARAM_TOTALS.items():
        lines.append(f"{key:<32}  {ours[key]:>14}  {ref:>11}")
    lines.append(
        "reference counts assume five 128-wide input planes and full-grid norm "
        "affines; this package uses "
        f"{train_cfg.model_spec().in_channels} input planes, widths "
        f"{train_cfg.width_in}/{train_cfg.width_res}, per-channel affines"
    )
    return "\n".join(lines)


def alpha_steps(alpha: float, iterations: int) -> int:
    """Iterations of an α-budgeted run: ``round(alpha * iterations)``, at
    least one.  Rejects α outside (0, 1], NaN and non-numbers included."""
    if not isinstance(alpha, numbers.Real) or not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be a number in (0, 1], got {alpha!r}")
    return max(1, round(alpha * iterations))


@dataclass(frozen=True)
class AdaptConfig:
    technique: str
    alpha: float
    target: TrainConfig       # iterations here is the source-scale budget

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ConfigError(f"unknown technique {self.technique!r}; choose from {TECHNIQUES}")
        alpha_steps(self.alpha, self.target.iterations)  # rejects a bad alpha now

    @property
    def steps(self) -> int:
        return alpha_steps(self.alpha, self.target.iterations)


def _load_for_target(source, cfg: TrainConfig) -> LoadResult:
    ck = source if isinstance(source, Checkpoint) else read_checkpoint(source)
    result = load_checkpoint(ck, target_spec=cfg.model_spec(), init_seed=cfg.seed)
    for line in result.delta:
        logger.info("transplant: %s", line)
    return result


def adapt(source, cfg: AdaptConfig) -> TrainResult:
    """Adapt a source checkpoint to the target domain in ``cfg.target``.

    ``source`` is a checkpoint object or path.  Runs ``round(alpha *
    target.iterations)`` iterations of the usual loop (at least one).
    """
    loaded = _load_for_target(source, cfg.target)
    model = loaded.model
    held = dict(model.primitive_layers())  # not the source tensors it lacks
    fresh = {name.split(".")[0] for name, _ in loaded.reinitialized if name in held}
    if cfg.technique != "fine_tuning":
        add_resnet_block(model)
    set_trainable(model, FROZEN_PREFIX[cfg.technique], fresh)
    result = run_training(model, cfg.target, iterations=cfg.steps)
    fp = cfg.target.fingerprint()
    fp.update({"technique": cfg.technique, "alpha": repr(cfg.alpha)})
    return replace(result, checkpoint=checkpoint_from_model(model, fp), transplant_delta=loaded.delta)


def run_benchmark(kind: str, source, target: TrainConfig, alpha: float | None = None) -> TrainResult:
    """Run one of the bracketing benchmarks on the target domain."""
    if kind == "without_tl":
        if alpha is None:
            raise ConfigError("without_tl needs the alpha budget")
        steps = alpha_steps(alpha, target.iterations)
        model = ReceiverModel(target.model_spec(), seed=target.seed)
        return run_training(model, target, iterations=steps)
    if kind == "model_transfer":
        loaded = _load_for_target(source, target)
        fp = target.fingerprint()
        fp["technique"] = "model_transfer"
        ck = checkpoint_from_model(loaded.model, fp)
        return TrainResult(ck, loaded.model, transplant_delta=loaded.delta)
    raise ConfigError(f"unknown benchmark {kind!r}; choose from {BENCHMARKS}")
