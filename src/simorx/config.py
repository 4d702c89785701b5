"""Scale presets and config plumbing.

Two scales ship with the package:

- ``full``: the deployment-sized system (128 subcarriers, guards 5+6,
  widths 128/256, batch 128).  The source budget of 27188 iterations times
  batch 128 is 3,480,064 samples, the smallest whole-batch count covering
  the nominal 3.48 million-sample corpus.
- ``desk``: everything shrunk to run on one CPU core in minutes
  (32 subcarriers, guards 2+3, widths 16/32) while keeping every
  structural feature: guards, pilots, coding, fading, surgery.

Helpers build ``TrainConfig`` / ``EvalConfig`` objects from a scale name
plus overrides of their fields (an override of ``None`` keeps the preset).
The presets are the only copy of their values: the config fields they
fill have no dataclass default, and the full grid is ``GridConfig``'s
defaults.  YAML files are read and written by ``simorx.harness.results``.
"""

from __future__ import annotations

from .errors import ConfigError
from .harness.bler import EvalConfig
from .phy.grid import GridConfig
from .training import TrainConfig

FULL_GRID = GridConfig()   # GridConfig's defaults are the full-scale grid
DESK_GRID = GridConfig(num_subcarriers=32, guard_lo=2, guard_hi=3)

SCALES = {
    "full": {
        "grid": FULL_GRID,
        "width_in": 128,
        "width_res": 256,
        "batch": 128,
        "iterations": 27188,
        "eval_max_blocks": 2000,
        "eval_max_block_errors": 100,
        "eval_batch": 64,
    },
    "desk": {
        "grid": DESK_GRID,
        "width_in": 16,
        "width_res": 32,
        "batch": 16,
        "iterations": 2000,
        "eval_max_blocks": 96,
        "eval_max_block_errors": 40,
        "eval_batch": 32,
    },
}

EBNO_GRID_DB = tuple(range(-4, 9))


def _scale(name: str) -> dict:
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None


def _resolve(defaults: dict, overrides: dict) -> dict:
    """Preset ``defaults`` with every override that is not ``None`` applied."""
    return {**defaults, **{k: v for k, v in overrides.items() if v is not None}}


def make_train_config(scale: str = "desk", **overrides) -> TrainConfig:
    preset = _scale(scale)
    defaults = {k: preset[k] for k in ("grid", "width_in", "width_res", "batch", "iterations")}
    return TrainConfig(**_resolve(defaults, overrides))


def make_eval_config(scale: str = "desk", **overrides) -> EvalConfig:
    preset = _scale(scale)
    defaults = {
        "grid": preset["grid"],
        "max_blocks": preset["eval_max_blocks"],
        "max_block_errors": preset["eval_max_block_errors"],
        "batch": preset["eval_batch"],
        "ebno_grid_db": EBNO_GRID_DB,
    }
    kwargs = _resolve(defaults, overrides)
    try:
        kwargs["ebno_grid_db"] = tuple(kwargs["ebno_grid_db"])
    except TypeError:
        raise ConfigError(f"ebno_grid_db must be a list of numbers, got {kwargs['ebno_grid_db']!r}") from None
    return EvalConfig(**kwargs)
