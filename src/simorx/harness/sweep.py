"""Source-to-target experiment sweeps.

One sweep = one source training (or a pre-trained checkpoint), a set of
adaptations on the target domain, and a BLER evaluation of every variant.
Two modes:

- ``techniques``: every technique at one α, per seed, bracketed by the
  ``model_transfer`` and ``without_tl`` benchmarks.
- ``alpha``: one technique across a grid of α budgets.

Everything the sweep produced (checkpoints, run logs, CSV curves, the
manifest echoing the resolved config) lands in one output directory;
rerunning a sweep from its manifest reproduces the files byte for byte.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from ..checkpoint import Checkpoint, read_checkpoint, save_checkpoint
from ..errors import ConfigError
from ..training import TrainResult, train_source
from ..transfer import BENCHMARKS, TECHNIQUES, AdaptConfig, adapt, alpha_steps, run_benchmark
from .bler import BlerCurve, GenieReceiver, NeuralReceiver, run_bler
from .results import emit_results


@dataclass(frozen=True)
class SweepConfig:
    mode: str = "techniques"
    scale: str = "desk"
    source_modulation: str = "qpsk"
    source_profile: str = "cdl_c_like"
    source_seed: int = 0
    target_modulation: str = "16qam"
    target_profile: str = "cdl_c_like"
    techniques: tuple = TECHNIQUES
    benchmarks: tuple = BENCHMARKS
    alpha: float = 0.1
    alphas: tuple = (0.05, 0.35, 1.0)
    alpha_technique: str = "fine_tuning"
    seeds: tuple = (0,)
    ebno_grid_db: tuple = tuple(range(-4, 9))
    iterations: int | None = None        # source-budget override
    batch: int | None = None
    eval_max_blocks: int | None = None
    eval_max_block_errors: int | None = None
    eval_batch: int | None = None
    include_genie: bool = False
    source_checkpoint: str | None = None

    def __post_init__(self):
        if self.mode not in ("techniques", "alpha"):
            raise ConfigError(f"unknown sweep mode {self.mode!r}")
        for t in self.techniques:
            if t not in TECHNIQUES:
                raise ConfigError(f"unknown technique {t!r}")
        for b in self.benchmarks:
            if b not in BENCHMARKS:
                raise ConfigError(f"unknown benchmark {b!r}")
        if self.alpha_technique not in TECHNIQUES:
            raise ConfigError(f"unknown alpha_technique {self.alpha_technique!r}")
        for a in (self.alpha, *self.alphas):
            alpha_steps(a, 0)  # rejects a bad alpha before any training
        if not self.seeds:
            raise ConfigError("seeds cannot be empty")

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in raw.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown sweep config keys {sorted(unknown)}")
        coerced = {
            k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
        }
        return cls(**coerced)


@dataclass
class SweepResult:
    out_dir: str
    curve_paths: list
    manifest_path: str
    source_checkpoint_path: str | None
    checkpoint_paths: list
    log_paths: list


def sweep(cfg, out_dir) -> SweepResult:
    """Run a full sweep into ``out_dir``; accepts a SweepConfig or its dict form."""
    from ..config import make_eval_config, make_train_config

    if isinstance(cfg, dict):
        cfg = SweepConfig.from_dict(cfg)
    ckpt_paths: list = []
    log_paths: list = []

    def train_cfg(modulation: str, profile: str, seed: int):
        return make_train_config(
            cfg.scale, modulation=modulation, profile=profile, seed=seed,
            iterations=cfg.iterations, batch=cfg.batch,
        )

    base_eval = make_eval_config(
        cfg.scale,
        modulation=cfg.target_modulation,
        profile=cfg.target_profile,
        seed=cfg.seeds[0],
        ebno_grid_db=cfg.ebno_grid_db,
        max_blocks=cfg.eval_max_blocks,
        max_block_errors=cfg.eval_max_block_errors,
        batch=cfg.eval_batch,
    )

    os.makedirs(out_dir, exist_ok=True)
    if cfg.source_checkpoint is not None:
        source = read_checkpoint(cfg.source_checkpoint)  # fail fast before any training
        source_path = cfg.source_checkpoint
    else:
        result = train_source(train_cfg(cfg.source_modulation, cfg.source_profile, cfg.source_seed))
        source = result.checkpoint
        source_path = os.path.join(out_dir, "source.ckpt")
        save_checkpoint(source, source_path)
        log = os.path.join(out_dir, "source_log.csv")
        result.write_log(log)
        log_paths.append(log)
        ckpt_paths.append(source_path)

    def evaluate(model, seed: int, technique: str, alpha, target_fp: str) -> BlerCurve:
        eval_cfg = dataclasses.replace(base_eval, seed=seed)
        curve = run_bler(eval_cfg, NeuralReceiver(model, eval_cfg.grid, target_fp))
        curve.metadata.update(
            technique=technique,
            alpha="" if alpha is None else alpha,
            seed=seed,
            source_fp=source.fingerprint_id if isinstance(source, Checkpoint) else "",
        )
        return curve

    def store(name: str, res: TrainResult) -> None:
        path = os.path.join(out_dir, f"{name}.ckpt")
        save_checkpoint(res.checkpoint, path)
        ckpt_paths.append(path)
        if res.log_lines:
            log = os.path.join(out_dir, f"{name}_log.csv")
            res.write_log(log)
            log_paths.append(log)

    curves: dict[str, BlerCurve] = {}
    if cfg.mode == "techniques":
        for seed in cfg.seeds:
            tgt = train_cfg(cfg.target_modulation, cfg.target_profile, seed)
            for tech in cfg.techniques:
                res = adapt(source, AdaptConfig(tech, cfg.alpha, tgt))
                name = f"{tech}_a{cfg.alpha}_s{seed}"
                store(name, res)
                curves[name] = evaluate(res.model, seed, tech, cfg.alpha, res.checkpoint.fingerprint_id)
            for bench in cfg.benchmarks:
                res = run_benchmark(bench, source, tgt, alpha=cfg.alpha)
                name = f"{bench}_s{seed}" if bench == "model_transfer" else f"{bench}_a{cfg.alpha}_s{seed}"
                store(name, res)
                alpha = None if bench == "model_transfer" else cfg.alpha
                curves[name] = evaluate(res.model, seed, bench, alpha, res.checkpoint.fingerprint_id)
    else:
        seed = cfg.seeds[0]
        tgt = train_cfg(cfg.target_modulation, cfg.target_profile, seed)
        for a in cfg.alphas:
            res = adapt(source, AdaptConfig(cfg.alpha_technique, float(a), tgt))
            name = f"{cfg.alpha_technique}_a{a}_s{seed}"
            store(name, res)
            curves[name] = evaluate(res.model, seed, cfg.alpha_technique, float(a), res.checkpoint.fingerprint_id)

    if cfg.include_genie:
        from ..phy.modulation import get_scheme

        curve = run_bler(base_eval, GenieReceiver(get_scheme(cfg.target_modulation), base_eval.grid))
        curve.metadata.update(technique="genie", alpha="", seed=cfg.seeds[0], source_fp="")
        curves["genie"] = curve

    paths = emit_results(
        curves,
        out_dir,
        cfg.to_dict(),
        profiles={cfg.source_profile, cfg.target_profile},
    )
    curve_files = [p for p in paths if p.endswith(".csv")]
    manifest = [p for p in paths if p.endswith("manifest.yaml")][0]
    return SweepResult(out_dir, curve_files, manifest, source_path, ckpt_paths, log_paths)
