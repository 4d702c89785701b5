"""Source-to-target experiment sweeps.

One sweep = one source training (or a pre-trained checkpoint), a set of
adaptations on the target domain, and a BLER evaluation of every variant.
For each seed it runs every technique at every α in ``alphas``, plus the
``without_tl`` benchmark at every α and the ``model_transfer`` benchmark
once, each if it is in ``benchmarks``.  One technique across α budgets is
``techniques=(t,), benchmarks=()``; the paper's grid of techniques × α
budgets is one sweep directory.

Everything the sweep produced (checkpoints, run logs, CSV curves, the
manifest echoing the resolved config and naming every file) lands in one
output directory, made after a given ``source_checkpoint`` has been read.
Rerunning a sweep from its manifest (``SweepConfig.from_dict`` of the
echoed config) reproduces the files byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..channel.profiles import load_profile
from ..checkpoint import read_checkpoint
from ..config import EBNO_GRID_DB, make_eval_config, make_train_config
from ..errors import ConfigError, is_integer
from ..phy.modulation import get_scheme
from ..training import TrainResult, train_source
from ..transfer import BENCHMARKS, TECHNIQUES, AdaptConfig, adapt, alpha_steps, run_benchmark
from .bler import BlerCurve, GenieReceiver, NeuralReceiver, run_bler
from .results import emit_results, make_out_dir

LIST_FIELDS = ("techniques", "benchmarks", "alphas", "seeds", "ebno_grid_db")


@dataclass(frozen=True)
class SweepConfig:
    scale: str = "desk"
    source_modulation: str = "qpsk"
    source_profile: str = "cdl_c_like"
    source_seed: int = 0
    target_modulation: str = "16qam"
    target_profile: str = "cdl_c_like"
    techniques: tuple = TECHNIQUES
    benchmarks: tuple = BENCHMARKS
    alphas: tuple = (0.1,)
    seeds: tuple = (0,)
    ebno_grid_db: tuple = EBNO_GRID_DB
    iterations: int | None = None        # source-budget override
    batch: int | None = None
    eval_max_blocks: int | None = None
    eval_max_block_errors: int | None = None
    eval_batch: int | None = None
    include_genie: bool = False
    source_checkpoint: str | None = None

    def __post_init__(self):
        """Reject every bad value before any training starts."""
        for name in LIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for t in self.techniques:
            if t not in TECHNIQUES:
                raise ConfigError(f"unknown technique {t!r}")
        for b in self.benchmarks:
            if b not in BENCHMARKS:
                raise ConfigError(f"unknown benchmark {b!r}")
        for a in self.alphas:
            alpha_steps(a, 0)
        if not self.seeds:
            raise ConfigError("seeds cannot be empty")
        bad = [s for s in (self.source_seed, *self.seeds) if not (is_integer(s) and s >= 0)]
        if bad:
            raise ConfigError(f"source_seed and seeds must be integers >= 0, got {bad!r}")
        for name in ("techniques", "benchmarks", "alphas", "seeds"):  # each names output files
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats an entry: {list(values)!r}")
        for modulation in (self.source_modulation, self.target_modulation):
            get_scheme(modulation)
        for profile in (self.source_profile, self.target_profile):
            load_profile(profile)

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in raw.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown sweep config keys {sorted(unknown)}")
        return cls(**data)


@dataclass
class SweepResult:
    out_dir: str
    curve_paths: list
    manifest_path: str
    source_checkpoint_path: str | None
    checkpoint_paths: list
    log_paths: list


def sweep(cfg: SweepConfig, out_dir) -> SweepResult:
    """Run a full sweep into ``out_dir``.  A manifest's config echo comes
    back as a ``SweepConfig`` through ``SweepConfig.from_dict``."""
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

    # Built and read before the output directory is made, so a bad config
    # or checkpoint leaves nothing behind.
    source_cfg = train_cfg(cfg.source_modulation, cfg.source_profile, cfg.source_seed)
    targets = {seed: train_cfg(cfg.target_modulation, cfg.target_profile, seed) for seed in cfg.seeds}
    source_path = cfg.source_checkpoint
    source = None if source_path is None else read_checkpoint(source_path)
    make_out_dir(out_dir)
    if source is None:
        result = train_source(source_cfg)
        source = result.checkpoint
        source_path, *log = result.save(out_dir, "source")
        ckpt_paths.append(source_path)
        log_paths.extend(log)

    curves: dict[str, BlerCurve] = {}

    def record(name: str, res: TrainResult, seed: int, technique: str, alpha) -> None:
        """Store one variant's checkpoint and run log, and evaluate it."""
        path, *log = res.save(out_dir, name)
        ckpt_paths.append(path)
        log_paths.extend(log)
        eval_cfg = dataclasses.replace(base_eval, seed=seed)
        curve = run_bler(eval_cfg, NeuralReceiver(res.model, eval_cfg.grid, res.checkpoint.fingerprint_id))
        curves[name] = dataclasses.replace(
            curve, technique=technique, alpha=alpha, source_fp=source.fingerprint_id
        )

    for seed, tgt in targets.items():
        for a in cfg.alphas:
            for tech in cfg.techniques:
                res = adapt(source, AdaptConfig(tech, float(a), tgt))
                record(f"{tech}_a{a}_s{seed}", res, seed, tech, float(a))
            if "without_tl" in cfg.benchmarks:
                res = run_benchmark("without_tl", source, tgt, alpha=float(a))
                record(f"without_tl_a{a}_s{seed}", res, seed, "without_tl", float(a))
        if "model_transfer" in cfg.benchmarks:
            res = run_benchmark("model_transfer", source, tgt)
            record(f"model_transfer_s{seed}", res, seed, "model_transfer", None)

    if cfg.include_genie:
        genie = GenieReceiver(get_scheme(cfg.target_modulation), base_eval.grid)
        curves["genie"] = run_bler(base_eval, genie)

    *curve_paths, manifest = emit_results(
        curves,
        out_dir,
        cfg.to_dict(),
        profiles={cfg.source_profile, cfg.target_profile},
        files=ckpt_paths + log_paths,
    )
    return SweepResult(out_dir, curve_paths, manifest, source_path, ckpt_paths, log_paths)
