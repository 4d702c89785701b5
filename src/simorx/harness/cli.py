"""Command line entry points.

Verbs map thinly onto the library: train-source, adapt, eval, sweep,
baseline, params.  Outputs (checkpoints, run logs, CSV curves) land in
--out, next to a ``manifest.yaml`` that echoes the resolved configuration.

Each verb imports the modules it runs when it runs, so that one verb's
set-up does not import another's code (``eval`` never loads the sweep or
transfer-learning modules).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..channel.profiles import PACKAGED_PROFILES
from ..errors import SimorxError

PROFILE_CHOICES = PACKAGED_PROFILES + ("mixed_cdl",)


def _add_domain_args(p, default_modulation="qpsk"):
    p.add_argument("--scale", default="desk", choices=("desk", "full"))
    p.add_argument("--modulation", default=default_modulation, choices=("qpsk", "16qam", "64qam"))
    p.add_argument("--profile", default="cdl_c_like", choices=PROFILE_CHOICES)
    p.add_argument("--seed", type=int, default=0)


def _parse_ebno(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simorx", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train-source", help="train a receiver from scratch")
    _add_domain_args(p)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--out", default="runs/source")

    p = sub.add_parser("adapt", help="adapt a source checkpoint to a target domain")
    p.add_argument("--source", required=True, help="source checkpoint file")
    p.add_argument("--technique", required=True, help="fine_tuning, fine_tuning_plus or feature_extraction")
    p.add_argument("--alpha", type=float, default=0.1)
    _add_domain_args(p, default_modulation="16qam")
    p.add_argument("--iterations", type=int, default=None, help="source-scale budget before alpha")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--out", default="runs/adapt")

    p = sub.add_parser("eval", help="evaluate a checkpoint (BLER over Eb/No)")
    p.add_argument("--checkpoint", required=True)
    _add_domain_args(p)
    p.add_argument("--ebno", type=_parse_ebno, default=None, help="comma-separated dB values")
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--name", default="eval")
    p.add_argument("--out", default="runs/eval")

    p = sub.add_parser("sweep", help="run a sweep described by a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs/sweep")

    p = sub.add_parser("baseline", help="genie-aided BLER curve (no model)")
    _add_domain_args(p)
    p.add_argument("--ebno", type=_parse_ebno, default=None)
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--out", default="runs/baseline")

    p = sub.add_parser("params", help="parameter accounting report")
    p.add_argument("--scale", default="full", choices=("desk", "full"))
    p.add_argument("--modulation", default="qpsk", choices=("qpsk", "16qam", "64qam"))
    return parser


def _eval_cfg(args):
    from ..config import make_eval_config

    return make_eval_config(
        args.scale,
        modulation=args.modulation,
        profile=args.profile,
        seed=args.seed,
        ebno_grid_db=args.ebno,
        max_blocks=args.max_blocks,
    )


def _train_cfg(args):
    from ..config import make_train_config

    return make_train_config(
        args.scale,
        modulation=args.modulation,
        profile=args.profile,
        seed=args.seed,
        iterations=args.iterations,
        batch=args.batch,
    )


def _cmd_train_source(args) -> int:
    from ..training import train_source
    from .results import emit_results, make_out_dir

    cfg = _train_cfg(args)
    make_out_dir(args.out)
    result = train_source(cfg)
    files = result.save(args.out, "source")
    emit_results(
        {},
        args.out,
        {"verb": "train-source", "scale": args.scale, **cfg.fingerprint(),
         "batch": cfg.batch, "iterations": cfg.iterations},
        profiles={args.profile},
        files=files,
    )
    print(f"checkpoint: {files[0]}")
    print(f"final L: {result.final_loss:.4f}")
    return 0


def _cmd_adapt(args) -> int:
    from ..checkpoint import read_checkpoint
    from ..transfer import AdaptConfig, adapt
    from .results import emit_results, make_out_dir

    target = _train_cfg(args)
    cfg = AdaptConfig(args.technique, args.alpha, target)
    source = read_checkpoint(args.source)
    make_out_dir(args.out)
    result = adapt(source, cfg)
    files = result.save(args.out, f"{args.technique}_a{args.alpha}")
    emit_results(
        {},
        args.out,
        {"verb": "adapt", "technique": args.technique, "alpha": args.alpha,
         "steps": result.steps, "scale": args.scale, **target.fingerprint()},
        profiles={args.profile},
        files=files,
    )
    for line in result.transplant_delta:
        print(line)
    print(f"checkpoint: {files[0]} ({result.steps} iterations)")
    return 0


def _cmd_eval(args) -> int:
    """``eval`` scores a checkpoint's receiver, ``baseline`` the genie."""
    from ..phy.modulation import get_scheme
    from .bler import GenieReceiver, NeuralReceiver, run_bler
    from .results import emit_results, make_out_dir

    eval_cfg = _eval_cfg(args)
    config = {"verb": args.verb, "scale": args.scale, "modulation": args.modulation,
              "profile": args.profile, "seed": args.seed,
              "ebno_grid_db": list(eval_cfg.ebno_grid_db), "max_blocks": eval_cfg.max_blocks}
    if args.verb == "eval":
        from ..checkpoint import load_checkpoint, read_checkpoint

        loaded = load_checkpoint(read_checkpoint(args.checkpoint))
        loaded.model.spec.check_fits(args.modulation, eval_cfg.n_rx, args.checkpoint)
        receiver = NeuralReceiver(loaded.model, eval_cfg.grid, loaded.checkpoint.fingerprint_id)
        config["checkpoint"] = args.checkpoint
        name, technique = args.name, "eval"
    else:
        receiver = GenieReceiver(get_scheme(args.modulation), eval_cfg.grid)
        name = technique = "genie"
    make_out_dir(args.out)
    curve = dataclasses.replace(run_bler(eval_cfg, receiver), technique=technique)
    for p in emit_results({name: curve}, args.out, config, profiles={args.profile}):
        print(p)
    return 0


def _cmd_sweep(args) -> int:
    from .results import load_yaml
    from .sweep import SweepConfig, sweep

    cfg = SweepConfig.from_dict(load_yaml(args.config))
    result = sweep(cfg, args.out)
    for p in result.curve_paths + [result.manifest_path]:
        print(p)
    return 0


def _cmd_params(args) -> int:
    from ..config import make_train_config
    from ..receiver import ReceiverModel
    from ..transfer import count_params, reference_comparison

    cfg = make_train_config(args.scale, modulation=args.modulation)
    model = ReceiverModel(cfg.model_spec())
    print(count_params(model).format())
    print()
    print(reference_comparison(cfg))
    return 0


_COMMANDS = {
    "train-source": _cmd_train_source,
    "adapt": _cmd_adapt,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "baseline": _cmd_eval,
    "params": _cmd_params,
}


def _glue_ebno(argv: list) -> list:
    """``--ebno -2,2,6`` as ``--ebno=-2,2,6``.

    argparse takes a token that starts with ``-`` and is not a plain
    number for an option, so a grid that starts below zero would
    otherwise need the ``=`` form.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--ebno":
            out[-1] = f"--ebno={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_ebno(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.verb](args)
    except SimorxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
