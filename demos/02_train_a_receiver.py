"""Train the convolutional receiver from scratch at desk scale and watch it learn.

The model never sees the channel: it gets the raw received grid (pilots
included) as stacked real planes and is trained to emit one logit per coded
bit.  The objective is the mean binary cross-entropy against the
transmitted bits; the printed metric L = 1 - BCE(bits) is an achievable
rate in bits per coded bit, so 0 means "knows nothing" and 1 is perfect.

A few hundred iterations at a fixed, friendly SNR are enough to see L climb
well above 0.5 on a line-of-sight-like profile.  The full shipping budget
(2000 desk iterations over the whole SNR range) does better still; pass
--iterations 2000 --spread if you have a few minutes.

Run:  python3 demos/02_train_a_receiver.py [--iterations 300] [--out runs/demo_train]
"""

import argparse
import os

import numpy as np

from simorx.config import make_eval_config, make_train_config
from simorx.harness.bler import GenieReceiver, NeuralReceiver, run_bler
from simorx.phy.modulation import get_scheme
from simorx.training import train_source


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--profile", default="cdl_d_like")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spread", action="store_true",
                        help="train over the full -4..8 dB range instead of fixed 8 dB")
    parser.add_argument("--out", default="runs/demo_train")
    args = parser.parse_args()

    snr = {} if args.spread else {"ebno_lo_db": 8.0, "ebno_hi_db": 8.0}
    cfg = make_train_config(
        "desk",
        profile=args.profile,
        seed=args.seed,
        iterations=args.iterations,
        **snr,
    )
    print(f"training {cfg.iterations} iterations x batch {cfg.batch} "
          f"({cfg.samples} transport blocks) on {cfg.profile}")
    print(f"model: widths {cfg.width_in}/{cfg.width_res}, {cfg.num_blocks} residual blocks, "
          f"{cfg.scheme().bits_per_symbol} logits per resource element")

    result = train_source(cfg)
    losses = result.losses
    stride = max(1, len(losses) // 10)
    print("\n  iter      L")
    for i in range(0, len(losses), stride):
        print(f"  {i:4d}  {losses[i]:+6.3f}")
    print(f"  {len(losses) - 1:4d}  {losses[-1]:+6.3f}  <- final")

    os.makedirs(args.out, exist_ok=True)
    ckpt, log = result.save(args.out, "source")
    print(f"\ncheckpoint: {ckpt}")
    print(f"run log:    {log}")

    print("\n=== BLER against the genie (true-channel) baseline ===")
    eval_cfg = make_eval_config(
        "desk", profile=args.profile, ebno_grid_db=(4.0, 8.0), max_blocks=64
    )
    neural = run_bler(eval_cfg, NeuralReceiver(result.model, eval_cfg.grid,
                                               result.checkpoint.fingerprint_id))
    genie = run_bler(eval_cfg, GenieReceiver(get_scheme(cfg.modulation), eval_cfg.grid))
    print("  Eb/N0   trained   genie")
    for ours, oracle in zip(neural.points, genie.points):
        print(f"  {ours.ebno_db:5.1f}   {ours.bler:7.3f}   {oracle.bler:5.3f}")
    print("the genie knows the channel exactly; the gap is the price of learning it")


if __name__ == "__main__":
    main()
