"""Regenerate the benchmark's stored receiver and its reference figures.

Trains the fixed desk-scale QPSK receiver (``cdl_d_like``, Eb/No drawn over
-4...8 dB, batch 16, widths 16/32, seed 0, the desk budget of 2000
iterations) with the package's own ``train_source`` and ``save_checkpoint``,
then records in ``perfbench/data/reference.json``:

- the checkpoint's SHA-256, which every run verifies before use;
- the genie receiver's reference BLER at each evaluation point, from a
  long run on seeds no benchmark run draws, for the genie count check;
- the stored receiver's neural BLER at the same points, for information.

Run from the repository root (takes about ten minutes on 2 vCPUs):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (puts the package on the path)

from simorx.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint  # noqa: E402
from simorx.config import make_eval_config, make_train_config  # noqa: E402
from simorx.harness.bler import GenieReceiver, NeuralReceiver, run_bler  # noqa: E402
from simorx.phy.modulation import get_scheme  # noqa: E402
from simorx.training import train_source  # noqa: E402

# Reference seeds sit far above any seed a benchmark run derives.
REFERENCE_SEED = 2**48
# Blocks per Eb/No point for the genie reference; the stored receiver's
# BLERs, kept for information only, use a quarter of them.
REFERENCE_BLOCKS = 9600


def train_and_save(path: str) -> None:
    cfg = make_train_config("desk", modulation="qpsk", profile=workloads.PROFILE, seed=0)
    result = train_source(cfg)
    print(f"trained {cfg.iterations} iterations; mean L over the last 100: "
          f"{result.losses[-100:].mean():.4f}")
    save_checkpoint(result.checkpoint, path)


def reference_blers(receiver_for, blocks: int) -> list:
    cfg = make_eval_config(
        "desk", modulation="qpsk", profile=workloads.PROFILE,
        ebno_grid_db=workloads.BLER_POINTS_DB, max_blocks=blocks,
        max_block_errors=blocks, seed=REFERENCE_SEED,
    )
    curve = run_bler(cfg, receiver_for(cfg))
    return [{"ebno_db": p.ebno_db, "blocks": p.blocks, "bler": p.bler} for p in curve.points]


def main() -> None:
    train_and_save(workloads.CHECKPOINT_PATH)
    with open(workloads.CHECKPOINT_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    model = load_checkpoint(read_checkpoint(workloads.CHECKPOINT_PATH)).model
    genie = reference_blers(lambda c: GenieReceiver(get_scheme("qpsk"), c.grid), REFERENCE_BLOCKS)
    neural = reference_blers(lambda c: NeuralReceiver(model, c.grid), REFERENCE_BLOCKS // 4)
    reference = {
        "checkpoint": os.path.basename(workloads.CHECKPOINT_PATH),
        "checkpoint_sha256": digest,
        "regenerate": "python3 perfbench/make_reference.py",
        "reference_seed": REFERENCE_SEED,
        "genie_bler": genie,
        "neural_bler": neural,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
