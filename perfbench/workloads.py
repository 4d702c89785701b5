"""The benchmark's workloads: set-up, one operation, and output checks.

Every workload hands the package only configs it generates from the run's
seed, and calls the package through its public functions, looked up on
their modules at call time so that the traced run sees every call.  The
package is imported inside ``setup``, so set-up time includes it.

An operation is one call of a user-level job: a short source training, a
pair of adaptations, or a BLER evaluation of two receivers over three
Eb/No points.  Its
``units`` are the training iterations or decoded batches it ran; a job
that raises counts all its units as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

DATA = os.path.join(HERE, "data")
CHECKPOINT_PATH = os.path.join(DATA, "desk_qpsk_cdl_d.ckpt")
REFERENCE_PATH = os.path.join(DATA, "reference.json")
PROFILE = "cdl_d_like"
BLER_POINTS_DB = (-2.0, 2.0, 6.0)

# Iterations averaged for an operation's rate L.
RATE_TAIL = 5


def op_seed(seed: int, index: int) -> int:
    """The package seed for operation ``index`` of a run seeded ``seed``."""
    return seed * 100_003 + index


@dataclass
class Outcome:
    units: int            # training iterations or decoded batches
    blocks: int           # transport blocks processed
    seconds: float
    output: bytes         # losses or BLER counts, for the traced/untraced comparison
    rate_l: float = float("nan")
    points: list = field(default_factory=list)   # (ebno_db, blocks, block_errors)
    errors: list = field(default_factory=list)


def _verified_checkpoint() -> str:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["checkpoint_sha256"]
    with open(CHECKPOINT_PATH, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if actual != expected:
        raise RuntimeError(
            f"{CHECKPOINT_PATH}: SHA-256 {actual} does not match the recorded {expected}"
        )
    return CHECKPOINT_PATH


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    # Floor on the median over operations of their final rate L, in bits;
    # None where no floor applies.
    rate_floor = None

    def setup(self, seed: int):
        raise NotImplementedError

    def planned_units(self) -> int:
        """Units one operation runs, counted as failed when it raises."""
        raise NotImplementedError

    def op(self, state, seed: int, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, state, outcomes: list) -> list:
        if self.rate_floor is None:
            return []
        rates = [o.rate_l for o in outcomes]
        return checks.rate_floor(self.name, float(np.median(rates)), self.rate_floor)


# -- training ---------------------------------------------------------------


@dataclass
class TrainState:
    cfg: object
    training: object


class TrainSource(Workload):
    name = "train_source"
    scale = "desk"
    overrides = {}
    iterations = 20
    rate_floor = 0.3

    def planned_units(self):
        return self.iterations

    def setup(self, seed):
        from simorx.chain import code_for_grid
        from simorx.channel.profiles import load_profile
        from simorx.config import make_train_config

        cfg = make_train_config(self.scale, modulation="qpsk", profile=PROFILE,
                                iterations=self.iterations, seed=seed, **self.overrides)
        code_for_grid(cfg.grid, cfg.scheme(), cfg.ldpc_seed)
        load_profile(cfg.profile)
        return TrainState(cfg, importlib.import_module("simorx.training"))

    def op(self, state, seed, index):
        cfg = dataclasses.replace(state.cfg, seed=op_seed(seed, index))
        t0 = time.perf_counter()
        result = state.training.train_source(cfg)
        seconds = time.perf_counter() - t0
        return Outcome(
            units=cfg.iterations, blocks=cfg.samples, seconds=seconds,
            output=result.losses.tobytes(),
            rate_l=float(np.mean(result.losses[-RATE_TAIL:])),
            errors=checks.finite(f"{self.name} losses", result.losses),
        )


class TrainFull(TrainSource):
    name = "train_full"
    scale = "full"
    overrides = {"batch": 2}
    iterations = 2
    # A few full-scale iterations from scratch do not learn yet; only
    # finiteness (checked per operation) applies.
    rate_floor = None


# -- adaptation -------------------------------------------------------------

# Coarse layers each technique must leave bit-exact (five blocks after
# surgery; the 16QAM output conv is re-initialised and always trains).
FROZEN_BY_TECHNIQUE = {
    "fine_tuning_plus": ("input_conv", "block1"),
    "feature_extraction": ("input_conv", "block1", "block2", "block3", "block4"),
}


@dataclass
class AdaptState:
    target: object
    source: object       # the source checkpoint, for the freeze check
    transfer: object


class AdaptTransfer(Workload):
    name = "adapt_transfer"
    budget = 200      # source-scale iterations; each adaptation runs alpha * budget
    alpha = 0.125
    # After 25 steps the fresh 16QAM head has only just climbed out of its
    # random start: one operation's final L is 0.10 +- 0.06 bits (-0.03 to
    # 0.20 over 47 operations), while with a learning rate of 0 it stays
    # at its start, -0.67 to -1.98.  The floor sits between the two.
    rate_floor = -0.3

    def planned_units(self):
        return len(FROZEN_BY_TECHNIQUE) * max(1, round(self.alpha * self.budget))

    def setup(self, seed):
        from simorx.chain import code_for_grid
        from simorx.channel.profiles import load_profile
        from simorx.checkpoint import read_checkpoint
        from simorx.config import make_train_config

        source = read_checkpoint(_verified_checkpoint())
        target = make_train_config("desk", modulation="16qam", profile=PROFILE,
                                   iterations=self.budget, seed=seed)
        code_for_grid(target.grid, target.scheme(), target.ldpc_seed)
        load_profile(target.profile)
        return AdaptState(target, source, importlib.import_module("simorx.transfer"))

    def op(self, state, seed, index):
        target = dataclasses.replace(state.target, seed=op_seed(seed, index))
        units = blocks = 0
        seconds = 0.0
        losses, errors = [], []
        for technique, frozen in FROZEN_BY_TECHNIQUE.items():
            cfg = state.transfer.AdaptConfig(technique, self.alpha, target)
            t0 = time.perf_counter()
            result = state.transfer.adapt(CHECKPOINT_PATH, cfg)
            seconds += time.perf_counter() - t0
            units += result.steps
            blocks += result.steps * target.batch
            losses.append(result.losses)
            errors += checks.finite(f"{technique} losses", result.losses)
            errors += checks.frozen_unchanged(technique, state.source, result.checkpoint, frozen)
        return Outcome(
            units=units, blocks=blocks, seconds=seconds,
            output=b"".join(l.tobytes() for l in losses),
            rate_l=float(np.mean([l[-RATE_TAIL:].mean() for l in losses])),
            errors=errors,
        )


# -- BLER evaluation ----------------------------------------------------------


class FiniteLlrs:
    """Receiver adapter that records whether every LLR it passed on was finite."""

    def __init__(self, receiver):
        self.receiver = receiver
        self.nonfinite = 0

    def llrs(self, tb):
        out = self.receiver.llrs(tb)
        if not np.isfinite(out).all():
            self.nonfinite += 1
        return out

    def describe(self):
        return self.receiver.describe()


@dataclass
class BlerState:
    cfg: object
    receivers: dict      # label -> receiver
    bler: object


class BlerEval(Workload):
    """The stored neural receiver and the genie receiver on the same blocks."""

    name = "bler_eval"
    batch = 32
    blocks_per_point = 32
    neural_ceiling_6db = 0.05

    def planned_units(self):
        return 2 * len(BLER_POINTS_DB) * -(-self.blocks_per_point // self.batch)

    def setup(self, seed):
        from simorx.chain import code_for_grid
        from simorx.channel.profiles import load_profile
        from simorx.checkpoint import load_checkpoint, read_checkpoint
        from simorx.config import make_eval_config
        from simorx.harness.bler import GenieReceiver, NeuralReceiver
        from simorx.phy.modulation import get_scheme

        # max_block_errors equals max_blocks, so every point runs the same
        # number of blocks whatever the receiver's quality.
        cfg = make_eval_config("desk", modulation="qpsk", profile=PROFILE,
                               ebno_grid_db=BLER_POINTS_DB, batch=self.batch,
                               max_blocks=self.blocks_per_point,
                               max_block_errors=self.blocks_per_point, seed=seed)
        scheme = get_scheme(cfg.modulation)
        code_for_grid(cfg.grid, scheme, cfg.ldpc_seed)
        load_profile(cfg.profile)
        ck = read_checkpoint(_verified_checkpoint())
        receivers = {
            "neural": NeuralReceiver(load_checkpoint(ck).model, cfg.grid, ck.fingerprint_id),
            "genie": GenieReceiver(scheme, cfg.grid),
        }
        return BlerState(cfg, receivers, importlib.import_module("simorx.harness.bler"))

    def op(self, state, seed, index):
        cfg = dataclasses.replace(state.cfg, seed=op_seed(seed, index))
        units = blocks = 0
        seconds = 0.0
        points, counts, errors = [], [], []
        for label, inner in state.receivers.items():
            receiver = FiniteLlrs(inner)
            t0 = time.perf_counter()
            curve = state.bler.run_bler(cfg, receiver)
            seconds += time.perf_counter() - t0
            units += sum(-(-p.blocks // cfg.batch) for p in curve.points)
            blocks += sum(p.blocks for p in curve.points)
            points += [(label, p.ebno_db, p.blocks, p.block_errors) for p in curve.points]
            counts += [(label, p.blocks, p.block_errors, p.bit_errors) for p in curve.points]
            if receiver.nonfinite:
                errors.append(f"{label}: {receiver.nonfinite} batches had non-finite LLRs")
        return Outcome(units=units, blocks=blocks, seconds=seconds,
                       output=repr(counts).encode(), points=points, errors=errors)

    def check(self, state, outcomes):
        totals = {}
        for o in outcomes:
            for label, ebno, blocks, block_errors in o.points:
                t = totals.setdefault((label, ebno), [0, 0])
                t[0] += blocks
                t[1] += block_errors
        genie = [(ebno, b, e) for (label, ebno), (b, e) in totals.items() if label == "genie"]
        last = BLER_POINTS_DB[-1]
        return checks.genie_matches_reference(genie, load_reference()["genie_bler"]) + \
            checks.bler_ceiling(f"neural at {last} dB", *totals[("neural", last)],
                                self.neural_ceiling_6db)


WORKLOADS = {w.name: w for w in (TrainSource(), AdaptTransfer(), BlerEval(), TrainFull())}
