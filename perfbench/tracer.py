"""Outside-in tracing of the simorx package for the traced benchmark run.

The tracer replaces public functions and methods with thin wrappers that
record one span (name, start, end, parent) per call, keeps the spans in
memory, and restores every original on exit.  Functions are wrapped in the
namespace where their caller looks them up (``from ... import`` binds a
copy, so ``simorx.training.simulate_batch`` and
``simorx.harness.bler.simulate_batch`` are separate wrap points); methods
are wrapped on their classes.

A span's self time is its duration minus the durations of its direct
children.  Calls are serial, so spans nest and the self times of all spans
plus the root's own self time add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = "bench.ops"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 for the root
    frozen: bool = False   # a backward pass through a frozen coarse layer


def _conv_gemm_flops(layer, x_shape) -> float:
    # One im2col GEMM: [m*h*w, kh*kw*c_in] @ [kh*kw*c_in, c_out].
    m, h, w = x_shape[:3]
    kh, kw = layer.kernel
    return 2.0 * m * h * w * kh * kw * layer.in_channels * layer.out_channels


def _frozen_prefix(model) -> set:
    """Ids of the coarse layers before the first trainable one."""
    ids = set()
    for name, layer in model.coarse_layers():
        if model.trainable[name]:
            break
        ids.add(id(layer))
    return ids


class Tracer:
    """Install with ``with tracer:``; spans accumulate in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._frozen_ids: set = set()
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def root(self):
        """Context manager for the span that encloses one measured phase."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.idx = tracer._open(ROOT)
                return self

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Root()

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        pre = getattr(hook, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, tracer.spans[idx], args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self):
        try:
            for owner, attr, name, hook in _wrap_points():
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time in seconds per span name (the root included)."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out = defaultdict(float)
        for sp, c in zip(self.spans, child):
            out[sp.name] += (sp.end - sp.start) - c
        return dict(out)

    def busy_times(self) -> dict:
        """Total duration in seconds per span name, counting each call once
        even when a name nests inside itself."""
        out = defaultdict(float)
        for sp in self.spans:
            if sp.parent < 0 or self.spans[sp.parent].name != sp.name:
                out[sp.name] += sp.end - sp.start
        return dict(out)

    def calls(self) -> dict:
        out = defaultdict(int)
        for sp in self.spans:
            out[sp.name] += 1
        return dict(out)

    def wall(self) -> float:
        return sum(sp.end - sp.start for sp in self.spans if sp.parent < 0)

    def frozen_backward(self) -> float:
        return sum(sp.end - sp.start for sp in self.spans if sp.frozen)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "parent": sp.parent,
                    "start_s": sp.start - t0, "end_s": sp.end - t0,
                    "frozen": sp.frozen,
                }) + "\n")


# -- hooks run after a wrapped call returns -----------------------------------

def _count_conv_forward(tracer, span, args, result):
    layer, x = args[0], args[1]
    tracer.counters["conv_flops"] += _conv_gemm_flops(layer, x.shape)


def _count_conv_backward(tracer, span, args, result):
    layer, grad_out = args[0], args[1]
    # Weight gradient and input gradient: two GEMMs of the forward's size.
    tracer.counters["conv_flops"] += 2.0 * _conv_gemm_flops(layer, grad_out.shape)
    span.frozen = id(layer) in tracer._frozen_ids


def _mark_frozen(tracer, span, args, result):
    span.frozen = id(args[0]) in tracer._frozen_ids


def _count_decode(tracer, span, args, result):
    converged = result[1]
    tracer.counters["decoded_blocks"] += converged.size
    tracer.counters["converged_blocks"] += int(converged.sum())


def _count_llr_blocks(key):
    def hook(tracer, span, args, result):
        tracer.counters[key] += result.shape[0]
    return hook


def _model_backward(tracer, span, args, result):
    tracer._frozen_ids = set()


def _note_frozen_prefix(tracer, args):
    # Before a backward pass: which coarse layers it crosses while frozen,
    # from the public coarse_layers() and trainable, so that the spans of
    # the call can be tagged.
    tracer._frozen_ids = _frozen_prefix(args[0])


_model_backward.before = _note_frozen_prefix


def _wrap_points():
    """``(owner, attribute, span name, hook)`` for every traced call."""
    from simorx.harness.bler import GenieReceiver, NeuralReceiver
    from simorx.numerics.adam import Adam
    from simorx.numerics.layers import Conv2D, LayerNorm, ReLU
    from simorx.receiver import ReceiverModel, ResNetBlock

    def mod(name):
        return importlib.import_module(name)

    training, transfer, bler = mod("simorx.training"), mod("simorx.transfer"), mod("simorx.harness.bler")
    chain, checkpoint = mod("simorx.chain"), mod("simorx.checkpoint")
    points = [
        # entry points the benchmark calls through their modules
        (training, "train_source", "training.train_source", None),
        (transfer, "adapt", "transfer.adapt", None),
        (bler, "run_bler", "harness.run_bler", None),
        (checkpoint, "read_checkpoint", "checkpoint.read_checkpoint", None),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        # training loop and its callees, as training.py looks them up
        (training, "run_training", "training.run_training", None),
        (training, "simulate_batch", "chain.simulate_batch", None),
        (training, "code_for_grid", "chain.code_for_grid", None),
        (training, "load_profile", "channel.load_profile", None),
        (training, "preprocess", "receiver.preprocess", None),
        (training, "extract_llr_bits", "receiver.extract_llr_bits", None),
        (training, "bmd_loss", "receiver.bmd_loss", None),
        (training, "bmd_loss_grad", "receiver.bmd_loss_grad", None),
        (training, "scatter_llr_bit_grad", "receiver.scatter_llr_bit_grad", None),
        (training, "checkpoint_from_model", "checkpoint.checkpoint_from_model", None),
        # adaptation, as transfer.py looks them up
        (transfer, "run_training", "training.run_training", None),
        (transfer, "read_checkpoint", "checkpoint.read_checkpoint", None),
        (transfer, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (transfer, "add_resnet_block", "transfer.add_resnet_block", None),
        (transfer, "set_trainable", "transfer.set_trainable", None),
        (transfer, "checkpoint_from_model", "checkpoint.checkpoint_from_model", None),
        # evaluation, as bler.py looks them up
        (bler, "simulate_batch", "chain.simulate_batch", None),
        (bler, "code_for_grid", "chain.code_for_grid", None),
        (bler, "load_profile", "channel.load_profile", None),
        (bler, "decode", "phy.decode", _count_decode),
        (bler, "preprocess", "receiver.preprocess[eval]", None),
        (bler, "extract_llr_bits", "receiver.extract_llr_bits[eval]", None),
        (NeuralReceiver, "llrs", "harness.NeuralReceiver.llrs", _count_llr_blocks("neural_blocks")),
        (GenieReceiver, "llrs", "harness.GenieReceiver.llrs", _count_llr_blocks("genie_blocks")),
        # transmission chain, as chain.py looks them up
        (chain, "encode", "phy.encode", None),
        (chain, "qam_map", "phy.qam_map", None),
        (chain, "build_grid", "phy.build_grid", None),
        (chain, "batch_frequency_response", "channel.batch_frequency_response", None),
        (chain, "apply_channel_awgn", "channel.apply_channel_awgn", None),
        # the network, on its classes
        (ReceiverModel, "forward", "receiver.ReceiverModel.forward", None),
        (ReceiverModel, "backward", "receiver.ReceiverModel.backward", _model_backward),
        (ResNetBlock, "forward", "receiver.ResNetBlock.forward", None),
        (ResNetBlock, "backward", "receiver.ResNetBlock.backward", _mark_frozen),
        (Conv2D, "forward", "numerics.Conv2D.forward", _count_conv_forward),
        (Conv2D, "backward", "numerics.Conv2D.backward", _count_conv_backward),
        (LayerNorm, "forward", "numerics.LayerNorm.forward", None),
        (LayerNorm, "backward", "numerics.LayerNorm.backward", None),
        (ReLU, "forward", "numerics.ReLU.forward", None),
        (ReLU, "backward", "numerics.ReLU.backward", None),
        (Adam, "step", "numerics.Adam.step", None),
    ]
    return points
