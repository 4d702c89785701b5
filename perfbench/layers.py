"""Per-layer metrics of a traced run, computed from its spans.

Times are per unit: per training iteration on the training workloads and
per decoded batch on the BLER workloads, except where the name says per
block or the entry says per call.  A layer the workload never runs reads 0.
The metrics' units are listed in BENCHMARK.json, and where each should move
is written down in perfbench/NOTES.md.
"""

from __future__ import annotations

from tracer import ROOT

LOSS_SPANS = ("receiver.bmd_loss", "receiver.bmd_loss_grad", "receiver.extract_llr_bits",
              "receiver.scatter_llr_bit_grad")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, setup_tracer, traced, plain) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time accounting of the traced phase.

    ``traced`` and ``plain`` are the outcomes of the same operations run
    with and without tracing.  The accounting maps every span name to its
    self time in ms per unit, plus ``remainder`` (time inside the measured
    phase that no traced call covers); its values sum to ``wall``.
    """
    units = sum(o.units for o in traced)
    st, bt, calls, c = tracer.self_times(), tracer.busy_times(), tracer.calls(), tracer.counters

    def busy(*names):
        return sum(bt.get(n, 0.0) for n in names)

    def own(*names):
        return sum(st.get(n, 0.0) for n in names)

    def per_unit(seconds):
        return 1000.0 * _ratio(seconds, units)

    # Checkpoint and surgery calls happen at set-up as well; count both.
    sbt, scalls = setup_tracer.busy_times(), setup_tracer.calls()

    def per_call(name):
        n = calls.get(name, 0) + scalls.get(name, 0)
        return 1000.0 * _ratio(bt.get(name, 0.0) + sbt.get(name, 0.0), n)

    conv_s = busy("numerics.Conv2D.forward", "numerics.Conv2D.backward")
    blocks_decoded = c.get("decoded_blocks", 0.0)
    rates = sorted(o.rate_l for o in traced if o.rate_l == o.rate_l)
    metrics = {
        "numerics.conv_fwd_ms": per_unit(busy("numerics.Conv2D.forward")),
        "numerics.conv_bwd_ms": per_unit(busy("numerics.Conv2D.backward")),
        "numerics.layernorm_fwd_ms": per_unit(busy("numerics.LayerNorm.forward")),
        "numerics.layernorm_bwd_ms": per_unit(busy("numerics.LayerNorm.backward")),
        "numerics.relu_ms": per_unit(busy("numerics.ReLU.forward", "numerics.ReLU.backward")),
        "numerics.adam_ms": per_unit(busy("numerics.Adam.step")),
        "numerics.conv_calls": _ratio(
            calls.get("numerics.Conv2D.forward", 0) + calls.get("numerics.Conv2D.backward", 0),
            units),
        # Computed from call shapes, not counted by hardware.
        "numerics.conv_gflop": _ratio(c.get("conv_flops", 0.0) / 1e9, units),
        "numerics.conv_gflop_per_s": _ratio(c.get("conv_flops", 0.0) / 1e9, conv_s),
        "numerics.frozen_bwd_share": _ratio(tracer.frozen_backward(),
                                            busy("receiver.ReceiverModel.backward")),
        "receiver.forward_self_ms": per_unit(own("receiver.ReceiverModel.forward",
                                                 "receiver.ResNetBlock.forward")),
        "receiver.backward_self_ms": per_unit(own("receiver.ReceiverModel.backward",
                                                  "receiver.ResNetBlock.backward")),
        "receiver.loss_ms": per_unit(busy(*LOSS_SPANS)),
        "training.self_ms": per_unit(own("training.run_training", "training.train_source")),
        "training.final_rate_L": rates[len(rates) // 2] if rates else 0.0,
        "chain.simulate_batch_ms": per_unit(busy("chain.simulate_batch")),
        "phy.ldpc_decode_ms_per_block": 1000.0 * _ratio(busy("phy.decode"), blocks_decoded),
        "phy.ldpc_converged_ratio": _ratio(c.get("converged_blocks", 0.0), blocks_decoded),
        "phy.ldpc_encode_ms": per_unit(busy("phy.encode")),
        "phy.map_grid_ms": per_unit(busy("phy.qam_map", "phy.build_grid")),
        "channel.freq_response_ms": per_unit(busy("channel.batch_frequency_response")),
        "channel.awgn_ms": per_unit(busy("channel.apply_channel_awgn")),
        "harness.genie_ms_per_block": 1000.0 * _ratio(busy("harness.GenieReceiver.llrs"),
                                                      c.get("genie_blocks", 0.0)),
        "harness.neural_llr_ms_per_block": 1000.0 * _ratio(busy("harness.NeuralReceiver.llrs"),
                                                           c.get("neural_blocks", 0.0)),
        "harness.run_bler_self_ms": per_unit(own("harness.run_bler")),
        "checkpoint.read_ms": per_call("checkpoint.read_checkpoint"),
        "checkpoint.load_ms": per_call("checkpoint.load_checkpoint"),
        "transfer.surgery_ms": 1000.0 * _ratio(
            busy("transfer.add_resnet_block", "transfer.set_trainable"),
            calls.get("transfer.adapt", 0)),
        "trace.overhead_ms": per_unit(sum(o.seconds for o in traced)
                                      - sum(o.seconds for o in plain)),
        "trace.remainder_ms": per_unit(st.get(ROOT, 0.0)),
    }
    accounting = {name: per_unit(s) for name, s in sorted(st.items()) if name != ROOT}
    accounting["remainder"] = per_unit(st.get(ROOT, 0.0))
    accounting["wall"] = per_unit(tracer.wall())
    return metrics, accounting
