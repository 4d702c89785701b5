"""simorx: OFDM link simulation with a trainable convolutional SIMO receiver.

The package is organised as a plain numpy library:

- ``simorx.numerics``: dense layers with explicit forward/backward passes,
  Adam, and a finite-difference gradient checker.
- ``simorx.phy``: resource grid bookkeeping, Gray-mapped QAM, and a
  rate-1/2 LDPC code with a min-sum decoder.
- ``simorx.channel``: tapped-delay-line profiles, block-fading frequency
  responses, and AWGN.
- ``simorx.receiver`` / ``simorx.training``: the convolutional receiver
  producing per-bit LLRs and its bit-metric-decoding training loop.
- ``simorx.transfer``: checkpoints, network surgery, the freeze rule, and
  the adaptation entry point.
- ``simorx.harness``: BLER evaluation, a genie-aided baseline, result
  files, sweeps, and the command line.

All randomness flows through explicit ``numpy.random.Generator`` objects
seeded from ``SeedSequence``; nothing touches global RNG state.
"""

from .errors import CheckpointError, ConfigError, SimorxError, TrainingDiverged

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "SimorxError",
    "TrainingDiverged",
    "__version__",
]
