"""Adam optimiser on explicit parameter lists, with constant hyperparameters."""

from __future__ import annotations

import numpy as np

LR = 1e-3       # step size
BETA1 = 0.9     # decay of the first-moment average
BETA2 = 0.999   # decay of the second-moment average
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; ``EPS`` sits outside the square root.

    State (first and second moments, step counter) lives on the instance and
    is keyed by position in the parameter list, so the caller must pass the
    same parameters in the same order on every step.  State is deliberately
    not serialisable; adaptation restarts always begin from fresh moments.
    """

    def __init__(self, params):
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter list changed length since Adam was created")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in parameter {i}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p -= LR * (m / c1) / (np.sqrt(v / c2) + EPS)
