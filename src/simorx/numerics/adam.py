"""Adam optimiser operating on explicit parameter lists."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction; ``eps`` sits outside the square root.

    State (first and second moments, step counter) lives on the instance and
    is keyed by position in the parameter list, so the caller must pass the
    same parameters in the same order on every step.  State is deliberately
    not serialisable; adaptation restarts always begin from fresh moments.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
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
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
