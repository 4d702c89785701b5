"""Finite-difference verification of backward passes.

``finite_diff_check`` perturbs every parameter of a model by ``±step``,
recomputes the objective, and compares the central difference against the
analytic gradient produced by ``model.backward``.  The model must expose

- ``forward(x, tape=None)``, which records on ``tape`` what the backward
  pass reads, and ``backward(grad_out, tape)``, which returns one gradient
  per parameter,
- ``named_param_items()`` yielding ``(layer, kind, param, array)`` in the
  order of those gradients,
- a ``dtype`` attribute; verification insists on float64.

Every parameter is checked, so every layer must be trainable: a model whose
backward returns fewer gradients than it has parameters (a
``ReceiverModel`` with a frozen layer) is rejected.

Central differences across a ReLU kink are meaningless, so an input whose
nearest ReLU input lies within ``10 * step`` of zero is rejected.  Every
ReLU here takes a LayerNorm output, so that distance is read from the
LayerNorm entries of the tape.

Relative errors use ``|a - f| / max(|a|, |f|, floor)``; the floor keeps
finite-difference roundoff from dominating when a gradient is genuinely
tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .layers import LayerNorm


class LinearProbeObjective:
    """Deterministic scalar probe: inner product with fixed Gaussian coefficients.

    Smooth in the network output, so the only kinks under test are the
    model's own.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._coeffs = None

    def _ensure(self, out: np.ndarray) -> np.ndarray:
        if self._coeffs is None or self._coeffs.shape != out.shape:
            rng = np.random.default_rng(self._seed)
            c = rng.standard_normal(out.shape) / np.sqrt(out.size)
            self._coeffs = c.astype(np.float64)
        return self._coeffs

    def value(self, out: np.ndarray) -> float:
        return float(np.sum(self._ensure(out) * out))

    def grad(self, out: np.ndarray) -> np.ndarray:
        return self._ensure(out).astype(out.dtype)


@dataclass
class ParamCheck:
    layer: str
    kind: str
    param: str
    max_rel_err: float
    worst_index: int
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    entries: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    @property
    def worst(self) -> ParamCheck:
        return max(self.entries, key=lambda e: e.max_rel_err)

    def by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.layer] = max(out.get(e.layer, 0.0), e.max_rel_err)
        return out

    def by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.kind] = max(out.get(e.kind, 0.0), e.max_rel_err)
        return out

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        w = self.worst
        lines = [
            f"finite-difference check: max rel err {self.max_rel_err:.3e} "
            f"(tolerance {self.tolerance:.1e}): {status}",
            f"  worst: {w.layer}.{w.param}[{w.worst_index}] "
            f"analytic {w.analytic:.6e} numeric {w.numeric:.6e}",
        ]
        for layer, err in self.by_layer().items():
            lines.append(f"  {layer:<24s} {err:.3e}")
        kinds = ", ".join(f"{k} {v:.3e}" for k, v in sorted(self.by_kind().items()))
        lines.append(f"  by kind: {kinds}")
        return "\n".join(lines)


def relu_kink_distance(tape: dict) -> float:
    """Smallest ``|output|`` over the LayerNorm entries of a tape: the
    distance of the nearest ReLU input to the kink."""
    outs = [layer.taped_output(tape) for layer in tape if isinstance(layer, LayerNorm)]
    return min((float(np.min(np.abs(out))) for out in outs if out.size), default=np.inf)


def finite_diff_check(
    model,
    x: np.ndarray,
    *,
    objective=None,
    tolerance: float = 1e-4,
    step: float = 1e-6,
    floor: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central differences for every parameter."""
    if np.dtype(model.dtype) != np.float64:
        raise ConfigError("finite_diff_check requires a float64 model; call astype(np.float64)")
    x = np.asarray(x, dtype=np.float64)
    if objective is None:
        objective = LinearProbeObjective()

    tape = {}
    out = model.forward(x, tape)
    margin = relu_kink_distance(tape)
    if margin < 10.0 * step:
        raise ConfigError(
            f"a pre-activation sits {margin:.2e} from the ReLU kink, too close for "
            f"step {step:.1e}; use a different input or seed"
        )
    grads = model.backward(objective.grad(out), tape)
    items = list(model.named_param_items())
    if len(grads) != len(items):
        raise ConfigError(
            f"finite_diff_check needs every parameter trainable: backward returned "
            f"{len(grads)} gradients for {len(items)} parameters"
        )

    # Each perturbation only disturbs the network from its own layer on, so
    # when the model exposes its stage chain we cache the stage inputs and
    # re-run the suffix instead of the whole forward pass.  Per-stage op
    # order is unchanged, so results are bit-identical to a full forward.
    plan = getattr(model, "stage_forward_plan", None)
    if plan is not None:
        y0, stages = plan(x)
        names = [n for n, _ in stages]
        funcs = [f for _, f in stages]
        inputs = [y0]
        for f in funcs:
            inputs.append(f(inputs[-1]))

        def evaluate(stage: int) -> float:
            y = inputs[stage]
            for f in funcs[stage:]:
                y = f(y)
            return objective.value(y)

        def stage_of(layer_name: str) -> int:
            return names.index(layer_name.split(".", 1)[0])

    else:
        def evaluate(stage: int) -> float:
            return objective.value(model.forward(x))

        def stage_of(layer_name: str) -> int:
            return 0

    report = GradCheckReport(tolerance=tolerance, step=step)
    for (layer, kind, param, array), grad in zip(items, grads):
        stage = stage_of(layer)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        worst = (0.0, 0, 0.0, 0.0)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + step
            hi = evaluate(stage)
            flat[idx] = saved - step
            lo = evaluate(stage)
            flat[idx] = saved
            fd = (hi - lo) / (2.0 * step)
            a = gflat[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), floor)
            if rel >= worst[0]:
                worst = (rel, idx, a, fd)
        report.entries.append(
            ParamCheck(layer, kind, param, worst[0], worst[1], worst[2], worst[3])
        )
    return report
