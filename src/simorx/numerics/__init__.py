from .adam import Adam
from .gradcheck import GradCheckReport, LinearProbeObjective, finite_diff_check
from .layers import Conv2D, LayerNorm, ReLU

__all__ = [
    "Adam",
    "Conv2D",
    "LayerNorm",
    "ReLU",
    "GradCheckReport",
    "LinearProbeObjective",
    "finite_diff_check",
]
