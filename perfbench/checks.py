"""Correctness checks that fail a benchmark run.

Each check takes outputs the workload produced and returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np


def finite(label: str, values) -> list:
    arr = np.asarray(values)
    bad = int(arr.size - np.isfinite(arr).sum())
    return [f"{label}: {bad} of {arr.size} values are not finite"] if bad else []


def rate_floor(label: str, rate_l: float, floor: float) -> list:
    if not rate_l >= floor:
        return [f"{label}: final rate L {rate_l!r} bits is below the floor {floor}"]
    return []


def frozen_unchanged(label: str, source, adapted, frozen_coarse) -> list:
    """The freeze contract: every tensor of a frozen coarse layer keeps its
    checkpoint bytes, and the adapted checkpoint marks it frozen."""
    errors = []
    for rec in adapted.layers:
        if rec.name.split(".")[0] not in frozen_coarse:
            continue
        if rec.trainable:
            errors.append(f"{label}: {rec.name} should be frozen but is marked trainable")
        try:
            before = source.layer(rec.name)
        except KeyError:
            errors.append(f"{label}: frozen layer {rec.name} is not in the source checkpoint")
            continue
        if [a.tobytes() for a in before.arrays] != [a.tobytes() for a in rec.arrays]:
            errors.append(f"{label}: frozen layer {rec.name} changed during adaptation")
    names = {rec.name.split(".")[0] for rec in adapted.layers}
    for coarse in sorted(set(frozen_coarse) - names):
        errors.append(f"{label}: frozen coarse layer {coarse} is missing")
    return errors


def genie_matches_reference(points, reference, z: float = 5.0, slack: float = 0.01) -> list:
    """Genie BLER per Eb/No point against the stored long-run reference.

    ``points`` holds ``(ebno_db, blocks, block_errors)``; ``reference`` holds
    dicts with ``ebno_db``, ``blocks`` and ``bler``.  The tolerance is ``z``
    binomial standard errors of the difference of two estimates, plus
    ``slack``.
    """
    errors = []
    ref_by_point = {float(r["ebno_db"]): r for r in reference}
    for ebno, blocks, block_errors in points:
        ref = ref_by_point.get(float(ebno))
        if ref is None:
            errors.append(f"genie: no reference for {ebno} dB")
            continue
        if blocks < 1:
            errors.append(f"genie: no blocks evaluated at {ebno} dB")
            continue
        p_ref = min(max(ref["bler"], 1.0 / ref["blocks"]), 1.0 - 1.0 / ref["blocks"])
        sigma = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / blocks + 1.0 / ref["blocks"]))
        bler = block_errors / blocks
        if abs(bler - ref["bler"]) > z * sigma + slack:
            errors.append(
                f"genie: BLER {bler:.4f} over {blocks} blocks at {ebno} dB is outside "
                f"{ref['bler']:.4f} +- {z * sigma + slack:.4f}"
            )
    return errors


def bler_ceiling(label: str, blocks: int, block_errors: int, ceiling: float) -> list:
    if blocks < 1:
        return [f"{label}: no blocks evaluated"]
    bler = block_errors / blocks
    if not bler <= ceiling:
        return [f"{label}: BLER {bler:.4f} over {blocks} blocks is above the ceiling {ceiling}"]
    return []


def identical(label: str, first: list, second: list) -> list:
    """Outputs of the untraced and traced phases must match byte for byte."""
    if len(first) != len(second):
        return [f"{label}: {len(first)} untraced outputs against {len(second)} traced"]
    diffs = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    if diffs:
        return [f"{label}: traced outputs differ from untraced ones at operations {diffs}"]
    return []
