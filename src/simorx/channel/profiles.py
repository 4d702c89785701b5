"""Tapped-delay-line power profiles.

Profiles are shipped as plain text.  Parsing rules, kept deliberately
rigid so files round-trip bit-exactly:

- Lines starting with ``#`` are metadata when they contain ``=`` (split on
  the first one, key and value stripped), otherwise comments.  Required
  keys: ``name`` and ``los``; ``kind`` defaults to ``fixed``.
- Remaining non-blank lines are whitespace-separated tap rows
  ``delay_s power_db [k_factor_db]``.  Row order is free; taps are sorted
  by delay on load.  Powers are relative dB and get normalised so the
  linear powers sum to one.
- ``kind=clustered_random`` files carry no tap rows; the line is drawn per
  realization from the ``num_taps`` / ``delay_scale_s`` / ``jitter_db``
  metadata.

``load_profile`` accepts either a packaged profile name or a filesystem
path.  The name ``mixed_cdl`` maps to a uniform per-sample choice among
the five fixed clustered-delay-line profiles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ..errors import ConfigError

PACKAGED_PROFILES = (
    "cdl_a_like",
    "cdl_b_like",
    "cdl_c_like",
    "cdl_d_like",
    "cdl_e_like",
    "umi_approx",
    "flat",
)
MIXED_MEMBERS = ("cdl_a_like", "cdl_b_like", "cdl_c_like", "cdl_d_like", "cdl_e_like")


@dataclass(frozen=True)
class ChannelProfile:
    """Fixed tap line: constant delays and mean powers, optional per-tap K-factor."""

    name: str
    delays_s: np.ndarray = field(repr=False)
    powers_linear: np.ndarray = field(repr=False)   # normalised, sums to 1
    k_factors_db: np.ndarray = field(repr=False)    # nan where the tap has no LOS part
    los: bool = False

    @property
    def num_taps(self) -> int:
        return len(self.delays_s)

    def sample_taps(self, rng: np.random.Generator):
        return self.delays_s, self.powers_linear, self.k_factors_db


@dataclass(frozen=True)
class ClusteredRandomProfile:
    """Randomised tap line: a fresh delay/power profile per realization.

    Delays are zero plus ``num_taps - 1`` sorted exponential draws; mean
    power decays exponentially over delay at the same scale, with Gaussian
    dB jitter on top, renormalised to unit total power.
    """

    name: str
    num_taps: int
    delay_scale_s: float
    jitter_db: float
    los: bool = False

    def sample_taps(self, rng: np.random.Generator):
        extra = np.sort(rng.exponential(self.delay_scale_s, size=self.num_taps - 1))
        delays = np.concatenate([[0.0], extra])
        mean_db = -10.0 * np.log10(np.e) * delays / self.delay_scale_s
        db = mean_db + rng.normal(0.0, self.jitter_db, size=self.num_taps)
        powers = 10.0 ** (db / 10.0)
        powers /= powers.sum()
        k = np.full(self.num_taps, np.nan)
        return delays, powers, k


@dataclass(frozen=True)
class MixedProfile:
    """Uniform per-sample choice among member profiles, drawn by
    ``fading.batch_frequency_response``."""

    name: str
    members: tuple = ()


def parse_profile_text(text: str, origin: str = "<string>"):
    meta: dict[str, str] = {}
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                key, value = key.strip(), value.strip()
                if key == "note" and "note" in meta:
                    meta["note"] += " " + value
                else:
                    meta[key] = value
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ConfigError(f"{origin}:{lineno}: expected 2 or 3 columns, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: non-numeric tap row {line!r}") from None

    for key in ("name", "los"):
        if key not in meta:
            raise ConfigError(f"{origin}: missing required metadata {key}=")
    name = meta["name"]
    los = meta["los"].lower()
    if los not in ("true", "false"):
        raise ConfigError(f"{origin}: los= must be true or false, got {los!r}")
    los_flag = los == "true"
    kind = meta.get("kind", "fixed")

    if kind == "clustered_random":
        if rows:
            raise ConfigError(f"{origin}: clustered_random profiles carry no tap rows")
        try:
            return ClusteredRandomProfile(
                name=name,
                num_taps=int(meta["num_taps"]),
                delay_scale_s=float(meta["delay_scale_s"]),
                jitter_db=float(meta["jitter_db"]),
                los=los_flag,
            )
        except KeyError as missing:
            raise ConfigError(f"{origin}: clustered_random needs {missing} metadata") from None
    if kind != "fixed":
        raise ConfigError(f"{origin}: unknown profile kind {kind!r}")

    if not rows:
        raise ConfigError(f"{origin}: no tap rows")
    delays = np.array([r[0] for r in rows])
    powers_db = np.array([r[1] for r in rows])
    k_db = np.array([r[2] if len(r) == 3 else np.nan for r in rows])
    if not np.all(np.isfinite(delays)) or np.any(delays < 0):
        raise ConfigError(f"{origin}: delays must be finite and non-negative")
    if not np.all(np.isfinite(powers_db)):
        raise ConfigError(f"{origin}: powers must be finite")
    order = np.argsort(delays, kind="stable")
    powers = 10.0 ** (powers_db[order] / 10.0)
    return ChannelProfile(
        name=name,
        delays_s=delays[order],
        powers_linear=powers / powers.sum(),
        k_factors_db=k_db[order],
        los=los_flag,
    )


def profile_data_path(name: str):
    return resources.files(__package__) / "data" / f"{name}.txt"


def load_profile(name_or_path: str):
    """Load a packaged profile by name, or any profile file by path."""
    if not isinstance(name_or_path, str):
        raise ConfigError(f"profile must be a name or a path, got {name_or_path!r}")
    if name_or_path == "mixed_cdl":
        return MixedProfile("mixed_cdl", tuple(load_profile(m) for m in MIXED_MEMBERS))
    if os.sep in name_or_path or name_or_path.endswith(".txt"):
        path = name_or_path
        if not os.path.exists(path):
            raise ConfigError(f"profile file {path!r} does not exist")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            why = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"profile file {path!r}: cannot read: {why}") from None
        return parse_profile_text(text, origin=path)
    if name_or_path not in PACKAGED_PROFILES:
        raise ConfigError(
            f"unknown profile {name_or_path!r}; packaged: {PACKAGED_PROFILES + ('mixed_cdl',)}"
        )
    text = profile_data_path(name_or_path).read_text(encoding="utf-8")
    return parse_profile_text(text, origin=f"packaged:{name_or_path}")
