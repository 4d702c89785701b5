"""Result files: per-curve CSV plus a YAML run manifest.

The CSV header is part of the public contract::

    technique,alpha,ebno_db,blocks,block_errors,bler,bit_errors,seed,source_fp,target_fp

Floats are written with ``repr`` so files are bit-stable across runs and
platforms.  The manifest echoes the full run configuration (enough to
replay the run), the package version, and a checksum of every channel
profile used.

This module is the package's one reader and writer of YAML: ``load_yaml``
reads a sweep config or a manifest, so that a job that writes no result
files never imports the YAML parser.
"""

from __future__ import annotations

import hashlib
import os

import yaml

from .. import __version__
from ..channel.profiles import MIXED_MEMBERS, PACKAGED_PROFILES, profile_data_path
from ..errors import ConfigError
from .bler import BlerCurve, BlerPoint

CSV_HEADER = "technique,alpha,ebno_db,blocks,block_errors,bler,bit_errors,seed,source_fp,target_fp"


def curve_rows(curve: BlerCurve) -> list:
    md = curve.metadata
    technique = md.get("technique", md.get("receiver", ""))
    alpha = md.get("alpha", "")
    alpha = repr(float(alpha)) if alpha != "" else ""
    rows = []
    for p in curve.points:
        rows.append(
            f"{technique},{alpha},{p.ebno_db!r},{p.blocks},{p.block_errors},"
            f"{p.bler!r},{p.bit_errors},{md.get('seed', '')},"
            f"{md.get('source_fp', '')},{md.get('target_fp', '')}"
        )
    return rows


def write_curve_csv(curve: BlerCurve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in curve_rows(curve):
            fh.write(row + "\n")


def read_curve_csv(path) -> BlerCurve:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected header {lines[:1]!r}")
    points = []
    meta: dict = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 10:
            raise ConfigError(f"{path}: malformed row {line!r}")
        technique, alpha, ebno, blocks, errs, _bler, bits, seed, sfp, tfp = fields
        points.append(BlerPoint(float(ebno), int(blocks), int(errs), int(bits)))
        meta = {
            "technique": technique,
            "alpha": alpha,
            "seed": seed,
            "source_fp": sfp,
            "target_fp": tfp,
        }
    return BlerCurve(points, meta)


def profile_checksums(names) -> dict:
    out = {}
    expanded = []
    for name in names:
        expanded += list(MIXED_MEMBERS) if name == "mixed_cdl" else [name]
    for name in sorted(set(expanded)):
        if name in PACKAGED_PROFILES:
            data = profile_data_path(name).read_bytes()
        else:
            with open(name, "rb") as fh:
                data = fh.read()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _write_manifest(config: dict, out_dir, *, files=(), profiles=()) -> str:
    """Echo the resolved run configuration next to its outputs."""
    manifest = {
        "package_version": __version__,
        "config": config,
        "profiles": profile_checksums(profiles),
        "files": sorted(os.path.basename(f) for f in files),
    }
    path = os.path.join(out_dir, "manifest.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return path


def load_yaml(path) -> dict:
    """The top-level mapping of the YAML file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        # One line: the YAML parser's message spans several.
        raise ConfigError(f"{path}: cannot read YAML: {' '.join(str(exc).split())}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return data


def read_manifest(path) -> dict:
    manifest = load_yaml(path)
    if "config" not in manifest:
        raise ConfigError(f"{path}: not a run manifest")
    return manifest


def emit_results(curves: dict, out_dir, config: dict, profiles=(), files=()) -> list:
    """Write one CSV per named curve plus the manifest, which also names the
    run's other ``files``; returns the CSV paths, then the manifest's."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, curve in curves.items():
        path = os.path.join(out_dir, f"{name}.csv")
        write_curve_csv(curve, path)
        paths.append(path)
    paths.append(_write_manifest(config, out_dir, files=[*files, *paths], profiles=profiles))
    return paths
