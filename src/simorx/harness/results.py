"""Result files: per-curve CSV plus a YAML run manifest.

The CSV header is part of the public contract::

    technique,alpha,ebno_db,blocks,block_errors,bler,bit_errors,seed,source_fp,target_fp

Each row is one ``BlerPoint``; the run columns (``technique``, ``alpha``,
``seed``, ``source_fp``, ``target_fp``) are the ``BlerCurve`` fields of the
same names, repeated on every row, and ``alpha`` is empty where it is
``None``.  Floats are written with ``repr`` so files are bit-stable across
runs and platforms, and ``read_curve_csv`` returns a curve equal to the one
written.  It rejects a file with no rows, or whose rows disagree on a run
column.

The manifest echoes the full run configuration (enough to replay the
run), the package version, and a checksum of every channel profile used.

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
COLUMNS = CSV_HEADER.split(",")
RUN_COLUMNS = ("technique", "alpha", "seed", "source_fp", "target_fp")


def write_curve_csv(curve: BlerCurve, path) -> None:
    alpha = "" if curve.alpha is None else repr(float(curve.alpha))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for p in curve.points:
            fh.write(
                f"{curve.technique},{alpha},{p.ebno_db!r},{p.blocks},{p.block_errors},"
                f"{p.bler!r},{p.bit_errors},{curve.seed},{curve.source_fp},{curve.target_fp}\n"
            )


def read_curve_csv(path) -> BlerCurve:
    """The curve written to ``path``, equal to the one ``write_curve_csv`` took."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected header {lines[:1]!r}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no rows")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise ConfigError(f"{path}: malformed row {line!r}")
        rows.append(dict(zip(COLUMNS, fields)))
    for name in RUN_COLUMNS:
        values = sorted({row[name] for row in rows})
        if len(values) > 1:
            raise ConfigError(f"{path}: rows disagree on {name}: {values!r}")
    run = rows[0]
    try:
        points = [
            BlerPoint(float(r["ebno_db"]), int(r["blocks"]), int(r["block_errors"]), int(r["bit_errors"]))
            for r in rows
        ]
        alpha = None if run["alpha"] == "" else float(run["alpha"])
        seed = int(run["seed"])
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed row: {exc}") from None
    return BlerCurve(points, run["technique"], alpha, seed, run["source_fp"], run["target_fp"])


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


def make_out_dir(path) -> None:
    """Create the output directory ``path`` and its parents where missing.
    Jobs call this before any simulation or training, so that a path that
    cannot be a directory (it, or a parent, is a file) fails first, as a
    ``ConfigError`` naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot make the output directory: {exc.strerror}") from None


def emit_results(curves: dict, out_dir, config: dict, profiles=(), files=()) -> list:
    """Write one CSV per named curve plus the manifest, which also names the
    run's other ``files``; returns the CSV paths, then the manifest's."""
    make_out_dir(out_dir)
    paths = []
    for name, curve in curves.items():
        path = os.path.join(out_dir, f"{name}.csv")
        write_curve_csv(curve, path)
        paths.append(path)
    paths.append(_write_manifest(config, out_dir, files=[*files, *paths], profiles=profiles))
    return paths
