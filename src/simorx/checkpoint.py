"""Binary checkpoint format for receiver models.

File layout::

    8 bytes   magic "NRXCKPT1"
    8 bytes   header length, unsigned little-endian
    8 bytes   payload length, unsigned little-endian
    header    UTF-8 "key=value" lines
    payload   raw little-endian float32 arrays, row-major

The header carries a fingerprint (architecture plus domain identifiers)
and one record per primitive layer: name, kind, channel counts, trainable
flag, and the byte extent of its slice of the payload.  ``ARRAYS`` is the
one place that says what a record holds: for each layer kind, the layer
attributes whose arrays fill its slice, in file order (a conv layer's
weights ``[out, in, kh, kw]`` then its bias, a norm layer's gamma then
beta).  Offsets must tile the payload exactly; anything else is rejected.

Writes are atomic (temp file in the same directory, then ``os.replace``).
Optimiser state is never stored; adaptation always restarts Adam fresh.

``load_checkpoint`` builds a model from a ``Checkpoint`` in memory;
reading the file is ``read_checkpoint``'s job.  It has two paths, chosen
by whether a target spec is given.  Without one it rebuilds the
architecture the fingerprint names and every tensor must apply (``simorx
eval`` and evaluation of a stored receiver).  With one it transplants
every tensor that fits into a fresh model of the target spec (adaptation
and the ``model_transfer`` benchmark).
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .receiver import ModelSpec, ReceiverModel

MAGIC = b"NRXCKPT1"

SPEC_KEYS = ("in_channels", "width_in", "width_res", "num_blocks", "out_bits")

# Per layer kind, the attributes whose arrays fill a record's payload slice.
ARRAYS = {"conv2d": ("weights", "bias"), "layer_norm": ("gamma", "beta")}


@dataclass
class CheckpointLayer:
    name: str
    kind: str                      # a key of ARRAYS
    trainable: bool
    arrays: list = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)

    @property
    def shape_meta(self) -> dict:
        """The record's header shape fields, read off its first array."""
        shape = self.arrays[0].shape
        if self.kind == "conv2d":
            c_out, c_in, kh, kw = shape
            return {"in": c_in, "out": c_out, "kernel": f"{kh}x{kw}"}
        return {"channels": shape[0]}


def _int_field(where: str, key: str, value, lo: int = 1) -> int:
    """``value`` parsed as an integer >= ``lo``; a ``CheckpointError``
    naming ``where`` and ``key`` otherwise."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        n = lo - 1
    if n < lo:
        raise CheckpointError(f"{where}: {key} must be an integer >= {lo}, got {value!r}")
    return n


@dataclass
class Checkpoint:
    fingerprint: dict
    layers: list
    source: str = field(default="checkpoint", compare=False)   # file it was read from

    @property
    def fingerprint_id(self) -> str:
        text = ";".join(f"{k}={self.fingerprint[k]}" for k in sorted(self.fingerprint))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def layer(self, name: str) -> CheckpointLayer:
        for rec in self.layers:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def spec(self) -> ModelSpec:
        """The architecture the fingerprint names; its widths must match the
        conv records and its block count the ``blockN`` records, so it
        cannot build a model larger than the file."""
        fp = self.fingerprint
        spec = ModelSpec(**{k: _int_field(self.source, f"fingerprint.{k}", fp.get(k)) for k in SPEC_KEYS})
        ends = [spec.in_channels, spec.width_in, spec.width_res, spec.out_bits]
        meta = {rec.name: rec.shape_meta for rec in self.layers}
        if [meta.get(n, {}).get(k) for n in ("input_conv", "output_conv") for k in ("in", "out")] != ends:
            raise CheckpointError(f"{self.source}: fingerprint widths disagree with the conv records")
        blocks = {name.split(".")[0] for name in meta if name.startswith("block")}
        if len(blocks) != spec.num_blocks:
            raise CheckpointError(
                f"{self.source}: fingerprint.num_blocks={spec.num_blocks} disagrees with "
                f"the {len(blocks)} block records"
            )
        return spec


def checkpoint_from_model(model: ReceiverModel, fingerprint: dict | None = None) -> Checkpoint:
    fp = {k: str(getattr(model.spec, k)) for k in SPEC_KEYS}
    if fingerprint:
        fp.update({k: str(v) for k, v in fingerprint.items()})
    layers = []
    for qual, layer in model.primitive_layers():
        if layer.kind not in ARRAYS:
            raise CheckpointError(f"cannot serialise layer kind {type(layer).__name__}")
        arrays = [np.ascontiguousarray(getattr(layer, a), dtype=np.float32) for a in ARRAYS[layer.kind]]
        layers.append(CheckpointLayer(qual, layer.kind, model.trainable[qual.split(".")[0]], arrays))
    return Checkpoint(fp, layers)


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    lines = ["format=1"]
    for key in sorted(ck.fingerprint):
        lines.append(f"fingerprint.{key}={ck.fingerprint[key]}")
    lines.append(f"num_layers={len(ck.layers)}")
    offset = 0
    payload_parts = []
    for i, rec in enumerate(ck.layers):
        lines.append(f"layer.{i}.name={rec.name}")
        lines.append(f"layer.{i}.kind={rec.kind}")
        for mk, mv in rec.shape_meta.items():
            lines.append(f"layer.{i}.{mk}={mv}")
        lines.append(f"layer.{i}.trainable={int(rec.trainable)}")
        lines.append(f"layer.{i}.offset={offset}")
        lines.append(f"layer.{i}.nbytes={rec.nbytes}")
        for a in rec.arrays:
            payload_parts.append(np.ascontiguousarray(a, dtype="<f4").tobytes())
        offset += rec.nbytes
    header = ("\n".join(lines) + "\n").encode("utf-8")
    payload = b"".join(payload_parts)
    head = MAGIC + len(header).to_bytes(8, "little") + len(payload).to_bytes(8, "little")
    return head + header + payload


def save_checkpoint(ck: Checkpoint, path) -> None:
    """Serialise an in-memory checkpoint to ``path`` atomically."""
    blob = checkpoint_bytes(ck)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_header(text: str, path) -> dict:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if "=" not in line:
            raise CheckpointError(f"{path}: header line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        pairs[key] = value
    return pairs


def read_checkpoint(path) -> Checkpoint:
    """Parse and fully validate a checkpoint file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(blob) < 24 or blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    header_len = int.from_bytes(blob[8:16], "little")
    payload_len = int.from_bytes(blob[16:24], "little")
    if len(blob) != 24 + header_len + payload_len:
        raise CheckpointError(
            f"{path}: truncated or oversized (expected {24 + header_len + payload_len} "
            f"bytes, file has {len(blob)})"
        )
    try:
        pairs = _parse_header(blob[24 : 24 + header_len].decode("utf-8"), path)
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: header is not UTF-8") from None
    if pairs.get("format") != "1":
        raise CheckpointError(f"{path}: unsupported format {pairs.get('format')!r}")
    payload = blob[24 + header_len :]

    fp = {k[len("fingerprint.") :]: v for k, v in pairs.items() if k.startswith("fingerprint.")}
    num_layers = _int_field(path, "num_layers", pairs.get("num_layers"), lo=0)

    layers = []
    extents = []
    for i in range(num_layers):
        def get(suffix, lo=None, i=i):
            """The value of ``layer.<i>.<suffix>``; an integer >= ``lo`` if given."""
            key = f"layer.{i}.{suffix}"
            if key not in pairs:
                raise CheckpointError(f"{path}: missing {key}")
            return pairs[key] if lo is None else _int_field(path, key, pairs[key], lo)

        kind = get("kind")
        if kind not in ARRAYS:
            raise CheckpointError(f"{path}: unknown layer kind {kind!r}")
        offset, nbytes = get("offset", lo=0), get("nbytes", lo=0)
        if offset + nbytes > payload_len:
            raise CheckpointError(f"{path}: layer {i} extent outside the payload")
        extents.append((offset, nbytes, i))

        if kind == "conv2d":
            c_in, c_out = get("in", lo=1), get("out", lo=1)
            kernel = [_int_field(path, f"layer.{i}.kernel", v) for v in get("kernel").split("x")]
            if len(kernel) != 2:
                raise CheckpointError(f"{path}: layer.{i}.kernel must read KHxKW, got {get('kernel')!r}")
            shapes = [(c_out, c_in, *kernel), (c_out,)]
        else:
            c = get("channels", lo=1)
            shapes = [(c,), (c,)]
        if nbytes != 4 * sum(math.prod(shape) for shape in shapes):
            raise CheckpointError(f"{path}: layer {i} size disagrees with its shape")
        arrays, start = [], offset
        for shape in shapes:
            count = math.prod(shape)
            arrays.append(np.frombuffer(payload, "<f4", count, start).reshape(shape).copy())
            start += 4 * count
        layers.append(CheckpointLayer(get("name"), kind, get("trainable") == "1", arrays))

    extents.sort()
    cursor = 0
    for offset, nbytes, i in extents:
        if offset != cursor:
            raise CheckpointError(
                f"{path}: payload offsets must tile exactly; layer {i} starts at "
                f"{offset}, expected {cursor}"
            )
        cursor += nbytes
    if cursor != payload_len:
        raise CheckpointError(f"{path}: {payload_len - cursor} unaccounted payload bytes")
    return Checkpoint(fp, layers, str(path))


def _apply_layer(target, rec: CheckpointLayer) -> bool:
    names = ARRAYS[rec.kind]
    if target.kind != rec.kind or getattr(target, names[0]).shape != rec.arrays[0].shape:
        return False
    for name, a in zip(names, rec.arrays):
        setattr(target, name, a.astype(target.dtype).copy())
    return True


@dataclass
class LoadResult:
    model: ReceiverModel
    checkpoint: Checkpoint
    reinitialized: list

    @property
    def delta(self) -> list:
        return [f"reinitialized {name}: {why}" for name, why in self.reinitialized]


def load_checkpoint(ck: Checkpoint, target_spec: ModelSpec | None = None, init_seed: int = 0) -> LoadResult:
    """Rebuild a model from a checkpoint that ``read_checkpoint`` returned
    (or ``checkpoint_from_model`` built).

    With no ``target_spec`` the architecture and the init seed come from the
    fingerprint, and every tensor must apply: a checkpoint whose layer
    records disagree with its own fingerprint raises ``CheckpointError``.
    With one, every shape-compatible tensor is transplanted into a freshly
    initialised target model (seeded by ``init_seed``) and the rest are
    reported in ``reinitialized``.
    """
    if target_spec is None:
        seed = _int_field(ck.source, "fingerprint.seed", ck.fingerprint.get("seed", 0), lo=0)
        model = ReceiverModel(ck.spec(), seed=seed)
    else:
        model = ReceiverModel(target_spec, seed=init_seed)
    by_name = {qual: layer for qual, layer in model.primitive_layers()}
    reinitialized = []
    for rec in ck.layers:
        target = by_name.get(rec.name)
        if target is None:
            reinitialized.append((rec.name, "absent from the target architecture"))
            continue
        if _apply_layer(target, rec):
            model.trainable[rec.name.split(".")[0]] = rec.trainable
        else:
            reinitialized.append((rec.name, "shape mismatch"))
    missing = [q for q in by_name if q not in {r.name for r in ck.layers}]
    for name in missing:
        reinitialized.append((name, "not present in the checkpoint"))
    if target_spec is None and reinitialized:
        detail = "; ".join(f"{n} ({w})" for n, w in reinitialized)
        raise CheckpointError(f"{ck.source}: could not apply every tensor: {detail}")
    return LoadResult(model, ck, reinitialized)
