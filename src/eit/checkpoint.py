"""Checkpoint file format.

Layout: 8-byte magic "EITCKPT1", an 8-byte little-endian header length,
a JSON header, then the raw little-endian tensor payloads in header order,
back to back, ending the file. The header records the model config and,
per tensor, shape / dtype / byte offset into the payload region. Every
tensor is float64, tagged "f64".
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .atomic import atomic_open
from .errors import LoadError
from .model import ModelConfig, Tensor, config_from_dict, config_to_dict, \
    param_shapes

MAGIC = b"EITCKPT1"
_F64 = np.dtype("<f8")


def _is_size(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def save(path, params: dict[str, Tensor], config: ModelConfig):
    """Write atomically: a save that fails leaves any earlier file intact."""
    tensors = {}
    offset = 0
    for name, t in params.items():
        tensors[name] = {"shape": list(t.shape), "dtype": "f64", "offset": offset}
        offset += t.data.size * _F64.itemsize
    header = json.dumps({"config": config_to_dict(config),
                         "tensors": tensors}).encode()
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for t in params.values():
            f.write(np.ascontiguousarray(t.data, dtype=_F64))


def load(path) -> tuple[dict[str, Tensor], ModelConfig]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise LoadError(f"cannot read checkpoint {path}: {e}") from e
    if blob[:8] != MAGIC:
        raise LoadError(f"{path}: bad magic, not a checkpoint")
    try:
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        config = config_from_dict(header["config"])
        tensors = header["tensors"]
        if not all(isinstance(m, dict) for m in tensors.values()):
            raise TypeError("'tensors' must map names to objects")
    except Exception as e:
        raise LoadError(f"{path}: malformed header: {e}") from e
    base = end = 16 + hlen
    params = {}
    for name, meta in tensors.items():
        dtype = meta.get("dtype")
        if dtype != "f64":
            raise LoadError(f"{path}: tensor {name} has dtype {dtype!r}, "
                            f"only 'f64' is supported")
        shape, start = meta.get("shape"), meta.get("offset")
        if not (isinstance(shape, list) and all(map(_is_size, shape))
                and _is_size(start)):
            raise LoadError(f"{path}: tensor {name} has bad shape {shape!r} "
                            f"or offset {start!r}")
        if base + start != end:  # misaligned or overlapping
            raise LoadError(f"{path}: tensor {name} offset {start}, expected "
                            f"{end - base} where the tensor before it ends")
        count = math.prod(shape)
        end += count * _F64.itemsize
        if end > len(blob):
            raise LoadError(f"{path}: tensor {name} payload out of range")
        data = np.frombuffer(blob, _F64, count, base + start).reshape(shape)
        params[name] = Tensor(data.copy(), requires_grad=True)
    if end != len(blob):
        raise LoadError(f"{path}: {len(blob) - end} bytes after the last tensor")
    expected = {name: shape for name, shape, _, _ in param_shapes(config)}
    if {name: t.shape for name, t in params.items()} != expected:
        raise LoadError(f"{path}: parameter tensors do not match the config")
    return params, config
