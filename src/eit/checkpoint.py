"""Checkpoint file format.

Layout: 8-byte magic "EITCKPT2", an 8-byte little-endian header length, a
JSON header that is the model config (``config_to_dict``) and nothing else,
then every tensor of ``param_shapes(config)``, in that order, as raw
little-endian float64, back to back, ending the file. The model is
pyramid-free, so each tensor's name, shape and offset follow from the config
and the header holds no table of them.

``load`` checks the payload's length against the file's size before it
reads any tensor, then reads each tensor straight into its own array: it
holds no copy of the file, so its memory peak is the parameters alone.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .atomic import atomic_open
from .errors import ContractError, LoadError
from .model import ModelConfig, Tensor, config_from_dict, config_to_dict, \
    param_shapes

MAGIC = b"EITCKPT2"
_F64 = np.dtype("<f8")


def save(path, params: dict[str, Tensor], config: ModelConfig):
    """Write atomically: a save that fails leaves any earlier file intact.
    ``params`` must hold exactly the tensors of ``param_shapes(config)``."""
    layout = {name: shape for name, shape, _, _ in param_shapes(config)}
    got = {name: t.shape for name, t in params.items()}
    if got != layout:
        raise ContractError("parameter tensors do not match the config: "
                            f"{sorted(got.items() ^ layout.items())}")
    header = json.dumps(config_to_dict(config)).encode()
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for name in layout:
            f.write(np.ascontiguousarray(params[name].data, dtype=_F64))


def load(path) -> tuple[dict[str, Tensor], ModelConfig]:
    try:
        with open(path, "rb") as f:
            return _read(f, path)
    except OSError as e:
        raise LoadError(f"cannot read checkpoint {path}: {e}") from e


def _read(f, path) -> tuple[dict[str, Tensor], ModelConfig]:
    size = os.fstat(f.fileno()).st_size
    if f.read(8) != MAGIC:
        raise LoadError(f"{path}: bad magic, not a checkpoint")
    try:
        (hlen,) = struct.unpack("<Q", f.read(8))
        # a length past the end reads the rest of the file, no more
        config = config_from_dict(json.loads(f.read(min(hlen, size - 16))))
    except Exception as e:
        raise LoadError(f"{path}: malformed header: {e}") from e
    layout = {name: shape for name, shape, _, _ in param_shapes(config)}
    need = sum(map(math.prod, layout.values())) * _F64.itemsize
    have = size - 16 - hlen
    if have < need:
        raise LoadError(f"{path}: tensor payload out of range: the config "
                        f"needs {need} bytes, the file holds {max(have, 0)}")
    if have > need:
        raise LoadError(f"{path}: {have - need} bytes after the last tensor "
                        "the config names")
    params = {}
    for name, shape in layout.items():
        data = np.empty(shape, _F64)
        if f.readinto(memoryview(data).cast("B")) != data.nbytes:
            raise LoadError(f"{path}: the file ends inside tensor {name}")
        params[name] = Tensor(data, requires_grad=True)
    return params, config
