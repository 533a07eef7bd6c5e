"""Checkpoint file format.

Layout: 8-byte magic "EITCKPT2", an 8-byte little-endian header length, a
JSON header that is the model config (``config_to_dict``) and nothing else,
then every tensor of ``param_shapes(config)``, in that order, as raw
little-endian float64, back to back, ending the file. The model is
pyramid-free, so each tensor's name, shape and offset follow from the config
and the header holds no table of them.
"""

from __future__ import annotations

import json
import math
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
            blob = f.read()
    except OSError as e:
        raise LoadError(f"cannot read checkpoint {path}: {e}") from e
    if blob[:8] != MAGIC:
        raise LoadError(f"{path}: bad magic, not a checkpoint")
    try:
        (hlen,) = struct.unpack("<Q", blob[8:16])
        config = config_from_dict(json.loads(blob[16:16 + hlen]))
    except Exception as e:
        raise LoadError(f"{path}: malformed header: {e}") from e
    layout = {name: shape for name, shape, _, _ in param_shapes(config)}
    offset = 16 + hlen
    need = sum(map(math.prod, layout.values())) * _F64.itemsize
    have = len(blob) - offset
    if have < need:
        raise LoadError(f"{path}: tensor payload out of range: the config "
                        f"needs {need} bytes, the file holds {max(have, 0)}")
    if have > need:
        raise LoadError(f"{path}: {have - need} bytes after the last tensor "
                        "the config names")
    params = {}
    for name, shape in layout.items():
        count = math.prod(shape)
        data = np.frombuffer(blob, _F64, count, offset).reshape(shape)
        params[name] = Tensor(data.copy(), requires_grad=True)
        offset += count * _F64.itemsize
    return params, config
