import dataclasses
import errno
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from eit import checkpoint
from eit.cli import main
from eit.errors import LoadError
from eit.model import (ConvBranch, ModelConfig, PatchStage, Tensor, forward,
                       init_params)

MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))


def roundtrip(tmp_path, cfg=MICRO, seed=0):
    params = init_params(cfg, seed)
    path = tmp_path / "m.ckpt"
    checkpoint.save(path, params, cfg)
    return params, checkpoint.load(path)


class TestRoundtrip:
    def test_params_bitwise_identical(self, tmp_path):
        params, (back, cfg2) = roundtrip(tmp_path)
        assert cfg2 == MICRO
        assert set(back) == set(params)
        for name in params:
            assert (back[name].data == params[name].data).all(), name
            assert back[name].data.dtype == params[name].data.dtype

    def test_forward_bitwise_identical(self, tmp_path):
        params, (back, cfg2) = roundtrip(tmp_path)
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        a = forward(x, params, MICRO).data
        b = forward(x, back, cfg2).data
        assert (a == b).all()

    def test_loaded_params_trainable(self, tmp_path):
        _, (back, _) = roundtrip(tmp_path)
        assert all(t.requires_grad for t in back.values())
        # buffers must be writable copies, not views of the file blob
        next(iter(back.values())).data[...] = 0.0

    def test_every_loaded_tensor_is_writable(self, tmp_path):
        # gradcheck perturbs p.data in place, tensor by tensor
        _, (back, _) = roundtrip(tmp_path)
        for name, t in back.items():
            assert t.data.flags.writeable and t.data.flags.owndata, name


class TestAtomicSave:
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path,
                                                       monkeypatch):
        params, _ = roundtrip(tmp_path)
        path = tmp_path / "m.ckpt"
        before = path.read_bytes()

        def disk_full(*args):  # raised after the magic is written
            raise OSError(errno.ENOSPC, "No space left on device")
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "struct", SimpleNamespace(pack=disk_full))
            with pytest.raises(OSError):
                checkpoint.save(path, init_params(MICRO, 1), MICRO)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        back, _ = checkpoint.load(path)
        for name in params:
            assert (back[name].data == params[name].data).all(), name


class TestValidation:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTCKPT!" + b"\x00" * 32)
        with pytest.raises(LoadError, match="magic"):
            checkpoint.load(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            checkpoint.load(tmp_path / "absent.ckpt")

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        blob = p.read_bytes()
        p.write_bytes(blob[:-100])
        with pytest.raises(LoadError, match="out of range"):
            checkpoint.load(p)

    def test_malformed_header_json(self, tmp_path):
        p = tmp_path / "m.ckpt"
        junk = b"{invalid json"
        p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(junk)) + junk)
        with pytest.raises(LoadError, match="header"):
            checkpoint.load(p)

    def test_shape_mismatch_vs_config(self, tmp_path):
        # save under one config, rewrite the header to claim another width
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        blob = p.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = blob[16:16 + hlen].replace(b'"channels": 8', b'"channels": 4')
        p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(header)) +
                      header + blob[16 + hlen:])
        with pytest.raises(LoadError, match="config"):
            checkpoint.load(p)

    def test_conv_bn_relu_checkpoint_with_a_conv_bias_rejected(self, tmp_path):
        # conv_bn_relu's conv has no bias, as its batch norm would cancel it
        cfg = dataclasses.replace(MICRO, eitt=ConvBranch(branch_style="conv_bn_relu"))
        params = init_params(cfg, 0)
        params["layers.0.conv.bias"] = Tensor(np.zeros(4))
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, params, cfg)
        with pytest.raises(LoadError, match="config"):
            checkpoint.load(p)
        assert main(["probe", "--checkpoint", str(p), "--data", str(tmp_path),
                     "--out", str(tmp_path / "probe")]) == 1

    @pytest.mark.parametrize("tag", ["f16", "f32"])
    def test_non_f64_dtype_rejected(self, tmp_path, tag):
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        blob = p.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = blob[16:16 + hlen]
        assert header.count(b'"dtype": "f64"') == len(init_params(MICRO, 0))
        header = header.replace(b'"dtype": "f64"', f'"dtype": "{tag}"'.encode(), 1)
        p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(header)) +
                      header + blob[16 + hlen:])
        with pytest.raises(LoadError, match="dtype"):
            checkpoint.load(p)


def edit_header(tmp_path, change):
    """Save MICRO, apply ``change`` to the parsed JSON header, write it back."""
    p = tmp_path / "m.ckpt"
    checkpoint.save(p, init_params(MICRO, 0), MICRO)
    blob = p.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    change(header)
    raw = json.dumps(header).encode()
    p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(raw)) + raw +
                  blob[16 + hlen:])
    return p


def first_tensor(header):
    return next(iter(header["tensors"].values()))


class TestHostileHeader:
    def test_missing_tensors(self, tmp_path):
        p = edit_header(tmp_path, lambda h: h.pop("tensors"))
        with pytest.raises(LoadError, match="header"):
            checkpoint.load(p)

    def test_non_numeric_shape(self, tmp_path):
        p = edit_header(tmp_path, lambda h: first_tensor(h).update(shape="ab"))
        with pytest.raises(LoadError, match="shape"):
            checkpoint.load(p)

    def test_negative_offset(self, tmp_path):
        p = edit_header(tmp_path, lambda h: first_tensor(h).update(offset=-8))
        with pytest.raises(LoadError, match="offset"):
            checkpoint.load(p)

    def test_misaligned_offset(self, tmp_path):
        p = edit_header(tmp_path, lambda h: first_tensor(h).update(offset=3))
        with pytest.raises(LoadError, match="offset 3, expected 0"):
            checkpoint.load(p)

    def test_two_tensors_at_one_offset(self, tmp_path):
        def overlap(header):
            first, second = list(header["tensors"].values())[:2]
            second["offset"] = first["offset"]
        p = edit_header(tmp_path, overlap)
        with pytest.raises(LoadError, match="offset 0, expected"):
            checkpoint.load(p)

    def test_trailing_byte(self, tmp_path):
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(LoadError, match="1 bytes after the last tensor"):
            checkpoint.load(p)
