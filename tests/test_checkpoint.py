import dataclasses
import errno
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from eit import checkpoint
from eit.cli import main
from eit.errors import ContractError, LoadError
from eit.model import (BRANCH_STYLES, POS_EMBED_MODES, SPLIT_POLICIES,
                       ConvBranch, ModelConfig, PatchStage, Tensor,
                       config_to_dict, forward, init_params, param_shapes)

MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))


def roundtrip(tmp_path, cfg=MICRO, seed=0):
    params = init_params(cfg, seed)
    path = tmp_path / "m.ckpt"
    checkpoint.save(path, params, cfg)
    return params, checkpoint.load(path)


def write_file(tmp_path, header, arrays):
    """A checkpoint written by hand: magic, header length, the JSON
    ``header``, then the f64 bytes of ``arrays`` back to back."""
    raw = json.dumps(header).encode()
    p = tmp_path / "m.ckpt"
    p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(raw)) + raw +
                  b"".join(np.asarray(a, "<f8").tobytes() for a in arrays))
    return p


class TestRoundtrip:
    def test_params_bitwise_identical(self, tmp_path):
        params, (back, cfg2) = roundtrip(tmp_path)
        assert cfg2 == MICRO
        assert set(back) == set(params)
        for name in params:
            assert (back[name].data == params[name].data).all(), name
            assert back[name].data.dtype == params[name].data.dtype

    @pytest.mark.parametrize("pos_embed", POS_EMBED_MODES)
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_forward_bitwise_identical(self, tmp_path, policy, style,
                                       pos_embed):
        cfg = dataclasses.replace(MICRO, split_policy=policy,
                                  eitt=ConvBranch(branch_style=style),
                                  pos_embed=pos_embed)
        params, (back, cfg2) = roundtrip(tmp_path, cfg)
        assert cfg2 == cfg
        assert list(back) == [name for name, *_ in param_shapes(cfg)]
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        a = forward(x, params, cfg).data
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


class TestLoadMemory:
    def test_small_load_peak_is_the_payload(self, tmp_path):
        # each tensor is read straight into its own array: no copy of the
        # file and no second copy of a tensor
        cfg = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                          image=(32, 32, 3), eitp=PatchStage(3, 1, 1, 4))
        path = tmp_path / "small.ckpt"
        checkpoint.save(path, init_params(cfg, 0), cfg)
        payload = sum(math.prod(shape) for _, shape, *_ in param_shapes(cfg)) * 8
        tracemalloc.start()
        try:
            checkpoint.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert payload > 2 ** 24
        assert peak <= payload + 2 ** 20


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

    def test_file_that_shrinks_while_it_is_read(self, tmp_path, monkeypatch):
        # the length check reads the size first; a tensor read that then
        # comes up short is refused, not left half-filled
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        size = p.stat().st_size
        p.write_bytes(p.read_bytes()[:-8])
        monkeypatch.setattr(checkpoint.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(LoadError, match="ends inside tensor head.bias"):
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
        # conv_bn_relu's conv has no bias, as its batch norm would cancel it;
        # a file written while it had one holds one tensor more than the
        # config names
        cfg = dataclasses.replace(MICRO, eitt=ConvBranch(branch_style="conv_bn_relu"))
        arrays = []
        for name, t in init_params(cfg, 0).items():
            arrays.append(t.data)
            if name == "layers.0.conv.weight":
                arrays.append(np.zeros(4))  # layers.0.conv.bias
        p = write_file(tmp_path, config_to_dict(cfg), arrays)
        with pytest.raises(LoadError, match="config"):
            checkpoint.load(p)
        assert main(["probe", "--checkpoint", str(p), "--data", str(tmp_path),
                     "--out", str(tmp_path / "probe")]) == 1

    def test_first_format_rejected(self, tmp_path):
        # the first format's magic, whose header carried a tensor table
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        p.write_bytes(b"EITCKPT1" + p.read_bytes()[8:])
        with pytest.raises(LoadError, match="bad magic"):
            checkpoint.load(p)
        assert main(["probe", "--checkpoint", str(p), "--data", str(tmp_path),
                     "--out", str(tmp_path / "probe")]) == 1


class TestSaveContract:
    """save writes exactly the tensors the config names."""

    @pytest.mark.parametrize("change, message", [
        (lambda params: params.pop("head.bias"), r"\('head.bias', \(2,\)\)"),
        (lambda params: params.update(extra=Tensor(np.zeros(3))),
         r"\('extra', \(3,\)\)"),
        (lambda params: params.update(
            {"head.bias": Tensor(np.zeros(3))}), r"\('head.bias', \(3,\)\)")],
        ids=["missing", "extra", "wrong-shape"])
    def test_params_that_do_not_match_the_config(self, tmp_path, change,
                                                 message):
        params = init_params(MICRO, 0)
        change(params)
        p = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match=message):
            checkpoint.save(p, params, MICRO)
        assert not p.exists()

    def test_tensors_written_in_param_shapes_order(self, tmp_path):
        params = init_params(MICRO, 0)
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, dict(reversed(params.items())), MICRO)
        order = [name for name, *_ in param_shapes(MICRO)]
        assert p.read_bytes().endswith(b"".join(
            np.asarray(params[name].data, "<f8").tobytes() for name in order))


class TestHostileHeader:
    def test_header_with_a_tensor_table(self, tmp_path):
        # the header is the config and nothing else
        header = {**config_to_dict(MICRO), "tensors": {}}
        params = init_params(MICRO, 0)
        p = write_file(tmp_path, header, [t.data for t in params.values()])
        with pytest.raises(LoadError, match="malformed header.*tensors"):
            checkpoint.load(p)

    def test_header_length_past_the_end(self, tmp_path):
        # the header is read to the end of the file and parses, but leaves
        # no room for the tensors
        raw = json.dumps(config_to_dict(MICRO)).encode()
        p = tmp_path / "m.ckpt"
        p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", 2 ** 63) + raw)
        with pytest.raises(LoadError, match="out of range.*holds 0$"):
            checkpoint.load(p)

    def test_trailing_byte(self, tmp_path):
        p = tmp_path / "m.ckpt"
        checkpoint.save(p, init_params(MICRO, 0), MICRO)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(LoadError, match="1 bytes after the last tensor"):
            checkpoint.load(p)
