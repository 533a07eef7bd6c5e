import csv
import json

import numpy as np
import pytest

from eit import checkpoint
from eit.cli import main
from eit.data import Dataset, generate_synthetic, load_dataset, save_dataset
from eit.errors import ContractError, LoadError
from eit.model import ModelConfig, PatchStage, init_params
from eit.probes import ProbeRecord, frequency_share

from oracles import synthetic_loops


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(4, 16, seed=7)
        b = generate_synthetic(4, 16, seed=7)
        assert (a.images == b.images).all() and (a.labels == b.labels).all()

    # (5, 2, 9) has constant planes, which scale to 0.5
    @pytest.mark.parametrize("n, size, seed", [
        (16, 32, 1), (64, 16, 0), (7, 8, 3), (5, 2, 9), (9, 33, 11)])
    def test_equals_the_per_image_loop(self, n, size, seed):
        ds = generate_synthetic(n, size, seed)
        images, labels = synthetic_loops(n, size, seed)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.images, images)

    def test_range_and_shapes(self):
        ds = generate_synthetic(6, 12, seed=0)
        assert ds.images.shape == (6, 3, 12, 12)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_classes_separable_by_spectrum(self):
        # class 0 concentrates mass below omega = pi/2, class 1 above
        ds = generate_synthetic(40, 16, seed=3)

        def low_mass(img):
            g = 16
            tokens = np.concatenate([[np.zeros(1)], img[0].reshape(-1, 1)])
            rec = ProbeRecord(np.full((1, 1 + g * g, 1 + g * g),
                                      1.0 / (1 + g * g)),
                              tokens, (g, g), 1.0)
            return frequency_share(rec, bins=10)[:5].sum()
        low0 = [low_mass(ds.images[i]) for i in range(len(ds)) if ds.labels[i] == 0]
        low1 = [low_mass(ds.images[i]) for i in range(len(ds)) if ds.labels[i] == 1]
        assert min(low0) > max(low1)

    def test_bad_args(self):
        with pytest.raises(ContractError):
            generate_synthetic(0, 16)


class TestRawFormat:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(5, 8, seed=1)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert (back.labels == ds.labels).all()
        # u8 quantization: within half a step
        assert np.abs(back.images - ds.images).max() <= 0.5 / 255 + 1e-12

    def test_interrupted_save_leaves_no_labels_file(self, tmp_path,
                                                    monkeypatch):
        import eit.data
        d = tmp_path / "d"
        save_dataset(generate_synthetic(4, 8, seed=0), d)
        real = eit.data.atomic_open

        def failing(path, *args, **kwargs):
            if str(path).endswith("img_00002.raw"):
                raise KeyboardInterrupt
            return real(path, *args, **kwargs)
        monkeypatch.setattr(eit.data, "atomic_open", failing)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(generate_synthetic(4, 8, seed=1), d)
        # the old labels.csv is gone, so no list names a half-written set
        assert not (d / "labels.csv").exists()
        assert not list(d.glob("*.tmp"))
        with pytest.raises(LoadError):
            load_dataset(d)
        monkeypatch.setattr(eit.data, "atomic_open", real)
        ds = generate_synthetic(4, 8, seed=1)
        save_dataset(ds, d)
        assert (load_dataset(d).labels == ds.labels).all()

    def test_missing_sidecar(self, tmp_path):
        with pytest.raises(LoadError):
            load_dataset(tmp_path)

    def test_listed_file_missing(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        (d / "img_00001.raw").unlink()
        with pytest.raises(LoadError, match="img_00001"):
            load_dataset(d)

    def test_wrong_payload_size(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 8, seed=0), d)
        (d / "img_00000.raw").write_bytes(b"\x00" * 10)
        with pytest.raises(LoadError, match="expected"):
            load_dataset(d)

    def test_row_count_mismatch(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        with open(d / "labels.csv", "a", newline="") as f:
            csv.writer(f).writerow(["img_99999.raw", 0])
        with pytest.raises(LoadError):
            load_dataset(d)

    def test_non_integer_label(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        with open(d / "labels.csv", "w", newline="") as f:
            csv.writer(f).writerows([["filename", "label"],
                                     ["img_00000.raw", 0], ["img_00001.raw", "x"]])
        with pytest.raises(LoadError, match="row 2.*'x'"):
            load_dataset(d)

    @pytest.mark.parametrize("rows, message", [
        ([], "lists no samples"),
        ([["img_00000.raw", 0], ["img_00001.raw"]], "row 2 missing filename/label"),
        ([["img_00000.raw", 0], ["img_00001.raw", -1]], "negative label"),
        ([["img_00000.raw", 0], ["img_00001.raw", "99999999999999999999"]],
         "row 2 .*too large")],
        ids=["header-only", "no-label", "negative-label", "label-overflows-int64"])
    def test_malformed_labels_rows(self, rows, message, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        with open(d / "labels.csv", "w", newline="") as f:
            csv.writer(f).writerows([["filename", "label"], *rows])
        with pytest.raises(LoadError, match=message):
            load_dataset(d)

    @pytest.mark.parametrize("tail, message", [
        (b"img_\xff.raw,0\n", "utf-8"),
        (b"x" * 131_073 + b",0\n", "field larger than field limit")],
        ids=["not-utf-8", "field-over-limit"])
    def test_unparseable_labels_file(self, tail, message, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        (d / "labels.csv").write_bytes(b"filename,label\n" + tail)
        with pytest.raises(LoadError, match=message):
            load_dataset(d)
        cfg = ModelConfig(channels=8, layers=1, heads=2, classes=2,
                          image=(8, 8, 3), eitp=PatchStage(3, 1, 1, 2))
        checkpoint.save(tmp_path / "m.ckpt", init_params(cfg, 0), cfg)
        assert main(["probe", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--data", str(d), "--out", str(tmp_path / "probe")]) == 1

    @pytest.mark.parametrize("name", ["absolute", "../x.raw"])
    def test_filename_outside_the_dataset(self, name, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(2, 8, seed=0), d)
        outside = tmp_path / "x.raw"  # a well-formed image, just not in d
        outside.write_bytes((d / "img_00000.raw").read_bytes())
        if name == "absolute":
            name = str(outside)
        with open(d / "labels.csv", "w", newline="") as f:
            csv.writer(f).writerows([["filename", "label"],
                                     ["img_00000.raw", 0], [name, 1]])
        with pytest.raises(LoadError, match="row 2.*inside the dataset"):
            load_dataset(d)

    def test_negative_height(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 8, seed=0), d)
        (d / "dataset.json").write_text(json.dumps({"height": -8, "width": 8}))
        with pytest.raises(LoadError, match="not positive"):
            load_dataset(d)

    def test_impossible_sidecar_size_is_checked_before_allocating(self, tmp_path):
        # 3 x 200000 x 200000 float64 would be 894 GiB: the 12-byte file
        # must refute the sidecar before any buffer of that size is asked for
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 2, seed=0), d)
        (d / "dataset.json").write_text(json.dumps({"height": 200000,
                                                    "width": 200000}))
        with pytest.raises(LoadError, match="got 12 bytes"):
            load_dataset(d)

    def test_corrupt_sidecar(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 8, seed=0), d)
        (d / "dataset.json").write_text(json.dumps({"height": 8}))
        with pytest.raises(LoadError, match="sidecar"):
            load_dataset(d)

    @pytest.mark.parametrize("text", [
        '[]', '5', '{"height": null, "width": 8}', '{"height": 1e400, "width": 8}',
        '{"height": 8.7, "width": 8}', '{"height": 8, "width": true}',
        '{"height": "8", "width": 8}'],
        ids=["list", "number", "null", "overflow", "float", "bool", "string"])
    def test_sidecar_sizes_must_be_integers(self, text, tmp_path):
        # a float would be truncated (8.7 -> 8) and true read as 1
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 8, seed=0), d)
        (d / "dataset.json").write_text(text)
        with pytest.raises(LoadError, match="sidecar.*integers"):
            load_dataset(d)

    def test_deeply_nested_sidecar(self, tmp_path):
        d = tmp_path / "d"
        save_dataset(generate_synthetic(1, 8, seed=0), d)
        (d / "dataset.json").write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(LoadError, match="sidecar"):
            load_dataset(d)


class TestDatasetType:
    def test_label_validation(self):
        with pytest.raises(ContractError):
            Dataset(np.zeros((2, 3, 4, 4)), np.zeros(3, dtype=int))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            Dataset(np.zeros((0, 3, 4, 4)), np.zeros(0, dtype=int))
