import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from eit.cli import main
from eit.costs import count_params
from eit.model import config_from_dict, init_params, param_shapes

MICRO_CFG = {"channels": 8, "layers": 2, "heads": 2, "classes": 2,
             "image": [8, 8, 3], "eitp": {"kernel": 3, "stride": 1,
                                          "padding": 1, "pool": 2}}
TINY_CFG = {"channels": 48, "layers": 2, "heads": 4, "classes": 2,
            "image": [16, 16, 3], "eitp": {"kernel": 3, "stride": 1,
                                           "padding": 1, "pool": 2}}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``eit`` with argv[1:] under a 1 GiB address-space cap, so that a run which
# tries to build a huge schedule fails in the child, not on the machine.
CAPPED_EIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from eit.cli import main
sys.exit(main(sys.argv[1:]))
"""
TRAIN_CFG = {"epochs": 2, "batch_size": 8, "base_lr": 0.01, "min_lr": 0.001,
             "momentum": 0.9, "seed": 0}


@pytest.fixture
def micro_cfg(tmp_path):
    p = tmp_path / "micro.json"
    p.write_text(json.dumps(MICRO_CFG))
    return str(p)


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY_CFG))
    return str(p)


@pytest.fixture
def train_cfg(tmp_path):
    p = tmp_path / "train.json"
    p.write_text(json.dumps(TRAIN_CFG))
    return str(p)


class TestDescribe:
    def test_writes_costs_and_manifest(self, micro_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["describe", "--config", micro_cfg,
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "split policy: decreasing" in text
        doc = json.loads((out / "costs.json").read_text())
        assert doc["totals"]["flops"] == 2 * doc["totals"]["macs"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "describe"
        assert "threads" in manifest

    def test_manifest_records_blas_threads(self, micro_cfg, tmp_path):
        out = tmp_path / "out"
        main(["describe", "--config", micro_cfg, "--out", str(out)])
        threads = json.loads((out / "manifest.json").read_text())["threads"]
        assert threads is None or (type(threads) is int and threads > 0)

    def test_manifest_records_versions_wall_time_and_rss(self, micro_cfg,
                                                         tmp_path):
        out = tmp_path / "out"
        main(["describe", "--config", micro_cfg, "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        for key in ("python", "numpy", "scipy"):
            assert type(doc[key]) is str and doc[key][0].isdigit(), key
        assert set(doc["blas"]) == {"name", "version"}
        assert all(v is None or type(v) is str for v in doc["blas"].values())
        assert type(doc["wall_s"]) is float and doc["wall_s"] >= 0
        assert type(doc["peak_rss_mib"]) is float and doc["peak_rss_mib"] > 0
        assert sorted(p.name for p in out.iterdir()) == ["costs.json",
                                                         "manifest.json"]

    def test_image_override_changes_tokens(self, micro_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["describe", "--config", micro_cfg, "--image", "16x16",
              "--out", str(out)])
        doc = json.loads((out / "costs.json").read_text())
        assert doc["tokens"] == 1 + 8 * 8

    def test_malformed_image_override_exits_1(self, micro_cfg, tmp_path, capsys):
        assert main(["describe", "--config", micro_cfg, "--image", "12",
                     "--out", str(tmp_path / "out")]) == 1
        assert "--image" in capsys.readouterr().err

    def test_zero_classes_override_exits_1(self, micro_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["describe", "--config", micro_cfg, "--classes", "0",
                     "--out", str(out)]) == 1
        assert "classes" in capsys.readouterr().err
        assert not (out / "costs.json").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["describe", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_unparsable_config_exits_1(self, tiny_cfg, tmp_path, capsys):
        # not JSON, a directory, and nesting deeper than the parser recurses,
        # each as a model config and as a train config
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for path in (str(bad), str(tmp_path), str(deep)):
            for args in (["describe", "--config", path],
                         ["train", "--config", tiny_cfg, "--train-config", path,
                          "--data", str(tmp_path / "absent")]):
                assert main([*args, "--out", str(tmp_path / "out")]) == 1, args
                assert capsys.readouterr().err.startswith("error:"), args

    @pytest.mark.parametrize("policy, layers", [
        *((p, 2**63) for p in ("decreasing", "increasing", "invariant",
                               "parallel", "none")),
        ("decreasing", 10**12), ("none", 10**12)])
    def test_huge_layer_count_exits_1(self, policy, layers, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CFG, "layers": layers,
                                   "split_policy": policy}))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", CAPPED_EIT, "describe",
                              "--config", str(bad), "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), run.stderr
        assert "layers" in lines[0] or "fewer attention channels" in lines[0]

    def test_invalid_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CFG, "heads": 3}))
        assert main(["describe", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["describe", "gradcheck"])
    def test_float_channels_exits_1(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CFG, "channels": 8.0}))
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path)]) == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["describe", "gradcheck"])
    @pytest.mark.parametrize("override, message", [
        ({"eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 0}},
         "eitp.pool must be at least 1"),
        ({"eitp": {"kernel": 0, "stride": 0}}, "eitp.kernel must be at least 1"),
        ({"eitp": {"kernel": 3, "stride": 1, "padding": -1}},
         "eitp.padding must be at least 0"),
        ({"eitp": {"kernel": 3, "stride": 1, "padding": 100000000}},
         "eitp.padding must be less than eitp.kernel"),
        ({"eitp": {"kernel": 3, "stride": 1, "padding": 3}},
         "eitp.padding must be less than eitp.kernel"),
        ({"eitt": {"kernel": 0}}, "eitt.kernel must be at least 1"),
        ({"eitt": {"kernel": -1}}, "eitt.kernel must be at least 1"),
        ({"eitt": {"kernel": 2}}, "eitt.kernel must be odd"),
        ({"eitt": {"kernel": 4}}, "eitt.kernel must be odd"),
        ({"mlp_ratio": 0}, "mlp_ratio must be at least 1"),
        ({"mlp_ratio": -1}, "mlp_ratio must be at least 1"),
        ({"image": [0, 8, 3], "eitp": {"kernel": 3, "stride": 1, "padding": 2}},
         "image must be (H, W, 3)"),
        ({"eitt": {"branch_style": "zigzag"}}, "unknown branch_style 'zigzag'"),
        ({"pos_embed": "sinusoid"}, "unknown pos_embed 'sinusoid'"),
        ({"dropout": 1.0}, "dropout 1.0 outside [0, 1)"),
        ({"dropout": -0.1}, "dropout -0.1 outside [0, 1)"),
        ({"split_policy": "zigzag"}, "unknown split policy 'zigzag'")],
        ids=["pool0", "kernel0-stride0", "padding-1", "padding1e8",
             "padding-kernel", "eitt-kernel0",
             "eitt-kernel-1", "eitt-kernel2", "eitt-kernel4", "mlp_ratio0",
             "mlp_ratio-1", "image-height0", "branch_style-zigzag",
             "pos_embed-sinusoid", "dropout1", "dropout-0.1",
             "split_policy-zigzag"])
    def test_malformed_geometry_exits_1(self, command, override, message,
                                        tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MICRO_CFG, **override}))
        assert main([command, "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_micro_model_passes(self, micro_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", micro_cfg,
                     "--out", str(out)]) == 0
        assert "gradcheck passed" in capsys.readouterr().out
        doc = json.loads((out / "gradcheck.json").read_text())
        assert doc["passed"] is True
        assert doc["worst"]["error"] <= doc["tolerance"]
        assert "refined" not in doc  # no element needed refining
        # every evaluation but the base, its repeat and one guard per
        # parameter tensor resumes at the perturbed parameter's stage
        config = config_from_dict(MICRO_CFG)
        total = count_params(config).total_params
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["resumed_at_stage"]) == 2 * config.layers + 2
        assert sum(manifest["resumed_at_stage"]) == 2 * total
        assert manifest["evaluations"] == 2 * total + 2 + len(param_shapes(config))

    def test_failure_exits_2_and_writes_its_report(self, micro_cfg, tmp_path,
                                                   capsys):
        # a step of 0.1 leaves a central-difference error far above the tolerance
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", micro_cfg, "--step", "0.1",
                     "--out", str(out)]) == 2
        assert "gradcheck FAILED" in capsys.readouterr().err
        doc = json.loads((out / "gradcheck.json").read_text())
        assert doc["passed"] is False and doc["step"] == 0.1
        assert doc["worst"]["error"] > doc["tolerance"]
        assert doc["refined"]  # elements over the tolerance are refined first
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gradcheck" and manifest["seed"] == 0

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_1(self, step, micro_cfg, tmp_path, capsys):
        assert main(["gradcheck", "--config", micro_cfg, "--step", step,
                     "--out", str(tmp_path / "out")]) == 1
        assert f"got {step}" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, micro_cfg, tmp_path, capsys):
        assert main(["gradcheck", "--config", micro_cfg, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 1
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    def test_oversized_model_refused(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({**MICRO_CFG, "channels": 250,
                                   "layers": 5, "heads": 10}))
        assert main(["gradcheck", "--config", str(big),
                     "--out", str(tmp_path)]) == 1
        assert "only tractable" in capsys.readouterr().err


class TestPipeline:
    def test_gen_train_probe_end_to_end(self, tiny_cfg, train_cfg, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        probe = tmp_path / "probe"
        assert main(["gen-data", "--out", str(data), "--n", "16",
                     "--size", "16", "--seed", "0"]) == 0
        assert main(["train", "--config", tiny_cfg,
                     "--train-config", train_cfg,
                     "--data", str(data), "--out", str(run)]) == 0
        assert (run / "model.ckpt").exists()
        assert (run / "metrics.csv").exists()
        assert main(["probe", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(data), "--out", str(probe),
                     "--samples", "8"]) == 0
        for name in ["distances.csv", "diversity.csv", "spectrum.csv"]:
            assert (probe / name).exists()
        for i in range(TINY_CFG["layers"]):
            assert (probe / "maps" / f"layer_{i}.pgm").exists()
        # distances.csv has one row per (layer, head)
        rows = (probe / "distances.csv").read_text().splitlines()
        assert len(rows) == 1 + TINY_CFG["layers"] * TINY_CFG["heads"]

    def test_probe_batch_size_does_not_change_output(self, tmp_path):
        from eit import checkpoint
        from eit.model import config_from_dict, init_params
        cfg = config_from_dict(MICRO_CFG)
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save(ckpt, init_params(cfg, 1), cfg)
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--n", "12",
                     "--size", "8", "--seed", "2"]) == 0
        outs = {}
        # 11 of 12 images: batches of 5 end unevenly and must not read past
        # the sample count
        for bs in ("1", "5", "16"):
            outs[bs] = tmp_path / f"probe-{bs}"
            assert main(["probe", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(outs[bs]), "--samples", "11",
                         "--batch-size", bs]) == 0

        def values(out, name):
            rows = (out / name).read_text().splitlines()[1:]
            return np.array([float(r.split(",")[-1]) for r in rows])

        for bs in ("5", "16"):
            for name in ("distances.csv", "diversity.csv", "spectrum.csv"):
                np.testing.assert_allclose(values(outs[bs], name),
                                           values(outs["1"], name), rtol=1e-12)
            for i in range(MICRO_CFG["layers"]):
                pgm = f"maps/layer_{i}.pgm"
                assert (outs[bs] / pgm).read_bytes() == (outs["1"] / pgm).read_bytes()

    def test_train_rerun_bit_identical(self, tiny_cfg, train_cfg, tmp_path):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--n", "8", "--size", "16"])
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", tiny_cfg,
                         "--train-config", train_cfg,
                         "--data", str(data), "--out", str(out)]) == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()

    @pytest.mark.parametrize("doc", [5, None, [["epochs", 1]]],
                             ids=["number", "null", "list"])
    def test_train_config_not_an_object_exits_1(self, doc, tiny_cfg, tmp_path,
                                                capsys):
        bad = tmp_path / "train.json"
        bad.write_text(json.dumps(doc))
        assert main(["train", "--config", tiny_cfg, "--train-config", str(bad),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run")]) == 1
        assert "train-config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("momentum", [-1.0, 3.0, float("nan")])
    def test_bad_momentum_exits_1(self, momentum, tiny_cfg, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--n", "4", "--size", "16"])
        bad = tmp_path / "train.json"
        bad.write_text(json.dumps({**TRAIN_CFG, "momentum": momentum}))
        assert main(["train", "--config", tiny_cfg, "--train-config", str(bad),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_hflip_is_an_unknown_key(self, tiny_cfg, tmp_path, capsys):
        bad = tmp_path / "train.json"
        bad.write_text(json.dumps({**TRAIN_CFG, "hflip": True}))
        assert main(["train", "--config", tiny_cfg, "--train-config", str(bad),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run")]) == 1
        assert "unknown train-config keys: ['hflip']" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tiny_cfg, tmp_path, capsys):
        bad = tmp_path / "train.json"
        bad.write_text(json.dumps({**TRAIN_CFG, "seed": -5}))
        assert main(["train", "--config", tiny_cfg, "--train-config", str(bad),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run")]) == 1
        assert "seed must be non-negative, got -5" in capsys.readouterr().err

    def test_missing_data_dir_exits_1(self, tiny_cfg, train_cfg, tmp_path):
        assert main(["train", "--config", tiny_cfg,
                     "--train-config", train_cfg,
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run")]) == 1

    def test_divergent_lr_exits_2(self, tiny_cfg, tmp_path):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--n", "8", "--size", "16"])
        hot = tmp_path / "hot.json"
        hot.write_text(json.dumps({**TRAIN_CFG, "epochs": 20,
                                   "batch_size": 2, "base_lr": 50.0,
                                   "min_lr": 0.5}))
        with np.errstate(all="ignore"):
            code = main(["train", "--config", tiny_cfg,
                         "--train-config", str(hot),
                         "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2

    def test_tables_keep_header_row_order_and_exact_values(
            self, micro_cfg, train_cfg, tmp_path):
        """Every CSV table: its exact header, rows in index order (layer-major
        for the probe tables) and each float written as its own repr."""
        data, run, probe = tmp_path / "data", tmp_path / "run", tmp_path / "probe"
        assert main(["gen-data", "--out", str(data), "--n", "6",
                     "--size", "8", "--seed", "1"]) == 0
        assert main(["train", "--config", micro_cfg, "--train-config", train_cfg,
                     "--data", str(data), "--out", str(run)]) == 0
        assert main(["probe", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(data), "--out", str(probe),
                     "--bins", "3"]) == 0

        def table(path, header):
            lines = path.read_text().splitlines()
            assert lines[0] == header
            return [line.split(",") for line in lines[1:]]

        def exact(value):
            assert repr(float(value)) == value
            return float(value)

        layers, heads = MICRO_CFG["layers"], MICRO_CFG["heads"]
        rows = table(data / "labels.csv", "filename,label")
        assert [r[0] for r in rows] == [f"img_{i:05d}.raw" for i in range(6)]
        assert all(r[1] in ("0", "1") for r in rows)
        rows = table(run / "metrics.csv",
                     "epoch,step,lr,train_loss,train_acc,eval_loss,eval_acc")
        assert [r[:2] for r in rows] == [["0", "1"], ["1", "2"]]
        for r in rows:
            for v in r[2:]:
                exact(v)
        rows = table(probe / "distances.csv", "layer,head,distance_px")
        assert [r[:2] for r in rows] == [[str(i), str(h)] for i in range(layers)
                                         for h in range(heads)]
        distances = np.array([exact(r[2]) for r in rows]).reshape(layers, heads)
        rows = table(probe / "diversity.csv", "layer,diversity")
        assert [r[0] for r in rows] == [str(i) for i in range(layers)]
        assert [exact(r[1]) for r in rows] == [float(np.var(d)) for d in distances]
        rows = table(probe / "spectrum.csv", "layer,bin,share")
        assert [r[:2] for r in rows] == [[str(i), str(b)] for i in range(layers)
                                         for b in range(3)]
        for r in rows:
            exact(r[2])

    @pytest.mark.parametrize("override", [{"heads": 1},
                                          {"eitp": {**MICRO_CFG["eitp"], "pool": 8}}],
                             ids=["one-head", "one-token"])
    def test_probe_refuses_what_it_cannot_measure_up_front(self, override,
                                                           tmp_path, capsys,
                                                           monkeypatch):
        """Head diversity needs two heads and attention distance two patch
        tokens: the probe exits 1 before any forward pass and writes no CSV."""
        from eit import checkpoint, cli
        from eit.model import init_params
        cfg = config_from_dict({**MICRO_CFG, **override})
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save(ckpt, init_params(cfg, 0), cfg)
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--n", "2",
                     "--size", "8"]) == 0
        calls = []
        forward = cli.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)
        monkeypatch.setattr(cli, "forward", counted)
        out = tmp_path / "probe"
        assert main(["probe", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not calls
        assert not list(out.rglob("*.csv"))

    def test_probe_bad_checkpoint_exits_1(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["probe", "--checkpoint", str(bad),
                     "--data", str(tmp_path), "--out", str(tmp_path)]) == 1


class TestProbeStreaming:
    """``eit probe`` reduces each layer as its forward finishes it."""

    @pytest.fixture
    def probe_run(self, tmp_path):
        from eit import checkpoint

        def run(policy):
            cfg = config_from_dict({**MICRO_CFG, "split_policy": policy})
            ckpt = tmp_path / f"{policy}.ckpt"
            checkpoint.save(ckpt, init_params(cfg, 3), cfg)
            out = tmp_path / f"probe-{policy}"
            assert main(["probe", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(out), "--samples", "5",
                         "--batch-size", "2"]) == 0
            return cfg, ckpt, out
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--n", "6", "--size", "8",
                     "--seed", "5"]) == 0
        return run, data

    @pytest.mark.parametrize("policy", ["decreasing", "none", "parallel"])
    def test_outputs_equal_the_reductions_of_collected_probes(
            self, probe_run, policy, tmp_path):
        from eit import checkpoint, probes
        from eit.data import load_dataset
        from eit.model import forward
        run, data = probe_run
        cfg, ckpt, out = run(policy)
        params, _ = checkpoint.load(ckpt)
        params = {name: p.detach() for name, p in params.items()}
        images = load_dataset(data, limit=5).images
        h0, w0 = cfg.token_grid()
        query = 1 + (h0 // 2) * w0 + w0 // 2
        dist_sum = spec_sum = maps = None
        for lo in (0, 2, 4):
            _, layers = forward(images[lo:lo + 2], params, cfg, collect_probes=True)
            recs = [probes.ProbeRecord(p["attention"], p["input"], (h0, w0),
                                       cfg.pixel_spacing()) for p in layers]
            dist = np.stack([probes.attention_distance(r).sum(axis=0) for r in recs])
            spec = np.stack([probes.frequency_share(r, probes.DEFAULT_BINS).sum(axis=0)
                             for r in recs])
            if maps is None:
                dist_sum, spec_sum = dist, spec
                maps = [probes.attention_map(r, query)[0][0] for r in recs]
            else:
                dist_sum += dist
                spec_sum += spec
        want = tmp_path / "want"
        (want / "maps").mkdir(parents=True)
        distances = dist_sum / 5
        probes.write_distances_csv(want / "distances.csv", distances)
        probes.write_diversity_csv(want / "diversity.csv", np.array(
            [probes.head_diversity(d) for d in distances]))
        probes.write_spectrum_csv(want / "spectrum.csv", spec_sum / 5)
        for i, amap in enumerate(maps):
            probes.write_pgm(want / "maps" / f"layer_{i}.pgm", amap)
        names = ["distances.csv", "diversity.csv", "spectrum.csv"] + \
            [f"maps/layer_{i}.pgm" for i in range(cfg.layers)]
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_no_earlier_layer_is_alive_while_a_layer_is_reduced(
            self, probe_run, monkeypatch):
        from eit import cli
        run, _ = probe_run
        forward, handed, seen = cli.forward, [], []

        def watched(*args, on_layer, **kwargs):
            def hook(i, layer_input, attention):
                seen.append([i] + [r() is not None for r in handed])
                handed.append(weakref.ref(attention))
                on_layer(i, layer_input, attention)
            return forward(*args, on_layer=hook, **kwargs)
        monkeypatch.setattr(cli, "forward", watched)
        run("decreasing")
        # three batches of two layers; each batch's hook sees nothing alive
        assert [s[0] for s in seen] == [0, 1] * 3
        assert not any(any(s[1:]) for s in seen)


class TestExitCodes:
    @pytest.fixture
    def micro_run(self, tmp_path):
        from eit import checkpoint
        from eit.model import config_from_dict, init_params
        cfg = config_from_dict(MICRO_CFG)
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save(ckpt, init_params(cfg, 0), cfg)
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--n", "4",
                     "--size", "8"]) == 0
        return ckpt, data

    @pytest.mark.parametrize("flag", ["--batch-size", "--bins", "--samples"])
    def test_probe_non_positive_count_exits_1(self, micro_run, flag, tmp_path,
                                              capsys):
        ckpt, data = micro_run
        assert main(["probe", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "probe"), flag, "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_probe_reads_only_the_samples_it_probes(self, micro_run, tmp_path,
                                                    capsys):
        ckpt, data = micro_run
        (data / "img_00003.raw").write_bytes(b"\x00" * 10)
        argv = ["probe", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(tmp_path / "probe")]
        assert main(argv + ["--samples", "3"]) == 0
        manifest = json.loads((tmp_path / "probe" / "manifest.json").read_text())
        assert manifest["samples"] == 3
        assert main(argv + ["--samples", "4"]) == 1
        assert "img_00003" in capsys.readouterr().err

    def test_probe_missing_data_dir_exits_1(self, micro_run, tmp_path, capsys):
        ckpt, _ = micro_run
        assert main(["probe", "--checkpoint", str(ckpt),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "probe")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_probe_malformed_sidecar_exits_1(self, micro_run, tmp_path, capsys):
        ckpt, data = micro_run
        (data / "dataset.json").write_text("[]")
        assert main(["probe", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "probe")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_divergent_train_still_writes_manifest(self, tiny_cfg, tmp_path):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--n", "8", "--size", "16"])
        hot = tmp_path / "hot.json"
        hot.write_text(json.dumps({**TRAIN_CFG, "epochs": 20,
                                   "batch_size": 2, "base_lr": 50.0,
                                   "min_lr": 0.5}))
        run = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", tiny_cfg,
                         "--train-config", str(hot),
                         "--data", str(data), "--out", str(run)])
        assert code == 2
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["train_config"]["base_lr"] == 50.0
        assert not (run / "model.ckpt").exists()


class TestGenData:
    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-3", "--seed must be non-negative, got -3")])
    def test_bad_seed_or_cutoff_exits_1(self, flag, value, message, tmp_path,
                                        capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cutoff_is_a_usage_error(self, tmp_path, capsys):
        # the filter's cutoff is data.CUTOFF, not an option
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(out), "--cutoff", "0.2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_and_count(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), "--n", "6",
                     "--size", "8", "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"] == {"n": 6, "size": 8, "cutoff": 0.15}
        labels = (out / "labels.csv").read_text().splitlines()
        assert len(labels) == 1 + 6


class TestOutPath:
    """An --out that cannot be a directory is refused before any work, and a
    failed write exits 1 with an error, never a traceback."""

    @staticmethod
    def _argv(command, tmp_path, micro_cfg, tiny_cfg, train_cfg):
        data, ckpt = str(tmp_path / "data"), str(tmp_path / "m.ckpt")
        return {"describe": ["describe", "--config", micro_cfg],
                "gradcheck": ["gradcheck", "--config", micro_cfg],
                "train": ["train", "--config", tiny_cfg, "--train-config",
                          train_cfg, "--data", data],
                "probe": ["probe", "--checkpoint", ckpt, "--data", data],
                "gen-data": ["gen-data"]}[command]

    @staticmethod
    def _no_work(monkeypatch):
        from eit import cli

        def work(*args, **kwargs):
            raise AssertionError("the command started work")
        for name in ("read_json", "load_dataset", "generate_synthetic"):
            monkeypatch.setattr(cli, name, work)
        monkeypatch.setattr(cli.checkpoint, "load", work)

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["describe", "gradcheck", "train",
                                         "probe", "gen-data"])
    def test_refused_before_any_work(self, command, where, tmp_path, micro_cfg,
                                     tiny_cfg, train_cfg, monkeypatch, capsys):
        argv = self._argv(command, tmp_path, micro_cfg, tiny_cfg, train_cfg)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "a-file" else blocker / "sub"
        self._no_work(monkeypatch)
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and "is not a directory" in err
        assert blocker.read_text() == ""

    def test_probe_maps_that_is_a_file_refused_before_any_work(
            self, tmp_path, micro_cfg, tiny_cfg, train_cfg, monkeypatch, capsys):
        out = tmp_path / "probe"
        out.mkdir()
        (out / "maps").write_text("")
        self._no_work(monkeypatch)
        argv = self._argv("probe", tmp_path, micro_cfg, tiny_cfg, train_cfg)
        assert main([*argv, "--out", str(out)]) == 1
        assert "is not a directory" in capsys.readouterr().err

    def test_failed_write_exits_1(self, micro_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "costs.json").mkdir(parents=True)  # a directory in the way
        assert main(["describe", "--config", micro_cfg,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write to") and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["costs.json"]
