"""End-to-end acceptance checks. Each test prints one PASS/FAIL line so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist."""

import contextlib
import dataclasses
import time

import numpy as np
import pytest

from eit import checkpoint, model, probes
from eit.costs import count_flops, count_params
from eit.data import Dataset, generate_synthetic
from eit.gradcheck import gradcheck, worst_offender
from eit.model import (BRANCH_STYLES, ConvBranch, ModelConfig, PatchStage,
                       Tensor, build_schedule, conv2d, eitt_branch,
                       encoder_layer, forward, init_params, maxpool2d, mha,
                       schedule_for)
from eit.tensor import matmul, softmax_rows
from eit.train import TrainConfig, cross_entropy, train

from oracles import (conv2d_loops, matmul_loops, maxpool_loops, softmax_loops,
                     vit_layer_loops)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


IMAGENET = dict(classes=1000, image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3))
SMALL = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                    image=(32, 32, 3), eitp=PatchStage(3, 1, 1, 4))
MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))
TINY = ModelConfig(channels=48, layers=2, heads=4, classes=2,
                   image=(16, 16, 3), eitp=PatchStage(3, 1, 1, 2))


def test_1_parameter_counts():
    with criterion(1, "parameter counts"):
        reference = [(250, 5, 10, 3.5e6), (330, 8, 10, 8.9e6),
                     (400, 10, 16, 16.0e6), (464, 12, 16, 25.3e6)]
        for c, layers, h, expected in reference:
            cfg = ModelConfig(channels=c, layers=layers, heads=h, **IMAGENET)
            total = count_params(cfg).total_params
            assert abs(total - expected) / expected < 0.03, (c, total)
        assert abs(count_params(SMALL).total_params - 3.095e6) / 3.095e6 < 0.03
        vit = dataclasses.replace(SMALL, eitp=PatchStage(4, 4, 0, 1),
                                  split_policy="none", pos_embed="trainable")
        assert abs(count_params(vit).total_params - 3.798e6) / 3.798e6 < 0.03


def test_2_flop_counts_and_scaling():
    with criterion(2, "FLOP counts and scaling laws"):
        flops = count_flops(SMALL).total_flops
        assert abs(flops - 0.428e9) / 0.428e9 < 0.20
        # conv branch linear in patches T - 1, width C_T and k^2: the
        # invariant policy gives a C / 2 wide depthwise branch
        def branch_macs(image=(8, 8, 3), channels=8, kernel=3):
            cfg = dataclasses.replace(MICRO, image=image, channels=channels,
                                      split_policy="invariant",
                                      eitt=ConvBranch(kernel=kernel))
            return count_flops(cfg).components["conv_branch"].macs
        base = branch_macs()
        assert base > 0
        assert branch_macs(image=(16, 8, 3)) == 2 * base
        assert branch_macs(channels=16) == 2 * base
        assert branch_macs(kernel=9) == 9 * base
        # attention with no conv share: projections 4C^2T, scores 2T^2C
        for image in ((8, 8, 3), (16, 16, 3)):
            for c in (8, 16):
                cfg = dataclasses.replace(MICRO, image=image, channels=c,
                                          split_policy="none")
                t = cfg.token_count()
                assert count_flops(cfg).components["attention"].macs == \
                    cfg.layers * (4 * c * c * t + 2 * t * t * c)


def test_3_gradient_correctness():
    with criterion(3, "gradient correctness"):
        assert count_params(MICRO).total_params <= 50_000
        params = init_params(MICRO, 0)
        rng = np.random.default_rng(0)
        images = rng.random((2, 3, 8, 8))
        labels = np.array([0, 1])

        def f():
            return cross_entropy(forward(images, params, MICRO), labels)

        report = gradcheck(f, params, step=1e-5)
        name, err = worst_offender(report)
        assert err <= 1e-4, (name, err)

        # per-primitive checks at the tighter bound
        def check(build, leaves, tol=1e-5):
            rep = gradcheck(build, leaves, step=1e-5)
            _, worst = worst_offender(rep)
            assert worst <= tol, rep

        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.4, requires_grad=True)
        check(lambda: conv2d(x, w, b, 1, 1).sum(),
              {"x": x, "w": w, "b": b})
        y = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        check(lambda: (maxpool2d(y, 2) * Tensor(
            np.arange(27.0).reshape(1, 3, 3, 3))).sum(), {"y": y})
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        check(lambda: matmul(a, c).sum(), {"a": a, "c": c})
        z = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check(lambda: (softmax_rows(z) * Tensor(
            np.arange(12.0).reshape(3, 4))).sum(), {"z": z})


def test_4_kernel_oracles():
    with criterion(4, "kernel brute-force oracles"):
        rng = np.random.default_rng(0)
        for trial in range(100):
            groups = 1 if trial % 2 == 0 else None  # standard / depthwise
            cin = int(rng.integers(1, 4)) * (1 if groups else 2)
            g = cin if groups is None else 1
            cout = cin if groups is None else int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2))
            h = int(rng.integers(k, k + 4))
            x = rng.standard_normal((1, cin, h, h))
            w = rng.standard_normal((cout, cin // g, k, k))
            b = rng.standard_normal(cout)
            ours = conv2d(Tensor(x), Tensor(w), Tensor(b), s, p).data
            ref = conv2d_loops(x, w, b, s, p, g)
            assert np.abs(ours - ref).max() <= 1e-12
        for _ in range(100):
            h = int(rng.integers(3, 8))
            win = int(rng.integers(1, h + 1))
            x = rng.standard_normal((1, 2, h, h))
            ours = maxpool2d(Tensor(x), win).data
            assert np.abs(ours - maxpool_loops(x, win, win)).max() <= 1e-12
        for _ in range(100):
            m, kk, n = rng.integers(1, 6, 3)
            a = rng.standard_normal((m, kk))
            b2 = rng.standard_normal((kk, n))
            ours = matmul(Tensor(a), Tensor(b2)).data
            assert np.abs(ours - matmul_loops(a, b2)).max() <= 1e-12
        for _ in range(100):
            row = rng.standard_normal(int(rng.integers(1, 8))) * 5
            ours = softmax_rows(Tensor(row[None])).data[0]
            assert np.abs(ours - softmax_loops(row)).max() <= 1e-12


def test_5_split_schedule_law():
    with criterion(5, "split-schedule law"):
        s = build_schedule(250, 10, 5, "decreasing")
        assert (s.conv[0], s.attn[0]) == (200, 50)
        assert (s.conv[2], s.attn[2]) == (100, 150)
        assert (s.conv[4], s.attn[4]) == (0, 250)
        for mult in range(4, 30, 3):
            for h in (1, 2, 4, 8, 10, 16):
                for layers in range(1, min(mult, 9)):
                    c = mult * h
                    sched = build_schedule(c, h, layers, "decreasing")
                    for ct, cm in zip(sched.conv, sched.attn):
                        assert ct + cm == c and cm % h == 0
                    assert all(a >= b for a, b in
                               zip(sched.conv, sched.conv[1:]))
                    assert sched.conv[-1] == 0


def test_6_diagnostics_correctness():
    with criterion(6, "diagnostics correctness"):
        rng = np.random.default_rng(0)
        for g in (2, 3, 4):
            t = 1 + g * g
            a = rng.random((3, t, t)) + 1e-3
            a /= a.sum(axis=-1, keepdims=True)
            rec = probes.ProbeRecord(a, np.zeros((t, 2)), (g, g), 1.5)
            dist = probes.attention_distance(rec)
            for head in range(3):
                acc = 0.0
                for m in range(g * g):
                    row = a[head, 1 + m, 1:]
                    row = row / row.sum()
                    acc += sum(row[n] * 1.5 * np.hypot(m // g - n // g,
                                                       m % g - n % g)
                               for n in range(g * g))
                assert abs(dist[head] - acc / (g * g)) <= 1e-9
        g, t = 4, 17
        attn = np.full((1, t, t), 1.0 / t)
        const = probes.ProbeRecord(attn, np.ones((t, 3)), (g, g), 1.0)
        shares = probes.frequency_share(const, bins=10)
        assert shares[0] == pytest.approx(1.0) and shares[1:].max() <= 1e-12
        j = np.arange(g)
        cb = np.where((j[:, None] + j[None, :]) % 2 == 0, 1.0, -1.0)
        board = probes.ProbeRecord(
            attn, np.concatenate([[np.zeros(1)], cb.reshape(-1, 1)]),
            (g, g), 1.0)
        shares = probes.frequency_share(board, bins=10)
        assert shares[-1] == pytest.approx(1.0)
        for _ in range(20):
            rec = probes.ProbeRecord(attn, rng.standard_normal((t, 4)),
                                     (g, g), 1.0)
            assert abs(probes.frequency_share(rec, 10).sum() - 1.0) <= 1e-9


def test_7_structural_equivalences():
    with criterion(7, "structural equivalences"):
        # channel-split disabled -> independently coded plain encoder layer
        cfg = dataclasses.replace(MICRO, split_policy="none")
        params = init_params(cfg, 0)
        sched = schedule_for(cfg)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 8))
        out, _ = encoder_layer(Tensor(x), params, 0, cfg, sched, (2, 2))
        p = "layers.0"
        ref = vit_layer_loops(x[0], {
            "norm1_g": params[f"{p}.norm1.gain"].data,
            "norm1_s": params[f"{p}.norm1.shift"].data,
            "qkv_w": params[f"{p}.attn.qkv.weight"].data,
            "qkv_b": params[f"{p}.attn.qkv.bias"].data,
            "out_w": params[f"{p}.attn.out.weight"].data,
            "out_b": params[f"{p}.attn.out.bias"].data,
            "norm2_g": params[f"{p}.norm2.gain"].data,
            "norm2_s": params[f"{p}.norm2.shift"].data,
            "fc1_w": params[f"{p}.mlp.fc1.weight"].data,
            "fc1_b": params[f"{p}.mlp.fc1.bias"].data,
            "fc2_w": params[f"{p}.mlp.fc2.weight"].data,
            "fc2_b": params[f"{p}.mlp.fc2.bias"].data,
        }, cfg.heads)
        assert np.abs(out.data[0] - ref).max() <= 1e-12

        # class token passes the conv branch untouched, bit for bit
        ct = 4
        bp = {"layers.0.conv.weight":
              Tensor(rng.standard_normal((ct, 1, 3, 3))),
              "layers.0.conv.bias": Tensor(rng.standard_normal(ct))}
        tokens = Tensor(rng.standard_normal((2, 10, ct)))
        br = eitt_branch(tokens, bp, "layers.0", MICRO, (3, 3))
        assert (br.data[:, 0, :] == tokens.data[:, 0, :]).all()

        # attention commutes with patch-token permutation (no positions)
        cm, heads, t = 8, 2, 10
        qkv_w = Tensor(rng.standard_normal((cm, 3 * cm)))
        qkv_b = Tensor(rng.standard_normal(3 * cm))
        out_w = Tensor(rng.standard_normal((cm, cm)))
        out_b = Tensor(rng.standard_normal(cm))
        seq = Tensor(rng.standard_normal((1, t, cm)))
        base, _ = mha(seq, qkv_w, qkv_b, out_w, out_b, heads)
        perm = np.concatenate([[0], 1 + rng.permutation(t - 1)])
        swapped, _ = mha(Tensor(seq.data[:, perm]), qkv_w, qkv_b,
                         out_w, out_b, heads)
        assert np.abs(swapped.data - base.data[:, perm]).max() <= 1e-9


def test_8_toy_training(tmp_path):
    with criterion(8, "toy training"):
        pool = generate_synthetic(40, 16, seed=0)
        i0 = np.where(pool.labels == 0)[0][:4]
        i1 = np.where(pool.labels == 1)[0][:4]
        idx = np.concatenate([i0, i1])
        eight = Dataset(pool.images[idx], pool.labels[idx])
        tc = TrainConfig(epochs=50, batch_size=2, base_lr=0.01, min_lr=0.001,
                         momentum=0.9, seed=0)
        _, metrics = train(TINY, tc, eight)
        assert metrics[-1]["step"] <= 200
        assert metrics[-1]["eval_acc"] == 1.0

        big = generate_synthetic(64, 16, seed=1)
        tc2 = TrainConfig(epochs=15, batch_size=8, base_lr=0.01, min_lr=0.001,
                          momentum=0.9, seed=0)
        start = time.time()
        params, m2 = train(TINY, tc2, big, out_dir=str(tmp_path / "run"))
        assert time.time() - start < 300
        assert m2[-1]["eval_acc"] >= 0.9

        _, m2b = train(TINY, tc2, big)
        assert m2 == m2b  # seed-fixed rerun, bit-identical metrics

        # probe CSVs come out of the trained checkpoint
        from eit.cli import main
        probe_dir = tmp_path / "probe"
        data_dir = tmp_path / "data"
        from eit.data import save_dataset
        save_dataset(big, data_dir)
        assert main(["probe", "--checkpoint",
                     str(tmp_path / "run" / "model.ckpt"),
                     "--data", str(data_dir), "--out", str(probe_dir),
                     "--samples", "8"]) == 0
        for name in ("distances.csv", "diversity.csv", "spectrum.csv"):
            assert (probe_dir / name).exists()


def test_9_checkpoint_roundtrip(tmp_path):
    with criterion(9, "checkpoint round-trip"):
        params = init_params(MICRO, 0)
        path = tmp_path / "m.ckpt"
        checkpoint.save(path, params, MICRO)
        back, cfg2 = checkpoint.load(path)
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        a = forward(x, params, MICRO).data
        b = forward(x, back, cfg2).data
        assert (a == b).all()


def test_10_eit_keeps_more_high_frequency_than_its_vit_twin():
    # The paper's headline: EIT layers carry a larger share of high-frequency
    # data than ViT's. At init, seeds 0-9 fixed in advance, the smallest
    # top-bin gap over layers 1-3 measured 0.107 (seed 8); 0.05 is the margin.
    # At init the gap comes from the channel split: the conv slice skips the
    # low-pass attention (it holds with the branch replaced by the identity).
    with criterion(10, "EIT keeps more high frequency than its ViT twin"):
        tiny = dataclasses.replace(TINY, layers=4)
        for seed in range(10):
            images = generate_synthetic(16, 16, seed).images
            top = {}
            for policy in ("decreasing", "none"):
                cfg = dataclasses.replace(tiny, split_policy=policy)
                _, layers = forward(images, init_params(cfg, seed), cfg,
                                    collect_probes=True)
                top[policy] = np.array([probes.frequency_share(
                    probes.ProbeRecord(p["attention"], p["input"],
                                       cfg.token_grid(), cfg.pixel_spacing()),
                    bins=4)[:, -1].mean() for p in layers])
            gap = top["decreasing"] - top["none"]
            assert gap[0] == 0.0, (seed, gap)  # the same patch-stage output
            assert (gap[1:] >= 0.05).all(), (seed, gap)


def top_share(tokens: np.ndarray, grid) -> float:
    """Mean top-bin (of 4) frequency share of token arrays (N, T, C)."""
    n, t, _ = tokens.shape
    rec = probes.ProbeRecord(np.full((n, 1, t, t), 1.0 / t), tokens, grid, 1.0)
    return probes.frequency_share(rec, bins=4)[:, -1].mean()


def test_10b_attention_lowers_and_the_conv_branch_raises_high_frequency(
        monkeypatch):
    # The paper's mechanism, per branch. At init, on seeds 0-2 fixed in
    # advance, attention's top-bin share went from 0.23-0.45 in to 0.006-0.22
    # out, at every layer under every style; the `conv` branch raised layer
    # 0's from 0.28-0.29 to 0.35-0.39 (the smallest rise 0.075, seed 2);
    # 0.05 is the margin. A branch replaced by the identity raises nothing.
    with criterion("10b", "attention lowers, the conv branch raises "
                          "high frequency"):
        tiny = dataclasses.replace(TINY, layers=4)
        grid = tiny.token_grid()
        shares = {"branch": [], "attention": []}

        def branch(x, *args):
            y = eitt_branch(x, *args)
            shares["branch"].append((top_share(x.data, grid),
                                     top_share(y.data, grid)))
            return y

        def attention(x, *args):
            y, weights = mha(x, *args)
            shares["attention"].append((top_share(x.data, grid),
                                        top_share(y.data, grid)))
            return y, weights

        monkeypatch.setattr(model, "eitt_branch", branch)
        monkeypatch.setattr(model, "mha", attention)
        for style in BRANCH_STYLES:
            cfg = dataclasses.replace(tiny, eitt=ConvBranch(branch_style=style))
            for seed in range(3):
                for calls in shares.values():
                    calls.clear()
                forward(generate_synthetic(16, 16, seed).images,
                        init_params(cfg, seed), cfg)
                attn = np.array(shares["attention"])
                assert len(attn) == 4, (style, seed)
                assert (attn[:, 1] < attn[:, 0]).all(), (style, seed, attn)
                if style == "conv":
                    before, after = shares["branch"][0]  # layer 0
                    assert after - before >= 0.05, (seed, before, after)
