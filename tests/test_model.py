import dataclasses
import weakref

import numpy as np
import pytest

from eit.errors import ConfigError, ContractError
from eit.model import (BRANCH_STYLES, POS_EMBED_MODES, SPLIT_POLICIES,
                       ConvBranch, ModelConfig, PatchStage, Tensor,
                       build_schedule, classify, config_from_dict, config_to_dict,
                       eitp_embed, eitt_branch, encoder_layer, forward,
                       init_params, mha, param_shapes, schedule_for)
from eit.train import cross_entropy

from oracles import conv2d_loops, softmax_loops, vit_layer_loops

MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))


def micro(**kw):
    return dataclasses.replace(MICRO, **kw)


class TestConfig:
    def test_channels_head_divisibility(self):
        with pytest.raises(ConfigError):
            micro(channels=9)

    def test_stride_larger_than_kernel(self):
        with pytest.raises(ConfigError):
            micro(eitp=PatchStage(3, 4))

    def test_branch_stride_must_preserve_grid(self):
        with pytest.raises(ConfigError):
            micro(eitt=ConvBranch(3, 2))

    @pytest.mark.parametrize("field, value", [
        ("channels", 8.0), ("layers", True), ("mlp_ratio", 4.0),
        ("image", (8.0, 8, 3)), ("eitp", {"kernel": 3.0, "stride": 1}),
        ("eitp", {"kernel": 3, "stride": 1, "pool": False}),
        ("eitt", {"kernel": 3.0})])
    def test_integer_fields_reject_float_and_bool(self, field, value):
        doc = dict(config_to_dict(MICRO), **{field: value})
        with pytest.raises(ConfigError, match="integer"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("image", 5), ("image", "8x8"), ("eitp", 5), ("eitt", [3]),
        ("eitt", "conv"), ("dropout", "0.1"), ("dropout", True)])
    def test_malformed_structure_rejected(self, field, value):
        doc = dict(config_to_dict(MICRO), **{field: value})
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    def test_json_roundtrip_and_unknown_keys(self):
        doc = config_to_dict(MICRO)
        assert config_from_dict(doc) == MICRO
        doc["color_space"] = "lab"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_nested_unknown_keys(self):
        doc = config_to_dict(MICRO)
        doc["eitp"]["dilation"] = 2
        with pytest.raises(ConfigError):
            config_from_dict(doc)


class TestPatchEmbed:
    def test_224_geometry(self):
        cfg = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                          image=(224, 224, 3), eitp=PatchStage(16, 4, 0, 3))
        assert cfg.token_grid() == (17, 17)
        assert cfg.token_count() == 290

    def test_32_geometry_matches_patch4_grid(self):
        cfg = ModelConfig(channels=250, layers=5, heads=10, classes=10,
                          image=(32, 32, 3), eitp=PatchStage(3, 1, 1, 4))
        assert cfg.token_grid() == (8, 8)
        assert cfg.token_count() == 65

    def test_degenerate_vit_geometry(self):
        cfg = ModelConfig(channels=16, layers=1, heads=2, classes=2,
                          image=(24, 24, 3), eitp=PatchStage(4, 4, 0, 1),
                          split_policy="none")
        assert cfg.token_count() == (24 // 4) ** 2 + 1

    def test_collapsed_grid_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=8, layers=1, heads=2, classes=2,
                        image=(8, 8, 3), eitp=PatchStage(3, 1, 0, 7)).token_grid()

    def test_class_token_prepended(self):
        params = init_params(MICRO, 0)
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        tokens = eitp_embed(Tensor(x), params, MICRO)
        assert tokens.shape == (2, MICRO.token_count(), 8)
        np.testing.assert_array_equal(tokens.data[0, 0], params["cls_token"].data[0, 0])

    @pytest.mark.parametrize("pos_embed", ["none", "trainable"])
    def test_a_slice_of_the_tokens_keeps_no_token_array(self, pos_embed):
        # under "none" the tokens are a channel-major (not C-contiguous)
        # array; a slice's backward needs only its shape either way
        cfg = micro(pos_embed=pos_embed)
        params = init_params(cfg, 0)
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        tokens = eitp_embed(Tensor(x), params, cfg)
        array = weakref.ref(tokens.data)
        y = tokens[:, 1:, :4] + 0.0
        del tokens
        assert array() is None
        (y * y).sum().backward()
        assert params["eitp.weight"].grad.any()

    def test_zero_pos_embed_changes_nothing(self):
        cfg = micro(pos_embed="trainable")
        params = init_params(cfg, 0)
        params["pos_embed"].data[:] = 0.0
        plain = {k: v for k, v in params.items() if k != "pos_embed"}
        x = np.random.default_rng(1).random((1, 3, 8, 8))
        with_pos = forward(x, params, cfg).data
        without = forward(x, plain, MICRO).data
        # adding an all-zero table is exact, but the fresh allocation can
        # change BLAS summation order downstream by one ulp
        np.testing.assert_allclose(with_pos, without, rtol=0, atol=1e-12)


class TestMha:
    def test_zero_qk_gives_uniform_attention(self):
        rng = np.random.default_rng(0)
        cm, h, t = 4, 2, 5
        qkv_w = np.zeros((cm, 3 * cm))
        qkv_w[:, 2 * cm:] = rng.standard_normal((cm, cm))  # only v is live
        out_w = np.eye(cm)
        x = rng.standard_normal((1, t, cm))
        out, attn = mha(Tensor(x), Tensor(qkv_w), Tensor(np.zeros(3 * cm)),
                        Tensor(out_w), Tensor(np.zeros(cm)), h)
        np.testing.assert_allclose(attn, 1.0 / t)
        v = x @ qkv_w[:, 2 * cm:]
        np.testing.assert_allclose(out.data, np.broadcast_to(v.mean(1), (1, t, cm)),
                                   atol=1e-12)

    def test_gradients_match_a_per_head_computation(self):
        rng = np.random.default_rng(4)
        n, t, cm, h = 2, 5, 6, 3
        d = cm // h
        x0, g = rng.standard_normal((n, t, cm)), rng.standard_normal((n, t, cm))
        w0, b0 = rng.standard_normal((cm, 3 * cm)) * 0.5, rng.standard_normal(3 * cm)
        ow0, ob0 = rng.standard_normal((cm, cm)) * 0.5, rng.standard_normal(cm)
        leaves = [Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0, ow0, ob0)]
        out, _ = mha(*leaves, h)
        (out * Tensor(g)).sum().backward()

        want = [np.zeros_like(v) for v in (x0, w0, b0, ow0, ob0)]
        for i in range(n):
            qkv = x0[i] @ w0 + b0
            heads_out, gqkv = np.zeros((t, cm)), np.zeros((t, 3 * cm))
            go = g[i] @ ow0.T
            for hh in range(h):
                cols = [slice(j * cm + hh * d, j * cm + (hh + 1) * d) for j in range(3)]
                q, k, v = (qkv[:, c] for c in cols)
                a = np.array([softmax_loops(r) for r in q @ k.T / np.sqrt(d)])
                heads_out[:, cols[0]] = a @ v
                ga = go[:, cols[0]] @ v.T
                gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) / np.sqrt(d)
                gqkv[:, cols[0]], gqkv[:, cols[1]] = gs @ k, gs.T @ q
                gqkv[:, cols[2]] = a.T @ go[:, cols[0]]
            np.testing.assert_allclose(out.data[i], heads_out @ ow0 + ob0, atol=1e-12)
            want[0][i] = gqkv @ w0.T
            want[1] += x0[i].T @ gqkv
            want[2] += gqkv.sum(axis=0)
            want[3] += heads_out.T @ g[i]
            want[4] += g[i].sum(axis=0)
        for leaf, w in zip(leaves, want):
            np.testing.assert_allclose(leaf.grad, w, atol=1e-12)

    def test_two_token_hand_computation(self):
        # 1 head, d=1: out = softmax(q k^T / 1) v
        x = np.array([[[1.0], [2.0]]])
        qkv_w = np.array([[0.5, -0.25, 2.0]])
        out, attn = mha(Tensor(x), Tensor(qkv_w), Tensor(np.zeros(3)),
                        Tensor(np.eye(1)), Tensor(np.zeros(1)), 1)
        q = x[0, :, 0] * 0.5
        k = x[0, :, 0] * -0.25
        v = x[0, :, 0] * 2.0
        for m in range(2):
            logits = q[m] * k
            w = np.exp(logits - logits.max())
            w /= w.sum()
            assert out.data[0, m, 0] == pytest.approx(w @ v, abs=1e-12)
            np.testing.assert_allclose(attn[0, 0, m], w, atol=1e-12)

    def test_permutation_equivariance_patch_tokens(self):
        rng = np.random.default_rng(2)
        cm, h, t = 8, 2, 10
        x = rng.standard_normal((1, t, cm))
        qkv_w = rng.standard_normal((cm, 3 * cm)) * 0.3
        out_w = rng.standard_normal((cm, cm)) * 0.3
        b3, bo = rng.standard_normal(3 * cm), rng.standard_normal(cm)
        out, _ = mha(Tensor(x), Tensor(qkv_w), Tensor(b3), Tensor(out_w),
                     Tensor(bo), h)
        perm = np.concatenate([[0], 1 + rng.permutation(t - 1)])
        out_p, _ = mha(Tensor(x[:, perm]), Tensor(qkv_w), Tensor(b3),
                       Tensor(out_w), Tensor(bo), h)
        np.testing.assert_allclose(out_p.data, out.data[:, perm], atol=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            mha(Tensor(np.zeros((1, 3, 0))), Tensor(np.zeros((0, 0))),
                Tensor(np.zeros(0)), Tensor(np.zeros((0, 0))),
                Tensor(np.zeros(0)), 2)


class TestConvBranch:
    def _tokens(self, ct=4, grid=(3, 3), n=2, seed=0):
        rng = np.random.default_rng(seed)
        t = 1 + grid[0] * grid[1]
        return Tensor(rng.standard_normal((n, t, ct)))

    def test_none_style_is_identity(self):
        cfg = micro(eitt=ConvBranch(branch_style="none"))
        x = self._tokens()
        out = eitt_branch(x, {}, "layers.0", cfg, (3, 3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_delta_kernel_identity(self):
        ct = 4
        w = np.zeros((ct, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        params = {"layers.0.conv.weight": Tensor(w),
                  "layers.0.conv.bias": Tensor(np.zeros(ct))}
        x = self._tokens(ct)
        out = eitt_branch(x, params, "layers.0", MICRO, (3, 3))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_class_token_bypass_bit_exact(self):
        rng = np.random.default_rng(3)
        ct = 4
        params = {"layers.0.conv.weight": Tensor(rng.standard_normal((ct, 1, 3, 3))),
                  "layers.0.conv.bias": Tensor(rng.standard_normal(ct))}
        x = self._tokens(ct, seed=4)
        out = eitt_branch(x, params, "layers.0", MICRO, (3, 3))
        assert (out.data[:, 0, :] == x.data[:, 0, :]).all()

    def test_patch_tokens_match_bruteforce_depthwise(self):
        rng = np.random.default_rng(5)
        ct, g = 3, (4, 4)
        w = rng.standard_normal((ct, 1, 3, 3))
        b = rng.standard_normal(ct)
        params = {"layers.0.conv.weight": Tensor(w), "layers.0.conv.bias": Tensor(b)}
        x = self._tokens(ct, g, n=1, seed=6)
        out = eitt_branch(x, params, "layers.0", MICRO, g)
        grid_in = x.data[0, 1:].reshape(*g, ct).transpose(2, 0, 1)[None]
        ref = conv2d_loops(grid_in, w, b, 1, 1, ct)[0]
        np.testing.assert_allclose(out.data[0, 1:].reshape(*g, ct),
                                   ref.transpose(1, 2, 0), atol=1e-12)

    def test_shuffled_grid_breaks_equivariance(self):
        rng = np.random.default_rng(7)
        ct = 4
        params = {"layers.0.conv.weight": Tensor(rng.standard_normal((ct, 1, 3, 3))),
                  "layers.0.conv.bias": Tensor(np.zeros(ct))}
        x = self._tokens(ct, seed=8)
        out = eitt_branch(x, params, "layers.0", MICRO, (3, 3)).data
        perm = np.concatenate([[0], 1 + rng.permutation(9)])
        out_p = eitt_branch(Tensor(x.data[:, perm]), params, "layers.0",
                            MICRO, (3, 3)).data
        assert not np.allclose(out_p, out[:, perm])

    def test_non_square_patch_count_rejected(self):
        x = Tensor(np.zeros((1, 8, 4)))
        with pytest.raises(ContractError):
            eitt_branch(x, {}, "layers.0", MICRO, (3, 3))

    @pytest.mark.parametrize("style", ["conv3", "gelu_conv_fc", "conv_bn_relu"])
    def test_ablation_styles_run_and_bypass(self, style):
        x = self._tokens(ct=4, seed=9)
        # layer 0 of this config has a width-4 conv slice
        cfg4 = micro(eitt=ConvBranch(branch_style=style))
        params4 = init_params(cfg4, 1)
        out = eitt_branch(x, params4, "layers.0", cfg4, (3, 3))
        assert out.shape == x.shape
        assert (out.data[:, 0, :] == x.data[:, 0, :]).all()

    @pytest.mark.parametrize("style, biases", [
        ("conv", ["conv"]), ("conv3", ["conv0", "conv1", "conv2"]),
        ("gelu_conv_fc", ["conv", "fc"]), ("conv_bn_relu", [])])
    def test_only_a_conv_before_batch_norm_has_no_bias(self, style, biases):
        cfg = micro(eitt=ConvBranch(branch_style=style))
        names = {name for name, *_ in param_shapes(cfg)}
        assert sorted(name[len("layers.0."):-len(".bias")] for name in names
                      if name.startswith("layers.0.") and name.endswith(".bias")
                      and ".attn." not in name and ".mlp." not in name) == biases


class TestEncoderLayer:
    def test_policy_none_equals_plain_vit_reference(self):
        cfg = micro(split_policy="none")
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
        np.testing.assert_allclose(out.data[0], ref, atol=1e-12)

    def test_split_layer_vs_straightline_reference(self):
        # C=4, h=2, T=5: conv slice then attention slice, spliced in order
        cfg = ModelConfig(channels=4, layers=2, heads=2, classes=2,
                          image=(8, 8, 3), eitp=PatchStage(3, 1, 1, 4))
        params = init_params(cfg, 2)
        sched = schedule_for(cfg)
        ct, cm = sched.conv[0], sched.attn[0]
        assert ct > 0 and cm > 0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 5, 4))
        out, _ = encoder_layer(Tensor(x), params, 0, cfg, sched, (2, 2))

        # independent recomputation with plain numpy via the public pieces
        from eit.tensor import layernorm as ln
        n1 = ln(Tensor(x), params["layers.0.norm1.gain"],
                params["layers.0.norm1.shift"]).data
        conv_part = eitt_branch(Tensor(n1[:, :, :ct]), params, "layers.0",
                                cfg, (2, 2)).data
        attn_part, _ = mha(Tensor(n1[:, :, 4 - cm:]),
                           params["layers.0.attn.qkv.weight"],
                           params["layers.0.attn.qkv.bias"],
                           params["layers.0.attn.out.weight"],
                           params["layers.0.attn.out.bias"], cfg.heads)
        y = x + np.concatenate([conv_part, attn_part.data], axis=2)
        n2 = ln(Tensor(y), params["layers.0.norm2.gain"],
                params["layers.0.norm2.shift"]).data
        hidden = n2 @ params["layers.0.mlp.fc1.weight"].data + \
            params["layers.0.mlp.fc1.bias"].data
        from scipy.special import erf
        hidden = 0.5 * hidden * (1 + erf(hidden / np.sqrt(2)))
        ref = y + hidden @ params["layers.0.mlp.fc2.weight"].data + \
            params["layers.0.mlp.fc2.bias"].data
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_splice_covers_all_channels(self):
        for policy in ("decreasing", "increasing", "invariant"):
            sched = build_schedule(64, 4, 3, policy)
            for ct, cm in zip(sched.conv, sched.attn):
                assert ct + cm == 64


class TestForward:
    def test_zero_head_weights_zero_logits(self):
        params = init_params(MICRO, 0)
        params["head.weight"].data[:] = 0.0
        params["head.bias"].data[:] = 0.0
        x = np.random.default_rng(0).random((3, 3, 8, 8))
        np.testing.assert_array_equal(forward(x, params, MICRO).data, 0.0)

    @pytest.mark.parametrize("policy", ["decreasing", "increasing", "invariant",
                                        "parallel", "none"])
    def test_logit_shape_all_policies(self, policy):
        cfg = micro(split_policy=policy)
        params = init_params(cfg, 0)
        x = np.random.default_rng(1).random((2, 3, 8, 8))
        assert forward(x, params, cfg).shape == (2, 2)

    def test_deterministic(self):
        params = init_params(MICRO, 0)
        x = np.random.default_rng(2).random((1, 3, 8, 8))
        a = forward(x, params, MICRO).data
        b = forward(x, params, MICRO).data
        assert (a == b).all()

    def test_detached_params_build_no_graph(self):
        params = init_params(MICRO, 0)
        x = np.random.default_rng(4).random((2, 3, 8, 8))
        logits = forward(x, {k: p.detach() for k, p in params.items()}, MICRO)
        assert not logits.requires_grad and logits._node is None
        assert (logits.data == forward(x, params, MICRO).data).all()

    def test_from_op_is_the_one_node_constructor(self, monkeypatch):
        # perfbench counts graph nodes by patching Tensor._from_op, so a
        # forward that builds no graph calls it as often as one that does,
        # and every node made in a forward is made there
        from eit import tensor
        params = init_params(MICRO, 0)
        detached = {k: p.detach() for k, p in params.items()}
        x = np.random.default_rng(4).random((2, 3, 8, 8))
        calls, nodes = [], []
        from_op, node_init = Tensor._from_op, tensor._Node.__init__

        def counted(data, parents, backward):
            calls.append(1)
            return from_op(data, parents, backward)

        def made(self, *args, **kwargs):
            nodes.append(1)
            node_init(self, *args, **kwargs)
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
        monkeypatch.setattr(tensor._Node, "__init__", made)
        counts = []
        for p in (params, detached):
            calls.clear()
            nodes.clear()
            forward(x, p, MICRO)
            counts.append((len(calls), len(nodes)))
        (grad_calls, grad_nodes), (detached_calls, detached_nodes) = counts
        assert grad_calls == detached_calls > 0
        assert grad_nodes == grad_calls and detached_nodes == 0

    @staticmethod
    def _training_node_count(monkeypatch, cfg) -> int:
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        made = []
        from_op = Tensor._from_op

        def counted(data, parents, backward):
            made.append(1)
            return from_op(data, parents, backward)
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
        cross_entropy(forward(rng.random((2, 3, 8, 8)), params, cfg,
                              train=True, rng=rng), np.array([0, 1]))
        return len(made)

    def test_micro_training_forward_and_loss_node_count(self, monkeypatch):
        # splitting each layer into two residual blocks adds no node
        assert self._training_node_count(monkeypatch, MICRO) == 68

    def test_micro_parallel_training_forward_and_loss_node_count(self, monkeypatch):
        assert self._training_node_count(
            monkeypatch, micro(split_policy="parallel")) == 75

    @pytest.mark.parametrize("pos_embed", POS_EMBED_MODES)
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_forward_reads_exactly_the_declared_params(self, policy, style,
                                                       pos_embed):
        """param_shapes and the forward pass name the same tensors: one
        declared but never read, or read but never declared, fails here."""
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        cfg = micro(split_policy=policy, eitt=ConvBranch(branch_style=style),
                    pos_embed=pos_embed)
        read = set()
        forward(np.random.default_rng(6).random((2, 3, 8, 8)),
                Recording(init_params(cfg, 0)), cfg)
        assert read == {name for name, *_ in param_shapes(cfg)}

    def test_classify_reads_only_the_class_token(self):
        params = init_params(MICRO, 0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, MICRO.token_count(), MICRO.channels))
        noisy = x.copy()
        noisy[:, 1:] = rng.standard_normal(noisy[:, 1:].shape)
        assert np.array_equal(classify(Tensor(noisy), params).data,
                              classify(Tensor(x), params).data)

    def test_wrong_image_size_rejected(self):
        params = init_params(MICRO, 0)
        with pytest.raises(ContractError):
            forward(np.zeros((1, 3, 9, 9)), params, MICRO)

    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_on_layer_gets_what_collect_probes_keeps(self, policy):
        cfg = micro(split_policy=policy)
        params = init_params(cfg, 0)
        x = np.random.default_rng(3).random((2, 3, 8, 8))
        want_logits, want = forward(x, params, cfg, collect_probes=True)
        got = []
        logits = forward(x, params, cfg, on_layer=lambda i, layer_input, attention:
                         got.append((i, layer_input.copy(), attention)))
        assert [i for i, _, _ in got] == list(range(cfg.layers))
        for (_, layer_input, attention), rec in zip(got, want, strict=True):
            for a, b in ((layer_input, rec["input"]), (attention, rec["attention"])):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for out in (logits, want_logits):
            assert out.data.tobytes() == forward(x, params, cfg).data.tobytes()

    def test_collect_probes_and_on_layer_refused_together(self):
        params = init_params(MICRO, 0)
        x = np.random.default_rng(3).random((1, 3, 8, 8))
        with pytest.raises(ContractError, match="not both"):
            forward(x, params, MICRO, collect_probes=True,
                    on_layer=lambda *args: None)

    def test_probe_shapes(self):
        params = init_params(MICRO, 0)
        x = np.random.default_rng(3).random((2, 3, 8, 8))
        _, probes = forward(x, params, MICRO, collect_probes=True)
        t = MICRO.token_count()
        assert len(probes) == MICRO.layers
        for rec in probes:
            assert rec["attention"].shape == (2, MICRO.heads, t, t)
            assert rec["input"].shape == (2, t, MICRO.channels)
