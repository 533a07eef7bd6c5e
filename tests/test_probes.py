import numpy as np
import pytest

from eit.errors import ContractError, DiagnosticError
from eit.probes import (ProbeRecord, attention_distance, attention_map,
                        frequency_share, grid_distances, head_diversity,
                        mean_distances, radial_bin_index, write_pgm)

from oracles import dft2_loops


def make_record(attention, layer_input=None, grid=(2, 2), spacing=1.0):
    t = 1 + grid[0] * grid[1]
    if layer_input is None:
        layer_input = np.zeros((t, 3))
    return ProbeRecord(attention, layer_input, grid, spacing)


def random_row_stochastic(rng, heads, t):
    a = rng.random((heads, t, t)) + 1e-3
    return a / a.sum(axis=-1, keepdims=True)


def loop_dft_shares(layer_input, grid, bins):
    """Spectrum shares of one image's (T, C) tokens from the loop DFT."""
    h, w = grid
    mag = sum(np.abs(dft2_loops(layer_input[1:, c].reshape(h, w)))
              for c in range(layer_input.shape[-1]))
    idx = radial_bin_index(grid, bins)
    return np.array([mag[idx == b].sum() for b in range(bins)]) / mag.sum()


class TestProbeRecord:
    def test_rejects_non_stochastic_attention(self):
        with pytest.raises(ContractError):
            make_record(np.ones((1, 5, 5)))

    def test_rejects_wrong_token_count(self):
        with pytest.raises(ContractError):
            make_record(random_row_stochastic(np.random.default_rng(0), 1, 4))

    def test_batch_leading_shapes_must_agree(self):
        a = random_row_stochastic(np.random.default_rng(0), 3 * 2, 5)
        with pytest.raises(ContractError):
            make_record(a.reshape(3, 2, 5, 5), np.zeros((2, 5, 4)))
        with pytest.raises(ContractError):
            make_record(a.reshape(3, 2, 5, 5), np.zeros((5, 4)))


def batch_and_images(seed, n=3, heads=2, grid=(3, 3), channels=4):
    """A batch record of n images and the n per-image records it holds."""
    rng = np.random.default_rng(seed)
    t = 1 + grid[0] * grid[1]
    a = random_row_stochastic(rng, n * heads, t).reshape(n, heads, t, t)
    x = rng.standard_normal((n, t, channels))
    return (make_record(a, x, grid, spacing=1.5),
            [make_record(a[j], x[j], grid, spacing=1.5) for j in range(n)])


class TestAttentionDistance:
    def test_identity_attention_zero_distance(self):
        t = 5
        a = np.broadcast_to(np.eye(t), (3, t, t)).copy()
        rec = make_record(a)
        np.testing.assert_allclose(attention_distance(rec), 0.0)

    def test_uniform_2x2_hand_value(self):
        a = np.full((1, 5, 5), 0.2)
        rec = make_record(a)
        expected = (0 + 1 + 1 + np.sqrt(2)) / 4
        np.testing.assert_allclose(attention_distance(rec), expected, atol=1e-12)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_uniform_grid_matches_double_loop(self, g):
        t = 1 + g * g
        a = np.full((2, t, t), 1.0 / t)
        rec = make_record(a, np.zeros((t, 2)), (g, g), spacing=2.5)
        dist = attention_distance(rec)
        # brute force: average over all (query, key) patch pairs
        acc = 0.0
        for m in range(g * g):
            for n in range(g * g):
                acc += 2.5 * np.hypot(m // g - n // g, m % g - n % g)
        np.testing.assert_allclose(dist, acc / (g * g) ** 2, atol=1e-9)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_random_attention_matches_enumeration(self, g):
        rng = np.random.default_rng(g)
        t = 1 + g * g
        a = random_row_stochastic(rng, 3, t)
        rec = make_record(a, np.zeros((t, 2)), (g, g), spacing=1.0)
        dist = attention_distance(rec)
        for h in range(3):
            acc = 0.0
            for m in range(g * g):
                row = a[h, 1 + m, 1:]
                row = row / row.sum()
                s = 0.0
                for n in range(g * g):
                    s += row[n] * np.hypot(m // g - n // g, m % g - n % g)
                acc += s
            assert dist[h] == pytest.approx(acc / (g * g), abs=1e-9)

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(1)
        g, t = 3, 10
        a = random_row_stochastic(rng, 2, t)
        rec = make_record(a, np.zeros((t, 2)), (g, g))
        base = attention_distance(rec)
        # permuting heads only relabels the output vector
        np.testing.assert_allclose(
            attention_distance(make_record(a[::-1], np.zeros((t, 2)), (g, g))),
            base[::-1])

    def test_degenerate_grid_rejected(self):
        a = np.ones((1, 2, 2)) / 2
        with pytest.raises(DiagnosticError):
            attention_distance(make_record(a, np.zeros((2, 1)), (1, 1)))

    def test_batch_equals_stacked_images(self):
        batch, images = batch_and_images(8)
        np.testing.assert_allclose(
            attention_distance(batch),
            np.stack([attention_distance(r) for r in images]), rtol=1e-15)

    def test_mean_distances_averages_images(self):
        rng = np.random.default_rng(2)
        t = 5
        recs = [make_record(random_row_stochastic(rng, 2, t)) for _ in range(4)]
        avg = mean_distances(recs)
        ref = np.mean([attention_distance(r) for r in recs], axis=0)
        np.testing.assert_array_equal(avg, ref)


class TestHeadDiversity:
    def test_equal_heads_zero(self):
        assert head_diversity(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert head_diversity(np.array([1.0, 3.0])) == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        d = rng.random(10) * 7
        mean = sum(d) / len(d)
        var = sum((v - mean) ** 2 for v in d) / len(d)
        assert head_diversity(d) == pytest.approx(var, rel=1e-12)

    def test_single_head_rejected(self):
        with pytest.raises(DiagnosticError):
            head_diversity(np.array([1.0]))


class TestFrequencyShare:
    def test_constant_input_is_pure_dc(self):
        t = 17
        rec = make_record(random_row_stochastic(np.random.default_rng(0), 1, t),
                          np.ones((t, 3)), (4, 4))
        shares = frequency_share(rec, bins=10)
        assert shares[0] == pytest.approx(1.0)
        np.testing.assert_allclose(shares[1:], 0.0, atol=1e-12)

    def test_checkerboard_is_top_bin(self):
        g = 4
        t = 1 + g * g
        j = np.arange(g)
        cb = np.where((j[:, None] + j[None, :]) % 2 == 0, 1.0, -1.0)
        layer_input = np.concatenate([[np.zeros(2)],
                                      np.stack([cb.ravel()] * 2, axis=1)])
        rec = make_record(random_row_stochastic(np.random.default_rng(0), 1, t),
                          layer_input, (g, g))
        shares = frequency_share(rec, bins=10)
        assert shares[-1] == pytest.approx(1.0)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        t = 10
        rec = make_record(random_row_stochastic(rng, 1, t),
                          rng.standard_normal((t, 5)), (3, 3))
        assert frequency_share(rec, 7).sum() == pytest.approx(1.0, abs=1e-9)
        assert (frequency_share(rec, 7) >= 0).all()

    def test_channel_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        t = 10
        x = rng.standard_normal((t, 6))
        a = random_row_stochastic(rng, 1, t)
        base = frequency_share(make_record(a, x, (3, 3)))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            frequency_share(make_record(a, x[:, perm], (3, 3))), base, atol=1e-12)
        np.testing.assert_allclose(
            frequency_share(make_record(a, -3.7 * x, (3, 3))), base, atol=1e-12)

    def test_dft_matches_double_loop_and_parseval(self):
        rng = np.random.default_rng(5)
        for h, w in [(2, 2), (3, 4), (4, 4)]:
            x = rng.standard_normal((1 + h * w, 3))
            a = random_row_stochastic(rng, 1, 1 + h * w)
            # Parseval: sum |F|^2 == N * sum |x|^2 keeps the loop oracle honest
            for c in range(3):
                grid = x[1:, c].reshape(h, w)
                assert np.sum(np.abs(dft2_loops(grid)) ** 2) == pytest.approx(
                    h * w * np.sum(grid ** 2), abs=1e-9)
            np.testing.assert_allclose(
                frequency_share(make_record(a, x, (h, w)), 7),
                loop_dft_shares(x, (h, w), 7), rtol=1e-12, atol=1e-12)

    def test_dft_transforms_trailing_axes_of_a_stack(self):
        rng = np.random.default_rng(6)
        (h, w), t = (3, 4), 13
        x = rng.standard_normal((3, 2, t, 2))
        a = random_row_stochastic(rng, 6, t).reshape(3, 2, 1, t, t)
        shares = frequency_share(make_record(a, x, (h, w)), 5)
        assert shares.shape == (3, 2, 5)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(
                    shares[i, j], loop_dft_shares(x[i, j], (h, w), 5),
                    rtol=1e-12, atol=1e-12)

    def test_matches_loop_dft_oracle(self):
        # a batch of 2 on a non-square grid, so a swapped axis shows
        rng = np.random.default_rng(5)
        n, (h, w), channels, bins = 2, (3, 5), 4, 7
        t = 1 + h * w
        x = rng.standard_normal((n, t, channels))
        a = random_row_stochastic(rng, n, t).reshape(n, 1, t, t)
        want = np.stack([loop_dft_shares(x[i], (h, w), bins) for i in range(n)])
        np.testing.assert_allclose(
            frequency_share(make_record(a, x, (h, w)), bins), want,
            rtol=1e-12, atol=1e-12)

    def test_radial_bins_cover_everything(self):
        idx = radial_bin_index((8, 8), 10)
        assert idx.min() == 0 and idx.max() == 9
        assert idx[0, 0] == 0  # DC
        assert idx[4, 4] == 9  # corner (Nyquist both axes) folds into last bin

    def test_batch_equals_stacked_images(self):
        batch, images = batch_and_images(9)
        shares = frequency_share(batch, 7)
        assert shares.shape == (3, 7)
        np.testing.assert_allclose(
            shares, np.stack([frequency_share(r, 7) for r in images]),
            rtol=1e-15)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_no_bins_rejected(self, bins):
        rec = make_record(random_row_stochastic(np.random.default_rng(7), 1, 5))
        with pytest.raises(DiagnosticError, match="bin"):
            frequency_share(rec, bins)


class TestAttentionMap:
    def test_identity_attention_one_hot(self):
        t = 5
        a = np.broadcast_to(np.eye(t), (1, t, t)).copy()
        amap, cls_mass = attention_map(make_record(a), query=3)
        assert cls_mass == 0.0
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_array_equal(amap.ravel(), expected)

    def test_two_one_hot_heads_average(self):
        t = 5
        a = np.zeros((2, t, t))
        a[:, :, :] = np.eye(t)
        a[0, 1] = 0
        a[0, 1, 2] = 1.0
        a[1, 1] = 0
        a[1, 1, 4] = 1.0
        amap, _ = attention_map(make_record(a), query=1)
        np.testing.assert_allclose(amap.ravel(), [0, 0.5, 0, 0.5])

    def test_mass_bookkeeping(self):
        rng = np.random.default_rng(6)
        t = 10
        rec = make_record(random_row_stochastic(rng, 4, t),
                          np.zeros((t, 2)), (3, 3))
        amap, cls_mass = attention_map(rec, query=5)
        assert amap.sum() + cls_mass == pytest.approx(1.0, abs=1e-9)
        assert (amap >= 0).all()

    def test_batch_equals_stacked_images(self):
        batch, images = batch_and_images(10)
        amaps, cls_mass = attention_map(batch, query=5)
        for j, rec in enumerate(images):
            amap, mass = attention_map(rec, query=5)
            np.testing.assert_array_equal(amaps[j], amap)
            assert cls_mass[j] == mass

    def test_class_token_query_rejected(self):
        rec = make_record(random_row_stochastic(np.random.default_rng(0), 1, 5))
        with pytest.raises(ContractError):
            attention_map(rec, query=0)


class TestPgm:
    def test_header_and_normalization(self, tmp_path):
        img = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "map.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 63, 127, 255]
