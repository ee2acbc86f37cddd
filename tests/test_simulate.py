import itertools
import math
import os

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent import simulate
from wiretap_exponent.simulate import (_sampled_pc, _sampling_tables,
                                       per_trial_pc)

BSC01 = wx.Dmc([[0.9, 0.1], [0.1, 0.9]])
USELESS = wx.Dmc([[0.3, 0.7], [0.3, 0.7]])
NOISELESS = wx.Dmc([[1.0, 0.0], [0.0, 1.0]])


def spec_for(n, r1, r2, trials=4, seed=7, channel=BSC01):
    comp = wx.quantize_composition([0.5, 0.5], n)
    return wx.EnsembleSpec(n=n, rates=wx.RatePair(r1, r2), p_x_type=comp,
                           channel=channel, trials=trials, seed=seed)


def wide_and_narrow(nx, a, b, row_a, row_b):
    """A channel with nx inputs and all input mass on a and b, and the same
    two rows as a two-input channel; the other rows are noise."""
    rows = np.random.default_rng(nx).dirichlet(np.ones(len(row_a)), size=nx)
    rows[a], rows[b] = row_a, row_b
    px = np.zeros(nx)
    px[a] = px[b] = 0.5
    return (wx.Dmc(rows), px), (wx.Dmc([row_a, row_b]), [0.5, 0.5])


def argsort_codebook(spec, rng):
    """The codebook drawn as a stable argsort of one double per symbol."""
    nx = len(spec.p_x_type)
    template = np.repeat(np.arange(nx, dtype=np.min_scalar_type(nx - 1)),
                         spec.p_x_type)
    order = np.argsort(rng.random((spec.m1, spec.n)), axis=1, kind="stable")
    return template[order]


def one_subcode_spec(n, probs, m1):
    """A spec of m1 codewords in one sub-code, over len(probs) inputs."""
    return wx.EnsembleSpec(n=n, rates=wx.RatePair(math.log(m1) / n, 0.0),
                           p_x_type=wx.quantize_composition(probs, n),
                           channel=wx.Dmc(np.full((len(probs), 2), 0.5)),
                           trials=1, seed=0)


class TestQuantizeComposition:
    def test_exact_type(self):
        assert wx.quantize_composition([0.5, 0.5], 10) == (5, 5)

    def test_largest_remainder(self):
        assert wx.quantize_composition([0.4, 0.35, 0.25], 10) == (4, 4, 2)
        assert sum(wx.quantize_composition([1 / 3, 1 / 3, 1 / 3], 10)) == 10

    def test_zero_mass_symbol(self):
        assert wx.quantize_composition([0.7, 0.0, 0.3], 10) == (7, 0, 3)


class TestEnsembleSpec:
    def test_codebook_sizes(self):
        es = spec_for(12, 0.69, 0.23)
        assert es.m2 == 16 and es.m_subcodes == 250 and es.m1 == 4000
        assert es.realized_r2 == pytest.approx(math.log(16) / 12)
        assert es.realized_r1 == pytest.approx(math.log(4000) / 12)

    def test_minimum_one(self):
        es = spec_for(4, 0.0, 0.0)
        assert es.m2 == 1 and es.m_subcodes == 1 and es.m1 == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            wx.EnsembleSpec(n=4, rates=wx.RatePair(0.5, 0.1),
                            p_x_type=(2, 1), channel=BSC01, trials=1, seed=0)
        with pytest.raises(ValueError):
            wx.EnsembleSpec(n=4, rates=wx.RatePair(0.5, 0.1),
                            p_x_type=(2, 2), channel=BSC01, trials=0, seed=0)


class TestSampleCodebook:
    def test_type_class_membership(self):
        es = spec_for(8, 0.5, 0.25)
        rng = np.random.default_rng(0)
        cb = wx.sample_codebook(es, rng)
        assert cb.shape == (es.m1, 8)
        assert np.all(cb.sum(axis=1) == 4)

    def test_single_codeword(self):
        es = spec_for(4, 0.0, 0.0)
        cb = wx.sample_codebook(es, np.random.default_rng(0))
        assert cb.shape == (1, 4)

    def test_seed_determinism(self):
        es = spec_for(6, 0.5, 0.25)
        a = wx.sample_codebook(es, np.random.default_rng(42))
        b = wx.sample_codebook(es, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_prefix_sharing_across_rates(self):
        # same seed and n: the codebook at a lower total rate is a prefix
        # of the codebook at a higher total rate
        lo = spec_for(8, 0.5, 0.25, seed=11)
        hi = spec_for(8, 0.8, 0.25, seed=11)
        a = wx.sample_codebook(lo, np.random.default_rng(
            np.random.SeedSequence(11).spawn(1)[0]))
        b = wx.sample_codebook(hi, np.random.default_rng(
            np.random.SeedSequence(11).spawn(1)[0]))
        assert b.shape[0] > a.shape[0]
        assert np.array_equal(b[:a.shape[0]], a)

    def test_codebook_budget(self):
        es = spec_for(30, 0.9, 0.1)
        with pytest.raises(wx.BudgetExceededError):
            wx.sample_codebook(es, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 12, 2048, 2049])
    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
        np.random.SFC64, np.random.MT19937])
    def test_matches_stable_argsort(self, bit_generator, n, monkeypatch):
        # the raw draws sorted with their positions in the low bits give
        # the stable argsort's codebook, and leave the generator where
        # rng.random() would; MT19937 and n > 2048 take the argsort itself
        es = one_subcode_spec(n, [0.5, 0.3, 0.2], 40 if n < 100 else 6)
        ref_rng = np.random.Generator(bit_generator(n))
        ref = argsort_codebook(es, ref_rng)
        argsort = np.argsort
        sorts = []
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        rng = np.random.Generator(bit_generator(n))
        cb = wx.sample_codebook(es, rng)
        assert cb.dtype == ref.dtype and np.array_equal(cb, ref)
        assert np.array_equal(rng.random(5), ref_rng.random(5))
        assert np.array_equal(rng.integers(0, 1000, 5),
                              ref_rng.integers(0, 1000, 5))
        assert bool(sorts) == (bit_generator is np.random.MT19937 or n > 2048)

    def test_matches_stable_argsort_past_255_inputs(self):
        # 300 inputs twice each: the codebook is uint16
        es = one_subcode_spec(600, np.full(300, 1 / 300), 5)
        cb = wx.sample_codebook(es, np.random.default_rng(4))
        ref = argsort_codebook(es, np.random.default_rng(4))
        assert cb.dtype == np.uint16
        assert np.array_equal(cb, ref)


class TestDecoderScore:
    def test_hand_example(self):
        # C_0 = {00, 11}, z = 01 under a BSC(0.1)
        cb = np.array([[0, 0], [1, 1]], dtype=np.int8)
        s = wx.decoder_score(cb, 2, 0, [0, 1], BSC01)
        assert s == pytest.approx(0.5 * (0.9 * 0.1 + 0.1 * 0.9), abs=1e-15)

    def test_single_codeword_subcode(self):
        cb = np.array([[0, 1], [1, 0]], dtype=np.int8)
        s = wx.decoder_score(cb, 1, 1, [1, 0], BSC01)
        assert s == pytest.approx(0.9 * 0.9, abs=1e-15)

    def test_identical_subcodes_score_equal(self):
        cb = np.array([[0, 1], [1, 0], [0, 1], [1, 0]], dtype=np.int8)
        z = [0, 0]
        s0 = wx.decoder_score(cb, 2, 0, z, BSC01)
        s1 = wx.decoder_score(cb, 2, 1, z, BSC01)
        assert s0 == pytest.approx(s1, abs=1e-16)

    def test_log_score_handles_zeros(self):
        cb = np.array([[0, 0]], dtype=np.int8)
        assert wx.decoder_log_score(cb, 1, 0, [1, 1], NOISELESS) == -math.inf


class TestExactPc:
    def test_single_subcode(self):
        cb = np.array([[0, 1], [1, 0]], dtype=np.int8)
        assert wx.exact_pc_for_codebook(cb, BSC01, 2) == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_distinct_codewords(self):
        cb = np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.int8)
        assert wx.exact_pc_for_codebook(cb, NOISELESS, 1) == pytest.approx(1.0, abs=1e-12)

    def test_useless_channel_blind_guessing(self):
        cb = np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.int8)
        assert wx.exact_pc_for_codebook(cb, USELESS, 1) == pytest.approx(0.25, abs=1e-12)

    @staticmethod
    def brute_force_pc(cb, channel, m2):
        # (1/M) sum over all of Z^n of max_w P(z | C_w), by decoder_score
        m = cb.shape[0] // m2
        return sum(max(wx.decoder_score(cb, m2, w, z, channel)
                       for w in range(m))
                   for z in itertools.product(range(channel.num_outputs),
                                              repeat=cb.shape[1])) / m

    @pytest.mark.parametrize("rows", [
        [[0.9, 0.1], [0.1, 0.9]],
        [[0.8, 0.2], [0.35, 0.65]],
        [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]],
        [[0.6, 0.4], [0.3, 0.7], [0.05, 0.95]],
        [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]],
        [[1.0, 0.0], [0.25, 0.75]],
    ], ids=["bsc", "binary", "3x3", "3x2", "3x3_zeros", "z_channel"])
    def test_matches_brute_force_oracle(self, rows):
        channel = wx.Dmc(rows)
        rng = np.random.default_rng(len(rows) * 10 + len(rows[0]))
        for _ in range(6):
            n = int(rng.integers(1, 6))
            m2 = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            cb = rng.integers(0, len(rows), size=(m * m2, n)).astype(np.int8)
            assert wx.exact_pc_for_codebook(cb, channel, m2) == pytest.approx(
                self.brute_force_pc(cb, channel, m2), rel=1e-12)

    def test_small_blocks_give_same_result(self, monkeypatch):
        # with 64-entry temporaries the loops over second-half columns,
        # blocks of one or more sub-codes and codeword chunks take several
        # steps, the last of them partial
        channel = wx.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        rng = np.random.default_rng(4)
        cases = [(rng.integers(0, 2, size=(12 * 16, 9)).astype(np.int8),
                  BSC01, 16),
                 (rng.integers(0, 3, size=(7 * 5, 5)).astype(np.int8),
                  channel, 5),
                 (rng.integers(0, 2, size=(20 * 2, 3)).astype(np.int8),
                  BSC01, 2)]
        whole = [wx.exact_pc_for_codebook(cb, ch, m2) for cb, ch, m2 in cases]
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        # tiles of one sub-code, so a block of several takes several tiles
        monkeypatch.setattr(simulate, "_TILE", 1)
        for (cb, ch, m2), ref in zip(cases, whole):
            assert wx.exact_pc_for_codebook(cb, ch, m2) == pytest.approx(
                ref, rel=1e-13)

    @pytest.mark.parametrize("rows, n, m2, m", [
        ([[0.9, 0.1], [0.1, 0.9]], 4, 5, 12),
        ([[0.8, 0.2], [0.35, 0.65]], 5, 4, 16),
        ([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]], 3, 6, 10),
        ([[1.0, 0.0], [0.25, 0.75]], 4, 8, 8),
    ], ids=["bsc", "binary", "3x3", "z_channel"])
    def test_repeated_half_words_match_brute_force_oracle(self, rows, n, m2,
                                                          m):
        # M1 is many times |X|^ceil(n/2), so every half-word recurs
        channel = wx.Dmc(rows)
        rng = np.random.default_rng(m * m2 + n)
        cb = rng.integers(0, len(rows), size=(m * m2, n)).astype(np.int8)
        assert m * m2 >= 4 * len(rows) ** ((n + 1) // 2)
        assert wx.exact_pc_for_codebook(cb, channel, m2) == pytest.approx(
            self.brute_force_pc(cb, channel, m2), rel=1e-12)

    def test_tiles_give_identical_result(self, monkeypatch):
        # a tile only bounds how many sub-code tables one max takes at a
        # time, and a max is exact: one sub-code per tile, or a partial
        # last tile, gives the same bits
        es = spec_for(12, 0.69, 0.23, trials=1, seed=20140324)
        channel = wx.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        rng = np.random.default_rng(8)
        cases = [(wx.sample_codebook(es, np.random.default_rng(1)), BSC01,
                  es.m2),
                 (rng.integers(0, 3, size=(25 * 5, 8)).astype(np.int8),
                  channel, 5)]
        whole = [wx.exact_pc_for_codebook(cb, ch, m2) for cb, ch, m2 in cases]
        for tile in (1, 3 * 81 * 81):
            monkeypatch.setattr(simulate, "_TILE", tile)
            assert [wx.exact_pc_for_codebook(cb, ch, m2)
                    for cb, ch, m2 in cases] == whole

    def test_wide_input_alphabet_half_keys(self):
        # a codebook on two inputs of a 256-input channel: exact_pc_for_
        # codebook and per_trial_pc both drop the unused inputs, so the wide
        # and the narrow channel agree exactly
        (wide, px), (narrow, _) = wide_and_narrow(256, 7, 250, [0.85, 0.15],
                                                  [0.3, 0.7])
        n = 16
        specs = [wx.EnsembleSpec(n=n, rates=wx.RatePair(0.3, 0.1),
                                 p_x_type=wx.quantize_composition(p, n),
                                 channel=ch, trials=2, seed=2)
                 for ch, p in ((wide, px), (narrow, [0.5, 0.5]))]
        cb = wx.sample_codebook(specs[0], np.random.default_rng(3))
        assert set(np.unique(cb)) == {7, 250}
        narrow_cb = (cb == 250).astype(np.int8)
        assert np.array_equal(
            narrow_cb, wx.sample_codebook(specs[1], np.random.default_rng(3)))
        m2 = specs[0].m2
        assert wx.exact_pc_for_codebook(cb, wide, m2) == \
            wx.exact_pc_for_codebook(narrow_cb, narrow, m2)
        assert per_trial_pc(specs[0]) == per_trial_pc(specs[1])

    def test_half_keys_past_int64(self):
        # every one of 256 inputs in use and half-words of 8 symbols: their
        # base-256 keys would reach 256^8 = 2^64, past int64
        rng = np.random.default_rng(256)
        channel = wx.Dmc(rng.dirichlet(np.ones(2), size=256))
        cb = rng.permutation(np.arange(512) % 256).reshape(32, 16)
        cb = cb.astype(np.uint8)
        z = np.array(list(itertools.product(range(2), repeat=16)))
        lik = channel.rows[cb[:, None, :], z[None, :, :]].prod(axis=2)
        ref = lik.reshape(8, 4, -1).mean(axis=1).max(axis=0).sum() / 8
        assert wx.exact_pc_for_codebook(cb, channel, 4) == pytest.approx(
            ref, rel=1e-12)

    def test_unused_inputs_do_not_change_the_bits(self):
        # codewords on inputs 7 and 150 of a 200-input channel: the kernel
        # drops the other 198 rows, so its sums run as in the two-input
        # form.  With them the one-hot product summed 200 * n / 2 terms in
        # BLAS blocks and differed in the last bits at some n
        (wide, _), (narrow, _) = wide_and_narrow(200, 7, 150, [0.9, 0.1],
                                                 [0.35, 0.65])
        rng = np.random.default_rng(2)
        for n in range(2, 19, 2):
            cb = rng.integers(0, 2, size=(300, n)).astype(np.int8)
            assert wx.exact_pc_for_codebook(
                np.where(cb == 1, 150, 7).astype(np.uint8), wide, 3) == \
                wx.exact_pc_for_codebook(cb, narrow, 3), n

    def test_pc_bounds(self):
        es = spec_for(8, 0.6, 0.2, trials=6, seed=3)
        for pc in per_trial_pc(es):
            assert 1.0 / es.m_subcodes - 1e-12 <= pc <= 1.0 + 1e-12

    def test_budget_exceeded(self):
        cb = np.zeros((2, 30), dtype=np.int8)
        with pytest.raises(wx.BudgetExceededError):
            wx.exact_pc_for_codebook(cb, BSC01, 1, budget=1 << 20)

    def test_mismatched_subcode_size(self):
        cb = np.zeros((3, 2), dtype=np.int8)
        with pytest.raises(ValueError):
            wx.exact_pc_for_codebook(cb, BSC01, 2)


class TestEstimateEnsemblePc:
    def test_useless_channel_exact_blind_guess(self):
        es = spec_for(6, 0.6, 0.2, trials=12, seed=5, channel=USELESS)
        res = wx.estimate_ensemble_pc(es)
        assert res.pc_mean == pytest.approx(1.0 / es.m_subcodes, abs=1e-12)
        assert res.pc_std_err == pytest.approx(0.0, abs=1e-12)

    def test_single_subcode_pc_one(self):
        es = spec_for(6, 0.3, 0.3, trials=5, seed=5)
        res = wx.estimate_ensemble_pc(es)
        assert res.pc_mean == pytest.approx(1.0, abs=1e-12)
        assert res.empirical_exponent == 0.0
        assert math.copysign(1.0, res.empirical_exponent) == 1.0

    def test_determinism(self):
        es = spec_for(8, 0.6, 0.2, trials=10, seed=123)
        a = wx.estimate_ensemble_pc(es)
        b = wx.estimate_ensemble_pc(es)
        assert a == b

    def test_trial_ranges_compose(self):
        es = spec_for(8, 0.6, 0.2, trials=10, seed=123)
        whole = per_trial_pc(es)
        parts = per_trial_pc(es, trial_range=(0, 4)) + \
            per_trial_pc(es, trial_range=(4, 10))
        assert whole == parts

    def test_empirical_exponent_definition(self):
        es = spec_for(8, 0.6, 0.2, trials=10, seed=9)
        res = wx.estimate_ensemble_pc(es)
        assert res.empirical_exponent == pytest.approx(
            -math.log(res.pc_mean) / es.n, abs=1e-15)

    def test_monotone_in_r1_with_shared_randomness(self):
        means = []
        for r1 in (0.45, 0.6, 0.69):
            es = spec_for(8, r1, 0.23, trials=400, seed=77)
            means.append(wx.estimate_ensemble_pc(es).pc_mean)
        assert means[0] > means[1] > means[2]

    def test_sampled_fallback_agrees_with_exact(self):
        es = spec_for(8, 0.5, 0.25, trials=1, seed=21)
        rng = np.random.default_rng(np.random.SeedSequence(21).spawn(1)[0])
        cb = wx.sample_codebook(es, rng)
        exact = wx.exact_pc_for_codebook(cb, BSC01, es.m2)
        sampled = _sampled_pc(cb, *_sampling_tables(BSC01), es.m2,
                              np.random.default_rng(0), 4000)
        assert abs(sampled - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / 4000)

    def test_sampled_small_blocks_give_same_result(self, monkeypatch):
        # with 64-entry temporaries the estimate runs over blocks of several
        # sub-codes (m2 = 2) and over sub-codes split into chunks of three
        # codewords (m2 = 4), the last of them partial; in the third case
        # every sub-code is the same, so each sample's scores tie and
        # sub-code 0 must win them all
        channel = wx.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        rng = np.random.default_rng(6)
        cases = [(rng.integers(0, 3, size=(7 * 2, 5)).astype(np.int8),
                  channel, 2, 8),
                 (rng.integers(0, 2, size=(24 * 4, 9)).astype(np.int8),
                  BSC01, 4, 16),
                 (np.tile(rng.integers(0, 2, size=(3, 4)), (9, 1)
                          ).astype(np.int8), BSC01, 3, 16)]

        def estimates():
            return [_sampled_pc(cb, *_sampling_tables(ch), m2,
                                np.random.default_rng(k), zs)
                    for k, (cb, ch, m2, zs) in enumerate(cases)]

        whole = estimates()
        monkeypatch.setattr(simulate, "_BLOCK", 64)
        assert estimates() == whole

    @pytest.mark.parametrize("nz", [1, 2, 3, 6])
    def test_outputs_match_the_cdf_comparison(self, nz):
        # one 2-D comparison per CDF cut counts the same cuts below u as
        # the (samples, n, |Z| - 1) comparison did; u equal to a cut is
        # not above it
        rng = np.random.default_rng(nz)
        rows = rng.dirichlet(np.ones(nz), size=4)
        rows[0] = np.eye(nz)[-1]
        channel = wx.Dmc(rows)
        xs = rng.integers(0, 4, size=(50, 7))
        u = rng.random((50, 7))
        cdf = np.cumsum(channel.rows, axis=1)
        u[:5] = cdf[xs[:5], 0]
        ref = (u[:, :, None] > cdf[xs][:, :, :-1]).sum(axis=2)
        z = simulate._outputs(xs, u, _sampling_tables(channel)[1])
        assert np.array_equal(z, ref)

    def test_trials_keep_their_streams(self):
        # per-trial P_c of the sampled and the exact path as the argsort
        # sampler and the 3-D output comparison gave them
        ch = wx.load_channel_spec(
            os.path.join(os.path.dirname(__file__), "..", "channels",
                         "asym3x3.json"))

        def spec(n, trials):
            return wx.EnsembleSpec(
                n=n, rates=wx.RatePair(0.6, 0.2), channel=ch.wiretap,
                p_x_type=wx.quantize_composition(ch.input_dist.probs, n),
                trials=trials, seed=11)

        sampled = per_trial_pc(spec(8, 6), budget=1000, z_samples=64)
        assert [pc * 64 for pc in sampled] == [10, 18, 12, 18, 9, 13]
        assert [pc.hex() for pc in per_trial_pc(spec(5, 3))] == [
            "0x1.90112a086315ap-2", "0x1.64ce344fd040cp-2",
            "0x1.738e5384f6c65p-2"]

    def test_fallback_used_beyond_budget(self):
        es = spec_for(8, 0.5, 0.25, trials=3, seed=2)
        res = wx.estimate_ensemble_pc(es, budget=16, z_samples=64)
        assert 0.0 <= res.pc_mean <= 1.0
        assert res.exact is False
        assert wx.estimate_ensemble_pc(es).exact is True

    @pytest.mark.parametrize("budget", [simulate.DEFAULT_Z_BUDGET, 10],
                             ids=["exact", "sampled"])
    def test_wide_channel_matches_its_narrow_form(self, budget):
        # input 150 of a 200-input channel: an int8 codebook wrapped it to
        # -106, which read row 94
        specs = [wx.EnsembleSpec(n=6, rates=wx.RatePair(0.3, 0.1),
                                 p_x_type=wx.quantize_composition(p, 6),
                                 channel=ch, trials=3, seed=1)
                 for ch, p in wide_and_narrow(200, 3, 150, [0.9, 0.1],
                                              [0.2, 0.8])]
        wide, narrow = (per_trial_pc(es, budget=budget) for es in specs)
        assert wide == narrow

    def test_no_correct_sample_gives_infinite_exponent(self):
        # one sampled output that no sub-code decodes: P_c = 0
        es = wx.EnsembleSpec(
            n=6, rates=wx.RatePair(1.8, 0.0),
            p_x_type=wx.quantize_composition([0.5, 0.3, 0.2], 6),
            channel=wx.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3],
                            [0.2, 0.2, 0.6]]),
            trials=1, seed=3)
        res = wx.estimate_ensemble_pc(es, budget=10, z_samples=1)
        assert res.pc_mean == 0.0
        assert res.empirical_exponent == math.inf


class TestTypeEnumExponent:
    def test_tiny_case_hand_enumeration(self):
        spec = wx.ChannelSpec(wx.Distribution([0.5, 0.5]), USELESS)
        rates = wx.RatePair(0.6, 0.1)
        te = wx.type_enum_exponent(spec, rates, 2)
        best = math.inf
        for a in ((1.0, 0.0), (0.0, 1.0)):
            for b in ((1.0, 0.0), (0.0, 1.0)):
                d = 0.0
                for row in (a, b):
                    d += 0.5 * sum(p * math.log(p / q)
                                   for p, q in zip(row, (0.3, 0.7)) if p > 0)
                qz = [0.5 * x + 0.5 * y for x, y in zip(a, b)]
                h = -sum(v * math.log(v) for v in qz if v > 0)
                gamma = (rates.r2 - h if h <= rates.r2
                         else (0.0 if h <= rates.r1 else rates.r1 - h))
                best = min(best, d - h - gamma)
        assert te == pytest.approx(rates.r1 + best, abs=1e-12)

    def test_useless_channel_structure(self):
        # with identical rows the divergence-free type is the row itself,
        # reachable only approximately on a coarse type grid
        spec = wx.ChannelSpec(wx.Distribution([0.5, 0.5]), USELESS)
        te = wx.type_enum_exponent(spec, wx.RatePair(0.6, 0.1), 40)
        assert te == pytest.approx(0.5, abs=0.05)

    def test_convergence_toward_asymptotic(self, bsc01):
        rates = wx.RatePair(0.6, 0.1)
        e = wx.ExponentSolver(bsc01).exponent_rep1(rates).e
        gaps = []
        for n in (50, 100, 200, 400):
            te = wx.type_enum_exponent(bsc01, rates, n)
            gaps.append(abs(te - e))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 2e-2

    def test_budget(self, bsc01):
        with pytest.raises(wx.BudgetExceededError):
            wx.type_enum_exponent(bsc01, wx.RatePair(0.5, 0.1), 400, budget=100)

    def test_infeasible_types_excluded(self):
        # only the diagonal conditional type has finite divergence; it has
        # I = ln 2 > R1, so the objective reduces to R1 + (0 - I - (R1 - I))
        spec = wx.ChannelSpec(wx.Distribution([0.5, 0.5]), NOISELESS)
        te = wx.type_enum_exponent(spec, wx.RatePair(0.5, 0.2), 8)
        assert te == pytest.approx(0.0, abs=1e-12)

    def test_three_symbol_channel_against_product_oracle(self):
        import itertools
        from scipy.special import rel_entr

        spec = wx.ChannelSpec(
            wx.Distribution([0.5, 0.3, 0.2]),
            wx.Dmc([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]))
        n, rates = 9, wx.RatePair(0.7, 0.2)
        te = wx.type_enum_exponent(spec, rates, n)

        comp = wx.quantize_composition(spec.input_dist.probs, n)

        def comps(total, parts):
            if parts == 1:
                yield (total,)
                return
            for h in range(total + 1):
                for rest in comps(total - h, parts - 1):
                    yield (h,) + rest

        w = np.array(comp) / n
        p = spec.wiretap.rows
        best = math.inf
        for combo in itertools.product(*[list(comps(c, 3)) for c in comp]):
            q = np.array([np.array(k) / c for k, c in zip(combo, comp)])
            d = float(np.dot(w, rel_entr(q, p).sum(axis=1)))
            qz = w @ q
            i = float(np.dot(w, rel_entr(q, qz[None, :]).sum(axis=1)))
            g = (rates.r2 - i if i <= rates.r2
                 else (0.0 if i <= rates.r1 else rates.r1 - i))
            best = min(best, d - i - g)
        assert te == pytest.approx(rates.r1 + best, abs=1e-12)
