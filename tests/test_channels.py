import json
import math

import numpy as np
import pytest

import wiretap_exponent as wx
from wiretap_exponent import channels
from wiretap_exponent.channels import parse_channel_spec

from conftest import make_bsc, random_channel, random_test_channel

LN2 = math.log(2.0)


def h2(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestEntropy:
    def test_uniform_two_symbols(self):
        assert wx.entropy(wx.Distribution([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)

    def test_point_mass(self):
        assert wx.entropy(wx.Distribution([0.0, 1.0, 0.0])) == 0.0

    def test_skewed_binary(self):
        # direct evaluation of -sum p ln p at (0.25, 0.75)
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
        assert wx.entropy(wx.Distribution([0.25, 0.75])) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            p = rng.dirichlet(np.ones(k))
            e = wx.entropy(wx.Distribution(p))
            assert -1e-12 <= e <= math.log(k) + 1e-12


class TestMutualInformation:
    def test_noiseless_binary(self):
        q = wx.ConditionalChannel([[1.0, 0.0], [0.0, 1.0]],
                                  wx.Distribution([0.5, 0.5]))
        assert wx.mutual_information(q) == pytest.approx(LN2, abs=1e-14)

    def test_independence(self):
        q = wx.ConditionalChannel([[0.2, 0.8], [0.2, 0.8], [0.2, 0.8]],
                                  wx.Distribution([0.3, 0.3, 0.4]))
        assert wx.mutual_information(q) == pytest.approx(0.0, abs=1e-14)

    def test_bsc_uniform_input(self):
        # ln 2 - h(0.1), evaluated directly
        expected = LN2 - h2(0.1)
        assert expected == pytest.approx(0.36806420716849704, abs=1e-15)
        spec = make_bsc(0.1)
        q = wx.ConditionalChannel(spec.wiretap, spec.input_dist)
        assert wx.mutual_information(q) == pytest.approx(expected, abs=1e-14)

    def test_upper_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            spec = random_channel(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(2, 5)))
            q = random_test_channel(rng, spec)
            i = wx.mutual_information(q)
            assert i >= -1e-12
            assert i <= wx.entropy(spec.input_dist) + 1e-12
            assert i <= math.log(q.rows.shape[1]) + 1e-12


class TestWeightedDivergence:
    def test_zero_at_equality(self):
        spec = make_bsc(0.2)
        q = wx.ConditionalChannel(spec.wiretap, spec.input_dist)
        assert wx.weighted_divergence(q, spec.wiretap) == 0.0

    def test_support_violation_is_inf(self):
        p = wx.Dmc([[1.0, 0.0], [0.0, 1.0]])
        q = wx.ConditionalChannel([[0.9, 0.1], [0.0, 1.0]],
                                  wx.Distribution([0.5, 0.5]))
        assert wx.weighted_divergence(q, p) == math.inf

    def test_zero_weight_row_ignores_violation(self):
        p = wx.Dmc([[1.0, 0.0], [0.5, 0.5]])
        q = wx.ConditionalChannel([[0.9, 0.1], [0.5, 0.5]],
                                  wx.Distribution([0.0, 1.0]))
        assert wx.weighted_divergence(q, p) == 0.0

    def test_bsc_rows(self):
        # 0.2 ln(0.2/0.1) + 0.8 ln(0.8/0.9) under uniform input weighting
        expected = 0.2 * math.log(2.0) + 0.8 * math.log(0.8 / 0.9)
        assert expected == pytest.approx(0.04440300758688234, abs=1e-15)
        spec = make_bsc(0.2)
        q = wx.ConditionalChannel(spec.wiretap, spec.input_dist)
        assert wx.weighted_divergence(q, make_bsc(0.1).wiretap) == \
            pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        spec = make_bsc(0.2)
        q = wx.ConditionalChannel(spec.wiretap, spec.input_dist)
        with pytest.raises(ValueError):
            wx.weighted_divergence(q, wx.Dmc([[0.2, 0.3, 0.5]]))

    def test_zero_iff_rows_match_on_support(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            spec = random_channel(rng, 3, 3)
            q = random_test_channel(rng, spec)
            d = wx.weighted_divergence(q, spec.wiretap)
            same = np.allclose(q.rows, spec.wiretap.rows, atol=1e-12)
            assert d >= -1e-15
            assert (d <= 1e-12) == same or d > 1e-12

    def test_permutation_covariance(self):
        rng = np.random.default_rng(3)
        spec = random_channel(rng, 3, 4)
        q = random_test_channel(rng, spec)
        perm_z = rng.permutation(4)
        perm_x = rng.permutation(3)
        q2 = wx.ConditionalChannel(q.rows[np.ix_(perm_x, perm_z)],
                                   wx.Distribution(spec.input_dist.probs[perm_x]))
        p2 = wx.Dmc(spec.wiretap.rows[np.ix_(perm_x, perm_z)])
        assert wx.mutual_information(q2) == pytest.approx(
            wx.mutual_information(q), abs=1e-13)
        assert wx.weighted_divergence(q2, p2) == pytest.approx(
            wx.weighted_divergence(q, spec.wiretap), abs=1e-13)
        assert wx.entropy(wx.Distribution(spec.input_dist.probs[perm_x])) == \
            pytest.approx(wx.entropy(spec.input_dist), abs=1e-13)


class TestCheckDegraded:
    def test_identity_degradation(self):
        ch = make_bsc(0.15)
        res = wx.check_degraded(ch.wiretap, ch.wiretap)
        assert res.is_degraded
        assert res.residual <= 1e-9
        assert np.allclose(res.witness.rows, np.eye(2), atol=1e-6)

    def test_bsc_cascade(self):
        main = make_bsc(0.1).wiretap
        wire = make_bsc(0.2).wiretap
        res = wx.check_degraded(main, wire)
        assert res.is_degraded
        # cascade crossover solves 0.1(1-d) + 0.9 d = 0.2
        assert np.allclose(res.witness.rows, [[0.875, 0.125], [0.125, 0.875]],
                           atol=1e-7)
        prod = main.rows @ res.witness.rows
        assert np.max(np.abs(prod - wire.rows)) <= 1e-7

    def test_reverse_not_degraded(self):
        main = make_bsc(0.2).wiretap
        wire = make_bsc(0.1).wiretap
        res = wx.check_degraded(main, wire)
        assert not res.is_degraded
        assert res.residual > 1e-3
        assert res.witness is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wx.check_degraded(make_bsc(0.1).wiretap, wx.Dmc([[1.0]]))


class TestValidation:
    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            wx.Distribution([1.1, -0.1])

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            wx.Distribution([0.5, 0.5 + 1e-9])

    def test_dmc_rejects_bad_row(self):
        with pytest.raises(ValueError):
            wx.Dmc([[0.5, 0.5], [0.7, 0.4]])

    def test_conditional_channel_marginal_mismatch(self):
        with pytest.raises(ValueError):
            wx.ConditionalChannel([[0.5, 0.5]], wx.Distribution([0.5, 0.5]))

    def test_spec_requires_binary_input_minimum(self):
        with pytest.raises(ValueError):
            wx.ChannelSpec(wx.Distribution([1.0]), wx.Dmc([[0.5, 0.5]]))

    def test_spec_dimension_check(self):
        with pytest.raises(ValueError):
            wx.ChannelSpec(wx.Distribution([0.5, 0.5]), wx.Dmc([[0.5, 0.5]]))


class TestChannelFiles:
    def test_roundtrip(self, channel_file):
        path = channel_file([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                            main=[[0.95, 0.05], [0.05, 0.95]])
        spec = wx.load_channel_spec(path)
        assert spec.main is not None
        assert np.allclose(spec.wiretap.rows, [[0.9, 0.1], [0.1, 0.9]])

    def test_row_within_tolerance_renormalized(self):
        doc = '{"input_dist": [0.5, 0.5], "wiretap": [[0.9, 0.1000000001], [0.1, 0.9]]}'
        spec = parse_channel_spec(doc)
        assert abs(spec.wiretap.rows[0].sum() - 1.0) < 1e-15

    def test_row_outside_tolerance_rejected(self):
        doc = '{"input_dist": [0.5, 0.5], "wiretap": [[0.9, 0.11], [0.1, 0.9]]}'
        with pytest.raises(wx.ChannelFileError, match="row 0"):
            parse_channel_spec(doc)

    def test_missing_field(self):
        with pytest.raises(wx.ChannelFileError, match="input_dist"):
            parse_channel_spec('{"wiretap": [[1.0]]}')

    def test_json_error_reports_line(self):
        with pytest.raises(wx.ChannelFileError, match="line"):
            parse_channel_spec('{"input_dist": [0.5, 0.5],\n  "wiretap": }')

    # the input distribution and every channel row pass the same checks;
    # the messages are pinned whole.  A row of arrays was let through to a
    # wrong-shaped channel matrix before the rows got the flatness check
    @pytest.mark.parametrize("doc,message", [
        ('{"input_dist": [[0.5, 0.5]], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be a flat array"),
        ('{"input_dist": [1.5, -0.5], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' has negative or non-finite entries"),
        ('{"input_dist": [0.5, 0.4], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' sums to 0.90000000000000002 (|sum-1| > 1e-09)"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[[0.5], [0.5]], [[1], [0]]]}',
         "'wiretap' row 0 must be a flat array"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [NaN]]}',
         "'wiretap' row 1 has negative or non-finite entries"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [1.0]],'
         ' "main": [[0.5, 0.51], [0.5, 0.5]]}',
         "'main' row 0 sums to 1.01 (|sum-1| > 1e-09)"),
        ('{"input_dist": {"a": 1}, "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be an array of numbers"),
        ('{"input_dist": ["a", 0.5], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be an array of numbers"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[{"a": 1}, 0], [1, 0]]}',
         "'wiretap' row 0 must be an array of numbers"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [1.0]],'
         ' "main": [[1, 0], ["x", 1]]}',
         "'main' row 1 must be an array of numbers"),
        ('{"input_dist": [true, false], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be an array of numbers"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [true]]}',
         "'wiretap' row 1 must be an array of numbers"),
        # an integer beyond float range is no finite entry
        ('{"input_dist": [1%s, 0], "wiretap": [[1.0], [1.0]]}' % ("0" * 400),
         "'input_dist' has negative or non-finite entries"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [1%s]]}'
         % ("0" * 400), "'wiretap' row 1 has negative or non-finite entries"),
        # numpy would parse these strings, and turn null into NaN
        ('{"input_dist": ["0.5", "0.5"], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be an array of numbers"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [["1e0"], [1.0]]}',
         "'wiretap' row 0 must be an array of numbers"),
        ('{"input_dist": [0.5, 0.5], "wiretap": [[1.0], [" 1 "]]}',
         "'wiretap' row 1 must be an array of numbers"),
        ('{"input_dist": [null, 1], "wiretap": [[1.0], [1.0]]}',
         "'input_dist' must be an array of numbers"),
    ], ids=["input-flat", "input-negative", "input-sum", "row-flat",
            "row-nan", "main-row-sum", "input-object", "input-string",
            "row-object", "main-row-string", "input-bool", "row-bool",
            "input-huge-int", "row-huge-int", "input-numeric-string",
            "row-numeric-string", "row-padded-string", "input-null"])
    def test_vector_messages(self, doc, message):
        with pytest.raises(wx.ChannelFileError) as exc:
            parse_channel_spec(doc)
        assert str(exc.value) == f"<string>: {message}"

    def test_negative_entry(self):
        doc = '{"input_dist": [0.5, 0.5], "wiretap": [[1.1, -0.1], [0.1, 0.9]]}'
        with pytest.raises(wx.ChannelFileError):
            parse_channel_spec(doc)


def _outcome(check, *args):
    """The error message of check(*args), or its value."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def _edge_rows(atol: float) -> list:
    """Rows whose sums lie a few ulps either side of 1 - atol and 1 + atol:
    one-entry rows, and two-entry rows whose sum rounds."""
    rows = []
    for edge in (1.0 - atol, 1.0 + atol):
        v = edge
        for _ in range(4):
            v = np.nextafter(v, 0.0)
        for _ in range(9):
            rows += [[float(v)], [0.5, float(v) - 0.5]]
            v = np.nextafter(v, 2.0)
    return rows


class TestRowChecksAtOnce:
    """Dmc and the channel-file loader check all rows as one array; each
    row must be decided, and each error worded, as the per-row checks
    (_as_prob_vector, _file_vector) do on it alone."""

    def test_dmc_names_the_first_bad_row(self):
        with pytest.raises(ValueError) as exc:
            wx.Dmc([[0.5, 0.5], [0.7, 0.4], [-0.1, 1.1], [0.5, 0.5]])
        assert str(exc.value) == "channel row 1 sums to " \
            f"{1.1:.17g}, outside tolerance {channels.SUM_ATOL}"
        with pytest.raises(ValueError, match="^channel row 0 contains neg"):
            wx.Dmc([[-0.1, 1.1], [math.nan, 1.0]])

    @pytest.mark.parametrize("rows,message", [
        ([[0.5, 0.5], [0.5, 0.6], ["x", 1]],
         "row 1 sums to 1.1000000000000001"),
        ([[0.5, 0.5], [-1, 2], [0.5]], "row 1 has negative or non-finite"),
        ([[1, 0], [1], [0.5, 0.6]], "row 1 has 1 entries, expected 2"),
        ([[1, 0], ["1", 0], [1]], "row 1 must be an array of numbers"),
    ], ids=["sum-then-string", "negative-then-width", "width-then-sum",
            "string-then-width"])
    def test_file_names_the_first_bad_row(self, rows, message):
        doc = json.dumps({"input_dist": [1 / 3] * 3, "wiretap": rows})
        with pytest.raises(wx.ChannelFileError) as exc:
            parse_channel_spec(doc)
        assert str(exc.value).startswith(f"<string>: 'wiretap' {message}")

    def test_dmc_sums_at_tolerance_decided_as_alone(self):
        seen = set()
        for row in _edge_rows(channels.SUM_ATOL):
            good = [1.0 / len(row)] * len(row)
            alone = _outcome(channels._as_prob_vector, row, "channel row 1")
            got = _outcome(lambda: wx.Dmc([good, row, good]).rows[1])
            if isinstance(alone, str):
                assert got == alone
            else:
                assert got.tobytes() == alone.tobytes()
            seen.add(isinstance(alone, str))
        assert seen == {True, False}

    def test_file_sums_at_tolerance_decided_as_alone(self):
        seen = set()
        for row in _edge_rows(channels.FILE_SUM_ATOL):
            good = [1.0 / len(row)] * len(row)
            doc = json.dumps({"input_dist": [0.25, 0.5, 0.25],
                              "wiretap": [good, row, good]})
            try:
                alone = channels._file_vector(row, "'wiretap' row 1")
            except wx.ChannelFileError as exc:
                alone = f"<string>: {exc}"
            try:
                got = parse_channel_spec(doc).wiretap.rows[1]
            except wx.ChannelFileError as exc:
                got = str(exc)
            if isinstance(alone, str):
                assert got == alone
            else:
                assert got.tobytes() == alone.tobytes()
            seen.add(isinstance(alone, str))
        assert seen == {True, False}

    def test_file_rows_renormalize_as_alone(self):
        # rows off 1 by up to FILE_SUM_ATOL, 1 to 300 wide, in both channels
        rng = np.random.default_rng(7)
        for _ in range(200):
            nx = int(rng.integers(2, 40))
            nz, ny = (int(v) for v in rng.integers(1, 40, size=2))
            if rng.random() < 0.1:
                nz = int(rng.integers(40, 300))
            doc = {"input_dist": [1.0 / nx] * nx}
            for name, width in (("wiretap", nz), ("main", ny)):
                m = rng.dirichlet(np.full(width, 0.5), size=nx)
                m *= 1.0 + rng.uniform(-0.9, 0.9, (nx, 1)) * \
                    channels.FILE_SUM_ATOL
                doc[name] = m.tolist()
            spec = parse_channel_spec(json.dumps(doc))
            for name, dmc in (("wiretap", spec.wiretap), ("main", spec.main)):
                for k, row in enumerate(doc[name]):
                    alone = channels._file_vector(row, name)
                    assert dmc.rows[k].tobytes() == alone.tobytes()
