"""Link budget tests: tail inversion, power law, fading statistics, outage."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from twinloop import (ChannelParams, ConfigurationError, InvalidInputError,
                      WeakLineOfSightError, channel, inverse_gaussian_q,
                      outage_probability_mc, required_power, sample_rician_gain, y_q)
from tests.helpers import (invert_marcum_tail, marcum_q1,
                           reference_log_rician_cdf_and_slope,
                           reference_outage_probability_mc,
                           reference_sample_rician_gain)

G_15DB = 10 ** 1.5
# criterion 3's grid of Rician factors (dB) and outage targets
CRITERION_3_GRID = [(g_db, eps) for g_db in (10.0, 15.0, 20.0)
                    for eps in (1e-2, 1e-3, 1e-5)]


def table_params(epsilon=1e-5, alpha=2.0):
    return ChannelParams(rician_factor_db=15.0,
                         noise_power_dbm=-11.5,
                         bandwidth_hz=5e6,
                         outage_epsilon=epsilon,
                         latency_max_s=5e-3,
                         packet_bits=1024.0,
                         system_gain=1.0,
                         path_loss_exponent=alpha)


class TestInverseGaussianQ:
    def test_median(self):
        assert inverse_gaussian_q(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_sigma_point(self):
        assert inverse_gaussian_q(0.0227501) == pytest.approx(2.0, abs=5e-6)

    def test_deep_tail(self):
        assert inverse_gaussian_q(1e-5) == pytest.approx(4.26489, abs=1e-5)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310, 1e-300, 1e-100, 1e-20, 1e-9,
                                     1e-5, 0.02425, 0.3, 0.5 - 1e-7, 0.9, 0.999])
    def test_matches_scipy_isf(self, eps):
        # full double precision from the smallest subnormal up; the
        # rational approximation with one Newton step was 6.8e-8 off at
        # 5e-324
        want = float(stats.norm.isf(eps))
        assert abs(inverse_gaussian_q(eps) - want) <= 1e-15 * max(1, abs(want))

    def test_rejects_out_of_range(self):
        for eps in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidInputError):
                inverse_gaussian_q(eps)


class TestYq:
    def test_strong_los_value(self):
        # sqrt(2G)=7.9527, Qinv=4.26489: the closed form gives 3.7779 and the
        # exact tail inverse is 3.77751
        assert y_q(G_15DB, 1e-5) == pytest.approx(3.778, abs=2e-3)

    @pytest.mark.parametrize("g_db", [10.0, 15.0, 20.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5])
    def test_meets_outage_target_on_criterion3_grid(self, g_db, eps):
        # the threshold's contract: the Rician amplitude CDF at y is epsilon,
        # including at the (10 dB, 1e-5) line-of-sight edge
        g = 10 ** (g_db / 10)
        outage = 1.0 - marcum_q1(math.sqrt(2.0 * g), y_q(g, eps))
        assert outage == pytest.approx(eps, rel=1e-6)

    def test_median_epsilon_rejected(self):
        with pytest.raises(WeakLineOfSightError):
            y_q(G_15DB, 0.5)

    @pytest.mark.parametrize("g_db", [10.0, 15.0, 20.0, 25.0])
    def test_series_window_keeps_the_full_series_bits_up_to_25_db(self, g_db):
        # the window starts at term 0 here, so every term is summed as before
        g = 10 ** (g_db / 10)
        for eps in (1e-2, 1e-3, 1e-5):
            root = y_q(g, eps)
            start = math.sqrt(2.0 * g) - inverse_gaussian_q(eps)
            for y in (root, 0.9 * root, start, 1.1 * start):
                assert (channel._log_rician_cdf_and_slope(g, y)
                        == reference_log_rician_cdf_and_slope(g, y))

    @pytest.mark.parametrize("g_db", [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0])
    def test_threshold_matches_the_full_series(self, g_db, monkeypatch):
        # bit for bit up to 25 dB; past it the window drops terms below
        # exp(-100) of the sum
        g = 10 ** (g_db / 10)
        for eps in (1e-2, 1e-3, 1e-5):
            got = y_q.__wrapped__(g, eps)
            with monkeypatch.context() as patch:
                patch.setattr(channel, "_log_rician_cdf_and_slope",
                              reference_log_rician_cdf_and_slope)
                want = y_q.__wrapped__(g, eps)
            if g_db <= 25.0:
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * want

    def test_large_rician_factor_costs_sqrt_g_terms(self, monkeypatch):
        # the full series took G + 20 sqrt(G) + 50 lgamma calls per
        # evaluation, 6.3 s and 65 MB at 60 dB; the window takes about
        # 46 sqrt(G), as m sits some 6 sqrt(G) below G near the root
        terms = []
        real_lgamma, real_series = math.lgamma, channel._log_rician_cdf_and_slope

        def series(g, y):
            terms.append(0)
            return real_series(g, y)

        def lgamma(x):
            terms[-1] += 1
            return real_lgamma(x)

        monkeypatch.setattr(channel, "_log_rician_cdf_and_slope", series)
        monkeypatch.setattr(math, "lgamma", lgamma)
        y_q.cache_clear()
        power = required_power(20.0, ChannelParams(rician_factor_db=60.0))
        monkeypatch.undo()
        y_q.cache_clear()
        assert 0.0 < power < math.inf
        assert terms and max(terms) <= 50 * math.sqrt(1e6) + 101

    def test_weak_los_rejected(self):
        # sqrt(2G) <= Qinv(eps): G = 1 (0 dB) against eps = 1e-5
        with pytest.raises(WeakLineOfSightError):
            y_q(1.0, 1e-5)


class TestRequiredPower:
    def test_reference_distance_power(self):
        # independent evaluation: 2*WN0*(1+G)*(2^0.04096-1)*400 / y^2, with y
        # the bisection inverse of the exact Marcum tail (about 3.72877e-3)
        params = table_params()
        y = invert_marcum_tail(G_15DB, 1e-5)
        expected = (2.0 * params.noise_power_w * (1.0 + G_15DB)
                    * (2.0 ** 0.04096 - 1.0) * 400.0 / y ** 2)
        p = required_power(20.0, params)
        assert p == pytest.approx(expected, rel=1e-9)
        assert p == pytest.approx(3.7e-3, rel=2e-2)

    def test_distance_power_law(self):
        params = table_params()
        assert required_power(10.0, params) * 4 == pytest.approx(
            required_power(20.0, params), rel=1e-12)

    def test_vanishing_packet_size(self):
        small = ChannelParams(packet_bits=1e-9)
        assert required_power(20.0, small) < 1e-12

    def test_monotonicity_grid(self):
        base = dict(rician_factor_db=15.0, noise_power_dbm=-11.5,
                    bandwidth_hz=5e6, outage_epsilon=1e-3,
                    latency_max_s=5e-3, packet_bits=1024.0)
        p0 = required_power(10.0, ChannelParams(**base))
        for d in (11.0, 15.0, 20.0):
            assert required_power(d, ChannelParams(**base)) > p0
        for bits in (2048.0, 4096.0):
            cfg = dict(base, packet_bits=bits)
            assert required_power(10.0, ChannelParams(**cfg)) > p0
        for tau in (2.5e-3, 1e-3):
            cfg = dict(base, latency_max_s=tau)
            assert required_power(10.0, ChannelParams(**cfg)) > p0
        for w in (2.5e6, 1e6):
            # halving bandwidth raises the rate demand exponent faster than
            # the noise power drops over this grid; the noise density N0
            # stays fixed, so the noise power over the band scales with w
            cfg = dict(base, bandwidth_hz=w,
                       noise_power_dbm=-11.5 + 10 * math.log10(w / 5e6))
            params = ChannelParams(**cfg)
            assert params.noise_power_w / w == pytest.approx(
                10 ** (-11.5 / 10) * 1e-3 / 5e6, rel=1e-12)
            assert required_power(10.0, params) > p0

    def test_invalid_distance(self):
        with pytest.raises(InvalidInputError):
            required_power(0.0, table_params())

    @pytest.mark.parametrize("distance", [np.inf, np.nan, -1.0])
    def test_distance_that_is_not_finite_and_positive_rejected(self, distance):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            required_power(distance, table_params())


class TestRicianGain:
    def test_pure_los_limit(self):
        gains = sample_rician_gain(1e12, np.random.default_rng(0), size=1000)
        np.testing.assert_allclose(gains, 1.0, atol=1e-4)

    def test_rayleigh_special_case(self):
        rng = np.random.default_rng(1)
        gains = sample_rician_gain(0.0, rng, size=200_000)
        # exponential(1): mean 1, P[g < x] = 1 - exp(-x)
        assert gains.mean() == pytest.approx(1.0, rel=0.02)
        for x in (0.5, 1.0, 2.0):
            assert np.mean(gains < x) == pytest.approx(1 - math.exp(-x), abs=0.01)

    def test_unit_mean_at_strong_los(self):
        rng = np.random.default_rng(2)
        n = 1_000_000
        gains = sample_rician_gain(G_15DB, rng, size=n)
        se = gains.std() / math.sqrt(n)
        assert abs(gains.mean() - 1.0) <= 3 * se
        assert gains.mean() == pytest.approx(1.0, rel=0.005)

    def test_negative_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_rician_gain(-1.0, np.random.default_rng(0), size=3)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_factor_that_is_not_finite_rejected(self, factor):
        # NaN once gave NaN gains and inf a NaN line-of-sight part
        with pytest.raises(InvalidInputError, match="nonnegative and finite"):
            sample_rician_gain(factor, np.random.default_rng(0), size=3)

    @pytest.mark.parametrize("factor", [0.0, 10.0, 1e12])
    @pytest.mark.parametrize("size", [1, 7, 100_000])
    def test_one_draw_matches_the_two_draw_reference(self, factor, size):
        # byte for byte, and the generator is left where two draws of n
        # leave it
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = sample_rician_gain(factor, rng, size=size)
        want = reference_sample_rician_gain(factor, ref_rng, size=size)
        assert got.dtype == want.dtype and got.shape == want.shape == (size,)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestOutage:
    def test_zero_power_always_fails(self):
        params = table_params(epsilon=1e-2)
        assert outage_probability_mc(0.0, 20.0, params, 10, np.random.default_rng(0)) == 1.0

    def test_power_margin_suppresses_outage(self):
        params = table_params(epsilon=1e-2)
        p = 10.0 * required_power(20.0, params)
        outage = outage_probability_mc(p, 20.0, params, 100_000,
                                       np.random.default_rng(3))
        assert outage <= 1e-2

    def test_design_point_outage_near_target(self):
        # fast version of the acceptance check (1e5 draws)
        params = table_params(epsilon=1e-2)
        p = required_power(20.0, params)
        outage = outage_probability_mc(p, 20.0, params, 100_000,
                                       np.random.default_rng(4))
        assert 0.2 * 1e-2 <= outage <= 1.5 * 1e-2

    def test_shannon_rate_consistency(self):
        # an outage is a draw whose Shannon rate W log2(1 + Gamma p g /
        # (d^alpha N0)) misses D / tau_max: the same count from the same draws
        params = table_params(epsilon=1e-2)
        power = required_power(20.0, params)
        outage = outage_probability_mc(power, 20.0, params, 100_000,
                                       np.random.default_rng(6))
        gain = sample_rician_gain(params.rician_factor, np.random.default_rng(6),
                                  size=100_000)
        snr = 1.0 * power * gain / (20.0 ** 2 * params.noise_power_w)
        rate = 5e6 * np.log2(1.0 + snr)
        assert outage == np.count_nonzero(rate < 1024.0 / 5e-3) / 100_000
        assert 0.0 < outage < 0.05

    def test_trial_count_validated(self):
        with pytest.raises(InvalidInputError):
            outage_probability_mc(1e-3, 20.0, table_params(), 0,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("g_db,eps", CRITERION_3_GRID)
    def test_fraction_equals_the_reference_on_the_criterion_3_grid(self, g_db, eps):
        params = ChannelParams(rician_factor_db=g_db, outage_epsilon=eps)
        power = required_power(20.0, params)
        got = outage_probability_mc(power, 20.0, params, 100_000,
                                    np.random.default_rng(21))
        assert got == reference_outage_probability_mc(
            power, 20.0, params, 100_000, np.random.default_rng(21))

    def test_fraction_equals_the_reference_across_a_chunk_boundary(self):
        params = table_params(epsilon=1e-2)
        power = 0.5 * required_power(20.0, params)
        n = channel.MC_CHUNK + 3
        got = outage_probability_mc(power, 20.0, params, n, np.random.default_rng(22))
        assert got == reference_outage_probability_mc(
            power, 20.0, params, n, np.random.default_rng(22))
        assert got > 0.0

    def test_threshold_reads_the_rate_demand_the_power_was_sized_for(self,
                                                                    monkeypatch):
        # at 4,096 bits, 1.5 ms and 5 MHz, 2 ** (D / tau / W) - 1 lies a few
        # ulps below rate_demand's 2 ** (D / (tau W)) - 1; gains one ulp
        # either side of the rate_demand threshold tell the two apart
        params = ChannelParams(packet_bits=4096.0, latency_max_s=1.5e-3, bandwidth_hz=5e6)
        other = 2.0 ** (params.packet_bits / params.latency_max_s
                        / params.bandwidth_hz) - 1.0
        assert other != params.rate_demand
        power = required_power(20.0, params)
        threshold = (params.rate_demand * 20.0 ** params.path_loss_exponent
                     * params.noise_power_w / (params.system_gain * power))
        gains = np.array([math.nextafter(threshold, -math.inf), threshold,
                          math.nextafter(threshold, math.inf)])
        monkeypatch.setattr(channel, "sample_rician_gain", lambda g, rng, size: gains)
        assert outage_probability_mc(power, 20.0, params, 3,
                                     np.random.default_rng(0)) == 1 / 3

    @pytest.mark.parametrize("power,distance,message", [
        (np.nan, 20.0, "power must be nonnegative"),
        (-1e-3, 20.0, "power must be nonnegative"),
        (1e-3, np.nan, "distance must be positive and finite"),
        (1e-3, -20.0, "distance must be positive and finite"),
        (1e-3, 0.0, "distance must be positive and finite"),
        (1e-3, np.inf, "distance must be positive and finite")])
    def test_bad_power_or_distance_rejected(self, power, distance, message):
        # each once returned outage 0.0
        with pytest.raises(InvalidInputError, match=message):
            outage_probability_mc(power, distance, table_params(), 10,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("power,distance,system_gain", [
        (1e-3, 1e200, 1.0),            # d ** alpha overflows a float
        (5e-324, 20.0, 1e-300)])       # Gamma * p underflows to 0.0
    def test_threshold_past_a_float_always_fails(self, power, distance, system_gain):
        params = dataclasses.replace(table_params(), system_gain=system_gain)
        assert outage_probability_mc(power, distance, params, 10,
                                     np.random.default_rng(0)) == 1.0


class TestChannelParamsValidation:
    def test_weak_los_configuration_rejected(self):
        with pytest.raises(WeakLineOfSightError):
            ChannelParams(rician_factor_db=0.0, outage_epsilon=1e-5)

    def test_epsilon_range(self):
        with pytest.raises(ConfigurationError,
                           match=re.escape("channel.outage_epsilon must lie in (0, 0.5): 0.7")):
            ChannelParams(outage_epsilon=0.7)

    def test_noise_power_conversion(self):
        params = table_params()
        assert params.noise_power_w == pytest.approx(10 ** (-1.15) * 1e-3, rel=1e-12)

    @pytest.mark.parametrize("name, value", [
        ("rician_factor_db", math.inf), ("rician_factor_db", math.nan),
        ("noise_power_dbm", -math.inf), ("bandwidth_hz", 0.0),
        ("bandwidth_hz", math.inf), ("outage_epsilon", 0.0),
        ("latency_max_s", math.inf), ("packet_bits", math.inf),
        ("packet_bits", "1024"), ("system_gain", -1.0),
        ("path_loss_exponent", math.nan), ("noise_power_dbm", None),
        # a bool is not a number: its type is checked before any arithmetic
        ("bandwidth_hz", True), ("packet_bits", True),
    ])
    def test_value_outside_its_range_rejected(self, name, value):
        # the field's type first, then its range, named by the field
        with pytest.raises(ConfigurationError) as caught:
            ChannelParams(**{name: value})
        message = str(caught.value)
        assert message.startswith(f"channel.{name} must ")
        assert message.endswith(f": {value!r}")
        kind = "be a number" if type(value) is not float else "lie in"
        assert message.startswith(f"channel.{name} must {kind}")

    def test_db_value_that_overflows_a_float_rejected(self):
        with pytest.raises(InvalidInputError, match="overflow"):
            ChannelParams(noise_power_dbm=1e5)

    @pytest.mark.parametrize("fields", [
        {"packet_bits": 1e8},                               # 2 ** x raises
        {"packet_bits": 1e300, "latency_max_s": 1e-10,      # D / (tau W) is inf
         "bandwidth_hz": 1e-10},
        {"latency_max_s": 1e-200, "bandwidth_hz": 1e-200},  # tau W is 0.0
        {"packet_bits": 1e-300},                            # the demand is 0.0
        {"noise_power_dbm": -4000.0},                       # W N0 is 0.0
    ])
    def test_rate_demand_or_noise_outside_a_float_rejected(self, fields):
        # finite values whose rate demand or noise power is inf or 0.0,
        # which would make every required power inf or 0.0
        with pytest.raises(InvalidInputError, match="overflow or underflow"):
            ChannelParams(**fields)

    def test_linear_values_are_computed_once_from_the_db_fields(self):
        params = ChannelParams(rician_factor_db=12.5, noise_power_dbm=-20.0,
                               bandwidth_hz=3e6)
        assert params.rician_factor == 10 ** (12.5 / 10)
        assert params.noise_power_w == 3e6 * (10 ** (-20.0 / 10) * 1e-3 / 3e6)
        assert params.rate_demand == 2.0 ** (1024.0 / (5e-3 * 3e6)) - 1.0
        # stored attributes, not fields: the config section has eight keys
        assert [f.name for f in dataclasses.fields(params)] == [
            "rician_factor_db", "noise_power_dbm", "bandwidth_hz",
            "outage_epsilon", "latency_max_s", "packet_bits", "system_gain",
            "path_loss_exponent"]
        changed = dataclasses.replace(params, rician_factor_db=20.0)
        assert changed.rician_factor == 10 ** 2.0
        assert changed.noise_power_w == params.noise_power_w
