"""Rician uplink budget: minimum power meeting a latency-outage target.

A scheduled agent must push a fixed-size packet through a Rician fading link
within the latency budget except with probability at most epsilon. For a
strong line-of-sight link the required transmit power rests on the threshold
y solving 1 - Q1(sqrt(2G), y) = epsilon. The paper's closed-form
approximation of that inverse Marcum Q tail is the starting point, and a few
Newton steps on the exact tail (a numpy series) refine it, so the power meets
epsilon wherever the closed form is defined. The closed form's Gaussian tail
inverse Qinv(epsilon) is the standard library's normal quantile. A Monte
Carlo validator draws fading gains and measures the empirical outage so the
power can be checked end to end; it costs about its Gaussian draws, since
each chunk of gains is one draw of normals transformed in place.
``ChannelParams`` holds the link budget and is the ``channel`` section of an
experiment config.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, WeakLineOfSightError
from .settings import check, setting, within


@dataclass(frozen=True)
class ChannelParams:
    """Uplink constants, the ``channel`` section of an experiment config.

    The Rician factor and the noise power over the band are given in dB and
    dBm. Building the section checks every field (``settings.check``, here,
    since ``validate-channel`` and the benchmark build it directly) and then
    the values derived from them, and stores the linear values once, as
    ``rician_factor`` and ``noise_power_w`` (W * N0), and the rate demand
    2^(D / (tau_max W)) - 1 as ``rate_demand``.
    """

    # y_q's series window grows with sqrt(G): past about 120 dB one config
    # value would need arrays of hundreds of megabytes before any episode
    rician_factor_db: float = setting(15.0, within("(-inf, 60]"))
    noise_power_dbm: float = setting(-11.5, within("(-inf, inf)"))
    bandwidth_hz: float = setting(5e6, within("(0, inf)"))
    outage_epsilon: float = setting(1e-5, within("(0, 0.5)"))
    latency_max_s: float = setting(5e-3, within("(0, inf)"))
    packet_bits: float = setting(1024.0, within("(0, inf)"))
    system_gain: float = setting(1.0, within("(0, inf)"))  # lumped antenna/frequency constant
    path_loss_exponent: float = setting(2.0, within("(0, inf)"))

    def __post_init__(self):
        check(self, "channel.")
        try:
            rician_factor = 10 ** (self.rician_factor_db / 10)
            density = 10 ** (self.noise_power_dbm / 10) * 1e-3 / self.bandwidth_hz
            rate_demand = 2.0 ** (self.packet_bits
                                  / (self.latency_max_s * self.bandwidth_hz)) - 1.0
            noise_power_w = self.bandwidth_hz * density
            # float division and multiplication give inf or 0.0 instead of
            # raising, and either would make every required power inf or 0.0
            in_range = 0.0 < rate_demand < math.inf and 0.0 < noise_power_w < math.inf
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise InvalidInputError(f"channel values overflow or underflow a "
                                    f"float: {self!r}")
        object.__setattr__(self, "rician_factor", rician_factor)
        object.__setattr__(self, "noise_power_w", noise_power_w)
        object.__setattr__(self, "rate_demand", rate_demand)
        if math.sqrt(2.0 * rician_factor) <= inverse_gaussian_q(self.outage_epsilon):
            raise WeakLineOfSightError(
                "sqrt(2G) must exceed Qinv(epsilon) for the strong-LoS power formula")

    @classmethod
    def from_config(cls, **fields) -> "ChannelParams":
        """The same as ``cls(**fields)``: the benchmark's channel workload
        builds its grid through this name."""
        return cls(**fields)


_NORMAL = NormalDist()


def inverse_gaussian_q(epsilon: float) -> float:
    """z such that the standard normal tail P[Z > z] equals ``epsilon``,
    -Phi^-1(epsilon) by ``statistics.NormalDist.inv_cdf`` (Wichura's AS 241,
    full double precision down to the smallest subnormal). Raises
    InvalidInputError unless epsilon lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError("epsilon must lie in (0, 1)")
    return -_NORMAL.inv_cdf(epsilon)


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def _log_rician_cdf_and_slope(rician_factor: float, y: float) -> tuple[float, float]:
    """log(1 - Q1(sqrt(2G), y)) and its derivative in y.

    With m = y^2/2 the Rician amplitude CDF is the series of positive terms
    sum_{j>=1} Pois(j; m) PoisCDF(j-1; G), and its density is
    y sum_n Pois(n; G) Pois(n; m). Both are summed in log space so that
    neither a large G nor a deep tail underflows, and only over the terms
    that hold mass: n from min(G, m) - 20 sqrt(top) - 50 (or 0) to
    top + 20 sqrt(top) + 50, with top = max(G, m). Near the root m is
    within a few sqrt(G) of G, so that is O(sqrt(G)) terms; the window
    starts at 0 for G up to about 27 dB, where every term is summed.
    """
    m = 0.5 * y * y
    top = max(rician_factor, m)
    # Poisson mass more than 20 sqrt(top) + 50 away from its mean is below
    # exp(-100), so the terms outside the window, and PoisCDF(n; G) below
    # it, add nothing a double can hold
    spread = 20.0 * math.sqrt(top) + 50.0
    start = max(0, int(min(rician_factor, m) - spread))
    count = int(top + spread) + 1
    n = np.arange(start, count)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(start, count)])
    log_pois_g = -rician_factor + n * math.log(rician_factor) - log_factorial
    log_pois_m = -m + n * math.log(m) - log_factorial
    log_cdf_g = np.logaddexp.accumulate(log_pois_g)
    log_cdf = _logsumexp(log_pois_m[1:] + log_cdf_g[:-1])
    log_pdf = math.log(y) + _logsumexp(log_pois_g + log_pois_m)
    return log_cdf, math.exp(log_pdf - log_cdf)


@functools.lru_cache(maxsize=256)
def y_q(rician_factor: float, epsilon: float) -> float:
    """Threshold y with 1 - Q1(sqrt(2G), y) = epsilon (Marcum Q tail inverse).

    Starts from the paper's closed-form approximation
    sqrt(2G) + ln(sqrt(2G) / (sqrt(2G) - Qinv)) / (2 Qinv) - Qinv and refines
    it by Newton's method on log CDF(y) - log(epsilon), stopping at a
    relative step below 1e-13 (a few steps); a step never more than halves
    y, which keeps it positive where the closed form starts far above the
    root near the precondition's edge. The strong line-of-sight precondition
    sqrt(2G) > Qinv(epsilon), with Qinv(epsilon) != 0, is kept because the
    closed-form starting point needs it: outside it the log argument is
    non-positive or the correction term divides by zero. Memoised per
    (G, epsilon), since it is a pure function of the two floats.
    """
    q = inverse_gaussian_q(epsilon)
    if q == 0.0:
        raise WeakLineOfSightError("epsilon = 0.5 makes the correction term singular")
    s = math.sqrt(2.0 * rician_factor)
    if s <= q:
        raise WeakLineOfSightError(
            f"sqrt(2G)={s:.4f} <= Qinv(eps)={q:.4f}: weak-LoS regime unsupported")
    y = s + math.log(s / (s - q)) / (2.0 * q) - q
    log_eps = math.log(epsilon)
    for _ in range(50):
        log_cdf, slope = _log_rician_cdf_and_slope(rician_factor, y)
        step = (log_cdf - log_eps) / slope
        y_next = max(y - step, 0.5 * y)
        if abs(y_next - y) <= 1e-13 * y:
            return y_next
        y = y_next
    raise NumericalFailureError(
        f"outage threshold did not converge for G={rician_factor:g}, eps={epsilon:g}")


def required_power(distance_m: float, params: ChannelParams) -> float:
    """Minimum transmit power (W) meeting the latency-outage constraint.

    The fading margin comes from ``y_q``, the exact outage threshold (the
    paper's closed form refined on the Marcum Q tail), so the outage at this
    power equals epsilon up to floating-point error. Grows with the
    path-loss distance term d^alpha and with the rate demand
    2^(D / (tau_max W)) - 1. Raises InvalidInputError unless the distance
    and the power are positive and finite.
    """
    if not 0 < distance_m < math.inf:
        raise InvalidInputError("distance must be positive and finite")
    y = y_q(params.rician_factor, params.outage_epsilon)
    try:
        path_loss = distance_m ** params.path_loss_exponent
    except OverflowError:
        path_loss = math.inf
    power = (2.0 * params.noise_power_w * (1.0 + params.rician_factor)
             * params.rate_demand * path_loss / (y * y * params.system_gain))
    if not 0.0 < power < math.inf:
        raise InvalidInputError(f"the link power at {distance_m!r} m is not a positive "
                                f"finite float: {power!r}")
    return power


def sample_rician_gain(rician_factor: float, rng, size: int) -> np.ndarray:
    """``size`` draws of the unit-mean Rician power gain |h|^2.

    h has a deterministic line-of-sight part sqrt(G/(G+1)) plus a circular
    complex Gaussian with total variance 1/(G+1); at G=0 this is a Rayleigh
    (exponential power) channel. One draw of 2n normals holds the real
    parts' noise z and then the imaginary parts' z', the numbers two draws
    of n would give, and every pass after it works in that buffer:
    re = s z + sqrt(G/(G+1)) and im = s z' are squared and summed into the
    real half, with the bits of re * re + im * im. The returned array is
    that half, a view of the buffer. Raises InvalidInputError unless G is
    nonnegative and finite.
    """
    if not 0.0 <= rician_factor < math.inf:
        raise InvalidInputError(f"rician factor must be nonnegative and finite: "
                                f"{rician_factor!r}")
    g = rician_factor
    los = math.sqrt(g / (g + 1.0))
    scatter_std = math.sqrt(1.0 / (2.0 * (g + 1.0)))
    buf = rng.standard_normal(2 * size)
    buf *= scatter_std
    buf[:size] += los
    buf *= buf
    return np.add(buf[:size], buf[size:], out=buf[:size])


# fading draws per sample_rician_gain call in outage_probability_mc: 16 MB
# of normals at a time, whatever the trial count
MC_CHUNK = 1_000_000


def outage_probability_mc(power_w: float, distance_m: float,
                          params: ChannelParams, n_trials: int, rng) -> float:
    """Fraction of fading draws whose rate misses D / tau_max.

    The draws are taken MC_CHUNK at a time, so the count costs about its
    normal draws and holds one chunk's buffer. A zero power always fails
    (1.0). Raises InvalidInputError for fewer than one trial, a power that
    is negative or NaN, and a distance that is not positive and finite.
    """
    if n_trials < 1:
        raise InvalidInputError("n_trials must be at least 1")
    if not 0 < distance_m < math.inf:
        raise InvalidInputError("distance must be positive and finite")
    if not power_w >= 0:
        raise InvalidInputError(f"power must be nonnegative: {power_w!r}")
    if power_w == 0:
        return 1.0
    # rate < D / tau_max  <=>  gain < gain_threshold, at the rate demand
    # that required_power sizes the link for
    try:
        gain_threshold = (params.rate_demand * distance_m ** params.path_loss_exponent
                          * params.noise_power_w / (params.system_gain * power_w))
    except (OverflowError, ZeroDivisionError):
        # d^alpha past a float, or a power so small that Gamma p is 0.0:
        # every draw fails
        gain_threshold = math.inf
    failures = 0
    remaining = n_trials
    while remaining > 0:
        n = min(MC_CHUNK, remaining)
        gains = sample_rician_gain(params.rician_factor, rng, size=n)
        failures += int(np.count_nonzero(gains < gain_threshold))
        remaining -= n
    return failures / n_trials
