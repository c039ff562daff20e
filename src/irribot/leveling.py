"""Tilt stabilization for the watering platform.

Closed-loop leveling episodes (moving-average prefilter, discrete PID with
trapezoidal integration and anti-windup, threshold drift recalibration),
Ziegler-Nichols auto-tuning from a measured ultimate gain, gyro-drift
bookkeeping, the plant parameter records the loop is tuned against, and the
`LevelingConfig` record that sets the loop's operating point.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from irribot.sums import ltr_sum

ZN_TABLES = {
    # kp factor, Ti as fraction of Tu, Td as fraction of Tu
    "classic": (0.6, 0.5, 0.125),
    "some-overshoot": (1.0 / 3.0, 0.5, 1.0 / 3.0),
    "no-overshoot": (0.2, 0.5, 1.0 / 3.0),
}


# the most ticks one leveling episode may run (episode_window / episode_tick);
# the episode draws all of its noise up front
MAX_EPISODE_TICKS = 100_000


class NoOscillation(RuntimeError):
    """Proportional feedback never destabilized the plant within the gain cap."""


# --------------------------------------------------------------------------
# PID


@dataclass(frozen=True)
class PidGains:
    """PID gains on the filtered tilt. The setpoint is always level, 0 degrees."""

    kp: float
    ki: float
    kd: float
    integral_limit: float | None = None  # degree*s, clamp on |integral|

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is rejected too
        if not (self.kp >= 0 and self.ki >= 0 and self.kd >= 0):
            raise ValueError("gains must be non-negative")
        if self.integral_limit is not None and not (self.integral_limit > 0):
            raise ValueError("integral limit must be positive when set")


def integral_clamp(ki, integral_authority):
    """The clamp on |integral| that holds the integral term's command within
    integral_authority (anti-windup sized to the actuator); None when ki is 0."""
    return integral_authority / ki if ki > 0 else None


def ziegler_nichols(ku, tu, rule):
    """PID gains from the ultimate gain/period via the named closed-loop table."""
    if ku <= 0 or tu <= 0:
        raise ValueError("ultimate gain and period must be positive")
    try:
        a, ti_frac, td_frac = ZN_TABLES[rule]
    except KeyError:
        raise ValueError(f"unknown tuning rule {rule!r}") from None
    kp = a * ku
    return PidGains(kp=kp, ki=kp / (ti_frac * tu), kd=kp * (td_frac * tu))


# --------------------------------------------------------------------------
# the loop's operating point


@dataclass(frozen=True)
class LevelingConfig:
    """The leveling loop's operating point, and the config's `leveling` section."""

    rule: str = "classic"  # which tuning table to apply
    integral_authority: float = 8.0  # deg/s of control the integral may hold
    filter_window: int = 5  # moving-average depth on the tilt signal
    noise_std: float = 0.05  # deg, sensor noise fed to mission episodes
    drift_rate: float = 0.0015  # deg/s of gyro bias growth
    shielded: bool = True
    shielding_factor: float = 0.6  # fraction of drift removed by shielding
    reset_threshold: float = 5.0  # deg of accumulated bias forcing a reset
    level_band: float = 0.5  # deg; inside this the platform counts as level
    episode_window: float = 4.0  # s budget for one leveling episode
    episode_tick: float = 0.01  # s
    kp: float | None = None  # set all three to bypass auto-tuning
    ki: float | None = None
    kd: float | None = None

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is rejected too
        manual = [self.kp is None, self.ki is None, self.kd is None]
        if any(manual) and not all(manual):
            raise ValueError("manual gains need kp, ki and kd together")
        if not any(manual) and not (self.kp > 0 and self.ki >= 0 and self.kd >= 0):
            raise ValueError("manual gains must be positive (kp) and non-negative (ki, kd)")
        # checked here, not only when gains are tuned: a flat run tunes none
        if self.rule not in ZN_TABLES:
            raise ValueError(f"unknown tuning rule {self.rule!r}")
        if not self.integral_authority > 0:
            raise ValueError("integral_authority must be positive")
        if not self.filter_window >= 1:
            raise ValueError("filter_window must be at least 1")
        if not (self.noise_std >= 0 and self.drift_rate >= 0):
            raise ValueError("noise and drift rates must be non-negative")
        if not 0 <= self.shielding_factor < 1:
            raise ValueError("shielding_factor must be in [0, 1)")
        if not self.reset_threshold > 0:
            raise ValueError("reset_threshold must be positive")
        if not self.level_band > 0:
            raise ValueError("level_band must be positive")
        if not (self.episode_tick > 0 and self.episode_window > self.episode_tick):
            raise ValueError("episode window must exceed the tick")
        if not self.episode_window / self.episode_tick <= MAX_EPISODE_TICKS:
            raise ValueError(f"episode_window / episode_tick must be at most "
                             f"{MAX_EPISODE_TICKS} ticks")

    @property
    def effective_rate(self):
        """Gyro bias growth after shielding, degrees/s."""
        if self.shielded:
            return self.drift_rate * (1.0 - self.shielding_factor)
        return self.drift_rate


def drift_update(lv, bias, dt, ticks=1):
    """The bias (degrees) after `ticks` ticks of dt seconds at the leveling
    record's `effective_rate`, in closed form: `bias + rate * dt * ticks`.

    An n-tick call is within a few ulps of n one-tick calls, not bit-equal.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return bias + lv.effective_rate * dt * ticks


# --------------------------------------------------------------------------
# plants


@dataclass(frozen=True)
class PlatformPlant:
    """Lead-screw pitch platform: rate command through a transport delay and a
    first-order actuator lag, rate-saturated, then integrated into tilt.

    A frozen parameter record; whatever runs the model owns its state.
    Fixed-tick stepping is assumed, so the delay is quantized to whole ticks.
    `max_rate=math.inf` means no clipping; NaN parameters and an infinite
    delay or lag are rejected. `gain`, the tilt rate per unit of screw rate,
    is 1 and is not a field.
    """

    max_rate: float = 8.0  # degrees/s
    delay: float = 0.05  # s
    tau: float = 0.15  # s
    gain = 1.0

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is rejected too
        if not self.max_rate > 0:
            raise ValueError("max_rate must be positive")
        if not 0 <= self.delay < math.inf:
            raise ValueError("delay must be finite and non-negative")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")


@dataclass(frozen=True)
class DelayedIntegratorPlant:
    """Pure integrator behind a transport delay: tilt' = gain*u(t - delay).

    The platform model with this gain, no lag (`tau` 0) and no rate limit.
    Under proportional feedback the loop sustains oscillation at the
    closed-form point ku = pi / (2*gain*delay), tu = 4*delay, which makes
    this the reference plant for tuner verification.
    """

    gain: float = 1.0
    delay: float = 0.05  # s
    max_rate = math.inf
    tau = 0.0

    def __post_init__(self):
        if not (self.gain > 0 and 0 <= self.delay < math.inf):
            raise ValueError("gain must be positive and delay finite and non-negative")


# --------------------------------------------------------------------------
# ultimate-gain search

PROBE_DT = 0.002  # s, a probe's tick
PROBE_TIME = 12.0  # s, a probe's length
PROBE_TILT = 0.2  # degrees, the tilt a probe starts from
PROBE_BAND = 0.05  # how far a cycle's peak ratio may stray from 1 and count as sustained
PROBE_CYCLES = 10  # the cycles whose peak ratios a probe compares
GAIN_START = 0.5  # the search's first gain, doubled until the loop diverges
GAIN_CAP = 1e4  # the gain above which the search gives up


def _probe_oscillation(plant, gain):
    """Run a P-only loop on the plant's model and classify the envelope.

    Each step the command enters the transport-delay line, the delayed
    command passes the actuator lag (none when `tau` is 0), and a rate
    beyond `max_rate` ends the probe as saturated; otherwise the tilt
    integrates `plant.gain` times the rate. Returns (classification,
    period). Classification is one of "decaying", "sustained", "growing".
    Period comes from rising zero crossings with linear interpolation and is
    None when fewer than three crossings exist.
    """
    dt, probe_time, initial_tilt = PROBE_DT, PROBE_TIME, PROBE_TILT
    band, cycles = PROBE_BAND, PROBE_CYCLES
    k, max_rate = plant.gain, plant.max_rate
    lag = math.exp(-dt / plant.tau) if plant.tau else 0.0
    steps = int(round(probe_time / dt))
    # a command delayed past the last step is never read
    line = deque([0.0] * min(steps, max(0, round(plant.delay / dt))))
    rate = 0.0
    tilt = initial_tilt
    prev = prev2 = None
    peaks = []
    crossings = []
    saturated = False
    blewup = False
    for i in range(1, steps + 1):
        line.append(gain * (0.0 - tilt))
        u = line.popleft()
        rate = u + (rate - u) * lag
        if not -max_rate <= rate <= max_rate:
            saturated = True
            break
        new = tilt + k * rate * dt
        t = i * dt
        if tilt < 0 <= new:
            crossings.append(t - dt + dt * (-tilt) / (new - tilt))
        if prev is not None and prev2 is not None and prev > prev2 and prev >= tilt and prev > 0:
            peaks.append(prev)
            if len(peaks) >= 2 and peaks[-1] < 1e-4 * initial_tilt:
                break  # rung down to the floor
            if len(peaks) >= cycles + 3:
                break  # enough cycles to classify
        if abs(new) > 1e6 * initial_tilt:
            blewup = True
            break
        prev2, prev, tilt = prev, tilt, new

    period = None
    if len(crossings) >= 3:
        first = min(2, len(crossings) - 2)  # skip the initial transient
        period = (crossings[-1] - crossings[first]) / (len(crossings) - 1 - first)

    # Alternation near the sample rate is a discretization artifact, not a
    # plant oscillation; treat it as no oscillation so the search moves on.
    if period is not None and period < 8 * dt and not saturated:
        return "decaying", None
    if saturated or blewup:
        return "growing", period
    if len(peaks) < 4:
        return "decaying", period
    n_ratios = min(cycles, len(peaks) - 1)
    ratios = [peaks[-i] / peaks[-i - 1] for i in range(1, n_ratios + 1)]
    if all(1 - band <= r <= 1 + band for r in ratios):
        return "sustained", period
    geo = math.exp(ltr_sum(math.log(r) for r in ratios) / len(ratios))
    return ("growing" if geo > 1 else "decaying"), period


def find_ultimate_gain(plant):
    """Locate the proportional gain that sustains constant-amplitude oscillation.

    Doubles the probe gain from GAIN_START until the loop diverges, then
    bisects the bracket until a probe's peak amplitudes stay within
    +/-PROBE_BAND per cycle over PROBE_CYCLES cycles. Returns (ku, tu).
    Raises NoOscillation when the plant never destabilizes below GAIN_CAP.
    """
    probe = lambda g: _probe_oscillation(plant, g)
    lo = None
    hi = None
    gain, gain_cap = GAIN_START, GAIN_CAP
    while hi is None:
        if gain > gain_cap:
            raise NoOscillation(f"no sustained oscillation up to gain {gain_cap}")
        cls, period = probe(gain)
        if cls == "sustained":
            return gain, period
        if cls == "decaying":
            lo = gain
            gain *= 2.0
        else:
            hi = gain
    while lo is None:
        gain /= 2.0
        if gain < 1e-9:
            raise NoOscillation("loop diverges at arbitrarily small gain")
        cls, period = probe(gain)
        if cls == "sustained":
            return gain, period
        if cls == "decaying":
            lo = gain
        else:
            hi = gain
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cls, period = probe(mid)
        if cls == "sustained":
            return mid, period
        if cls == "decaying":
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    mid = 0.5 * (lo + hi)
    cls, period = probe(mid)
    if period is None:
        raise NoOscillation("bracket collapsed without a measurable period")
    return mid, period


def tune_leveling(plant, rule, integral_authority):
    """Auto-tune: measure (ku, tu) on the plant, apply the named ZN table.

    integral_authority caps the integral term's contribution to that command
    magnitude (anti-windup sized to the actuator). Returns (gains, ku, tu).
    """
    ku, tu = find_ultimate_gain(plant)
    gains = ziegler_nichols(ku, tu, rule)
    return replace(gains, integral_limit=integral_clamp(gains.ki, integral_authority)), ku, tu


# --------------------------------------------------------------------------
# closed-loop episodes


@dataclass(frozen=True)
class EpisodeSummary:
    """What one leveling episode did, computed as it runs."""

    settle_time: float | None  # s, first entry into the band that is never left
    sse: float  # degrees, largest true-tilt magnitude over the final quarter
    final_tilt: float  # degrees, true tilt at the last recorded tick
    saturated_ticks: int  # ticks on which the actuator rate was clipped
    resets: tuple  # indices of the ticks on which drift recalibration fired


def run_leveling_episode(plant, gains, slope, lv, *, rng, bias=0.0, rows=None):
    """Close the loop on a slope step; returns an `EpisodeSummary`.

    The plant starts tilted at `slope` degrees and the IMU bias at `bias`
    degrees; the `LevelingConfig` `lv` sets everything else. Each tick: the
    IMU reads true tilt plus bias plus noise, the reading is filtered by a
    `filter_window`-sample moving average, a bias at the reset threshold
    recalibrates (zeroing bias and integral), the PID issues a rate command
    (trapezoidal integral clamped to the gains' limit, backward-difference
    derivative, neither on the first tick), the plant integrates it, and the
    bias grows at `lv.effective_rate`. Saturation is counted, never raised.

    One flat loop over plain floats that runs the plant model inline, as the
    tuner's probe does: the command list, pre-filled with the delay's ticks
    of zeros, is the transport-delay line. The plant is only read. The noise
    for the whole episode is drawn from `rng` in one batch, which leaves it
    where one draw per tick would; a record without IMU noise draws nothing.
    When `rows` is a list, one tuple per tick is appended to it: (t, tilt,
    raw reading, filtered reading, command, recalibrated, saturated).
    """
    if not bias >= 0:
        raise ValueError("bias cannot be negative")
    tick = lv.episode_tick
    steps = int(round(lv.episode_window / tick))  # at least 1: the window exceeds a tick
    if lv.noise_std > 0:
        noise = rng.normal(0.0, lv.noise_std, size=steps).tolist()
    else:
        noise = [0.0] * steps

    max_rate = plant.max_rate
    # a command delayed past the last tick is never read
    line = [0.0] * min(steps, max(0, round(plant.delay / tick)))
    lag = math.exp(-tick / plant.tau) if plant.tau else 0.0
    step = plant.gain * tick  # tilt per unit of rate per tick
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    lim = math.inf if gains.integral_limit is None else gains.integral_limit
    growth, threshold, band = lv.effective_rate * tick, lv.reset_threshold, lv.level_band
    readings = deque(maxlen=lv.filter_window)
    integral = prev_error = prev_t = 0.0
    speed = 0.0  # platform rate after the actuator lag, degrees/s
    tilt = final = float(slope)
    tail_start = steps - max(1, steps // 4)
    last_outside = -1
    sse = 0.0
    saturated_ticks = 0
    resets = []
    keep = rows is not None
    lo_lim, lo_rate, lo_band = -lim, -max_rate, -band
    isfinite, total = math.isfinite, ltr_sum

    for n, e in enumerate(noise):
        t = n * tick
        raw = tilt + bias + e
        if not isfinite(raw):
            raise ValueError(f"non-finite IMU reading at t={t}")
        readings.append(raw)
        filtered = total(readings) / len(readings)
        recal = bias >= threshold
        if recal:
            bias = 0.0
            integral = 0.0
            resets.append(n)
        error = 0.0 - filtered  # level is the setpoint; a 0.0 reading gives +0.0
        if n:
            dt = t - prev_t
            integral = integral + 0.5 * (error + prev_error) * dt
            derivative = (error - prev_error) / dt
        else:
            derivative = 0.0
        if integral > lim:
            integral = lim
        elif integral < lo_lim:
            integral = lo_lim
        command = kp * error + ki * integral + kd * derivative
        prev_error, prev_t = error, t
        line.append(command)
        u = line[n]
        speed = u + (speed - u) * lag
        # a NaN speed fails both bounds: it counts as saturated and stays NaN
        saturated = not lo_rate <= speed <= max_rate
        if saturated:
            saturated_ticks += 1
            if speed > max_rate:
                speed = max_rate
            elif speed < lo_rate:
                speed = lo_rate
        if tilt > band or tilt < lo_band:
            last_outside = n
        if n >= tail_start:
            final = tilt
            if abs(tilt) > sse:
                sse = abs(tilt)
        if keep:
            rows.append((t, tilt, raw, filtered, command, recal, saturated))
        tilt = tilt + speed * step
        bias = bias + growth  # the next tick's bias: one episode tick of drift added

    settle = None if last_outside == steps - 1 else (last_outside + 1) * tick
    return EpisodeSummary(settle, sse, final, saturated_ticks, tuple(resets))
