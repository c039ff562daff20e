"""Tilt stabilization for the watering platform.

Closed-loop leveling episodes (moving-average prefilter, discrete PID with
trapezoidal integration and anti-windup, threshold drift recalibration),
Ziegler-Nichols auto-tuning from a measured ultimate gain, gyro-drift
bookkeeping, and the lead-screw platform models the loop is tuned against.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

ZN_TABLES = {
    # kp factor, Ti as fraction of Tu, Td as fraction of Tu
    "classic": (0.6, 0.5, 0.125),
    "some-overshoot": (1.0 / 3.0, 0.5, 1.0 / 3.0),
    "no-overshoot": (0.2, 0.5, 1.0 / 3.0),
}


class NoOscillation(RuntimeError):
    """Proportional feedback never destabilized the plant within the gain cap."""


# --------------------------------------------------------------------------
# PID


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float
    setpoint: float = 0.0  # degrees
    integral_limit: float | None = None  # degree*s, clamp on |integral|

    def __post_init__(self):
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")
        if self.integral_limit is not None and self.integral_limit <= 0:
            raise ValueError("integral limit must be positive when set")


def ziegler_nichols(ku, tu, rule="classic"):
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
# drift


@dataclass(frozen=True)
class DriftMonitor:
    """Integrated gyro-bias bookkeeping with a hard recalibration threshold."""

    drift_rate: float  # degrees/s, bias growth of the raw tilt reading
    shielded: bool = False
    shielding_factor: float = 0.6  # fraction of drift removed by shielding
    reset_threshold: float = 5.0  # degrees
    cumulative_error: float = 0.0  # degrees, current integrated bias

    def __post_init__(self):
        if self.drift_rate < 0:
            raise ValueError("drift rate must be non-negative")
        if not 0 <= self.shielding_factor < 1:
            raise ValueError("shielding factor must be in [0, 1)")
        if self.reset_threshold <= 0:
            raise ValueError("reset threshold must be positive")
        if self.cumulative_error < 0:
            raise ValueError("cumulative error cannot be negative")

    @property
    def effective_rate(self):
        if self.shielded:
            return self.drift_rate * (1.0 - self.shielding_factor)
        return self.drift_rate


def drift_update(mon, dt, ticks=1):
    """Accumulate bias over `ticks` ticks of dt seconds at the shielding-adjusted rate.

    Ticks apply one at a time, so one n-tick call equals n one-tick calls bit
    for bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rate = mon.effective_rate
    err = mon.cumulative_error
    for _ in range(ticks):
        err = err + rate * dt
    return replace(mon, cumulative_error=err)


# --------------------------------------------------------------------------
# plants


class DelayedIntegratorPlant:
    """Pure integrator behind a transport delay: tilt' = k*u(t - delay).

    Under proportional feedback the loop sustains oscillation at the
    closed-form point ku = pi / (2*k*delay), tu = 4*delay, which makes this
    the reference plant for tuner verification. Fixed-tick stepping is
    assumed; the delay is quantized to whole ticks on the first step.
    """

    def __init__(self, gain=1.0, delay=0.05):
        if gain <= 0 or delay < 0:
            raise ValueError("gain must be positive and delay non-negative")
        self.gain = gain
        self.delay = delay
        self.tilt = 0.0
        self._queue = None

    def reset(self, tilt=0.0):
        self.tilt = tilt
        self._queue = None

    def step(self, u, dt):
        if self._queue is None:
            self._queue = deque([0.0] * max(0, round(self.delay / dt)))
        if self._queue:
            self._queue.append(u)
            u = self._queue.popleft()
        self.tilt += self.gain * u * dt
        return self.tilt


class PlatformPlant:
    """Lead-screw pitch platform: rate command through a transport delay and a
    first-order actuator lag, rate-saturated, then integrated into tilt.

    `last_saturated` flags rate clipping on the most recent step so callers
    can record saturation as an event. Fixed-tick stepping is assumed.
    """

    def __init__(self, max_rate=8.0, delay=0.05, tau=0.15):
        if max_rate <= 0 or delay < 0 or tau <= 0:
            raise ValueError("invalid platform parameters")
        self.max_rate = max_rate  # degrees/s
        self.delay = delay  # s
        self.tau = tau  # s
        self.tilt = 0.0
        self.last_saturated = False
        self._rate = 0.0
        self._queue = None

    def reset(self, tilt=0.0):
        self.tilt = tilt
        self._rate = 0.0
        self._queue = None
        self.last_saturated = False

    def step(self, u, dt):
        if self._queue is None:
            self._queue = deque([0.0] * max(0, round(self.delay / dt)))
        if self._queue:
            self._queue.append(u)
            u = self._queue.popleft()
        self._rate = u + (self._rate - u) * math.exp(-dt / self.tau)
        rate = min(max(self._rate, -self.max_rate), self.max_rate)
        self.last_saturated = rate != self._rate
        if self.last_saturated:
            self._rate = rate  # the screw cannot store speed it never reached
        self.tilt += rate * dt
        return self.tilt


# --------------------------------------------------------------------------
# ultimate-gain search


def _probe_oscillation(plant, gain, dt, probe_time, initial_tilt, band, cycles):
    """Run a P-only loop and classify the envelope.

    Returns (classification, period). Classification is one of "decaying",
    "sustained", "growing". Period comes from rising zero crossings with
    linear interpolation and is None when fewer than three crossings exist.
    """
    plant.reset(initial_tilt)
    tilt = initial_tilt
    prev = prev2 = None
    peaks = []
    crossings = []
    saturated = False
    blewup = False
    steps = int(round(probe_time / dt))
    for i in range(1, steps + 1):
        u = gain * (0.0 - tilt)
        new = plant.step(u, dt)
        t = i * dt
        if getattr(plant, "last_saturated", False):
            saturated = True
            break
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
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return ("growing" if geo > 1 else "decaying"), period


def find_ultimate_gain(
    plant,
    *,
    dt=0.002,
    probe_time=12.0,
    initial_tilt=0.2,
    gain_start=0.5,
    gain_cap=1e4,
    band=0.05,
    cycles=10,
):
    """Locate the proportional gain that sustains constant-amplitude oscillation.

    Doubles the probe gain until the loop diverges, then bisects the bracket
    until a probe's peak amplitudes stay within +/-band per cycle over the
    requested number of cycles. Returns (ku, tu). Raises NoOscillation when
    the plant never destabilizes below gain_cap.
    """
    probe = lambda g: _probe_oscillation(
        plant, g, dt, probe_time, initial_tilt, band, cycles
    )
    lo = None
    hi = None
    gain = gain_start
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


def tune_leveling(plant, rule="classic", *, integral_authority=None, **probe_kwargs):
    """Auto-tune: measure (ku, tu) on the plant, apply the named ZN table.

    integral_authority, when given, caps the integral term's contribution to
    that command magnitude (anti-windup sized to the actuator).
    Returns (gains, ku, tu).
    """
    ku, tu = find_ultimate_gain(plant, **probe_kwargs)
    gains = ziegler_nichols(ku, tu, rule)
    if integral_authority is not None and gains.ki > 0:
        gains = replace(gains, integral_limit=integral_authority / gains.ki)
    return gains, ku, tu


# --------------------------------------------------------------------------
# closed-loop episodes


@dataclass
class LevelingTrace:
    """Fixed-tick closed-loop record of one leveling episode."""

    t: np.ndarray  # s
    tilt: np.ndarray  # degrees, true platform tilt at the sample instant
    alpha_raw: np.ndarray  # degrees, biased/noisy IMU reading
    alpha_filtered: np.ndarray  # degrees
    u: np.ndarray  # commanded platform rate, degrees/s
    recalibrated: np.ndarray  # bool, drift reset fired this tick
    saturated: np.ndarray  # bool, actuator rate-clipped this tick
    band: float = 0.5  # degrees, settling band

    @property
    def response_time(self):
        """Time of the first entry into the +/-band that is never left."""
        outside = np.flatnonzero(np.abs(self.tilt) > self.band)
        if outside.size == 0:
            return float(self.t[0])
        last = outside[-1]
        if last + 1 >= len(self.t):
            return None
        return float(self.t[last + 1])

    @property
    def steady_state_error(self):
        """Largest true-tilt magnitude over the final quarter of the episode."""
        tail = max(1, len(self.tilt) // 4)
        return float(np.max(np.abs(self.tilt[-tail:])))

    @property
    def max_estimation_error(self):
        """Worst absolute gap between the filtered reading and the true tilt."""
        return float(np.max(np.abs(self.alpha_filtered - self.tilt)))


def run_leveling_episode(
    plant,
    gains,
    slope,
    duration,
    tick=0.01,
    *,
    window=5,
    noise_std=0.0,
    drift=None,
    rng=None,
    band=0.5,
):
    """Close the loop on a slope step and record the full trace.

    The platform starts tilted at `slope` degrees. Each tick: drift
    accumulates, the IMU reads true tilt plus bias plus noise, the reading is
    filtered by a `window`-sample moving average, the drift monitor may
    recalibrate (zeroing bias and integral), the PID issues a rate command
    (trapezoidal integral clamped to the gains' limit, backward-difference
    derivative, neither on the first tick), and the plant integrates it.
    Saturation is recorded, never raised. `band` is the trace's settling band.

    One flat loop over plain floats. The noise for the whole episode is drawn
    in one batch, which leaves `rng` where one draw per tick would. `drift` is
    read, never written back.
    """
    if tick <= 0:
        raise ValueError("tick must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if window < 1:
        raise ValueError("window size must be positive")
    steps = int(round(duration / tick))
    if steps == 0:
        raise ValueError("duration must round to at least one tick")
    if noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        noise = rng.normal(0.0, noise_std, size=steps).tolist()
    else:
        noise = [0.0] * steps

    plant.reset(slope)
    plant_step = plant.step
    kp, ki, kd, setpoint, lim = gains.kp, gains.ki, gains.kd, gains.setpoint, gains.integral_limit
    if drift is not None:
        bias, rate, threshold = drift.cumulative_error, drift.effective_rate, drift.reset_threshold
    else:
        bias = 0.0
    readings = deque(maxlen=window)
    integral = prev_error = prev_t = 0.0
    tilt = float(slope)

    out_t, out_tilt, out_raw, out_filt, out_u, out_recal, out_sat = (
        [] for _ in range(7))
    for n in range(steps):
        t = n * tick
        if drift is not None and n > 0:
            bias = bias + rate * tick
        raw = tilt + bias + noise[n]
        if not math.isfinite(raw):
            raise ValueError(f"non-finite IMU reading at t={t}")
        readings.append(raw)
        filtered = sum(readings) / len(readings)
        recal = drift is not None and bias >= threshold
        if recal:
            bias = 0.0
            integral = 0.0
        error = setpoint - filtered
        if n > 0:
            dt = t - prev_t
            integral = integral + 0.5 * (error + prev_error) * dt
            derivative = (error - prev_error) / dt
        else:
            derivative = 0.0
        if lim is not None:
            integral = min(max(integral, -lim), lim)
        command = kp * error + ki * integral + kd * derivative
        prev_error, prev_t = error, t
        out_t.append(t)
        out_tilt.append(tilt)
        out_raw.append(raw)
        out_filt.append(filtered)
        out_u.append(command)
        out_recal.append(recal)
        tilt = plant_step(command, tick)
        out_sat.append(getattr(plant, "last_saturated", False))

    return LevelingTrace(
        t=np.array(out_t, dtype=float),
        tilt=np.array(out_tilt, dtype=float),
        alpha_raw=np.array(out_raw, dtype=float),
        alpha_filtered=np.array(out_filt, dtype=float),
        u=np.array(out_u, dtype=float),
        recalibrated=np.array(out_recal, dtype=bool),
        saturated=np.array(out_sat, dtype=bool),
        band=band,
    )
