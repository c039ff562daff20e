"""Tests for the tilt-stabilization loop: filter, PID, tuner, drift, episodes.

The per-tick controller pieces below (IMU sample, moving-average filter, PID
step, drift recalibration and the controller bundling them), the stepping
plants and `LevelingTrace` are the reference oracle for
`run_leveling_episode`, which runs the same arithmetic as one flat loop over
plain floats with the plant model inline and returns only a summary:
`reference_episode` composes the pieces tick by tick around the generic
`plant.step`, and the episode's summary and per-tick rows must equal the
oracle's trace bit for bit, on the platform and on the delayed integrator.
`reference_probe` steps a plant the same way for the tuner, whose production
probe runs the model inline. The oracle also closes the loop on plants the
episode does not take. `record` builds the `LevelingConfig` an episode reads.
"""

import functools
import math
import runpy
import tracemalloc
from collections import deque
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot import leveling
from irribot.leveling import (
    DelayedIntegratorPlant,
    LevelingConfig,
    NoOscillation,
    PidGains,
    PlatformPlant,
    drift_update,
    find_ultimate_gain,
    run_leveling_episode,
    tune_leveling,
    ziegler_nichols,
)


class NonMonotonicTimestamp(ValueError):
    """A sample arrived at or before the previous timestamp."""


@dataclass(frozen=True)
class ImuSample:
    t: float  # s
    alpha_raw: float  # degrees

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.alpha_raw)):
            raise ValueError("non-finite IMU sample")


@dataclass(frozen=True)
class MovingAverageState:
    """Rolling window over the most recent raw tilt samples."""

    size: int = 5
    window: tuple = ()
    count: int = 0
    last_t: float | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("window size must be positive")
        if len(self.window) > self.size:
            raise ValueError("window overflow")


def moving_average_step(state, sample):
    """Advance the filter by one sample; returns (new state, filtered value)."""
    if state.last_t is not None and sample.t <= state.last_t:
        raise NonMonotonicTimestamp(
            f"sample at t={sample.t} does not advance past t={state.last_t}"
        )
    window = (state.window + (sample.alpha_raw,))[-state.size:]
    new = MovingAverageState(
        size=state.size, window=window, count=state.count + 1, last_t=sample.t
    )
    return new, sum(window) / len(window)


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0  # degree*s
    prev_error: float = 0.0  # degrees
    prev_t: float | None = None  # s; None until the first step


def pid_step(gains, state, measured, t):
    """One controller update at absolute time t; returns (new state, command).

    Trapezoidal integral, backward-difference derivative on the error. The
    first step contributes no integral area and no derivative.
    """
    error = 0.0 - measured  # level is the setpoint; a 0.0 reading gives +0.0
    if state.prev_t is None:
        integral = state.integral
        derivative = 0.0
    else:
        dt = t - state.prev_t
        if dt <= 0:
            raise NonMonotonicTimestamp(f"t={t} does not advance past t={state.prev_t}")
        integral = state.integral + 0.5 * (error + state.prev_error) * dt
        derivative = (error - state.prev_error) / dt
    if gains.integral_limit is not None:
        lim = gains.integral_limit
        integral = min(max(integral, -lim), lim)
    command = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return PidState(integral=integral, prev_error=error, prev_t=t), command


def maybe_recalibrate(lv, bias, pid):
    """Zero the bias and the PID integral once accumulation hits the leveling
    record's reset threshold; returns (bias, pid, fired)."""
    if bias >= lv.reset_threshold:
        return 0.0, replace(pid, integral=0.0), True
    return bias, pid, False


class LevelingController:
    """Stateful bundle of prefilter, PID, and drift recalibration for loop
    callers, at a leveling record's filter depth and reset threshold."""

    def __init__(self, gains, lv=LevelingConfig(), *, bias=0.0):
        self.gains = gains
        self.lv = lv
        self.bias = bias
        self._ma = MovingAverageState(size=lv.filter_window)
        self._pid = PidState()

    def update(self, t, alpha_raw):
        """Consume one raw reading; returns (command, filtered, recalibrated)."""
        self._ma, filtered = moving_average_step(self._ma, ImuSample(t, alpha_raw))
        self.bias, self._pid, recal = maybe_recalibrate(self.lv, self.bias, self._pid)
        self._pid, command = pid_step(self.gains, self._pid, filtered, t)
        return command, filtered, recal


class SteppingDelayedIntegrator:
    """`DelayedIntegratorPlant` as a stepping model: tilt' = k*u(t - delay),
    the delay quantized to whole ticks on the first step."""

    def __init__(self, gain=1.0, delay=0.05):
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


class SteppingPlatform:
    """`PlatformPlant` as a stepping model; `last_saturated` flags rate
    clipping on the most recent step."""

    def __init__(self, max_rate=8.0, delay=0.05, tau=0.15):
        self.max_rate = max_rate
        self.delay = delay
        self.tau = tau
        self.reset()

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


def stepping(plant):
    """The stepping model of a plant record."""
    if isinstance(plant, PlatformPlant):
        return SteppingPlatform(plant.max_rate, plant.delay, plant.tau)
    return SteppingDelayedIntegrator(plant.gain, plant.delay)


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


def trace_from_rows(rows, band=0.5):
    """The `LevelingTrace` of an episode's per-tick rows."""
    t, tilt, raw, filtered, u, recal, sat = zip(*rows)
    floats = (np.array(col, dtype=float) for col in (t, tilt, raw, filtered, u))
    return LevelingTrace(*floats, np.array(recal, dtype=bool), np.array(sat, dtype=bool),
                         band=band)


def record(window, tick=0.01, **fields):
    """The leveling record of a `window`-second episode of `tick`-second
    ticks: quiet (no IMU noise, no drift) unless `fields` say otherwise."""
    return LevelingConfig(episode_window=window, episode_tick=tick,
                          **{"noise_std": 0.0, "drift_rate": 0.0, **fields})


def episode(plant, gains, slope, lv, *, rng=None, **kwargs):
    """Run the production episode keeping its rows, on a seed-0 generator
    unless `rng` is given; returns (summary, trace)."""
    rows = []
    rng = np.random.default_rng(0) if rng is None else rng
    summary = run_leveling_episode(plant, gains, slope, lv, rng=rng, rows=rows, **kwargs)
    return summary, trace_from_rows(rows, lv.level_band)


def reference_episode(plant, gains, slope, lv, *, bias=0.0, rng=None):
    """`run_leveling_episode` one controller update, one noise draw and one
    `plant.step` per tick, for any plant with `reset` and `step`. A quiet
    record (no IMU noise) needs no `rng`."""
    tick, noise_std = lv.episode_tick, lv.noise_std
    steps = int(round(lv.episode_window / tick))

    plant.reset(slope)
    controller = LevelingController(gains, lv, bias=bias)
    tilt = float(slope)

    out_t = np.empty(steps)
    out_tilt = np.empty(steps)
    out_raw = np.empty(steps)
    out_filt = np.empty(steps)
    out_u = np.empty(steps)
    out_recal = np.zeros(steps, dtype=bool)
    out_sat = np.zeros(steps, dtype=bool)

    for n in range(steps):
        t = n * tick
        if n > 0:
            controller.bias = drift_update(lv, controller.bias, tick)
        bias = controller.bias
        noise = rng.normal(0.0, noise_std) if noise_std > 0 else 0.0
        raw = tilt + bias + noise
        command, filtered, recal = controller.update(t, raw)
        out_t[n] = t
        out_tilt[n] = tilt
        out_raw[n] = raw
        out_filt[n] = filtered
        out_u[n] = command
        out_recal[n] = recal
        tilt = plant.step(command, tick)
        out_sat[n] = getattr(plant, "last_saturated", False)

    return LevelingTrace(t=out_t, tilt=out_tilt, alpha_raw=out_raw,
                         alpha_filtered=out_filt, u=out_u, recalibrated=out_recal,
                         saturated=out_sat, band=lv.level_band)


def reference_probe(plant, gain):
    """`leveling._probe_oscillation` stepping a plant with `reset` and `step`
    (a stepping model, not a record) one `plant.step` per tick, at the probe
    settings `leveling` holds when it is called."""
    dt, probe_time, initial_tilt = leveling.PROBE_DT, leveling.PROBE_TIME, leveling.PROBE_TILT
    band, cycles = leveling.PROBE_BAND, leveling.PROBE_CYCLES
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
                break
            if len(peaks) >= cycles + 3:
                break
        if abs(new) > 1e6 * initial_tilt:
            blewup = True
            break
        prev2, prev, tilt = prev, tilt, new

    period = None
    if len(crossings) >= 3:
        first = min(2, len(crossings) - 2)
        period = (crossings[-1] - crossings[first]) / (len(crossings) - 1 - first)
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


def reference_ultimate_gain(model):
    """`find_ultimate_gain`'s search with every probe run by `reference_probe`
    on a stepping model."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(leveling, "_probe_oscillation", reference_probe)
        return find_ultimate_gain(model)


class FirstOrderLagPlant:
    """Stable first-order lag tilt' = (k*u - tilt)/tau; cannot self-oscillate."""

    def __init__(self, gain=1.0, tau=0.1):
        if gain <= 0 or tau <= 0:
            raise ValueError("gain and tau must be positive")
        self.gain = gain
        self.tau = tau
        self.tilt = 0.0

    def reset(self, tilt=0.0):
        self.tilt = tilt

    def step(self, u, dt):
        target = self.gain * u
        self.tilt = target + (self.tilt - target) * math.exp(-dt / self.tau)
        return self.tilt


def feed(values):
    """Run a fresh filter over values at unit timestamps; returns outputs."""
    state = MovingAverageState()
    out = []
    for i, v in enumerate(values):
        state, filtered = moving_average_step(state, ImuSample(float(i), v))
        out.append(filtered)
    return out


# --------------------------------------------------------------- filter

def test_ma_constant_stream_is_identity():
    assert feed([2.0] * 12) == [2.0] * 12


def test_ma_impulse_weight():
    # a lone unit sample influences exactly five full-window outputs at 1/5
    out = feed([0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    hits = [i for i, v in enumerate(out) if v == pytest.approx(0.2)]
    assert hits == [4, 5, 6, 7, 8]


def test_ma_ramp_mean():
    assert feed([1, 2, 3, 4, 5])[-1] == 3.0


def test_ma_partial_window_uses_available_samples():
    out = feed([4.0, 8.0])
    assert out == [4.0, 6.0]


def test_ma_rejects_non_advancing_timestamp():
    state, _ = moving_average_step(MovingAverageState(), ImuSample(1.0, 0.0))
    with pytest.raises(NonMonotonicTimestamp):
        moving_average_step(state, ImuSample(1.0, 0.0))


def test_ma_window_never_exceeds_size():
    with pytest.raises(ValueError):
        MovingAverageState(size=2, window=(1.0, 2.0, 3.0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_ma_output_bounded_by_window(values):
    state = MovingAverageState()
    for i, v in enumerate(values):
        state, filtered = moving_average_step(state, ImuSample(float(i), v))
        window = values[max(0, i - 4): i + 1]
        assert min(window) - 1e-9 <= filtered <= max(window) + 1e-9


# ------------------------------------------------------------------ PID

def test_pid_proportional_only():
    gains = PidGains(kp=3.0, ki=0.0, kd=0.0)
    _, u = pid_step(gains, PidState(), measured=-2.0, t=0.0)
    assert u == 6.0


def test_pid_integral_of_constant_error():
    gains = PidGains(kp=0.0, ki=4.0, kd=0.0)
    state = PidState()
    u = 0.0
    for t in np.arange(0.0, 2.0 + 1e-12, 0.25):
        state, u = pid_step(gains, state, measured=-1.0, t=float(t))
    assert state.integral == pytest.approx(2.0)
    assert u == pytest.approx(8.0)


def test_pid_zero_derivative_on_repeated_error():
    gains = PidGains(kp=0.0, ki=0.0, kd=5.0)
    state, _ = pid_step(gains, PidState(), measured=-1.0, t=0.0)
    state, u = pid_step(gains, state, measured=-1.0, t=0.1)
    assert u == 0.0


def test_pid_first_step_has_no_derivative_kick():
    gains = PidGains(kp=0.0, ki=0.0, kd=100.0)
    _, u = pid_step(gains, PidState(), measured=-5.0, t=0.0)
    assert u == 0.0


def test_pid_rejects_non_advancing_time():
    state, _ = pid_step(PidGains(1, 0, 0), PidState(), 0.0, t=1.0)
    with pytest.raises(NonMonotonicTimestamp):
        pid_step(PidGains(1, 0, 0), state, 0.0, t=1.0)


def test_pid_rejects_negative_gains():
    with pytest.raises(ValueError):
        PidGains(kp=-1.0, ki=0.0, kd=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(kp=math.nan, ki=0.0, kd=0.0),
    dict(kp=1.0, ki=math.nan, kd=0.0),
    dict(kp=1.0, ki=0.0, kd=math.nan),
    dict(kp=2.0, ki=5.0, kd=0.0, integral_limit=math.nan),
])
def test_pid_rejects_nan_gains_and_limit(kwargs):
    # a NaN limit would clamp nothing, so anti-windup would be silently off
    with pytest.raises(ValueError):
        PidGains(**kwargs)


def test_pid_integral_clamp():
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0, integral_limit=0.5)
    state = PidState()
    for t in range(10):
        state, u = pid_step(gains, state, measured=-10.0, t=float(t))
    assert state.integral == 0.5
    assert u == 0.5


@given(st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=20))
def test_pid_zero_error_is_inert(dts):
    gains = PidGains(kp=2.0, ki=1.0, kd=0.5)
    state = PidState()
    t = 0.0
    for dt in dts:
        t += dt
        state, u = pid_step(gains, state, measured=0.0, t=t)
        assert u == 0.0
        assert state.integral == 0.0
        assert state.prev_error == 0.0


# ------------------------------------------------------------------- ZN

def test_zn_classic_table():
    g = ziegler_nichols(10.0, 2.0, "classic")
    assert (g.kp, g.ki, g.kd) == (6.0, 6.0, 1.5)


def test_zn_classic_unit_point():
    g = ziegler_nichols(1.0, 1.0, "classic")
    assert (g.kp, g.ki, g.kd) == pytest.approx((0.6, 1.2, 0.075))


@given(st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.5, 4.0))
def test_zn_linear_in_ku(ku, tu, c):
    g1 = ziegler_nichols(ku, tu, "classic")
    g2 = ziegler_nichols(c * ku, tu, "classic")
    assert g2.kp == pytest.approx(c * g1.kp, rel=1e-12)
    assert g2.ki == pytest.approx(c * g1.ki, rel=1e-12)
    assert g2.kd == pytest.approx(c * g1.kd, rel=1e-12)


def test_zn_variant_tables_ordered_by_aggressiveness():
    classic = ziegler_nichols(10, 1, "classic")
    some = ziegler_nichols(10, 1, "some-overshoot")
    none_ = ziegler_nichols(10, 1, "no-overshoot")
    assert classic.kp > some.kp > none_.kp


def test_zn_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ziegler_nichols(0.0, 1.0, "classic")
    with pytest.raises(ValueError):
        ziegler_nichols(1.0, -1.0, "classic")
    with pytest.raises(ValueError):
        ziegler_nichols(1.0, 1.0, "aggressive")


# ------------------------------------------------------------- tuner

def test_ultimate_gain_matches_delayed_integrator_analysis():
    # loop gain k*e^(-Ls)/s sustains at ku = pi/(2kL), tu = 4L
    k, delay = 1.0, 0.05
    ku, tu = find_ultimate_gain(DelayedIntegratorPlant(gain=k, delay=delay))
    assert ku == pytest.approx(math.pi / (2 * k * delay), rel=0.05)
    assert tu == pytest.approx(4 * delay, rel=0.05)


def test_ultimate_gain_falls_with_longer_delay():
    ku_short, _ = find_ultimate_gain(DelayedIntegratorPlant(delay=0.05))
    ku_long, tu_long = find_ultimate_gain(DelayedIntegratorPlant(delay=0.1))
    assert ku_long < ku_short
    assert ku_long == pytest.approx(math.pi / 0.2, rel=0.05)
    assert tu_long == pytest.approx(0.4, rel=0.05)


def test_stable_lag_plant_never_oscillates(monkeypatch):
    # a platform without transport delay or rate limit is a lag in front of
    # an integrator, whose phase never reaches -180 degrees
    monkeypatch.setattr(leveling, "GAIN_CAP", 1e3)
    for tau in (0.15, 0.05):
        with pytest.raises(NoOscillation, match="up to gain 1000.0"):
            find_ultimate_gain(PlatformPlant(math.inf, 0.0, tau))
    with pytest.raises(NoOscillation, match="up to gain 1000.0"):
        reference_ultimate_gain(FirstOrderLagPlant())


def test_tuned_gains_stabilize_delayed_integrator():
    plant = DelayedIntegratorPlant(gain=1.0, delay=0.05)
    gains = ziegler_nichols(*find_ultimate_gain(plant), "classic")  # no integral clamp
    trace = reference_episode(stepping(plant), gains, 10.0, record(6.0, 0.002))
    assert trace.steady_state_error < 0.4


PROBE_PLANTS = (PlatformPlant(), DelayedIntegratorPlant(1.0, 0.05),
                DelayedIntegratorPlant(2.0, 0.08), DelayedIntegratorPlant(0.5, 0.1))


@pytest.mark.parametrize("plant", PROBE_PLANTS, ids=repr)
def test_inline_probe_matches_stepping_oracle(plant):
    # the platform's tuned point and criterion 9's three integrators, bit for bit
    assert find_ultimate_gain(plant) == reference_ultimate_gain(stepping(plant))
    # and each probe's classification and period, across decaying, sustained,
    # growing and (on the platform) saturating gains
    for gain in (0.5, 5.0, 15.0, 21.0, 31.0, 40.0, 120.0, 1e3):
        assert (leveling._probe_oscillation(plant, gain)
                == reference_probe(stepping(plant), gain)), gain


def test_tuned_platform_gains_are_pinned():
    gains, ku, tu = tune_leveling(PlatformPlant(), "classic", 8.0)
    assert (ku, tu) == (21.0, 0.5745599094367895)
    assert gains == PidGains(kp=12.6, ki=43.85965603604717, kd=0.9049318573629433,
                             integral_limit=0.18239997124977445)


# ------------------------------------------------------------- drift

def test_drift_unshielded_accumulation():
    lv = LevelingConfig(drift_rate=1.0, shielded=False)
    assert lv.effective_rate == lv.drift_rate
    assert drift_update(lv, 0.0, 3.0) == 3.0


def test_drift_shielding_cuts_rate_to_exactly_point_four():
    lv = LevelingConfig(drift_rate=1.0)  # shielded, as the mission runs
    assert lv.shielded and lv.effective_rate == 0.4 * lv.drift_rate
    assert drift_update(lv, 0.0, 3.0) == pytest.approx(1.2)


def test_drift_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        drift_update(LevelingConfig(drift_rate=1.0), 0.0, 0.0)


@given(st.floats(1e-6, 100.0), st.floats(1e-6, 100.0), st.floats(0.0, 0.01))
def test_drift_update_is_additive(dt1, dt2, rate):
    lv = LevelingConfig(drift_rate=rate, shielded=True)
    split = drift_update(lv, drift_update(lv, 0.0, dt1), dt2)
    joint = drift_update(lv, 0.0, dt1 + dt2)
    assert split == pytest.approx(joint, rel=1e-9, abs=1e-15)


@given(st.floats(1e-3, 1.0), st.integers(1, 500), st.floats(0.0, 2.0), st.booleans())
def test_drift_n_tick_call_is_within_two_ulps_of_exact(dt, n, rate, shielded):
    lv = LevelingConfig(drift_rate=rate, shielded=shielded)
    exact = Fraction(0.25) + Fraction(lv.effective_rate) * Fraction(dt) * n
    got = drift_update(lv, 0.25, dt, n)
    assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_recalibrate_fires_at_threshold():
    lv = LevelingConfig(drift_rate=1.0, shielded=False)
    pid = PidState(integral=2.0, prev_error=0.3, prev_t=9.0)
    bias, pid2, fired = maybe_recalibrate(lv, 5.1, pid)
    assert fired
    assert bias == 0.0
    assert pid2.integral == 0.0
    assert pid2.prev_t == 9.0  # only the integral resets


def test_recalibrate_exact_threshold_crossing():
    lv, bias = LevelingConfig(drift_rate=1.0, shielded=False), 0.0
    for _ in range(5):
        bias, _, fired = maybe_recalibrate(lv, drift_update(lv, bias, 1.0), PidState())
    assert fired  # hits 5.0 exactly on the fifth second
    assert bias == 0.0


def test_recalibrate_below_threshold_is_noop():
    lv = LevelingConfig(drift_rate=1.0, shielded=False)
    pid = PidState(integral=2.0)
    bias, pid2, fired = maybe_recalibrate(lv, 4.9, pid)
    assert not fired
    assert bias == 4.9 and pid2 == pid


def test_recalibrate_idempotent_after_reset():
    lv = LevelingConfig(drift_rate=1.0, shielded=False)
    bias, pid, _ = maybe_recalibrate(lv, 6.0, PidState())
    _, _, fired = maybe_recalibrate(lv, bias, pid)
    assert not fired


# ----------------------------------------------------------- episodes

@functools.cache
def platform_gains():
    gains, _, _ = tune_leveling(PlatformPlant(), "classic", 8.0)
    return gains


def test_episode_level_start_is_trivially_settled():
    summary, _ = episode(PlatformPlant(), platform_gains(), 0.0, record(2.0))
    assert summary.settle_time == 0.0
    assert summary.sse == 0.0


def test_episode_ten_degree_step_meets_budget():
    summary, _ = episode(PlatformPlant(), platform_gains(), 10.0, record(8.0))
    assert 1.3 <= summary.settle_time <= 2.3
    assert summary.sse <= 0.4


def test_episode_records_saturation_events():
    summary, trace = episode(PlatformPlant(), platform_gains(), 10.0, record(8.0))
    assert trace.saturated.any()  # 10 deg at 8 deg/s must clip for over a second
    assert trace.saturated.sum() >= 100
    assert summary.saturated_ticks == trace.saturated.sum()


def test_episode_envelope_decays_monotonically():
    _, trace = episode(PlatformPlant(), platform_gains(), 10.0, record(8.0))
    a = np.abs(trace.tilt)
    peaks = [a[i] for i in range(1, len(a) - 1) if a[i] > a[i - 1] and a[i] >= a[i + 1]]
    assert all(peaks[i + 1] <= peaks[i] + 1e-9 for i in range(len(peaks) - 1))


def test_episode_doubling_kp_does_not_raise_sse_on_linear_plant():
    lv = record(2.0)
    lo = reference_episode(FirstOrderLagPlant(1.0, 0.5), PidGains(0.5, 0, 0), 1.0, lv)
    hi = reference_episode(FirstOrderLagPlant(1.0, 0.5), PidGains(1.0, 0, 0), 1.0, lv)
    assert hi.steady_state_error <= lo.steady_state_error


def test_episode_recalibration_mid_run():
    # fast unshielded drift forces a reset well inside the episode
    lv = record(15.0, drift_rate=0.5, shielded=False)
    summary, trace = episode(PlatformPlant(), platform_gains(), 0.0, lv)
    assert trace.recalibrated.sum() >= 1
    first = int(np.flatnonzero(trace.recalibrated)[0])
    assert summary.resets[0] == first
    # bias ramps to the 5 deg threshold; the reading taken on the reset tick
    # still carries it, and the next tick starts from zero again
    assert trace.alpha_raw[first] - trace.tilt[first] == pytest.approx(5.0, abs=0.01)
    assert abs(trace.alpha_raw[first + 1] - trace.tilt[first + 1]) < 0.01


def test_episode_ten_minutes_estimation_error_within_half_degree():
    # the mission's noise and shielded drift over ten minutes
    summary, trace = episode(PlatformPlant(), platform_gains(), 0.0,
                             LevelingConfig(episode_window=600.0),
                             rng=np.random.default_rng(7))
    assert trace.max_estimation_error < 0.5
    assert trace.recalibrated.sum() == 0  # shielded drift never hits 5 deg here
    assert summary.resets == ()


def test_episode_reading_is_tilt_plus_bias_plus_noise():
    # no drift, no noise: the IMU reads the true tilt, from t = 0
    _, trace = episode(PlatformPlant(), platform_gains(), 3.5, record(1.0))
    assert trace.t[0] == 0.0 and trace.alpha_raw[0] == 3.5
    assert np.array_equal(trace.alpha_raw, trace.tilt)
    # a preloaded bias: 100 s at 0.02 deg/s is 2 deg open-air, 0.8 deg
    # shielded, and the bias keeps growing by one tick of drift per tick
    for shielded, bias in ((False, 2.0), (True, 0.8)):
        lv = record(1.0, drift_rate=0.02, shielded=shielded)
        preload = drift_update(lv, 0.0, 100.0)
        _, trace = episode(PlatformPlant(), platform_gains(), 3.5, lv, bias=preload)
        growth = np.arange(len(trace.t)) * lv.effective_rate * 0.01
        assert trace.alpha_raw - trace.tilt == pytest.approx(bias + growth)
    # noise adds the generator's normal draws in tick order
    _, trace = episode(PlatformPlant(), platform_gains(), 3.5, replace(lv, noise_std=0.05),
                       bias=preload, rng=np.random.default_rng(4))
    noise = np.random.default_rng(4).normal(0.0, 0.05, size=len(trace.t))
    assert trace.alpha_raw - trace.tilt == pytest.approx(bias + growth + noise)


def test_controller_wrapper_matches_piecewise_calls():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.1)
    ctl = LevelingController(gains)
    u1, f1, r1 = ctl.update(0.0, 1.0)
    u2, f2, r2 = ctl.update(0.01, 0.8)
    assert f1 == 1.0 and f2 == 0.9
    assert not r1 and not r2
    assert u2 != u1


def test_episode_rejects_bad_inputs():
    # the leveling record rejects a budget no episode can run
    for window, tick, depth in ((1.0, 0.0, 5), (1.0, -0.01, 5), (0.0, 0.01, 5),
                                (0.004, 0.01, 5), (0.01, 0.01, 5), (1.0, 0.01, 0)):
        with pytest.raises(ValueError):
            record(window, tick, filter_window=depth)
    with pytest.raises(ValueError, match="non-finite"):
        episode(PlatformPlant(), PidGains(1.0, 0.0, 0.0), math.nan, record(1.0))
    for bias in (-0.1, math.nan):
        with pytest.raises(ValueError, match="bias cannot be negative"):
            episode(PlatformPlant(), PidGains(1.0, 0.0, 0.0), 1.0,
                    record(1.0, drift_rate=1.0), bias=bias)


def test_episode_rejects_negative_or_nan_noise():
    # each fails `> 0`, so an episode would run silently noise- or drift-free
    for rate in (-0.05, -math.inf, math.nan):
        for field in ("noise_std", "drift_rate"):
            with pytest.raises(ValueError, match="noise and drift rates must be non-negative"):
                record(1.0, **{field: rate})


@pytest.mark.parametrize("plant", PROBE_PLANTS[1:], ids=repr)
def test_episode_on_delayed_integrator_matches_stepping_oracle(plant):
    # the integrator has no lag (tau 0) and a gain: with tuned gains, noise and
    # open-air drift the episode equals the stepping integrator bit for bit
    # (the gains 0.5, 1 and 2 scale exactly, so the oracle's gain*u*dt and the
    # episode's u*(gain*tick) agree)
    gains = ziegler_nichols(*find_ultimate_gain(plant), "classic")  # no integral clamp
    lv = record(2.0, 0.002, noise_std=0.05, drift_rate=0.3, shielded=False,
                reset_threshold=0.4)
    summary = assert_episode_matches_reference(plant, gains, 10.0, lv, 5)
    assert summary.settle_time is not None and summary.resets


def test_delay_beyond_the_run_costs_no_memory():
    # a command delayed past the last tick is never read, so a delay line
    # longer than the run changes nothing, and it is not built
    gains = platform_gains()
    just_past, far = PlatformPlant(delay=12.01), PlatformPlant(delay=1e3)
    lv = LevelingConfig()
    tracemalloc.start()
    try:
        for gain in (0.5, 21.0):
            probe = leveling._probe_oscillation(far, gain)
            assert probe == leveling._probe_oscillation(just_past, gain)
        summary = run_leveling_episode(far, gains, 10.0, lv, rng=np.random.default_rng(3))
        assert summary == run_leveling_episode(PlatformPlant(delay=4.01), gains, 10.0, lv,
                                               rng=np.random.default_rng(3))
        # the unbounded line would hold 500,000 entries (4 MB) in the probe
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    assert summary.settle_time is None and summary.final_tilt == 10.0


# ------------------------------------------------- flat loop vs reference

TRACE_ARRAYS = ("t", "tilt", "alpha_raw", "alpha_filtered", "u", "recalibrated",
                "saturated")

# leveling records with no drift, shielded drift or open-air drift
MONITORS = st.builds(
    LevelingConfig,
    drift_rate=st.just(0.0) | st.floats(0.0, 3.0),
    shielded=st.booleans(),
    reset_threshold=st.floats(0.2, 5.0),
)


def assert_same_trace(flat, ref):
    """Every array equal in dtype and value (NaN equal to NaN), and the band."""
    for name in TRACE_ARRAYS:
        got, want = getattr(flat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want, equal_nan=want.dtype == float), name
    assert flat.band == ref.band


def assert_summary_of(summary, ref):
    """The summary holds the oracle trace's values bit for bit, as the types
    the trace's properties give."""
    settle = ref.response_time
    assert summary.settle_time == settle and type(summary.settle_time) is type(settle)
    assert summary.sse == ref.steady_state_error and type(summary.sse) is float
    assert summary.final_tilt == float(ref.tilt[-1]) and type(summary.final_tilt) is float
    assert summary.saturated_ticks == int(ref.saturated.sum())
    assert summary.resets == tuple(np.flatnonzero(ref.recalibrated).tolist())


def assert_episode_matches_reference(plant, gains, slope, lv, seed, **kwargs):
    """Production summary and rows against the stepping oracle on the same
    inputs and generator seed; returns the summary."""
    rng_flat, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = reference_episode(stepping(plant), gains, slope, lv, rng=rng_ref, **kwargs)
    summary, flat = episode(plant, gains, slope, lv, rng=rng_flat, **kwargs)
    assert_same_trace(flat, ref)
    assert_summary_of(summary, ref)
    assert rng_flat.bit_generator.state == rng_ref.bit_generator.state
    return summary


@settings(max_examples=150, deadline=None)
@given(
    max_rate=st.floats(0.5, 20.0) | st.just(math.inf),
    delay=st.just(0.0) | st.floats(0.0, 0.2),
    tau=st.floats(0.005, 1.0),
    kp=st.floats(0.0, 3.0), ki=st.floats(0.0, 3.0), kd=st.floats(0.0, 0.2),
    limit=st.none() | st.floats(0.05, 5.0),
    slope=st.floats(-12.0, 12.0),
    duration=st.floats(0.06, 3.0),
    tick=st.floats(0.002, 0.05),
    window=st.integers(1, 9),
    noise_std=st.sampled_from([0.0, 0.05, 0.3]),
    drift=MONITORS,
    bias=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_episode_matches_reference(max_rate, delay, tau, kp, ki, kd, limit, slope,
                                        duration, tick, window, noise_std, drift, bias, seed):
    gains = PidGains(kp, ki, kd, integral_limit=limit)
    lv = replace(drift, episode_window=duration, episode_tick=tick, filter_window=window,
                 noise_std=noise_std, level_band=0.3)
    plant = PlatformPlant(max_rate, delay, tau)
    try:
        assert_episode_matches_reference(plant, gains, slope, lv, seed, bias=bias)
    except ValueError:  # the loop diverged and the IMU read a non-finite tilt
        with pytest.raises(ValueError, match="non-finite"):
            reference_episode(stepping(plant), gains, slope, lv, bias=bias,
                              rng=np.random.default_rng(seed))
        with pytest.raises(ValueError, match="non-finite"):
            run_leveling_episode(plant, gains, slope, lv, bias=bias,
                                 rng=np.random.default_rng(seed))
    assert plant == PlatformPlant(max_rate, delay, tau)


def test_summary_matches_reference_over_mission_like_episodes():
    # 120 episodes at the mission's operating point (the default record):
    # tuned gains, a 4 s window of 0.01 s ticks, IMU noise, and drift that
    # either never resets or resets every half second
    gains = platform_gains()
    slow = LevelingConfig()
    fast = replace(slow, drift_rate=2.0, shielded=False, reset_threshold=1.0)
    resets = 0
    for seed in range(5):
        for slope in (-10.0, -3.0, 0.7, 2.5, 6.0, 10.0):
            for bias, lv in ((0.0, slow), (0.4, slow), (0.0, fast), (0.99, fast)):
                summary = assert_episode_matches_reference(
                    PlatformPlant(), gains, slope, lv, seed, bias=bias)
                resets += len(summary.resets)
    assert resets >= 60 * 7  # the fast drift resets 7 or 8 times per episode


def test_summary_matches_reference_at_the_edges():
    gains = platform_gains()
    check = assert_episode_matches_reference
    # fewer than 4 ticks: the steady-state tail is the last tick alone
    for window in (0.012, 0.02, 0.03):
        summary = check(PlatformPlant(), gains, 3.0, record(window), 0)
        assert summary.settle_time is None and summary.sse == summary.final_tilt == 3.0
    # never settling: the budget ends outside the band
    assert check(PlatformPlant(), gains, 10.0, record(0.5), 1).settle_time is None
    # starting inside the band and staying there
    summary = check(PlatformPlant(), gains, 0.3, record(2.0, noise_std=0.05), 2)
    assert summary.settle_time == 0.0
    # several resets inside one episode
    fast = record(4.0, drift_rate=2.0, shielded=False, reset_threshold=1.0)
    assert len(check(PlatformPlant(), gains, 5.0, fast, 3, bias=0.7).resets) >= 7
    # a saturated start: the first command already clips a slow screw
    summary = check(PlatformPlant(max_rate=0.5, delay=0.0, tau=0.01), gains, 10.0,
                    record(1.0), 4)
    assert summary.saturated_ticks == 100


def test_flat_episode_matches_reference_when_the_rate_turns_nan():
    # 207 ticks: on the last one the command overflows to -inf, the lagged
    # rate becomes inf + (-inf) = NaN, and an unclipped platform still counts
    # that as a saturated tick
    args = (PidGains(5000.0, 0.0, 0.0), 1.0, record(2.07, filter_window=1))
    ref = reference_episode(SteppingPlatform(math.inf, 0.0, 0.01), *args)
    summary, flat = episode(PlatformPlant(math.inf, 0.0, 0.01), *args)
    assert len(flat.t) == 207 and flat.u[-1] == -math.inf
    assert ref.saturated[-1] and not ref.saturated[:-1].any()
    assert_same_trace(flat, ref)
    assert_summary_of(summary, ref)


def test_plants_reject_non_finite_parameters():
    for max_rate, delay, tau in ((math.nan, 0.05, 0.15), (8.0, math.nan, 0.15),
                                 (8.0, 0.05, math.nan), (8.0, math.inf, 0.15),
                                 (8.0, 0.05, math.inf)):
        with pytest.raises(ValueError):
            PlatformPlant(max_rate, delay, tau)
    for gain, delay in ((math.nan, 0.05), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            DelayedIntegratorPlant(gain, delay)
    # an unbounded rate is a platform without clipping: the tilt falls far
    # faster than the default 8 deg/s (0.08 deg per tick) allows
    summary, trace = episode(PlatformPlant(max_rate=math.inf), PidGains(20.0, 0.0, 0.0),
                             10.0, record(1.0))
    assert not trace.saturated.any() and np.diff(trace.tilt).min() < -1.0
    assert summary.saturated_ticks == 0


def test_plants_are_frozen_parameter_records():
    plant = PlatformPlant()
    with pytest.raises(AttributeError):
        plant.tau = 0.2
    # the platform's unit gain is a class constant, not a field
    assert [f.name for f in fields(plant)] == ["max_rate", "delay", "tau"]
    assert plant.gain == 1.0
    integrator = DelayedIntegratorPlant(2.0, 0.08)
    assert (integrator.gain, integrator.delay) == (2.0, 0.08)
    assert (integrator.max_rate, integrator.tau) == (math.inf, 0.0)


# The only pinned output that reads the saturated-tick count and the filtered
# reading; the campaign digests see neither, because the mission reads only
# the settle time, the SSE, the final tilt and the resets.
TUNE_LEVELING_STDOUT = """\
platform plant (max_rate 8 deg/s, delay 0.05 s, tau 0.15 s):
  Ku = 21.000000   Tu = 0.574560 s
  Kp = 12.600000   Ki = 43.859656   Kd = 0.904932
  integral clamp = 0.182400 deg*s

10 deg step, noise free:
  response time       = 1.64 s
  steady-state error  = 0.0004 deg
  saturated ticks     = 125

10 deg step, IMU noise 0.05 deg + shielded drift:
  response time       = 1.64 s
  steady-state error  = 0.0428 deg
  max estimation gap  = 0.1913 deg

delayed-integrator cross-check (Ku = pi/(2kL), Tu = 4L):
  k=1.0 L=0.05:  Ku  31.0000 vs  31.4159  (-1.32%)   Tu 0.2036 vs 0.2000  (+1.81%)
  k=2.0 L=0.08:  Ku   9.7500 vs   9.8175  (-0.69%)   Tu 0.3235 vs 0.3200  (+1.09%)
  k=0.5 L=0.10:  Ku  31.0000 vs  31.4159  (-1.32%)   Tu 0.4044 vs 0.4000  (+1.10%)
"""


def test_tune_leveling_script_output_is_pinned(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "tune_leveling.py"
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == TUNE_LEVELING_STDOUT
