"""Tests for the tilt-stabilization loop: filter, PID, tuner, drift, episodes.

The per-tick controller pieces below (IMU sample, moving-average filter, PID
step, drift recalibration and the controller bundling them) are the reference
oracle for `run_leveling_episode`, which runs the same arithmetic as one flat
loop over plain floats: `reference_episode` composes them tick by tick and
`test_flat_episode_matches_reference` requires bit-identical traces.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot.leveling import (
    DelayedIntegratorPlant,
    DriftMonitor,
    LevelingTrace,
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
    error = gains.setpoint - measured
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


def maybe_recalibrate(mon, pid):
    """Zero the bias and the PID integral once accumulation hits the threshold."""
    if mon.cumulative_error >= mon.reset_threshold:
        return replace(mon, cumulative_error=0.0), replace(pid, integral=0.0), True
    return mon, pid, False


class LevelingController:
    """Stateful bundle of prefilter, PID, and drift monitor for loop callers."""

    def __init__(self, gains, *, window=5, monitor=None):
        self.gains = gains
        self.monitor = monitor
        self._ma = MovingAverageState(size=window)
        self._pid = PidState()

    def update(self, t, alpha_raw):
        """Consume one raw reading; returns (command, filtered, recalibrated)."""
        self._ma, filtered = moving_average_step(self._ma, ImuSample(t, alpha_raw))
        recal = False
        if self.monitor is not None:
            self.monitor, self._pid, recal = maybe_recalibrate(self.monitor, self._pid)
        self._pid, command = pid_step(self.gains, self._pid, filtered, t)
        return command, filtered, recal


def reference_episode(plant, gains, slope, duration, tick=0.01, *, window=5,
                      noise_std=0.0, drift=None, rng=None, band=0.5):
    """`run_leveling_episode` one controller update and one noise draw per tick."""
    if tick <= 0:
        raise ValueError("tick must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    steps = int(round(duration / tick))
    if noise_std > 0 and rng is None:
        rng = np.random.default_rng(0)

    plant.reset(slope)
    controller = LevelingController(gains, window=window, monitor=drift)
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
        if controller.monitor is not None and n > 0:
            controller.monitor = drift_update(controller.monitor, tick)
        bias = controller.monitor.cumulative_error if controller.monitor else 0.0
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
                         saturated=out_sat, band=band)


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


def test_pid_integral_clamp():
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0, integral_limit=0.5)
    state = PidState()
    for t in range(10):
        state, u = pid_step(gains, state, measured=-10.0, t=float(t))
    assert state.integral == 0.5
    assert u == 0.5


@given(st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=20))
def test_pid_zero_error_is_inert(dts):
    gains = PidGains(kp=2.0, ki=1.0, kd=0.5, setpoint=1.5)
    state = PidState()
    t = 0.0
    for dt in dts:
        t += dt
        state, u = pid_step(gains, state, measured=1.5, t=t)
        assert u == 0.0
        assert state.integral == 0.0
        assert state.prev_error == 0.0


# ------------------------------------------------------------------- ZN

def test_zn_classic_table():
    g = ziegler_nichols(10.0, 2.0)
    assert (g.kp, g.ki, g.kd) == (6.0, 6.0, 1.5)


def test_zn_classic_unit_point():
    g = ziegler_nichols(1.0, 1.0)
    assert (g.kp, g.ki, g.kd) == pytest.approx((0.6, 1.2, 0.075))


@given(st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.5, 4.0))
def test_zn_linear_in_ku(ku, tu, c):
    g1 = ziegler_nichols(ku, tu)
    g2 = ziegler_nichols(c * ku, tu)
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
        ziegler_nichols(0.0, 1.0)
    with pytest.raises(ValueError):
        ziegler_nichols(1.0, -1.0)
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


def test_stable_lag_plant_never_oscillates():
    with pytest.raises(NoOscillation):
        find_ultimate_gain(FirstOrderLagPlant(), gain_cap=1e3)


def test_tuned_gains_stabilize_delayed_integrator():
    plant = DelayedIntegratorPlant(gain=1.0, delay=0.05)
    gains, ku, tu = tune_leveling(plant)
    trace = run_leveling_episode(DelayedIntegratorPlant(1.0, 0.05), gains, 10.0, 6.0, 0.002)
    assert trace.steady_state_error < 0.4


# ------------------------------------------------------------- drift

def test_drift_unshielded_accumulation():
    mon = DriftMonitor(drift_rate=1.0)
    assert drift_update(mon, 3.0).cumulative_error == 3.0


def test_drift_shielding_cuts_rate_to_exactly_point_four():
    mon = DriftMonitor(drift_rate=1.0, shielded=True)
    assert mon.effective_rate == 0.4 * mon.drift_rate
    assert drift_update(mon, 3.0).cumulative_error == pytest.approx(1.2)


def test_drift_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        drift_update(DriftMonitor(drift_rate=1.0), 0.0)


@given(st.floats(1e-6, 100.0), st.floats(1e-6, 100.0), st.floats(0.0, 0.01))
def test_drift_update_is_additive(dt1, dt2, rate):
    mon = DriftMonitor(drift_rate=rate, shielded=True)
    split = drift_update(drift_update(mon, dt1), dt2).cumulative_error
    joint = drift_update(mon, dt1 + dt2).cumulative_error
    assert split == pytest.approx(joint, rel=1e-9, abs=1e-15)


@given(st.floats(1e-3, 1.0), st.integers(1, 500), st.floats(0.0, 2.0), st.booleans())
def test_drift_n_tick_call_equals_n_one_tick_calls(dt, n, rate, shielded):
    mon = DriftMonitor(drift_rate=rate, shielded=shielded, cumulative_error=0.25)
    stepped = mon
    for _ in range(n):
        stepped = drift_update(stepped, dt)
    assert drift_update(mon, dt, n) == stepped


def test_recalibrate_fires_at_threshold():
    mon = DriftMonitor(drift_rate=1.0, cumulative_error=5.1)
    pid = PidState(integral=2.0, prev_error=0.3, prev_t=9.0)
    mon2, pid2, fired = maybe_recalibrate(mon, pid)
    assert fired
    assert mon2.cumulative_error == 0.0
    assert pid2.integral == 0.0
    assert pid2.prev_t == 9.0  # only the integral resets


def test_recalibrate_exact_threshold_crossing():
    mon = DriftMonitor(drift_rate=1.0)
    for _ in range(5):
        mon, _, fired = maybe_recalibrate(drift_update(mon, 1.0), PidState())
    assert fired  # hits 5.0 exactly on the fifth second
    assert mon.cumulative_error == 0.0


def test_recalibrate_below_threshold_is_noop():
    mon = DriftMonitor(drift_rate=1.0, cumulative_error=4.9)
    pid = PidState(integral=2.0)
    mon2, pid2, fired = maybe_recalibrate(mon, pid)
    assert not fired
    assert mon2 == mon and pid2 == pid


def test_recalibrate_idempotent_after_reset():
    mon = DriftMonitor(drift_rate=1.0, cumulative_error=6.0)
    mon, pid, _ = maybe_recalibrate(mon, PidState())
    _, _, fired = maybe_recalibrate(mon, pid)
    assert not fired


# ----------------------------------------------------------- episodes

def platform_gains():
    gains, _, _ = tune_leveling(PlatformPlant(), integral_authority=8.0)
    return gains


def test_episode_level_start_is_trivially_settled():
    trace = run_leveling_episode(PlatformPlant(), platform_gains(), 0.0, 2.0, 0.01)
    assert trace.response_time == 0.0
    assert trace.steady_state_error == 0.0


def test_episode_ten_degree_step_meets_budget():
    trace = run_leveling_episode(PlatformPlant(), platform_gains(), 10.0, 8.0, 0.01)
    assert 1.3 <= trace.response_time <= 2.3
    assert trace.steady_state_error <= 0.4


def test_episode_records_saturation_events():
    trace = run_leveling_episode(PlatformPlant(), platform_gains(), 10.0, 8.0, 0.01)
    assert trace.saturated.any()  # 10 deg at 8 deg/s must clip for over a second
    assert trace.saturated.sum() >= 100


def test_episode_envelope_decays_monotonically():
    trace = run_leveling_episode(PlatformPlant(), platform_gains(), 10.0, 8.0, 0.01)
    a = np.abs(trace.tilt)
    peaks = [a[i] for i in range(1, len(a) - 1) if a[i] > a[i - 1] and a[i] >= a[i + 1]]
    assert all(peaks[i + 1] <= peaks[i] + 1e-9 for i in range(len(peaks) - 1))


def test_episode_doubling_kp_does_not_raise_sse_on_linear_plant():
    lo = run_leveling_episode(FirstOrderLagPlant(1.0, 0.5), PidGains(0.5, 0, 0), 1.0, 2.0, 0.01)
    hi = run_leveling_episode(FirstOrderLagPlant(1.0, 0.5), PidGains(1.0, 0, 0), 1.0, 2.0, 0.01)
    assert hi.steady_state_error <= lo.steady_state_error


def test_episode_recalibration_mid_run():
    # fast unshielded drift forces a reset well inside the episode
    mon = DriftMonitor(drift_rate=0.5, shielded=False)
    trace = run_leveling_episode(
        PlatformPlant(), platform_gains(), 0.0, 15.0, 0.01, drift=mon
    )
    assert trace.recalibrated.sum() >= 1
    first = int(np.flatnonzero(trace.recalibrated)[0])
    # bias ramps to the 5 deg threshold; the reading taken on the reset tick
    # still carries it, and the next tick starts from zero again
    assert trace.alpha_raw[first] - trace.tilt[first] == pytest.approx(5.0, abs=0.01)
    assert abs(trace.alpha_raw[first + 1] - trace.tilt[first + 1]) < 0.01


def test_episode_ten_minutes_estimation_error_within_half_degree():
    mon = DriftMonitor(drift_rate=0.0015, shielded=True)
    trace = run_leveling_episode(
        PlatformPlant(), platform_gains(), 0.0, 600.0, 0.01,
        noise_std=0.05, drift=mon, rng=np.random.default_rng(7),
    )
    assert trace.max_estimation_error < 0.5
    assert trace.recalibrated.sum() == 0  # shielded drift never hits 5 deg here


def test_episode_reading_is_tilt_plus_bias_plus_noise():
    # no drift, no noise: the IMU reads the true tilt, from t = 0
    trace = run_leveling_episode(PlatformPlant(), platform_gains(), 3.5, 1.0, 0.01)
    assert trace.t[0] == 0.0 and trace.alpha_raw[0] == 3.5
    assert np.array_equal(trace.alpha_raw, trace.tilt)
    # a preloaded monitor: 100 s at 0.02 deg/s is 2 deg open-air, 0.8 deg
    # shielded, and the bias keeps growing by one tick of drift per tick
    for shielded, bias in ((False, 2.0), (True, 0.8)):
        mon = drift_update(DriftMonitor(drift_rate=0.02, shielded=shielded), 100.0)
        trace = run_leveling_episode(
            PlatformPlant(), platform_gains(), 3.5, 1.0, 0.01, drift=mon)
        growth = np.arange(len(trace.t)) * mon.effective_rate * 0.01
        assert trace.alpha_raw - trace.tilt == pytest.approx(bias + growth)
    # noise adds the generator's normal draws in tick order
    trace = run_leveling_episode(
        PlatformPlant(), platform_gains(), 3.5, 1.0, 0.01,
        noise_std=0.05, drift=mon, rng=np.random.default_rng(4))
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
    gains = PidGains(1.0, 0.0, 0.0)
    for duration, tick, window in ((1.0, 0.0, 5), (1.0, -0.01, 5), (0.0, 0.01, 5),
                                   (0.004, 0.01, 5), (1.0, 0.01, 0)):
        with pytest.raises(ValueError):
            run_leveling_episode(PlatformPlant(), gains, 1.0, duration, tick,
                                 window=window)
    with pytest.raises(ValueError, match="non-finite"):
        run_leveling_episode(PlatformPlant(), gains, math.nan, 1.0, 0.01)


# ------------------------------------------------- flat loop vs reference

PLANTS = {
    "platform": lambda: PlatformPlant(max_rate=6.0, delay=0.04, tau=0.12),
    "integrator": lambda: DelayedIntegratorPlant(gain=1.5, delay=0.03),
    "lag": lambda: FirstOrderLagPlant(gain=2.0, tau=0.2),
}

TRACE_ARRAYS = ("t", "tilt", "alpha_raw", "alpha_filtered", "u", "recalibrated",
                "saturated")

MONITORS = st.builds(
    DriftMonitor,
    drift_rate=st.floats(0.0, 3.0),
    shielded=st.booleans(),
    reset_threshold=st.floats(0.2, 5.0),
    cumulative_error=st.floats(0.0, 6.0),
)


@settings(max_examples=150, deadline=None)
@given(
    plant=st.sampled_from(sorted(PLANTS)),
    kp=st.floats(0.0, 3.0), ki=st.floats(0.0, 3.0), kd=st.floats(0.0, 0.2),
    limit=st.none() | st.floats(0.05, 5.0),
    slope=st.floats(-12.0, 12.0),
    duration=st.floats(0.05, 3.0),
    tick=st.floats(0.002, 0.05),
    window=st.integers(1, 9),
    noise_std=st.sampled_from([0.0, 0.05, 0.3]),
    drift=st.none() | MONITORS,
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_episode_matches_reference(plant, kp, ki, kd, limit, slope, duration,
                                        tick, window, noise_std, drift, seed):
    gains = PidGains(kp, ki, kd, integral_limit=limit)
    rng_flat, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    kwargs = dict(window=window, noise_std=noise_std, drift=drift, band=0.3)
    try:
        ref = reference_episode(PLANTS[plant](), gains, slope, duration, tick,
                                rng=rng_ref, **kwargs)
    except ValueError:  # the loop diverged and the IMU read a non-finite tilt
        with pytest.raises(ValueError, match="non-finite"):
            run_leveling_episode(PLANTS[plant](), gains, slope, duration, tick,
                                 rng=rng_flat, **kwargs)
        return
    flat = run_leveling_episode(PLANTS[plant](), gains, slope, duration, tick,
                                rng=rng_flat, **kwargs)
    for name in TRACE_ARRAYS:
        got, want = getattr(flat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert flat.band == ref.band
    assert rng_flat.bit_generator.state == rng_ref.bit_generator.state
