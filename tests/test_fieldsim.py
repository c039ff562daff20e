"""Tests for the physical models: layouts, detector, IMU, pump, battery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irribot import fieldsim
from irribot.config import default_config, environment_for
from irribot.detect import CIRCULAR, RECTANGULAR, enhanced_detection
from irribot.fieldsim import (
    ENV_COMPLEX,
    ENV_HILLY,
    ENV_NAMES,
    ENV_STANDARD,
    BatteryModel,
    Environment,
    LayoutError,
    LayoutSpec,
    Pot,
    PotLayout,
    PumpConfig,
    _PCG64Draws,
    _service_order,
    battery_step,
    capture_fraction,
    dispense,
    grid_layout,
    pumped_volume,
    random_layout,
    realize_layout,
    simulate_detection,
)
from irribot.kinematics import CalibrationState
from irribot.leveling import (
    LevelingConfig,
    PlatformPlant,
    drift_update,
    run_leveling_episode,
    ziegler_nichols,
)

CAL = CalibrationState(s=0.1, u0=2000.0, v0=1500.0, delta_x=0.0, z_const=150.0)


def overlap_oracle(pot, ox, oy, r, n=1500):
    """Grid-count estimate of the spray-disk capture fraction."""
    xs = np.linspace(ox - r, ox + r, n)
    ys = np.linspace(oy - r, oy + r, n)
    x, y = np.meshgrid(xs, ys)
    in_spray = (x - ox) ** 2 + (y - oy) ** 2 <= r * r
    if pot.shape == CIRCULAR:
        in_pot = x**2 + y**2 <= pot.radius**2
    else:
        in_pot = (np.abs(x) <= pot.width / 2) & (np.abs(y) <= pot.height / 2)
    return float((in_spray & in_pot).sum()) / float(in_spray.sum())


CIRC_POT = Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0)
RECT_POT = Pot(1, 0.0, 0.0, RECTANGULAR, 120.0, 80.0)


# ------------------------------------------------------------------ layout

ROUND = (CIRCULAR, 100.0, 100.0)  # shape, width and height of a 100 mm round pot


def grid(count, spacing=600.0):
    """A grid of round pots, at the standard greenhouse's pitch by default."""
    return grid_layout(count, spacing, *ROUND)


def scatter(count, rng, nn_range=(400.0, 800.0)):
    """A random layout of round pots, in complex lighting's window by default."""
    return random_layout(count, rng, nn_range, *ROUND)


def test_grid_layout_default_shape():
    # the default config's standard greenhouse: 20 round pots, 600 mm apart
    layout = realize_layout(environment_for(default_config(), ENV_STANDARD).layout, None)
    assert len(layout.pots) == 20
    assert {p.shape for p in layout.pots} == {CIRCULAR}
    assert {(p.x, p.y) for p in layout.pots} == {
        (c * 600.0, r * 600.0) for r in range(4) for c in range(5)
    }


def test_grid_layout_orders_pots_along_serpentine_path():
    # consecutive pots are exactly one pitch apart, including row turns
    layout = grid(20)
    for a, b in zip(layout.pots, layout.pots[1:]):
        assert math.hypot(b.x - a.x, b.y - a.y) == 600.0


def test_random_layout_spacing_window():
    rng = np.random.default_rng(3)
    layout = scatter(20, rng)
    pts = [(p.x, p.y) for p in layout.pots]
    for i, (xi, yi) in enumerate(pts):
        dists = [math.hypot(xi - xj, yi - yj) for j, (xj, yj) in enumerate(pts) if j != i]
        assert min(dists) >= 400.0 - 1e-9
        assert min(dists) <= 800.0 + 1e-9  # every pot has a window-range neighbor


def test_random_layout_bounded_attempts(monkeypatch):
    monkeypatch.setattr(fieldsim, "MAX_PLACEMENT_ATTEMPTS", 2)
    with pytest.raises(LayoutError, match="within 2 attempts"):
        scatter(5, np.random.default_rng(0))


def test_random_layout_deterministic():
    a = scatter(10, np.random.default_rng(11))
    b = scatter(10, np.random.default_rng(11))
    assert a == b


def test_pot_validation():
    with pytest.raises(ValueError):
        Pot(0, 0, 0, CIRCULAR, 100.0, 80.0)  # circular pots are round
    with pytest.raises(ValueError):
        Pot(0, 0, 0, "hexagonal", 100.0, 100.0)


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("build", [
    grid_layout,
    lambda n, pitch, *pot: random_layout(n, np.random.default_rng(0), (pitch, 2 * pitch), *pot),
])
def test_layout_builders_reject_counts_below_one(build, count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        build(count, 600.0, *ROUND)


# ------------------------------------------------- bulk draws vs numpy calls
# _PCG64Draws must return what rng.integers(n) / rng.uniform(lo, hi) return
# and leave the generator in the state those calls leave it in.


def twin_generators(seed, buffered):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # one 32-bit draw leaves the high half of an output buffered
        a.integers(7)
        b.integers(7)
    return a, b


def assert_twins_agree(rng, ref):
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(1000, size=5).tolist() == ref.integers(1000, size=5).tolist()
    assert rng.random() == ref.random()


# b: below(n), u: uniform; odd and even counts of b, entered with and without a
# buffered half, end both with and without one
PATTERNS = ["b", "bb", "bub", "ububbbu", "u", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbu"]


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("n", [1, 2, 800, 2**31 + 5, 3_000_000_000])
def test_bulk_draws_match_scalar_calls(n, buffered, pattern):
    for seed in range(4):
        rng, ref = twin_generators(seed, buffered)
        got, want = [], []
        with _PCG64Draws(rng) as draws:
            for k, op in enumerate(pattern):
                lo, hi = -3.5 * k, 2.0 * math.pi + k
                if op == "b":
                    got.append(draws.below(n))
                    want.append(int(ref.integers(n)))
                else:
                    got.append(draws.uniform(lo, hi))
                    want.append(ref.uniform(lo, hi))
            words = 2 * (draws._used - pattern.count("u")) + buffered - draws._has_half
        assert got == want
        assert_twins_agree(rng, ref)
        if n > 2**31 and len(pattern) > 20:
            # a word is rejected with p = (2**32 % n) / 2**32, 0.3 to 0.5 here
            assert words > pattern.count("b")


def test_bulk_draws_restore_the_generator_when_placement_fails(monkeypatch):
    rng, ref = twin_generators(3, True)
    monkeypatch.setattr(fieldsim, "MAX_PLACEMENT_ATTEMPTS", 30)
    with pytest.raises(LayoutError) as got:
        scatter(40, rng)
    with pytest.raises(LayoutError) as want:
        oracle_random_layout(40, ref, (400.0, 800.0))
    assert str(got.value) == str(want.value)
    assert_twins_agree(rng, ref)


def test_bulk_draws_need_a_pcg64_generator():
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        _PCG64Draws(mt)
    with pytest.raises(TypeError, match="MT19937"):
        scatter(5, mt)


# ------------------------------------------- cell grid vs quadratic oracle
# The plain passes over every pot (or every pair), kept verbatim as the
# reference: placement's cell grid and the service order's squared-distance
# filter may only narrow the candidates, never change a result, a generator
# draw or an error message.


def oracle_pair_check(pots, min_spacing):
    for i in range(len(pots)):
        for j in range(i + 1, len(pots)):
            d = math.hypot(pots[i].x - pots[j].x, pots[i].y - pots[j].y)
            if d < min_spacing - 1e-9:
                raise ValueError(
                    f"pots {pots[i].pot_id} and {pots[j].pot_id} are {d:.1f} mm "
                    f"apart, below the {min_spacing} mm floor"
                )


def oracle_service_order(xs, ys):
    remaining = list(range(1, len(xs)))
    chain = [0]
    while remaining:
        last = chain[-1]
        nearest = min(remaining, key=lambda i: math.hypot(xs[i] - xs[last], ys[i] - ys[last]))
        remaining.remove(nearest)
        chain.append(nearest)
    return chain


def coordinates(pots):
    return [p.x for p in pots], [p.y for p in pots]


def oracle_random_layout(count, rng, nn_range):
    """(pots, min_spacing) of random_layout, placed by scanning every pot,
    with the attempt budget `fieldsim` holds when it is called."""
    max_attempts = fieldsim.MAX_PLACEMENT_ATTEMPTS
    lo, hi = nn_range
    pots = [Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0)]
    attempts = 0
    while len(pots) < count:
        attempts += 1
        if attempts > max_attempts:
            raise LayoutError(f"failed to place pot {len(pots)} within {max_attempts} attempts")
        anchor = pots[int(rng.integers(len(pots)))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(lo, hi)
        x = anchor.x + dist * math.cos(angle)
        y = anchor.y + dist * math.sin(angle)
        if all(math.hypot(p.x - x, p.y - y) >= lo for p in pots):
            pots.append(Pot(len(pots), x, y, CIRCULAR, 100.0, 100.0))
    order = oracle_service_order(*coordinates(pots))
    ordered = tuple(dataclasses.replace(pots[k], pot_id=i) for i, k in enumerate(order))
    oracle_pair_check(ordered, lo)
    return ordered, lo


def outcome(fn, *args, **kwargs):
    """What a layout call returns, or the text of the LayoutError it raises."""
    try:
        return fn(*args, **kwargs)
    except LayoutError as exc:
        return f"LayoutError: {exc}"


def assert_same_placement(count, seed, nn_range=(400.0, 800.0),
                          max_attempts=fieldsim.MAX_PLACEMENT_ATTEMPTS):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldsim, "MAX_PLACEMENT_ATTEMPTS", max_attempts)
        got = outcome(scatter, count, rng, nn_range)
        want = outcome(oracle_random_layout, count, ref_rng, nn_range)
    if isinstance(got, PotLayout):
        got = (got.pots, got.min_spacing)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(20.0, 600.0),
       st.floats(1.01, 3.0), st.sampled_from([10000, 300, 20]))
@settings(max_examples=40, deadline=None)
def test_random_layout_matches_quadratic_oracle(count, seed, lo, ratio, max_attempts):
    assert_same_placement(count, seed, (lo, lo * ratio), max_attempts)


@pytest.mark.parametrize("count, seed", [(800, 42), (800, 1044), (985, 0), (1030, 0)])
def test_large_random_layouts_match_quadratic_oracle(count, seed):
    # 1030 pots with seed 0 runs out of attempts: the error text must match
    assert_same_placement(count, seed)


def lattice_pot(k, i, j, pitch):
    return Pot(k, i * pitch, j * pitch, CIRCULAR, 100.0, 100.0)


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1,
                max_size=80, unique=True),
       st.sampled_from([400.0, 600.0, 1000.0]))
@settings(max_examples=150, deadline=None)
def test_service_order_ties_go_to_the_pot_placed_first(cells, pitch):
    # lattice points: many pots at exactly equal distance from the last one
    pots = [lattice_pot(k, i, j, pitch) for k, (i, j) in enumerate(cells)]
    xs, ys = coordinates(pots)
    assert _service_order(xs, ys) == oracle_service_order(xs, ys)


def test_service_order_tie_between_mirror_images():
    pots = [lattice_pot(0, 0, 0, 500.0), lattice_pot(1, 1, 0, 500.0),
            lattice_pot(2, -1, 0, 500.0), lattice_pot(3, 0, -1, 500.0)]
    for order in (pots, [pots[0], pots[2], pots[1], pots[3]], [pots[0], *pots[:0:-1]]):
        xs, ys = coordinates(order)
        chain = _service_order(xs, ys)
        assert chain[1] == 1
        assert chain == oracle_service_order(xs, ys)


@pytest.mark.parametrize("first, second", [
    # squared distances and np.hypot tie; math.hypot puts the second nearer
    ((-82.82201145835533, 465.0436147852859), (-241.15870632177467, -406.1619475034329)),
    # squared distances tie; math.hypot puts the second nearer
    ((578.9645110674766, -301.08719313038216), (598.8398408842886, -259.3149589059877)),
])
def test_service_order_near_ties_go_by_math_hypot(first, second):
    xs, ys = [0.0, first[0], second[0]], [0.0, first[1], second[1]]
    assert math.hypot(*second) < math.hypot(*first)
    assert first[0] ** 2 + first[1] ** 2 == second[0] ** 2 + second[1] ** 2
    assert _service_order(xs, ys) == oracle_service_order(xs, ys) == [0, 2, 1]


def test_grid_layout_of_20000_pots_builds():
    layout = grid(20000)
    assert len(layout.pots) == 20000
    assert len({(p.x, p.y) for p in layout.pots}) == 20000


# The spacing invariant PotLayout states holds by construction: no layout
# builder places a pair of pots closer than min_spacing.


@given(st.integers(1, 120), st.floats(20.0, 1000.0))
@settings(max_examples=30, deadline=None)
def test_grid_layout_keeps_min_spacing(count, spacing):
    layout = grid(count, spacing)
    assert len(layout.pots) == count and layout.min_spacing == spacing
    oracle_pair_check(layout.pots, layout.min_spacing)


@given(st.integers(1, 120), st.integers(0, 2**32 - 1), st.floats(20.0, 1000.0),
       st.floats(1.01, 3.0))
@settings(max_examples=30, deadline=None)
def test_random_layout_keeps_min_spacing(count, seed, spacing, ratio):
    # random_layout rejects every candidate that would crowd a placed pot
    layout = outcome(scatter, count, np.random.default_rng(seed), (spacing, spacing * ratio))
    assume(isinstance(layout, PotLayout))
    assert len(layout.pots) == count and layout.min_spacing == spacing
    oracle_pair_check(layout.pots, layout.min_spacing)


def test_layout_rejects_non_finite_inputs():
    with pytest.raises(ValueError):
        Pot(0, math.nan, 0.0, CIRCULAR, 100.0, 100.0)
    with pytest.raises(ValueError):
        PotLayout(pots=(), min_spacing=math.inf)
    with pytest.raises(ValueError):
        scatter(3, np.random.default_rng(0), (400.0, math.inf))


# ------------------------------------------------------------ environments

def test_build_standard_environment():
    env = environment_for(default_config(), ENV_STANDARD)
    assert env.slope == 0.0
    assert env.tuning.accuracy == 0.987
    assert env.layout.kind == "grid" and env.layout.shape == CIRCULAR


def test_build_hilly_environment():
    env = environment_for(default_config(), ENV_HILLY)
    assert env.slope == 10.0
    assert env.layout.shape == RECTANGULAR
    assert (env.layout.width, env.layout.height) == (120.0, 80.0)


def test_build_complex_environment():
    env = environment_for(default_config(), ENV_COMPLEX)
    assert env.layout.kind == "random"
    assert env.layout.nn_range == (400.0, 800.0)
    layout = realize_layout(env.layout, np.random.default_rng(5))
    assert len(layout.pots) == 20


def test_build_unknown_environment():
    with pytest.raises(ValueError, match=", ".join(ENV_NAMES)):
        environment_for(default_config(), "lunar_regolith")


def tuning(**fields):
    """The standard greenhouse's operating point with `fields` replaced."""
    return dataclasses.replace(default_config().environments.standard_greenhouse, **fields)


def test_environment_validation():
    spec = LayoutSpec("grid", 20, *ROUND, spacing=600.0)
    Environment("x", 0.0, spec, tuning())
    with pytest.raises(ValueError, match="slope"):
        Environment("x", -1.0, spec, tuning())


def test_environment_tuning_is_the_config_record():
    cfg = default_config()
    for name in ENV_NAMES:
        assert environment_for(cfg, name).tuning is getattr(cfg.environments, name)


def check_bounds(*bounds):
    """Each (field, bad values, message): every value is rejected with the message."""
    for field, values, message in bounds:
        for value in values:
            with pytest.raises(ValueError) as err:
                tuning(**{field: value})
            assert str(err.value) == message


def test_detector_profile_bounds():
    check_bounds(
        ("accuracy", (1.5, -0.1, math.nan), "accuracy must be in [0, 1]"),
        ("fp_rate", (-0.1, 1.5, math.nan), "fp_rate must be in [0, 1]"),
        ("inference_time_ms", (-1.0, math.nan), "inference_time_ms must be non-negative"),
        ("center_noise_px", (-1.0, math.nan), "center_noise_px must be non-negative"),
    )
    assert tuning(accuracy=0.0, fp_rate=1.0, inference_time_ms=0.0, center_noise_px=0.0)


def test_dispense_and_drive_bounds():
    check_bounds(
        ("dispense_overshoot", (-0.01, 1.0, math.nan), "dispense_overshoot must be in [0, 1)"),
        ("spray_efficiency", (0.0, 1.01, math.nan), "spray_efficiency must be in (0, 1]"),
        ("drive_speed", (0.0, -1.0, math.nan), "drive_speed must be positive"),
    )
    assert tuning(dispense_overshoot=0.0, spray_efficiency=1.0)


@pytest.mark.parametrize("field", ["flow_rate", "spray_radius", "target_volume"])
def test_pump_bounds(field):
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            PumpConfig(**{field: value})


# --------------------------------------------------------------- detector

def detector(accuracy, fp_rate):
    """An operating point with this detector and 10 px of center scatter."""
    return tuning(accuracy=accuracy, fp_rate=fp_rate, center_noise_px=10.0)


CIRC_IN_SERVICE = Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0)
RECT_IN_SERVICE = Pot(1, 600.0, -600.0, RECTANGULAR, 120.0, 80.0)


def test_perfect_detector_returns_exactly_the_pots():
    profile = detector(accuracy=1.0, fp_rate=0.0)
    for pot in (CIRC_IN_SERVICE, RECT_IN_SERVICE):
        dets = simulate_detection(pot, profile, np.random.default_rng(0), CAL)
        assert [d.cls for d in dets] == [pot.shape]


def test_found_pot_is_boxed_at_the_principal_point():
    # the production geometry: the pot in service sits under the camera, so
    # neither its field position nor the hand-eye offset moves its box; u0
    # and v0 are picked so that the box's edges sum back to twice its center
    cal = CalibrationState(s=0.08, u0=1024.0, v0=768.0, delta_x=137.5, delta_y=-42.25,
                           z_const=150.0)
    profile = tuning(accuracy=1.0, fp_rate=0.0, center_noise_px=0.0)
    for pot in (CIRC_IN_SERVICE, RECT_IN_SERVICE):
        for seed in range(50):
            (det,) = simulate_detection(pot, profile, np.random.default_rng(seed), cal)
            assert det.bbox.center == (cal.u0, cal.v0), (pot.shape, seed)


def test_blind_detector_returns_nothing():
    profile = detector(accuracy=0.0, fp_rate=0.0)
    dets = simulate_detection(CIRC_IN_SERVICE, profile, np.random.default_rng(0), CAL)
    assert dets == []


def test_detection_boxes_survive_the_pipeline():
    profile = detector(accuracy=1.0, fp_rate=0.0)
    rng = np.random.default_rng(42)
    for _ in range(200):
        dets = simulate_detection(CIRC_IN_SERVICE, profile, rng, CAL)
        assert len(enhanced_detection(dets, 0.5, 0.3)) == len(dets) == 1


def test_spurious_detections_survive_the_pipeline_and_keep_distance():
    profile = detector(accuracy=1.0, fp_rate=1.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        dets = simulate_detection(CIRC_IN_SERVICE, profile, rng, CAL)
        assert len(dets) == 2
        assert len(enhanced_detection(dets, 0.5, 0.3)) == 2
        fp = dets[1]
        cu, cv = fp.bbox.center
        assert math.hypot(cu - CAL.u0, cv - CAL.v0) >= 1200.0


def test_detection_rates_match_profile_over_many_frames():
    profile = detector(accuracy=0.96, fp_rate=0.035)
    rng = np.random.default_rng(123)
    frames = 10_000
    hits = fps = 0
    for _ in range(frames):
        dets = simulate_detection(CIRC_IN_SERVICE, profile, rng, CAL)
        tp = [d for d in dets if math.hypot(d.bbox.center[0] - CAL.u0, d.bbox.center[1] - CAL.v0) < 1000]
        hits += len(tp)
        fps += len(dets) - len(tp)
    for count, p in ((hits, profile.accuracy), (fps, profile.fp_rate)):
        sigma = math.sqrt(frames * p * (1 - p))
        assert abs(count - frames * p) <= 3 * sigma


def test_detection_deterministic_per_seed():
    profile = detector(accuracy=0.9, fp_rate=0.5)
    a = simulate_detection(CIRC_IN_SERVICE, profile, np.random.default_rng(9), CAL)
    b = simulate_detection(CIRC_IN_SERVICE, profile, np.random.default_rng(9), CAL)
    assert a == b


# -------------------------------------------------------------------- IMU
# The IMU reading is taken inside the leveling episode: the first tick reads
# true tilt plus the accumulated drift bias plus noise.

def first_reading(slope, lv=LevelingConfig(noise_std=0.0, drift_rate=0.0), bias=0.0):
    rows = []  # (t, tilt, raw reading, ...) per tick
    run_leveling_episode(PlatformPlant(), ziegler_nichols(1.0, 1.0, "classic"), slope, lv,
                         rng=np.random.default_rng(0), bias=bias, rows=rows)
    return rows[0][2]


def test_imu_clean_reading_is_truth():
    assert first_reading(3.5) == 3.5


def test_imu_unshielded_bias_after_100s():
    lv = LevelingConfig(noise_std=0.0, drift_rate=0.02, shielded=False)
    assert first_reading(0.0, lv, drift_update(lv, 0.0, 100.0)) == 2.0


def test_imu_shielded_bias_after_100s():
    lv = LevelingConfig(noise_std=0.0, drift_rate=0.02, shielded=True)
    assert first_reading(0.0, lv, drift_update(lv, 0.0, 100.0)) == pytest.approx(0.8)


# ------------------------------------------------------------------- pump

def test_capture_matches_oracle_circular():
    for d in (0.0, 25.0, 31.0, 40.0, 55.0, 65.0, 69.0, 71.0):
        got = capture_fraction(CIRC_POT, d, 0.0, 20.0)
        want = overlap_oracle(CIRC_POT, d, 0.0, 20.0)
        assert got == pytest.approx(want, abs=3e-3), f"d={d}"


def test_capture_matches_oracle_circular_small_pot():
    small = Pot(0, 0.0, 0.0, CIRCULAR, 40.0, 40.0)  # pot narrower than the spray
    for d in (0.0, 15.0, 40.0, 65.0, 75.0):
        got = capture_fraction(small, d, 0.0, 50.0)
        want = overlap_oracle(small, d, 0.0, 50.0)
        assert got == pytest.approx(want, abs=3e-3), f"d={d}"


def test_capture_matches_oracle_rectangular():
    cases = [(0, 0), (45, 0), (0, 25), (55, 35), (62, 0), (0, 42), (70, 50), (30, 30)]
    for ox, oy in cases:
        got = capture_fraction(RECT_POT, ox, oy, 20.0)
        want = overlap_oracle(RECT_POT, ox, oy, 20.0)
        assert got == pytest.approx(want, abs=3e-3), f"offset=({ox},{oy})"


def test_capture_rect_engulfed_by_spray():
    got = capture_fraction(RECT_POT, 0.0, 0.0, 100.0)
    assert got == pytest.approx((120 * 80) / (math.pi * 100**2), abs=1e-9)


def test_capture_disjoint_is_zero():
    assert capture_fraction(CIRC_POT, 70.0, 0.0, 20.0) == 0.0
    assert capture_fraction(RECT_POT, 0.0, 61.0, 20.0) == 0.0


@given(
    st.floats(0.0, 130.0), st.floats(0.0, 130.0),
    st.sampled_from([CIRC_POT, RECT_POT]),
    st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=150)
def test_capture_bounded_and_monotone_along_rays(e1, e2, pot, angle):
    lo, hi = sorted((e1, e2))
    dx, dy = math.cos(angle), math.sin(angle)
    near = capture_fraction(pot, lo * dx, lo * dy, 20.0)
    far = capture_fraction(pot, hi * dx, hi * dy, 20.0)
    assert 0.0 <= far <= near <= 1.0 or far == pytest.approx(near, abs=1e-9)


def pump_point(overshoot=0.0, efficiency=1.0):
    """An operating point that pumps `overshoot` above the target and keeps
    `efficiency` of what the pot captures."""
    return tuning(dispense_overshoot=overshoot, spray_efficiency=efficiency)


def test_dispense_perfect_hit_delivers_everything():
    dispensed, delivered = dispense(PumpConfig(spray_radius=5.0), pump_point(), CIRC_POT, 0.0, 0.0)
    assert dispensed == 100.0
    assert delivered == 100.0


def test_dispense_total_miss_delivers_nothing():
    dispensed, delivered = dispense(PumpConfig(), pump_point(), CIRC_POT, 70.0, 0.0)
    assert dispensed == 100.0
    assert delivered == 0.0


def test_dispense_table_operating_point():
    dispensed, delivered = dispense(PumpConfig(), pump_point(0.05, 0.952), CIRC_POT, 6.0, 0.0)
    assert dispensed == pytest.approx(105.0)
    assert delivered / dispensed >= 0.92


@pytest.mark.parametrize("pot", [CIRC_POT, RECT_POT])
def test_dispense_scores_the_impact_offset_it_is_given(pot):
    # a spray crossing the rim: the capture fraction of the exact offset
    pump, point = PumpConfig(spray_radius=45.0), pump_point(0.05, 0.9)
    dispensed, delivered = dispense(pump, point, pot, 31.7, -22.9)
    assert dispensed == pumped_volume(pump, point)
    frac = capture_fraction(pot, 31.7, -22.9, 45.0)
    assert 0.0 < frac < 1.0
    assert delivered == dispensed * frac * point.spray_efficiency


@given(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0), st.floats(0.01, 0.15),
       st.sampled_from([CIRC_POT, RECT_POT]))
def test_dispense_never_exceeds_dispensed(offset_x, offset_y, overshoot, pot):
    dispensed, delivered = dispense(PumpConfig(), pump_point(overshoot, 0.95), pot,
                                    offset_x, offset_y)
    assert 0.0 <= delivered <= dispensed


# ---------------------------------------------------------------- battery

def test_battery_idle_holds_charge():
    model = BatteryModel()
    charge, depleted, ticks = battery_step(model, model.capacity_mah, model.current_ma(set()),
                                           10.0)
    assert charge == model.capacity_mah
    assert not depleted and ticks == 1


def test_battery_voltage_endpoints():
    model = BatteryModel()
    assert model.voltage(model.capacity_mah) == pytest.approx(12.6)
    assert model.voltage(0.0) == pytest.approx(11.1)


def test_battery_known_draw_arithmetic():
    model = BatteryModel(compute_ma=900.0)
    charge, _, _ = battery_step(model, model.capacity_mah, model.current_ma({"compute"}),
                                3600.0)
    assert charge == pytest.approx(2400.0 - 900.0)


def test_battery_depletion_latches():
    model = BatteryModel(compute_ma=900.0)
    charge, depleted, _ = battery_step(model, 0.1, model.current_ma({"compute"}), 3600.0)
    assert depleted
    _, depleted, _ = battery_step(model, charge, model.current_ma(set()), 1.0)
    assert depleted  # idle does not revive it


def test_battery_rejects_unknown_subsystem():
    with pytest.raises(ValueError, match="warp_core"):
        BatteryModel().current_ma({"warp_core"})
    with pytest.raises(ValueError, match="warp_core"):
        BatteryModel().current_ma(["compute", "warp_core"])


def test_battery_drain_does_not_depend_on_subsystem_order():
    # with non-integer draws the float sum depends on its order; a set of
    # names iterates in an order that changes with the string hash seed
    model = BatteryModel(capacity_mah=5.1147, drive_ma=9965.0, leveling_ma=821.2,
                         compute_ma=767.2)
    a = battery_step(model, 1.0, model.current_ma(["compute", "leveling", "drive"]), 0.05)
    b = battery_step(model, 1.0, model.current_ma(["compute", "drive", "leveling"]), 0.05)
    assert a == b
    # the draws are summed in SUBSYSTEMS order: drive, leveling, compute
    assert model.current_ma(["compute", "leveling", "drive"]) == (9965.0 + 821.2) + 767.2


@given(st.lists(st.sampled_from(["drive", "pump", "arm", "compute", "leveling"]),
                max_size=5), st.floats(0.1, 100.0))
def test_battery_charge_non_increasing(subsystems, dt):
    model = BatteryModel()
    charge, _, _ = battery_step(model, model.capacity_mah, model.current_ma(set(subsystems)), dt)
    assert charge <= model.capacity_mah


SUBSYSTEMS = st.sets(st.sampled_from(["drive", "pump", "arm", "compute", "leveling"]))


@given(SUBSYSTEMS, st.floats(1e-3, 1.0), st.floats(0.01, 5.0))
def test_battery_one_tick_is_the_linear_drain(subsystems, dt, charge):
    model = BatteryModel(capacity_mah=5.0)
    after, depleted, _ = battery_step(model, charge, model.current_ma(subsystems), dt)
    draw = sum(getattr(model, f"{s}_ma") for s in subsystems)
    expected = charge - draw * dt / 3600.0
    soc = expected / model.capacity_mah
    volts = model.voltage_cutoff + (model.voltage_full - model.voltage_cutoff) * soc
    assert after == expected
    assert model.voltage(after) == volts
    assert depleted == (volts < model.voltage_cutoff)


@given(SUBSYSTEMS, st.floats(1e-3, 1.0), st.integers(1, 300), st.floats(0.5, 20.0))
def test_battery_n_tick_call_equals_n_one_tick_calls(subsystems, dt, n, capacity):
    # small packs deplete part-way, so the walk stops early; one-tick calls
    # run up to and including the first depleted tick
    model = BatteryModel(capacity_mah=capacity)
    draw = model.current_ma(subsystems)
    charge, depleted, volts = capacity, False, []
    while len(volts) < n and not depleted:
        charge, depleted, ran = battery_step(model, charge, draw, dt)
        assert ran == 1
        volts.append(model.voltage(charge))
    stepped = (charge.hex(), depleted, len(volts))
    walked = battery_step(model, capacity, draw, dt, n)
    assert (walked[0].hex(), *walked[1:]) == stepped
    # the walk stops on the first tick below the cutoff, and only there
    assert [v < model.voltage_cutoff for v in volts] == [False] * (len(volts) - 1) + [depleted]


def oracle_battery_walk(capacity, full, cutoff, charge, draw, dt, ticks):
    """(charge, depleted, ticks run) of a pack walked tick by tick: each tick
    subtracts draw * dt / 3600 mAh and is depleted once the linear voltage
    reads below the cutoff, whatever the sign of the charge."""
    for n in range(1, ticks + 1):
        charge -= draw * dt / 3600.0
        if cutoff + (full - cutoff) * (charge / capacity) < cutoff:
            return charge, True, n
    return charge, False, ticks


@given(st.floats(0.01, 50.0), st.floats(1.0, 12.0), st.floats(0.1, 3.0),
       st.floats(0.0, 50.0), st.floats(0.0, 20000.0), st.floats(1e-3, 1.0),
       st.integers(1, 400))
# the first negative charge, -0.0005 mAh, is already below the cutoff
@example(2400.0, 11.1, 1.5, 0.0005, 3.6, 1.0, 3)
@example(5.0, 11.1, 1.5, 0.0, 0.0, 0.05, 10)  # no draw never depletes
def test_battery_step_matches_an_independent_walk(capacity, cutoff, span, charge, draw, dt,
                                                 ticks):
    model = BatteryModel(capacity_mah=capacity, voltage_full=cutoff + span,
                         voltage_cutoff=cutoff)
    want = oracle_battery_walk(capacity, cutoff + span, cutoff, charge, draw, dt, ticks)
    assert battery_step(model, charge, draw, dt, ticks) == want


@given(st.floats(1e-3, 1e5), st.floats(1e-3, 50.0), st.floats(1e-3, 50.0),
       st.floats(-1e5, 1e5), st.floats(-1e5, 1e5))
def test_battery_voltage_never_falls_as_charge_grows(capacity, cutoff, span, a, b):
    # a depleted pack stays depleted: a lower charge never reads a higher
    # voltage, below zero charge too
    model = BatteryModel(capacity_mah=capacity, voltage_full=cutoff + span,
                         voltage_cutoff=cutoff)
    low, high = min(a, b), max(a, b)
    assert model.voltage(low) <= model.voltage(high)


POSITIVE_FINITE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(POSITIVE_FINITE, POSITIVE_FINITE, POSITIVE_FINITE,
       st.one_of(st.just(-0.0), st.floats(min_value=0.0)))
@example(2400.0, 11.1, 12.6, -0.0)
@example(2400.0, 11.1, 12.6, 5e-324)
@example(5e-324, 11.1, 12.6, 1.0)
@example(2400.0, 5e-324, 1.7e308, 1.7e308)
@example(1e-300, 11.1, 12.6, math.inf)
def test_battery_non_negative_charge_never_reads_below_the_cutoff(capacity, cutoff, full,
                                                                   charge):
    # battery_step asks for the voltage only once the charge is negative
    assume(full > cutoff)
    model = BatteryModel(capacity_mah=capacity, voltage_full=full, voltage_cutoff=cutoff)
    assert model.voltage(charge) >= model.voltage_cutoff
