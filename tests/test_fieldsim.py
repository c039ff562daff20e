"""Tests for the physical models: layouts, detector, IMU, pump, battery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot.config import default_config, environment_for
from irribot.detect import CIRCULAR, RECTANGULAR, GeometryBands, enhanced_detection
from irribot.fieldsim import (
    ENV_COMPLEX,
    ENV_HILLY,
    ENV_NAMES,
    ENV_STANDARD,
    BatteryModel,
    BatteryState,
    DetectorProfile,
    Environment,
    LayoutError,
    LayoutSpec,
    Pot,
    PotLayout,
    PumpModel,
    _PCG64Draws,
    _service_order,
    battery_step,
    capture_fraction,
    dispense,
    fresh_battery,
    grid_layout,
    random_layout,
    realize_layout,
    simulate_detection,
)
from irribot.kinematics import CalibrationState
from irribot.leveling import (
    DriftMonitor,
    PlatformPlant,
    drift_update,
    run_leveling_episode,
    ziegler_nichols,
)

CAL = CalibrationState(s=0.1, u0=2000.0, v0=1500.0, z_const=150.0)


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

def test_grid_layout_default_shape():
    layout = grid_layout(20, 600.0)
    assert len(layout.pots) == 20
    assert {p.shape for p in layout.pots} == {CIRCULAR}
    assert {(p.x, p.y) for p in layout.pots} == {
        (c * 600.0, r * 600.0) for r in range(4) for c in range(5)
    }


def test_grid_layout_orders_pots_along_serpentine_path():
    # consecutive pots are exactly one pitch apart, including row turns
    layout = grid_layout(20, 600.0)
    for a, b in zip(layout.pots, layout.pots[1:]):
        assert math.hypot(b.x - a.x, b.y - a.y) == 600.0


def test_layout_rejects_crowded_pots():
    pots = (
        Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0),
        Pot(1, 100.0, 0.0, CIRCULAR, 100.0, 100.0),
    )
    with pytest.raises(ValueError):
        PotLayout(pots=pots, min_spacing=400.0)


def test_random_layout_spacing_window():
    rng = np.random.default_rng(3)
    layout = random_layout(20, rng, nn_range=(400.0, 800.0))
    pts = [(p.x, p.y) for p in layout.pots]
    for i, (xi, yi) in enumerate(pts):
        dists = [math.hypot(xi - xj, yi - yj) for j, (xj, yj) in enumerate(pts) if j != i]
        assert min(dists) >= 400.0 - 1e-9
        assert min(dists) <= 800.0 + 1e-9  # every pot has a window-range neighbor


def test_random_layout_bounded_attempts():
    with pytest.raises(LayoutError):
        random_layout(5, np.random.default_rng(0), max_attempts=2)


def test_random_layout_deterministic():
    a = random_layout(10, np.random.default_rng(11))
    b = random_layout(10, np.random.default_rng(11))
    assert a == b


def test_pot_validation():
    with pytest.raises(ValueError):
        Pot(0, 0, 0, CIRCULAR, 100.0, 80.0)  # circular pots are round
    with pytest.raises(ValueError):
        Pot(0, 0, 0, "hexagonal", 100.0, 100.0)


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("build", [grid_layout,
                                   lambda n: random_layout(n, np.random.default_rng(0))])
def test_layout_builders_reject_counts_below_one(build, count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        build(count)


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


def test_bulk_draws_restore_the_generator_when_placement_fails():
    rng, ref = twin_generators(3, True)
    with pytest.raises(LayoutError) as got:
        random_layout(40, rng, max_attempts=30)
    with pytest.raises(LayoutError) as want:
        oracle_random_layout(40, ref, max_attempts=30)
    assert str(got.value) == str(want.value)
    assert_twins_agree(rng, ref)


def test_bulk_draws_need_a_pcg64_generator():
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        _PCG64Draws(mt)
    with pytest.raises(TypeError, match="MT19937"):
        random_layout(5, mt)


# ------------------------------------------- cell grid vs quadratic oracle
# The passes over every pot (or every pair) that the layout's cell grid
# replaced, kept verbatim as the reference: the grid may only narrow the
# candidates, never change a result, a generator draw or an error message.


def oracle_pair_check(pots, min_spacing):
    for i in range(len(pots)):
        for j in range(i + 1, len(pots)):
            d = math.hypot(pots[i].x - pots[j].x, pots[i].y - pots[j].y)
            if d < min_spacing - 1e-9:
                raise ValueError(
                    f"pots {pots[i].pot_id} and {pots[j].pot_id} are {d:.1f} mm "
                    f"apart, below the {min_spacing} mm floor"
                )


def oracle_service_order(pots):
    remaining = list(pots[1:])
    chain = [pots[0]]
    while remaining:
        last = chain[-1]
        nearest = min(remaining, key=lambda p: math.hypot(p.x - last.x, p.y - last.y))
        remaining.remove(nearest)
        chain.append(nearest)
    return tuple(dataclasses.replace(p, pot_id=i) for i, p in enumerate(chain))


def oracle_random_layout(count, rng, *, nn_range=(400.0, 800.0), max_attempts=10000):
    """(pots, min_spacing) of random_layout, placed by scanning every pot."""
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
    ordered = oracle_service_order(pots)
    oracle_pair_check(ordered, lo)
    return ordered, lo


def oracle_in_box(layout, x, y, half):
    return [q for q in layout.pots if abs(q.x - x) <= half and abs(q.y - y) <= half]


def oracle_nearest_id(layout, x, y, gate):
    matched, best = None, gate
    for pot in layout.pots:
        d = math.hypot(pot.x - x, pot.y - y)
        if d <= best:
            matched, best = pot.pot_id, d
    return matched


def outcome(fn, *args, **kwargs):
    """What a layout call returns, or the text of the LayoutError it raises."""
    try:
        return fn(*args, **kwargs)
    except LayoutError as exc:
        return f"LayoutError: {exc}"


def assert_same_placement(count, seed, nn_range=(400.0, 800.0), max_attempts=10000):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = outcome(random_layout, count, rng, nn_range=nn_range, max_attempts=max_attempts)
    want = outcome(oracle_random_layout, count, ref_rng, nn_range=nn_range,
                   max_attempts=max_attempts)
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
       st.sampled_from([400.0, 600.0, 1000.0]), st.sampled_from([150.0, 400.0, 999.0]))
@settings(max_examples=150, deadline=None)
def test_service_order_ties_go_to_the_pot_placed_first(cells, pitch, spacing):
    # lattice points: many pots at exactly equal distance from the last one
    pots = [lattice_pot(k, i, j, pitch) for k, (i, j) in enumerate(cells)]
    assert _service_order(pots, spacing) == oracle_service_order(pots)


def test_service_order_tie_between_mirror_images():
    pots = [lattice_pot(0, 0, 0, 500.0), lattice_pot(1, 1, 0, 500.0),
            lattice_pot(2, -1, 0, 500.0), lattice_pot(3, 0, -1, 500.0)]
    for order in (pots, [pots[0], pots[2], pots[1], pots[3]], [pots[0], *pots[:0:-1]]):
        chain = _service_order(order, 400.0)
        assert (chain[1].x, chain[1].y) == (order[1].x, order[1].y)
        assert chain == oracle_service_order(order)


QUERY_LAYOUTS = {
    # min_spacing below the 145 mm in-view half-width: the box spans many cells
    "tight_random": lambda: random_layout(250, np.random.default_rng(8), nn_range=(60.0, 130.0)),
    "random": lambda: random_layout(300, np.random.default_rng(9)),
    "tight_grid": lambda: grid_layout(60, spacing=100.0),
    "grid": lambda: grid_layout(60, spacing=600.0),
    # fewer occupied cells than a query would visit: the query scans the cells
    "few": lambda: grid_layout(7, spacing=100.0),
}


@pytest.fixture(scope="module")
def query_layouts():
    return {name: build() for name, build in QUERY_LAYOUTS.items()}


@given(st.sampled_from(sorted(QUERY_LAYOUTS)), st.integers(0, 10**6),
       st.floats(-400.0, 400.0), st.floats(-400.0, 400.0),
       st.sampled_from([1.0, 100.0, 145.0, 2.5, 900.0]))
@settings(max_examples=300, deadline=None)
def test_grid_queries_match_full_scans(query_layouts, name, k, dx, dy, reach):
    # reach 2.5 is in units of min_spacing: a gate wider than two cells
    layout = query_layouts[name]
    if reach == 2.5:
        reach *= layout.min_spacing
    pot = layout.pots[k % len(layout.pots)]
    for x, y in ((pot.x + dx, pot.y + dy), (pot.x, pot.y), (pot.x + reach, pot.y - reach)):
        assert layout.in_box(x, y, 145.0) == oracle_in_box(layout, x, y, 145.0)
        assert layout.in_box(x, y, reach) == oracle_in_box(layout, x, y, reach)
        assert layout.nearest_id(x, y, reach) == oracle_nearest_id(layout, x, y, reach)


def test_match_tie_goes_to_the_later_pot(query_layouts):
    layout = query_layouts["tight_grid"]  # 100 mm pitch, five columns
    for a, b in zip(layout.pots, layout.pots[1:]):
        x, y = (a.x + b.x) / 2, (a.y + b.y) / 2  # exactly 50 mm from both
        assert layout.nearest_id(x, y, 100.0) == b.pot_id
        assert layout.nearest_id(x, y, 100.0) == oracle_nearest_id(layout, x, y, 100.0)


def test_grid_index_stays_out_of_equality_and_repr():
    a, b = grid_layout(3), grid_layout(3)
    assert a == b and hash(a) == hash(b)
    assert "cells" not in repr(a)
    assert sorted(i for members in a.cells.values() for i in members) == [0, 1, 2]


def test_grid_layout_of_20000_pots_builds():
    layout = grid_layout(20000)
    assert len(layout.pots) == 20000
    assert sum(len(members) for members in layout.cells.values()) == 20000


def test_late_crowded_pair_is_named_as_the_oracle_names_it():
    pots = list(grid_layout(5000).pots)
    hub = pots[4000]
    # two pots crowd pot 4000 (and each other); (4000, 4990) comes first
    pots[4995] = dataclasses.replace(pots[4995], x=hub.x + 150.0, y=hub.y)
    pots[4990] = dataclasses.replace(pots[4990], x=hub.x - 150.0, y=hub.y + 30.0)
    with pytest.raises(ValueError) as want:
        oracle_pair_check(pots, 600.0)
    with pytest.raises(ValueError) as got:
        PotLayout(pots=tuple(pots), min_spacing=600.0)
    assert str(got.value) == str(want.value)
    assert "pots 4000 and 4990 are" in str(got.value)


def test_layout_rejects_non_finite_inputs():
    with pytest.raises(ValueError):
        Pot(0, math.nan, 0.0, CIRCULAR, 100.0, 100.0)
    with pytest.raises(ValueError):
        PotLayout(pots=(), min_spacing=math.inf)
    with pytest.raises(ValueError):
        random_layout(3, np.random.default_rng(0), nn_range=(400.0, math.inf))


# ------------------------------------------------------------ environments

def test_build_standard_environment():
    env = environment_for(default_config(), ENV_STANDARD)
    assert env.slope == 0.0
    assert env.detector_profile.accuracy == 0.987
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


def test_environment_validation():
    def environment(slope=0.0, drive_speed=300.0):
        return Environment("x", slope, DetectorProfile(0.9, 0.01, 30.0), LayoutSpec("grid"),
                           PumpModel(30.0), drive_speed)

    environment()
    with pytest.raises(ValueError):
        environment(slope=-1.0)
    for speed in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            environment(drive_speed=speed)


def test_detector_profile_bounds():
    with pytest.raises(ValueError):
        DetectorProfile(accuracy=1.5, fp_rate=0.0, inference_time_ms=30.0)
    with pytest.raises(ValueError):
        DetectorProfile(accuracy=0.9, fp_rate=-0.1, inference_time_ms=30.0)


# --------------------------------------------------------------- detector

def one_pot_view():
    return [Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0)]


def test_perfect_detector_returns_exactly_the_pots():
    profile = DetectorProfile(accuracy=1.0, fp_rate=0.0, inference_time_ms=32.0)
    pots = [
        Pot(0, 0.0, 0.0, CIRCULAR, 100.0, 100.0),
        Pot(1, 80.0, -40.0, RECTANGULAR, 120.0, 80.0),
    ]
    dets = simulate_detection(pots, profile, np.random.default_rng(0), CAL)
    assert len(dets) == 2
    assert [d.cls for d in dets] == [CIRCULAR, RECTANGULAR]


def test_blind_detector_returns_nothing():
    profile = DetectorProfile(accuracy=0.0, fp_rate=0.0, inference_time_ms=32.0)
    dets = simulate_detection(one_pot_view(), profile, np.random.default_rng(0), CAL)
    assert dets == []


def test_detection_boxes_survive_the_pipeline():
    profile = DetectorProfile(accuracy=1.0, fp_rate=0.0, inference_time_ms=32.0)
    rng = np.random.default_rng(42)
    bands = GeometryBands()
    for _ in range(200):
        dets = simulate_detection(one_pot_view(), profile, rng, CAL)
        assert len(enhanced_detection(dets, bands)) == len(dets) == 1


def test_spurious_detections_survive_the_pipeline_and_keep_distance():
    profile = DetectorProfile(accuracy=1.0, fp_rate=1.0, inference_time_ms=32.0)
    rng = np.random.default_rng(7)
    bands = GeometryBands()
    for _ in range(100):
        dets = simulate_detection(one_pot_view(), profile, rng, CAL)
        assert len(dets) == 2
        assert len(enhanced_detection(dets, bands)) == 2
        fp = dets[1]
        cu, cv = fp.bbox.center
        assert math.hypot(cu - CAL.u0, cv - CAL.v0) >= 1200.0


def test_detection_rates_match_profile_over_many_frames():
    profile = DetectorProfile(accuracy=0.96, fp_rate=0.035, inference_time_ms=38.0)
    rng = np.random.default_rng(123)
    frames = 10_000
    hits = fps = 0
    for _ in range(frames):
        dets = simulate_detection(one_pot_view(), profile, rng, CAL)
        tp = [d for d in dets if math.hypot(d.bbox.center[0] - CAL.u0, d.bbox.center[1] - CAL.v0) < 1000]
        hits += len(tp)
        fps += len(dets) - len(tp)
    for count, p in ((hits, profile.accuracy), (fps, profile.fp_rate)):
        sigma = math.sqrt(frames * p * (1 - p))
        assert abs(count - frames * p) <= 3 * sigma


def test_detection_deterministic_per_seed():
    profile = DetectorProfile(accuracy=0.9, fp_rate=0.5, inference_time_ms=32.0)
    a = simulate_detection(one_pot_view(), profile, np.random.default_rng(9), CAL)
    b = simulate_detection(one_pot_view(), profile, np.random.default_rng(9), CAL)
    assert a == b


# -------------------------------------------------------------------- IMU
# The IMU reading is taken inside the leveling episode: the first tick reads
# true tilt plus the monitor's accumulated bias plus noise.

def first_reading(slope, drift=None):
    trace = run_leveling_episode(
        PlatformPlant(), ziegler_nichols(1.0, 1.0), slope, 0.01, 0.01, drift=drift)
    return trace.alpha_raw[0]


def test_imu_clean_reading_is_truth():
    assert first_reading(3.5) == 3.5


def test_imu_unshielded_bias_after_100s():
    mon = drift_update(DriftMonitor(drift_rate=0.02), 100.0)
    assert first_reading(0.0, mon) == 2.0


def test_imu_shielded_bias_after_100s():
    mon = drift_update(DriftMonitor(drift_rate=0.02, shielded=True), 100.0)
    assert first_reading(0.0, mon) == pytest.approx(0.8)


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


def test_dispense_perfect_hit_delivers_everything():
    pump = PumpModel(flow_rate=30.0, dispense_overshoot=0.0, spray_radius=5.0)
    dispensed, delivered = dispense(pump, 100.0, 0.0, CIRC_POT)
    assert dispensed == 100.0
    assert delivered == 100.0


def test_dispense_total_miss_delivers_nothing():
    pump = PumpModel(flow_rate=30.0, spray_radius=20.0)
    dispensed, delivered = dispense(pump, 100.0, 70.0, CIRC_POT)
    assert dispensed == 100.0
    assert delivered == 0.0


def test_dispense_table_operating_point():
    pump = PumpModel(flow_rate=30.0, dispense_overshoot=0.05,
                     spray_radius=20.0, spray_efficiency=0.952)
    dispensed, delivered = dispense(pump, 100.0, 6.0, CIRC_POT)
    assert dispensed == pytest.approx(105.0)
    assert delivered / dispensed >= 0.92


@given(st.floats(0.0, 200.0), st.floats(0.01, 0.15))
def test_dispense_never_exceeds_dispensed(error, overshoot):
    pump = PumpModel(flow_rate=30.0, dispense_overshoot=overshoot, spray_efficiency=0.95)
    dispensed, delivered = dispense(pump, 100.0, error, CIRC_POT)
    assert 0.0 <= delivered <= dispensed


# ---------------------------------------------------------------- battery

def test_battery_idle_holds_charge():
    state = fresh_battery(BatteryModel())
    after = battery_step(state, set(), 10.0)
    assert after.charge_mah == state.charge_mah
    assert not after.depleted


def test_battery_voltage_endpoints():
    model = BatteryModel()
    assert fresh_battery(model).voltage == pytest.approx(12.6)
    assert BatteryState(model, 0.0).voltage == pytest.approx(11.1)


def test_battery_known_draw_arithmetic():
    model = BatteryModel(compute_ma=900.0)
    state = fresh_battery(model)
    after = battery_step(state, {"compute"}, 3600.0)
    assert after.charge_mah == pytest.approx(2400.0 - 900.0)


def test_battery_depletion_latches():
    model = BatteryModel(compute_ma=900.0)
    state = BatteryState(model, charge_mah=0.1)
    state = battery_step(state, {"compute"}, 3600.0)
    assert state.depleted
    state = battery_step(state, set(), 1.0)  # idle does not revive it
    assert state.depleted


def test_battery_rejects_unknown_subsystem():
    with pytest.raises(ValueError):
        battery_step(fresh_battery(BatteryModel()), {"warp_core"}, 1.0)
    with pytest.raises(ValueError):
        battery_step(fresh_battery(BatteryModel()), ["compute", "warp_core"], 1.0)


def test_battery_drain_does_not_depend_on_subsystem_order():
    # with non-integer draws the float sum depends on its order; a set of
    # names iterates in an order that changes with the string hash seed
    model = BatteryModel(capacity_mah=5.1147, drive_ma=9965.0, leveling_ma=821.2,
                         compute_ma=767.2)
    state = BatteryState(model, 1.0)
    a = battery_step(state, ["compute", "leveling", "drive"], 0.05)
    b = battery_step(state, ["compute", "drive", "leveling"], 0.05)
    assert a == b


@given(st.lists(st.sampled_from(["drive", "pump", "arm", "compute", "leveling"]),
                max_size=5), st.floats(0.1, 100.0))
def test_battery_charge_non_increasing(subsystems, dt):
    state = fresh_battery(BatteryModel())
    after = battery_step(state, set(subsystems), dt)
    assert after.charge_mah <= state.charge_mah


SUBSYSTEMS = st.sets(st.sampled_from(["drive", "pump", "arm", "compute", "leveling"]))


@given(SUBSYSTEMS, st.floats(1e-3, 1.0), st.floats(0.01, 5.0))
def test_battery_one_tick_is_the_linear_drain(subsystems, dt, charge):
    model = BatteryModel(capacity_mah=5.0)
    after = battery_step(BatteryState(model, charge), subsystems, dt)
    draw = sum(model.draw(s) for s in subsystems)
    expected = charge - draw * dt / 3600.0
    soc = expected / model.capacity_mah
    volts = model.voltage_cutoff + (model.voltage_full - model.voltage_cutoff) * soc
    assert after.charge_mah == expected
    assert after.voltage == volts
    assert after.depleted == (volts < model.voltage_cutoff)


@given(SUBSYSTEMS, st.floats(1e-3, 1.0), st.integers(1, 300), st.floats(0.5, 20.0))
def test_battery_n_tick_call_equals_n_one_tick_calls(subsystems, dt, n, capacity):
    # small packs deplete part-way, so the latch is exercised too
    state = fresh_battery(BatteryModel(capacity_mah=capacity))
    stepped, volts = state, []
    for _ in range(n):
        stepped = battery_step(stepped, subsystems, dt)
        volts.append(stepped.voltage)
    recorded = []
    assert battery_step(state, subsystems, dt, n, recorded) == stepped
    assert recorded == volts
    # without a voltage list, depletion is read off the last tick alone
    assert battery_step(state, subsystems, dt, n) == stepped
    assert stepped.depleted == any(v < stepped.model.voltage_cutoff for v in volts)


@given(st.floats(1e-3, 1e5), st.floats(1e-3, 50.0), st.floats(1e-3, 50.0),
       st.floats(-1e5, 1e5), st.floats(-1e5, 1e5))
def test_battery_voltage_never_falls_as_charge_grows(capacity, cutoff, span, a, b):
    # the last-tick depletion latch rests on this: a lower charge never reads
    # a higher voltage, below zero charge too
    model = BatteryModel(capacity_mah=capacity, voltage_full=cutoff + span,
                         voltage_cutoff=cutoff)
    low, high = min(a, b), max(a, b)
    assert model.voltage(low) <= model.voltage(high)
