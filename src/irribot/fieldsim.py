"""Seeded models of everything physical in the field.

Environments (terrain slope, layout recipe, and the detector, dispense and
drive operating point the config sets), pot layouts, a stochastic detector
standing in for the onboard vision model, pump dispensing with exact
spray-disk/pot-opening overlap, and a linear-voltage battery budget. Every
stochastic draw flows from an injected generator; the module holds no global
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from irribot.detect import CIRCULAR, RECTANGULAR, BBox, Detection
from irribot.kinematics import ArmTarget, arm_to_pixel
from irribot.sums import ltr_sum

ENV_STANDARD = "standard_greenhouse"
ENV_HILLY = "hilly_terrain"
ENV_COMPLEX = "complex_lighting"
ENV_NAMES = (ENV_STANDARD, ENV_HILLY, ENV_COMPLEX)

# battery consumers, in BatteryModel's field order
SUBSYSTEMS = ("drive", "leveling", "arm", "pump", "compute")

# aspect-ratio sampling stays strictly inside the geometry bands so the
# detector's own boxes never land on an excluded boundary
_RATIO_RANGES = {CIRCULAR: (0.92, 1.08), RECTANGULAR: (1.25, 1.47)}


class LayoutError(RuntimeError):
    """Random placement failed to satisfy spacing within the attempt budget."""


@dataclass(frozen=True)
class Pot:
    pot_id: int
    x: float  # mm
    y: float  # mm
    shape: str  # circular | rectangular
    width: float  # mm; diameter for circular pots
    height: float  # mm; equals width for circular pots

    def __post_init__(self):
        if self.shape not in (CIRCULAR, RECTANGULAR):
            raise ValueError(f"unknown pot shape {self.shape!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("pot dimensions must be positive")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pot position must be finite")
        if self.shape == CIRCULAR and self.width != self.height:
            raise ValueError("circular pots need equal width and height")

    @property
    def radius(self):
        return self.width / 2.0


# A uniform grid whose cells are a hair wider than the spacing they serve
# (Bentley, Stanat & Williams, "The complexity of finding fixed-radius near
# neighbors", IPL 1977). Two points closer than the spacing lie in the same
# or adjacent cells; the hair keeps that true when floor(x / size) rounds,
# for coordinates up to about a million cells from the origin. The grid only
# narrows the candidates: every result is still decided by the exact
# predicate a scan over all pots would apply.


def _cell_size(spacing):
    return spacing * (1.0 + 1e-9)


def _cell(x, y, size):
    return math.floor(x / size), math.floor(y / size)


def _grid(points, size):
    """{cell: [index, ...]} of (x, y) points, indices ascending within each cell."""
    cells = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault(_cell(x, y, size), []).append(i)
    return cells


def _near(cells, size, x, y, reach):
    """Indices in every cell within reach of (x, y), cell by cell.

    Covers each point whose x and y offsets from (x, y) are both within
    reach; for reach equal to the spacing that is the 3x3 block of cells
    around the cell of (x, y).
    """
    n = reach * (1.0 + 1e-9) / size  # cells to each side, before rounding up
    side = 2.0 * n + 1.0
    cx, cy = _cell(x, y, size)
    if side * side > len(cells):
        # fewer cells occupied than the block holds; d < n + 1 is d <= ceil(n)
        return [
            i for (gx, gy), members in cells.items()
            if abs(gx - cx) < n + 1 and abs(gy - cy) < n + 1 for i in members
        ]
    n = math.ceil(n)
    return [
        i for gx in range(cx - n, cx + n + 1) for gy in range(cy - n, cy + n + 1)
        for i in cells.get((gx, gy), ())
    ]


def _ring(cells, cx, cy, r):
    """Indices in the square ring of cells r steps out from cell (cx, cy)."""
    if r == 0:
        yield from cells.get((cx, cy), ())
        return
    for gx in range(cx - r, cx + r + 1):
        yield from cells.get((gx, cy - r), ())
        yield from cells.get((gx, cy + r), ())
    for gy in range(cy - r + 1, cy + r):
        yield from cells.get((cx - r, gy), ())
        yield from cells.get((cx + r, gy), ())


@dataclass(frozen=True)
class PotLayout:
    """Pots in service order, with a uniform cell grid over their positions.

    `cells` maps a grid cell to the indices of the pots in it, ascending. It
    is built from the pots and takes no part in equality or repr.
    """

    pots: tuple
    min_spacing: float  # mm, pairwise center-to-center floor
    cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.min_spacing < math.inf:
            raise ValueError("min_spacing must be positive and finite")
        pots = self.pots
        size = _cell_size(self.min_spacing)
        cells = _grid(((p.x, p.y) for p in pots), size)
        object.__setattr__(self, "cells", cells)
        # name the lexicographically first offending (i, j), as a scan of
        # every pair would; only pots in neighbouring cells can offend
        for i, p in enumerate(pots):
            crowded = [
                j for j in _near(cells, size, p.x, p.y, self.min_spacing)
                if j > i and math.hypot(p.x - pots[j].x, p.y - pots[j].y)
                < self.min_spacing - 1e-9
            ]
            if crowded:
                q = pots[min(crowded)]
                d = math.hypot(p.x - q.x, p.y - q.y)
                raise ValueError(
                    f"pots {p.pot_id} and {q.pot_id} are {d:.1f} mm "
                    f"apart, below the {self.min_spacing} mm floor"
                )

    def _hits(self, x, y, reach):
        """Indices, in layout order, of every pot in the cells within reach."""
        return sorted(_near(self.cells, _cell_size(self.min_spacing), x, y, reach))

    def in_box(self, x, y, half):
        """Pots with |p.x - x| <= half and |p.y - y| <= half, in layout order."""
        hits = (self.pots[i] for i in self._hits(x, y, half))
        return [p for p in hits if abs(p.x - x) <= half and abs(p.y - y) <= half]

    def nearest_id(self, x, y, gate):
        """pot_id of the pot nearest (x, y) within gate, or None.

        Of pots at the same distance the one later in layout order wins.
        """
        matched, best = None, gate
        for i in self._hits(x, y, gate):
            pot = self.pots[i]
            d = math.hypot(pot.x - x, pot.y - y)
            if d <= best:
                matched, best = pot.pot_id, d
        return matched


def grid_layout(count=20, spacing=600.0, shape=CIRCULAR, width=100.0, height=None, columns=5):
    """Regular grid, pots ordered along a serpentine service path.

    Odd rows run right-to-left so consecutive pots are always one pitch
    apart, which is what a chassis driving the bench actually does.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if columns < 1:
        raise ValueError("columns must be at least 1")
    if height is None:
        height = width if shape == CIRCULAR else width * 2 / 3
    pots = []
    for i in range(count):
        row, k = divmod(i, columns)
        col = columns - 1 - k if row % 2 else k
        pots.append(Pot(i, col * spacing, row * spacing, shape, width, height))
    return PotLayout(pots=tuple(pots), min_spacing=spacing)


def random_layout(
    count,
    rng,
    *,
    nn_range=(400.0, 800.0),
    shape=CIRCULAR,
    width=100.0,
    height=None,
    max_attempts=10000,
):
    """Scatter pots so each new pot lands nn_range-distant from an existing one.

    Grows a connected cluster: every accepted pot sits within nn_range of its
    anchor and at least nn_range[0] from everything else, so the pairwise
    minimum-spacing invariant holds by construction. Raises LayoutError when
    the attempt budget runs out. Placement finishes, and its grid-cell index
    is freed, before the pots are put in service order. The draws are read in
    bulk, so rng must use PCG64, as `numpy.random.default_rng` does; any other
    bit generator is a TypeError.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    lo, hi = nn_range
    if not 0 < lo < hi < math.inf:
        raise ValueError("nn_range must be ordered, positive and finite")
    if height is None:
        height = width
    pots = [Pot(0, 0.0, 0.0, shape, width, height)]  # checks the pot before any draw
    xs, ys = _place(count, rng, lo, hi, max_attempts)
    pots += [Pot(i, xs[k], ys[k], shape, width, height)  # the chain starts at pot 0
             for i, k in enumerate(_service_order(xs, ys, lo)) if i]
    return PotLayout(pots=tuple(pots), min_spacing=lo)


def _place(count, rng, lo, hi, max_attempts):
    """random_layout's placement: the centres (xs, ys) of count pots, pot 0 at
    the origin. A candidate is tested against the pots in the 3x3 block of
    grid cells around it, which holds every pot that could be too close."""
    size = _cell_size(lo)
    xs, ys = [0.0], [0.0]
    # each pot is filed under the 3x3 cells around its own (pot 0's is (0, 0)),
    # so the pots in the 3x3 cells around a candidate are those filed under its cell
    near = {(dx, dy): [0] for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    attempts = 0
    with _PCG64Draws(rng) as draws:
        while len(xs) < count:
            attempts += 1
            if attempts > max_attempts:
                raise LayoutError(f"failed to place pot {len(xs)} within {max_attempts} attempts")
            anchor = draws.below(len(xs))
            angle = draws.uniform(0.0, 2.0 * math.pi)
            dist = draws.uniform(lo, hi)
            x = xs[anchor] + dist * math.cos(angle)
            y = ys[anchor] + dist * math.sin(angle)
            cx, cy = _cell(x, y, size)
            for i in near.get((cx, cy), ()):
                if not math.hypot(xs[i] - x, ys[i] - y) >= lo:
                    break  # the first conflict rejects the candidate
            else:
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        near.setdefault((cx + dx, cy + dy), []).append(len(xs))
                xs.append(x)
                ys.append(y)
    return xs, ys


class _PCG64Draws:
    """rng.integers(n) and rng.uniform(lo, hi), bit for bit, read from the PCG64
    stream (O'Neill 2014) 1,024 outputs at a time: `below` is numpy's Lemire
    rejection (ACM TOMACS 2019) on 32-bit half-outputs, `uniform` scales an
    output's top 53 bits. On exit the generator is where those calls leave it."""

    def __init__(self, rng):
        self._bitgen, self._entry = rng.bit_generator, rng.bit_generator.state
        if self._entry["bit_generator"] != "PCG64":
            raise TypeError(f"placement needs a PCG64 generator, got {type(self._bitgen).__name__}")
        # numpy keeps the last high half in the state even once it is used
        self._has_half, self._half = self._entry["has_uint32"], self._entry["uinteger"]
        self._used, self._outputs = 0, []

    def _output(self):
        if not self._outputs:  # a chunk, reversed so pop() takes it in stream order
            self._outputs = self._bitgen.random_raw(1024).tolist()[::-1]
        self._used += 1
        return self._outputs.pop()

    def below(self, n):
        """rng.integers(n), for 1 <= n < 2**32."""
        while n > 1:
            if self._has_half:
                self._has_half, word = 0, self._half
            else:
                r = self._output()
                self._has_half, self._half, word = 1, r >> 32, r & 0xFFFFFFFF
            m = word * n
            if (m & 0xFFFFFFFF) >= 0x100000000 % n:
                return m >> 32
        return 0

    def uniform(self, lo, hi):
        """rng.uniform(lo, hi)."""
        return lo + (hi - lo) * ((self._output() >> 11) * 2.0**-53)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._bitgen.state = dict(self._entry, has_uint32=self._has_half, uinteger=self._half)
        self._bitgen.random_raw(self._used)


def _service_order(xs, ys, spacing):
    """Placement indices chained greedily by nearest neighbor from (xs[0], ys[0]).

    Scattered pots come out of placement in cluster-growth order; driving
    that order would criss-cross the plot. The greedy chain is the natural
    route a chassis takes, and it keeps consecutive hops short. Of equally
    near pots the one placed first is taken.

    Each nearest pot is searched for ring by ring outward from the last
    pot's cell in a grid of `spacing`-wide cells. A pot r rings out is more
    than r - 1 cells away, so the search ends once the best distance is below
    that, or once its square would hold more cells than are left occupied,
    when it scans those instead. A taken pot's index leaves its cell's list.
    """
    size = _cell_size(spacing)
    cells = _grid(zip(xs, ys), size)

    def take(i):
        key = _cell(xs[i], ys[i], size)
        members = cells[key]
        members.remove(i)
        if not members:
            del cells[key]
        return i

    chain = [take(0)]
    while cells:
        lx, ly = xs[chain[-1]], ys[chain[-1]]
        cx, cy = _cell(lx, ly, size)
        best = None  # (distance, placement index)
        r = 0
        while best is None or best[0] >= (r - 1) * spacing:
            everything = (2 * r + 1) ** 2 > len(cells)
            if everything:
                candidates = (i for members in cells.values() for i in members)
            else:
                candidates = _ring(cells, cx, cy, r)
            for i in candidates:
                key = (math.hypot(xs[i] - lx, ys[i] - ly), i)
                if best is None or key < best:
                    best = key
            if everything:
                break
            r += 1
        chain.append(take(best[1]))
    return chain


@dataclass(frozen=True)
class LayoutSpec:
    """Recipe for building a layout; random kinds consume the trial generator."""

    kind: str  # grid | random
    count: int = 20
    spacing: float = 600.0  # mm, grid pitch
    nn_range: tuple = (400.0, 800.0)  # mm, random nearest-neighbor window
    shape: str = CIRCULAR
    width: float = 100.0
    height: float = 100.0

    def __post_init__(self):
        if self.kind not in ("grid", "random"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")


def realize_layout(spec, rng):
    if spec.kind == "grid":
        return grid_layout(spec.count, spec.spacing, spec.shape, spec.width, spec.height)
    return random_layout(
        spec.count, rng, nn_range=spec.nn_range, shape=spec.shape,
        width=spec.width, height=spec.height,
    )


@dataclass(frozen=True)
class EnvTuning:
    """One environment's operating point (detector, dispense and drive), and
    the config's `environments.<name>` section."""

    dispense_overshoot: float  # ratio above the target volume actually pumped
    spray_efficiency: float  # captured fraction retained after drift/splash
    drive_speed: float  # mm/s
    accuracy: float  # detector per-pot-per-frame hit probability
    fp_rate: float  # spurious detections per frame
    inference_time_ms: float
    center_noise_px: float  # per-axis scatter of a reported box center

    def __post_init__(self):
        # written so that NaN, which fails every comparison, is rejected too
        for ok, message in (
            (0 <= self.dispense_overshoot < 1, "dispense_overshoot must be in [0, 1)"),
            (0 < self.spray_efficiency <= 1, "spray_efficiency must be in (0, 1]"),
            (self.drive_speed > 0, "drive_speed must be positive"),
            (0 <= self.accuracy <= 1, "accuracy must be in [0, 1]"),
            (0 <= self.fp_rate <= 1, "fp_rate must be in [0, 1]"),
            (self.inference_time_ms >= 0, "inference_time_ms must be non-negative"),
            (self.center_noise_px >= 0, "center_noise_px must be non-negative"),
        ):
            if not ok:
                raise ValueError(message)


@dataclass(frozen=True)
class Environment:
    """One test environment, as `irribot.config.environment_for` builds it;
    `tuning` is the config's own record for it."""

    name: str
    slope: float  # degrees
    layout: LayoutSpec
    tuning: EnvTuning

    def __post_init__(self):
        if self.slope < 0:
            raise ValueError("slope must be non-negative")


# --------------------------------------------------------------------------
# detector

_FRAME_PX = (4000, 3000)  # detector frame width and height
_FP_KEEPOUT_PX = 1200.0  # a spurious box's least distance from every true pot
_FP_ATTEMPTS = 100  # placement draws before a spurious box is dropped


def simulate_detection(pots, station, tuning, rng, cal):
    """One detector frame over the pots currently in view.

    Pots are in the field frame, seen from the station (x, y) the chassis
    parked at, through the hand-eye offset: a pot's camera-axis offset is
    (pot.x - x) + cal.delta_x, and likewise in y. Each pot is found with
    probability `tuning.accuracy`; found pots get a box whose center scatters
    by center_noise_px and whose aspect ratio is drawn consistently with the
    pot shape. One spurious detection is injected with probability `fp_rate`,
    placed away from every true pot so it can never be confused with one.
    Draw order is fixed per pot for determinism.
    """
    sx, sy = station
    offsets = [((pot.x - sx) + cal.delta_x, (pot.y - sy) + cal.delta_y) for pot in pots]
    detections = []
    for pot, (x, y) in zip(pots, offsets):
        if rng.random() >= tuning.accuracy:
            continue
        u, v = arm_to_pixel(ArmTarget(x, y, cal.z_const), cal)
        cu = u + rng.normal(0.0, tuning.center_noise_px)
        cv = v + rng.normal(0.0, tuning.center_noise_px)
        w = (pot.width / cal.s) * (1.0 + rng.normal(0.0, 0.02))
        lo, hi = _RATIO_RANGES[pot.shape]
        ratio = rng.uniform(lo, hi)
        h = w / ratio
        conf = rng.uniform(0.6, 0.99)
        detections.append(
            Detection(BBox(cu - w / 2, cv - h / 2, cu + w / 2, cv + h / 2), pot.shape, conf)
        )
    if rng.random() < tuning.fp_rate:
        fp = _spurious_detection(offsets, rng, cal)
        if fp is not None:
            detections.append(fp)
    return detections


def _spurious_detection(offsets, rng, cal):
    """A plausible-looking false box in the frame, at least _FP_KEEPOUT_PX
    from every true pot at its camera-axis (x, y) offset."""
    frame_w, frame_h = _FRAME_PX
    cls = CIRCULAR if rng.random() < 0.5 else RECTANGULAR
    lo, hi = _RATIO_RANGES[cls]
    ratio = rng.uniform(lo, hi)
    w = rng.uniform(600.0, 1400.0)
    h = w / ratio
    conf = rng.uniform(0.55, 0.95)
    centers = [arm_to_pixel(ArmTarget(x, y, cal.z_const), cal) for x, y in offsets]
    for _ in range(_FP_ATTEMPTS):
        cu = rng.uniform(w / 2 + 1, frame_w - w / 2 - 1)
        cv = rng.uniform(h / 2 + 1, frame_h - h / 2 - 1)
        if all(math.hypot(cu - u, cv - v) >= _FP_KEEPOUT_PX for u, v in centers):
            return Detection(
                BBox(cu - w / 2, cv - h / 2, cu + w / 2, cv + h / 2), cls, conf
            )
    return None


# --------------------------------------------------------------------------
# dispensing geometry


def _lens_area(r1, r2, d):
    """Overlap area of two disks with radii r1, r2 and center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rm = min(r1, r2)
        return math.pi * rm * rm
    # standard two-segment lens; clamp acos arguments against rounding
    a1 = math.acos(min(1.0, max(-1.0, (d * d + r1 * r1 - r2 * r2) / (2 * d * r1))))
    a2 = math.acos(min(1.0, max(-1.0, (d * d + r2 * r2 - r1 * r1) / (2 * d * r2))))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return r1 * r1 * a1 + r2 * r2 * a2 - tri


def _quadrant_area(u, v, r):
    """Area of the origin-centered disk of radius r inside [0,u] x [0,v], u,v >= 0."""
    u = min(u, r)
    v = min(v, r)
    if u <= 0 or v <= 0:
        return 0.0
    if u * u + v * v <= r * r:
        return u * v
    yu = math.sqrt(r * r - u * u)
    xv = math.sqrt(r * r - v * v)
    return 0.5 * (xv * v + u * yu) + 0.5 * r * r * (math.asin(u / r) - math.asin(xv / r))


def _signed_corner(x, y, r):
    s = (1.0 if x >= 0 else -1.0) * (1.0 if y >= 0 else -1.0)
    return s * _quadrant_area(abs(x), abs(y), r)


def _disk_rect_area(cx, cy, r, half_w, half_h):
    """Overlap of a disk at (cx, cy) with the origin-centered rect 2half_w x 2half_h.

    Signed inclusion-exclusion of the disk's corner integral over the rect
    bounds, translated so the disk sits at the origin.
    """
    ax, bx = -half_w - cx, half_w - cx
    ay, by = -half_h - cy, half_h - cy
    return (
        _signed_corner(bx, by, r)
        - _signed_corner(ax, by, r)
        - _signed_corner(bx, ay, r)
        + _signed_corner(ax, ay, r)
    )


def capture_fraction(pot, offset_x, offset_y, spray_radius):
    """Fraction of the spray disk landing inside the pot opening.

    The spray is a uniform disk centered at the impact point, offset from the
    pot center by (offset_x, offset_y) mm.
    """
    if spray_radius <= 0:
        raise ValueError("spray radius must be positive")
    spray_area = math.pi * spray_radius * spray_radius
    if pot.shape == CIRCULAR:
        d = math.hypot(offset_x, offset_y)
        overlap = _lens_area(spray_radius, pot.radius, d)
    else:
        overlap = _disk_rect_area(
            offset_x, offset_y, spray_radius, pot.width / 2.0, pot.height / 2.0
        )
    return min(1.0, max(0.0, overlap / spray_area))


@dataclass(frozen=True)
class PumpConfig:
    """The pump, and the config's `pump` section."""

    flow_rate: float = 30.0  # mL/s
    spray_radius: float = 20.0  # mm
    target_volume: float = 100.0  # mL per pot

    def __post_init__(self):
        for name in ("flow_rate", "spray_radius", "target_volume"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def pumped_volume(pump, tuning):
    """mL pumped toward one pot: the target volume plus the environment's overshoot."""
    return pump.target_volume * (1.0 + tuning.dispense_overshoot)


def dispense(pump, tuning, positioning_error, pot, *, direction=(1.0, 0.0)):
    """Pump toward a pot with a known impact-point error.

    Returns (dispensed, delivered) in mL. The impact point sits
    positioning_error mm from the pot center along `direction`; delivered
    water is the `pumped_volume` scaled by the spray-disk capture fraction
    and the environment's spray efficiency.
    """
    if positioning_error < 0:
        raise ValueError("positioning error cannot be negative")
    norm = math.hypot(*direction)
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
    dispensed = pumped_volume(pump, tuning)
    frac = capture_fraction(
        pot,
        positioning_error * direction[0] / norm,
        positioning_error * direction[1] / norm,
        pump.spray_radius,
    )
    delivered = dispensed * frac * tuning.spray_efficiency
    return dispensed, delivered


# --------------------------------------------------------------------------
# battery


@dataclass(frozen=True)
class BatteryModel:
    capacity_mah: float = 2400.0
    voltage_full: float = 12.6
    voltage_cutoff: float = 11.1
    drive_ma: float = 10824.0
    leveling_ma: float = 3416.0
    arm_ma: float = 1100.0
    pump_ma: float = 1400.0
    compute_ma: float = 900.0

    def __post_init__(self):
        if self.capacity_mah <= 0:
            raise ValueError("capacity must be positive")
        if not self.voltage_full > self.voltage_cutoff > 0:
            raise ValueError("voltage_full must exceed voltage_cutoff, which must be positive")
        for name in SUBSYSTEMS:
            if getattr(self, f"{name}_ma") < 0:
                raise ValueError(f"{name}_ma cannot be negative")

    def current_ma(self, subsystems):
        """Summed draw of the named subsystems, mA.

        The draws are summed in SUBSYSTEMS order, whatever order the
        collection iterates in, so a set of names drains the same in every
        process.
        """
        unknown = set(subsystems).difference(SUBSYSTEMS)
        if unknown:
            raise ValueError(f"unknown subsystem {min(unknown)!r}")
        return ltr_sum(getattr(self, f"{s}_ma") for s in SUBSYSTEMS if s in subsystems)

    def voltage(self, charge_mah):
        """Terminal voltage, linear in state of charge from cutoff to full."""
        soc = charge_mah / self.capacity_mah
        return self.voltage_cutoff + (self.voltage_full - self.voltage_cutoff) * soc


def battery_step(model, charge, current_ma, dt, ticks=1):
    """Drain `charge` (mAh) at `current_ma` over at most `ticks` ticks of dt
    seconds each, stopping on the first tick whose voltage is below the cutoff.

    Returns (charge, depleted, ticks run). Ticks apply one at a time, so one
    n-tick call equals one-tick calls up to and including its first depleted
    tick, bit for bit. With capacity > 0 and full > cutoff > 0, a non-negative
    charge never reads below the cutoff (IEEE division, multiplication and
    addition are monotone), so only a negative charge needs its voltage.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    drain = current_ma * dt / 3600.0
    for n in range(1, ticks + 1):
        charge = charge - drain
        if charge < 0.0 and model.voltage(charge) < model.voltage_cutoff:
            return charge, True, n
    return charge, False, ticks
