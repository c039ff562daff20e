"""Unit and property tests for the detection post-processing pipeline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irribot.detect import (
    CIRCULAR,
    RECTANGULAR,
    BBox,
    Detection,
    GeometryBands,
    UnknownContainerClass,
    aspect_ratio_valid,
    confidence_gate,
    enhanced_detection,
    iou,
    nms,
)

BANDS = GeometryBands()


def box(u0, v0, u1, v1):
    return BBox(u0, v0, u1, v1)


def det(u0, v0, u1, v1, conf=0.9, cls=CIRCULAR):
    return Detection(bbox=box(u0, v0, u1, v1), cls=cls, conf=conf)


# ---------------------------------------------------------------- oracles

def _overlap_1d(a_lo, a_hi, b_lo, b_hi):
    lo = a_lo if a_lo > b_lo else b_lo
    hi = a_hi if a_hi < b_hi else b_hi
    return hi - lo if hi > lo else 0.0


def iou_oracle(a: BBox, b: BBox) -> float:
    inter = _overlap_1d(a.u_min, a.u_max, b.u_min, b.u_max) * _overlap_1d(
        a.v_min, a.v_max, b.v_min, b.v_max
    )
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


def nms_oracle(dets, thr):
    """Pairwise-suppression recomputation: a detection survives iff no
    higher-ranked survivor overlaps it beyond thr."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].conf, i))
    kept_idx = []
    for i in order:
        if all(iou_oracle(dets[i].bbox, dets[k].bbox) <= thr for k in kept_idx):
            kept_idx.append(i)
    return [dets[i] for i in kept_idx]


def pipeline_oracle(dets, bands, conf_thr, iou_thr):
    stage1 = [d for d in dets if not d.conf < conf_thr]
    stage2 = []
    for d in stage1:
        lo, hi = bands.band_for(d.cls)
        r = d.bbox.width / d.bbox.height
        if lo < r < hi:
            stage2.append(d)
    return nms_oracle(stage2, iou_thr)


def random_detections(rng, n):
    dets = []
    for _ in range(n):
        u0 = rng.uniform(0, 200)
        v0 = rng.uniform(0, 200)
        w = rng.uniform(5, 120)
        h = rng.uniform(5, 120)
        cls = rng.choice([CIRCULAR, RECTANGULAR])
        dets.append(
            Detection(BBox(u0, v0, u0 + w, v0 + h), cls, round(rng.uniform(0, 1), 3))
        )
    return dets


# ------------------------------------------------------- confidence gate

def test_gate_drops_below_threshold():
    d_hi = det(0, 0, 10, 10, conf=0.6)
    d_lo = det(0, 0, 10, 10, conf=0.4)
    assert confidence_gate([d_hi, d_lo], 0.5) == [d_hi]


def test_gate_empty_input():
    assert confidence_gate([], 0.5) == []


def test_gate_keeps_exact_boundary():
    d = det(0, 0, 10, 10, conf=0.5)
    assert confidence_gate([d], 0.5) == [d]


def test_gate_rejects_bad_threshold():
    with pytest.raises(ValueError):
        confidence_gate([], 1.5)


# -------------------------------------------------- aspect ratio validation

def test_ratio_square_circular_valid():
    assert aspect_ratio_valid(det(0, 0, 100, 100), BANDS) is True


def test_ratio_between_bands_invalid():
    assert aspect_ratio_valid(det(0, 0, 115, 100), BANDS) is False


def test_ratio_rectangular_band_valid():
    assert aspect_ratio_valid(det(0, 0, 130, 100, cls=RECTANGULAR), BANDS) is True


@pytest.mark.parametrize("ratio", [0.9, 1.1, 1.2, 1.5])
def test_ratio_boundaries_excluded(ratio):
    # strict inequalities: all four band edges are rejected for both classes
    for cls in (CIRCULAR, RECTANGULAR):
        d = det(0, 0, ratio * 100.0, 100.0, cls=cls)
        assert aspect_ratio_valid(d, BANDS) is False


def test_band_for_maps_each_class_to_its_band():
    bands = GeometryBands(band_a=(0.5, 0.8), band_b=(2.0, 3.0))
    assert bands.band_for(CIRCULAR) == (0.5, 0.8)
    assert bands.band_for(RECTANGULAR) == (2.0, 3.0)


def test_unknown_class_raises():
    d = Detection(box(0, 0, 10, 10), "hexagonal", 0.9)
    with pytest.raises(UnknownContainerClass):
        aspect_ratio_valid(d, BANDS)


def test_overlapping_bands_rejected():
    with pytest.raises(ValueError):
        GeometryBands(band_a=(0.9, 1.3), band_b=(1.2, 1.5))


# ------------------------------------------------------------------- iou

def test_iou_identical():
    b = box(0, 0, 2, 2)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(box(0, 0, 2, 2), box(5, 5, 7, 7)) == 0.0


def test_iou_hand_computed_third():
    # inter 1x2=2, union 4+4-2=6
    assert iou(box(0, 0, 2, 2), box(1, 0, 3, 2)) == pytest.approx(1 / 3)


def test_iou_shared_edge_is_zero():
    assert iou(box(0, 0, 2, 2), box(2, 0, 4, 2)) == 0.0


@given(
    st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(0.1, 100), st.floats(0.1, 100),
    ),
    st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(0.1, 100), st.floats(0.1, 100),
    ),
)
def test_iou_symmetric_and_bounded(p, q):
    a = BBox(p[0], p[1], p[0] + p[2], p[1] + p[3])
    b = BBox(q[0], q[1], q[0] + q[2], q[1] + q[3])
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)


# ------------------------------------------------------------------- nms

def test_nms_suppresses_identical():
    a = det(0, 0, 10, 10, conf=0.9)
    b = det(0, 0, 10, 10, conf=0.8)
    assert nms([b, a], 0.3) == [a]


def test_nms_keeps_disjoint():
    a = det(0, 0, 10, 10, conf=0.9)
    b = det(100, 100, 110, 110, conf=0.8)
    assert nms([b, a], 0.3) == [a, b]


def test_nms_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(200):
        dets = random_detections(rng, rng.randint(0, 8))
        thr = rng.choice([0.1, 0.3, 0.5, 0.7])
        assert nms(dets, thr) == nms_oracle(dets, thr)


@given(st.data())
@settings(max_examples=60)
def test_nms_idempotent(data):
    n = data.draw(st.integers(0, 8))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    dets = random_detections(rng, n)
    once = nms(dets, 0.3)
    assert nms(once, 0.3) == once


def test_nms_class_aware_flag():
    # suppression is class-agnostic: an overlapping box of the other class goes
    a = det(0, 0, 10, 10, conf=0.9, cls=CIRCULAR)
    b = det(0, 0, 10, 13, conf=0.8, cls=RECTANGULAR)
    assert nms([a, b], 0.3) == [a]


# ------------------------------------------------------------ full pipeline

def test_pipeline_drops_low_conf():
    d = det(0, 0, 100, 100, conf=0.4)
    assert enhanced_detection([d], BANDS) == []


def test_pipeline_passes_clean_detection():
    d = det(0, 0, 100, 100, conf=0.9)
    assert enhanced_detection([d], BANDS) == [d]


def test_pipeline_matches_staged_oracle_mixed():
    dets = [
        det(0, 0, 100, 100, conf=0.9),                      # kept
        det(2, 2, 102, 102, conf=0.8),                      # suppressed by nms
        det(0, 0, 100, 100, conf=0.3),                      # gated out
        det(0, 0, 115, 100, conf=0.9),                      # ratio invalid
        det(200, 0, 330, 100, conf=0.7, cls=RECTANGULAR),   # kept
        det(0, 200, 150, 300, cls=CIRCULAR, conf=0.95),     # ratio 1.5 invalid
    ]
    assert enhanced_detection(dets, BANDS) == pipeline_oracle(dets, BANDS, 0.5, 0.3)


@given(st.integers(0, 10**6), st.integers(0, 10))
@settings(max_examples=80)
def test_pipeline_subset_and_unmodified(seed, n):
    rng = random.Random(seed)
    dets = random_detections(rng, n)
    out = enhanced_detection(dets, BANDS)
    for d in out:
        assert d in dets  # only dropped, never altered


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_pipeline_monotone_in_conf_threshold(seed):
    rng = random.Random(seed)
    dets = random_detections(rng, 8)
    sizes = [
        len(enhanced_detection(dets, BANDS, conf_threshold=t))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert sizes == sorted(sizes, reverse=True)
