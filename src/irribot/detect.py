"""Detection post-processing: confidence gating, container-geometry
validation, and greedy non-maximum suppression.

Works on candidate boxes only; there is no inference, decoding, or image
handling here. All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

CIRCULAR = "circular"
RECTANGULAR = "rectangular"

# Per-class aspect-ratio (w/h) acceptance intervals, both ends excluded:
# circular pots are near-square, rectangular pots elongated.
ASPECT_BANDS = {CIRCULAR: (0.9, 1.1), RECTANGULAR: (1.2, 1.5)}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in continuous pixel coordinates."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if not (self.u_max > self.u_min and self.v_max > self.v_min):
            raise ValueError(f"degenerate bbox: {self}")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height


@dataclass(frozen=True)
class Detection:
    """One candidate container detection."""

    bbox: BBox
    cls: str          # container class, a key of ASPECT_BANDS
    conf: float       # confidence in [0, 1]

    def __post_init__(self):
        if self.cls not in ASPECT_BANDS:
            raise ValueError(f"no geometry band for container class {self.cls!r}")
        if not 0.0 <= self.conf <= 1.0:
            raise ValueError(f"confidence out of range: {self.conf}")


def confidence_gate(dets: list[Detection], threshold: float) -> list[Detection]:
    """Keep detections with conf >= threshold, preserving order.

    The boundary is kept: the gate drops strictly-below-threshold boxes.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold out of [0, 1]: {threshold}")
    return [d for d in dets if d.conf >= threshold]


def aspect_ratio_valid(det: Detection) -> bool:
    """True iff the box's w/h lies strictly inside its class band."""
    lo, hi = ASPECT_BANDS[det.cls]
    ratio = det.bbox.aspect_ratio
    return lo < ratio < hi


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1].

    Boxes sharing only an edge have zero-area intersection and IoU 0.
    """
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def nms(dets: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-confidence remaining detection and
    discards the others overlapping it with IoU > iou_threshold. Output
    is sorted by descending confidence (stable for ties), which makes
    the operation idempotent. Suppression ignores the class: overlapping
    boxes of different classes compete for the same container.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold out of [0, 1]: {iou_threshold}")
    remaining = sorted(dets, key=lambda d: -d.conf)
    kept: list[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if iou(d.bbox, best.bbox) <= iou_threshold]
    return kept


def enhanced_detection(
    dets: list[Detection],
    conf_threshold: float,
    iou_threshold: float,
) -> list[Detection]:
    """Full post-processing pipeline: confidence gate, then geometry
    validation, then NMS, in that order."""
    gated = confidence_gate(dets, conf_threshold)
    validated = [d for d in gated if aspect_ratio_valid(d)]
    return nms(validated, iou_threshold)
