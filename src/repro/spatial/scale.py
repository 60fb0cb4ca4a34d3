"""Map scale, viewport and cartographic generalization helpers.

The paper motivates context-sensitive answers: "gis users expect different
answers to the same query, according to the context (e.g., scale, time,
region, application)" (§2.2), and notes the context tuple "can conceivably
be extended to other contextual data (e.g., geographic scale, time
framework)" (§3.3). This module supplies the scale/viewport vocabulary the
extended contexts and the map display use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GeometryError
from .algorithms import simplify_line
from .geometry import BBox, Geometry, LineString, MultiLineString, Point, Polygon, Ring


@dataclass(frozen=True)
class MapScale:
    """A representative-fraction map scale, e.g. ``MapScale(10_000)`` = 1:10k."""

    denominator: float

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise GeometryError("scale denominator must be positive")

    def ground_units_per_mm(self) -> float:
        """Ground meters represented by one millimetre of screen/paper."""
        return self.denominator / 1000.0

    def is_smaller_than(self, other: "MapScale") -> bool:
        """1:50k is *smaller* than 1:10k (less detail)."""
        return self.denominator > other.denominator

    def __str__(self) -> str:
        return f"1:{self.denominator:g}"


#: Conventional scale bands used by default generalization rules.
SCALE_BANDS = {
    "detail": MapScale(1_000),
    "street": MapScale(10_000),
    "district": MapScale(50_000),
    "city": MapScale(250_000),
    "region": MapScale(1_000_000),
}


class Viewport:
    """A screen viewport mapping ground coordinates to character/pixel cells.

    The renderers in :mod:`repro.uilib.rendering` use a viewport to place
    geometries on a fixed-size raster.
    """

    def __init__(self, extent: BBox, width: int, height: int):
        if extent.is_empty() or extent.width <= 0 or extent.height <= 0:
            raise GeometryError("viewport extent must have positive area")
        if width < 1 or height < 1:
            raise GeometryError("viewport raster must be at least 1x1")
        self.extent = extent
        self.width = int(width)
        self.height = int(height)

    def to_cell(self, x: float, y: float) -> tuple[int, int] | None:
        """Map a ground coordinate to a (col, row) cell; None when outside.

        Row 0 is the *top* of the raster (screen convention).
        """
        extent = self.extent
        min_x, min_y = extent.min_x, extent.min_y
        max_x, max_y = extent.max_x, extent.max_y
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            return None
        fx = (x - min_x) / (max_x - min_x)
        fy = (y - min_y) / (max_y - min_y)
        col = min(self.width - 1, int(fx * self.width))
        row = min(self.height - 1, int((1.0 - fy) * self.height))
        return (col, max(0, row))

    def cell_ground_size(self) -> tuple[float, float]:
        """Ground width/height represented by one raster cell."""
        return (self.extent.width / self.width, self.extent.height / self.height)

    def implied_scale(self, mm_per_cell: float = 3.0) -> MapScale:
        """Scale implied by the viewport assuming ``mm_per_cell`` on screen."""
        gw, __ = self.cell_ground_size()
        meters_per_mm = gw / mm_per_cell
        return MapScale(meters_per_mm * 1000.0)

    def zoomed(self, factor: float) -> "Viewport":
        """Return a viewport zoomed about the extent center.

        ``factor > 1`` zooms in (smaller ground extent).
        """
        if factor <= 0:
            raise GeometryError("zoom factor must be positive")
        cx, cy = self.extent.center()
        half_w = self.extent.width / (2.0 * factor)
        half_h = self.extent.height / (2.0 * factor)
        return Viewport(
            BBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h),
            self.width,
            self.height,
        )

    def panned(self, dx_fraction: float, dy_fraction: float) -> "Viewport":
        """Return a viewport shifted by fractions of its own extent."""
        dx = dx_fraction * self.extent.width
        dy = dy_fraction * self.extent.height
        return Viewport(
            BBox(
                self.extent.min_x + dx,
                self.extent.min_y + dy,
                self.extent.max_x + dx,
                self.extent.max_y + dy,
            ),
            self.width,
            self.height,
        )


def generalize(geom: Geometry, scale: MapScale) -> Geometry | None:
    """Cartographic generalization of a geometry for a display scale.

    * Points always survive.
    * Lines are Douglas–Peucker simplified with a tolerance of half the
      ground distance covered by one display millimetre; lines shorter than
      one display millimetre collapse to ``None`` (not drawn).
    * Polygons smaller than one square display millimetre collapse to their
      centroid point; otherwise their exterior is simplified.
    """
    mm_ground = scale.ground_units_per_mm()
    tolerance = mm_ground / 2.0
    if isinstance(geom, Point):
        return geom
    if isinstance(geom, LineString):
        if geom.length() < mm_ground:
            return None
        coords = simplify_line(geom.coords, tolerance)
        if len(coords) < 2:
            return None
        return LineString(coords)
    if isinstance(geom, MultiLineString):
        kept = [g for g in (generalize(m, scale) for m in geom) if g is not None]
        if not kept:
            return None
        return MultiLineString(kept) if len(kept) > 1 else kept[0]
    if isinstance(geom, Polygon):
        if geom.area() < mm_ground * mm_ground:
            return geom.centroid()
        coords = simplify_line(list(geom.exterior.coords) + [geom.exterior.coords[0]],
                               tolerance)
        if len(coords) < 4:
            return geom.centroid()
        try:
            return Polygon(Ring(coords))
        except GeometryError:
            return geom.centroid()
    # Collections of points / polygons: generalize member-wise, keep type.
    if hasattr(geom, "members"):
        kept = [g for g in (generalize(m, scale) for m in geom.members) if g is not None]
        return kept[0] if len(kept) == 1 else (type(geom)(kept) if kept and all(
            isinstance(k, type(geom).member_type) for k in kept) else None)
    raise GeometryError(f"cannot generalize {type(geom).__name__}")


def extent_for_scale(center: tuple[float, float], scale: MapScale,
                     width_mm: float = 200.0, height_mm: float = 150.0) -> BBox:
    """Ground extent visible on a ``width_mm`` x ``height_mm`` display."""
    gw = scale.ground_units_per_mm() * width_mm
    gh = scale.ground_units_per_mm() * height_mm
    cx, cy = center
    return BBox(cx - gw / 2, cy - gh / 2, cx + gw / 2, cy + gh / 2)


def scale_for_extent(extent: BBox, width_mm: float = 200.0) -> MapScale:
    """The scale at which ``extent`` fits a display ``width_mm`` wide."""
    if extent.is_empty() or extent.width <= 0:
        raise GeometryError("extent must have positive width")
    meters_per_mm = extent.width / width_mm
    return MapScale(math.ceil(meters_per_mm * 1000.0))
