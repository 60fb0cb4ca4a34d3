"""Model checks for the indexed state of ListWidget and DrawingArea.

``ListWidget`` keeps a key→position index beside its items and
``DrawingArea`` keeps a running data extent beside its features. Seeded
random operation sequences drive each widget next to a plain model (a
list of items and a selected position; a ``BBox.union`` fold over the
features) and compare after every step.
"""

import random

import pytest

from repro.errors import WidgetError
from repro.spatial import BBox, LineString, MultiPoint, Point, Polygon
from repro.spatial import Viewport
from repro.uilib import DrawingArea, ListWidget, render_html, render_text

SEEDS = range(8)

#: a small key pool, so duplicates, misses and re-adds all happen often
KEYS = [f"k{i}" for i in range(10)]


class ListModel:
    """The pre-index ListWidget semantics: linear scans over a list."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []
        self.selected: int | None = None

    def position(self, key):
        for i, (k, __) in enumerate(self.items):
            if k == key:
                return i
        return None

    @property
    def selected_key(self):
        return None if self.selected is None else self.items[self.selected][0]


def _check_list(lst: ListWidget, model: ListModel) -> None:
    assert lst.items == model.items
    assert lst.selected_key == model.selected_key
    assert lst.describe()["items"] == [label for __, label in model.items]


@pytest.mark.parametrize("seed", SEEDS)
def test_list_widget_matches_plain_list_model(seed):
    rng = random.Random(seed)
    lst, model = ListWidget("l"), ListModel()
    selections: list[int] = []
    lst.on("select", lambda ev: selections.append(ev.data["index"]))
    removed: set[str] = set()
    readded = rejected = 0
    for __ in range(400):
        op, key = rng.choice(("add", "add", "remove", "select")), \
            rng.choice(KEYS)
        at = model.position(key)
        if op == "add":
            label = f"{key}@{rng.randrange(100)}"
            if at is not None:
                # a duplicate is rejected exactly when the key is present
                with pytest.raises(WidgetError, match="already has item"):
                    lst.add_item(key, label)
                rejected += 1
            else:
                lst.add_item(key, label)
                model.items.append((key, label))
                readded += key in removed
        elif at is None:
            with pytest.raises(WidgetError, match="has no item"):
                (lst.remove_item if op == "remove" else lst.select)(key)
        elif op == "remove":
            lst.remove_item(key)
            del model.items[at]
            if model.selected == at:
                model.selected = None
            elif model.selected is not None and model.selected > at:
                model.selected -= 1
            removed.add(key)
        else:
            lst.select(key)
            model.selected = at
            assert selections[-1] == at
        _check_list(lst, model)
    assert readded and rejected   # the sequence exercised both


def test_removed_key_can_be_added_again():
    lst = ListWidget("l", items=[("a", "A"), ("b", "B"), ("c", "C")])
    lst.select("c")
    lst.remove_item("a")
    lst.add_item("a", "A again")
    assert lst.items == [("b", "B"), ("c", "C"), ("a", "A again")]
    assert lst.selected_key == "c"
    assert lst.select("a") == []
    assert lst.selected_key == "a"
    with pytest.raises(WidgetError):
        lst.add_item("a")


def _random_geometry(rng: random.Random):
    def coord():
        return (rng.uniform(-500, 500), rng.uniform(-500, 500))

    kind = rng.randrange(4)
    if kind == 0:
        return Point(*coord())
    if kind == 1:
        return LineString([coord() for __ in range(rng.randint(2, 5))])
    if kind == 2:
        (x, y), w, h = coord(), rng.uniform(1, 50), rng.uniform(1, 50)
        return Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
    return MultiPoint([Point(*coord()) for __ in range(rng.randint(1, 4))])


def _folded_extent(area: DrawingArea) -> BBox:
    box = BBox.empty()
    for __, geom, __sym in area.features:
        box = box.union(geom.bbox())
    return box


@pytest.mark.parametrize("seed", SEEDS)
def test_drawing_area_extent_equals_union_fold(seed):
    rng = random.Random(seed)
    area = DrawingArea("map", width=30, height=10)
    for step in range(300):
        if rng.random() < 0.04:
            area.clear_features()
        else:
            area.add_feature(f"f{step}", _random_geometry(rng),
                             rng.choice("*o#"))
        extent = area.data_extent()
        assert extent == _folded_extent(area)   # exact floats
        assert extent.is_empty() == (not area.features)


def test_degenerate_extent_keeps_the_default_viewport():
    area = DrawingArea("map", width=20, height=10)
    assert area.data_extent().is_empty()
    assert area.viewport.extent == BBox(-0.05, -0.05, 1.05, 1.05)
    area.add_feature("p", Point(3, 4))
    assert area.data_extent() == BBox(3, 4, 3, 4)
    assert area.viewport.extent.center() == (3.0, 4.0)


def test_renders_clip_a_viewport_wider_than_the_area():
    """``set_viewport`` accepts any raster size; the renderers draw only
    the area's own width x height cells of it."""
    area = DrawingArea("map", width=10, height=4)
    area.add_feature("near", Point(1, 7), "o")
    area.add_feature("far", Point(39, 7), "@")
    area.set_viewport(Viewport(BBox(0, 0, 40, 8), 40, 8))
    assert area.rasterize() == {(1, 1): ("o", "near"), (39, 1): ("@", "far")}
    text = render_text(area)
    assert "@" not in text
    assert text.splitlines()[2] == "| o" + " " * 8 + "|"
    html = render_html(area)
    assert "data-oid='near'" in html and "data-oid='far'" not in html
