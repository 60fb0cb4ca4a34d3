"""Byte-identity of Class-set window renders.

The pinned digests cover the text renders and ``render_html`` output of
every Class-set window a §4 browse can produce on two database sizes,
under the Figure 6 context, a generic context and a map-scale context,
as built, after the operations menu's Zoom and Pan items and with an
instance selected. Any change
to the widget, layout or rasterizer code that moves a single byte of
output fails here; a deliberate change to what a window shows must
re-pin the digests and say why.
"""

import hashlib
import itertools

import pytest

from repro.core import GISKernel
from repro.geodb import instances
from repro.lang import FIGURE_6_PROGRAM
from repro.uilib import render_html
from repro.workloads import PhoneNetParams, build_phone_net_database

#: Cables drawn through the generalizing ``lineFormat`` at 1:10k, so the
#: scale context exercises cartographic generalization too.
SCALE_PROGRAM = """
for application atlas scale 1000..100000
schema phone_net display as default
class Cable display
    presentation as lineFormat
"""

DATABASES = {
    "demo": PhoneNetParams(),
    "poles370": PhoneNetParams(blocks_x=16, blocks_y=19,
                               poles_per_street=10, duct_count=20),
}

CONTEXTS = (
    {"user": "juliano", "application": "pole_manager"},   # Figure 6
    {"user": "visitor", "application": "browser"},        # generic
    {"user": "rita", "application": "atlas", "scale_denominator": 10_000},
)

CLASSES = ("Pole", "Cable", "Duct", "Supplier")

#: What happens to each Class-set window between renders: built, then
#: the Zoom and Pan menu items, then the last instance is selected.
STEPS = ("open", "zoom", "pan", "select")

#: SHA-256 over every render below, computed before the linear-time
#: widget and rasterizer rewrite and required to stay put since.
PINNED = {
    "demo": "4dac777be09ce6111b3dcf467323132dada2454a2f11d5d32fedc7d5241205c2",
    "poles370":
        "e4343776b20ee2c043437c84622129b8e028555cdae6cb83ad757cc8e3e129e6",
}


def _renders(params: PhoneNetParams):
    """Yield ``(label, output)`` for every window render of one DB."""
    db = build_phone_net_database(params)
    with GISKernel(db) as kernel:
        kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        kernel.install_program(SCALE_PROGRAM, persist=False)
        for context in CONTEXTS:
            session = kernel.session(**context)
            tag = session.context.describe()
            schema_window = session.connect("phone_net")
            yield f"{tag} schema", session.renderer.render(schema_window)
            for class_name in CLASSES:
                window = session.select_class(class_name)
                menu = window.find("operations")
                instances = window.find("instances")
                for step in STEPS:
                    if step in ("zoom", "pan"):
                        menu.activate(step)
                    elif step == "select":
                        instances.select(instances.items[-1][0])
                    label = f"{tag} {class_name} {step}"
                    yield f"{label} text", session.renderer.render(window)
                    yield f"{label} html", render_html(window)
            session.shutdown()


def render_digest(params: PhoneNetParams) -> str:
    digest = hashlib.sha256()
    for label, output in _renders(params):
        digest.update(label.encode())
        digest.update(b"\0")
        digest.update(output.encode())
        digest.update(b"\0")
    return digest.hexdigest()


@pytest.fixture()
def fresh_oids(monkeypatch):
    """Number oids from 1, as a fresh process does: oids come from one
    process-wide counter, so renders would otherwise depend on how many
    objects earlier tests created."""
    monkeypatch.setattr(instances, "_oid_counter", itertools.count(1))


@pytest.mark.parametrize("db_name", sorted(DATABASES))
def test_class_set_renders_are_byte_identical(db_name, fresh_oids):
    assert render_digest(DATABASES[db_name]) == PINNED[db_name]


def test_renders_cover_every_window_state():
    labels = [label for label, __ in _renders(DATABASES["demo"])]
    assert len(labels) == len(CONTEXTS) * (1 + len(CLASSES) * len(STEPS) * 2)
    assert len(set(labels)) == len(labels)
