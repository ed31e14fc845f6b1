"""Two-tier placement.

Pseudo-3D flows place both dies on the same footprint: the joint 2D
quadratic solve spreads all instances (both tiers share x/y), and each
tier is then legalized onto its own rows.  This mirrors how Macro-3D
keeps vertically-related logic and memory aligned so F2F connections
stay short.

The quadratic engine lives in :mod:`repro.place.system`: one
:class:`NetConnectivity` walk per netlist, one cached
:class:`PlacementSystem` assembly per movable/fixed split, any number
of anchored solves against it.
"""

from repro.place.floorplan import Floorplan, make_floorplan
from repro.place.placement import Placement
from repro.place.quadratic import quadratic_solve
from repro.place.system import NetConnectivity, PlacementSystem
from repro.place.bisection import bisection_place
from repro.place.legalize import legalize_tier
from repro.place.placer import place_design

__all__ = [
    "Floorplan",
    "make_floorplan",
    "NetConnectivity",
    "Placement",
    "PlacementSystem",
    "quadratic_solve",
    "bisection_place",
    "legalize_tier",
    "place_design",
]
