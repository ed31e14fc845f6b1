"""Unit conventions and conversion helpers.

The library uses one canonical unit per quantity everywhere in its core
data structures, chosen to keep typical values near 1.0:

========== ============ =======================================
Quantity   Canonical    Typical magnitude
========== ============ =======================================
distance   micrometre   cell pitch ~1, die ~1000
time       picosecond   gate delay ~10, clock period ~400
capacitance femtofarad  pin cap ~1, wire ~100
resistance ohm          wire ~100, via ~0.5
voltage    volt         0.81 / 0.9
power      milliwatt    cells ~1e-3, designs ~1e3
frequency  megahertz    2000-2500
========== ============ =======================================

Helpers convert to the display units used by the paper's tables (ns
for TNS, pF for the GNN's capacitance features) and turn a clock
target into its period.
"""

from __future__ import annotations

# -- time -------------------------------------------------------------------

PS_PER_NS = 1000.0


def ps_to_ns(ps: float) -> float:
    """Convert canonical picoseconds to nanoseconds."""
    return ps / PS_PER_NS


# -- capacitance ------------------------------------------------------------

FF_PER_PF = 1000.0


def ff_to_pf(ff: float) -> float:
    """Convert canonical femtofarads to picofarads."""
    return ff / FF_PER_PF


# -- frequency / period -----------------------------------------------------


def mhz_to_period_ps(mhz: float) -> float:
    """Clock period in ps for a frequency in MHz.

    >>> mhz_to_period_ps(2500)
    400.0
    """
    if mhz <= 0:
        raise ValueError(f"frequency must be positive, got {mhz}")
    return 1e6 / mhz


# -- RC delay ---------------------------------------------------------------
# With R in ohm and C in fF, R*C yields femtoseconds * 1e0?  ohm*fF =
# 1e-15 s = 1 fs.  Canonical time is ps, so divide by 1000.

FS_PER_PS = 1000.0


def rc_to_ps(r_ohm: float, c_ff: float) -> float:
    """Elmore product of ohms and femtofarads, expressed in picoseconds.

    1 kohm x 1000 fF = 1 ns:

    >>> rc_to_ps(1000.0, 1000.0)
    1000.0
    """
    return (r_ohm * c_ff) / FS_PER_PS
