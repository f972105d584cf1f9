"""Physical constants (CODATA 2018) and unit conversions.

All SI. Dielectric models work in photon energies (eV); the conversion to
angular frequency happens once, at the Lifshitz-integral boundary.
"""

from __future__ import annotations

from .records import Record


class PhysicalConstants(Record):
    """Fixed CODATA values used throughout the toolkit."""

    hbar: float = 1.054571817e-34      # J s
    c: float = 299792458.0             # m/s
    eps0: float = 8.8541878128e-12     # F/m
    G: float = 6.67430e-11             # m^3 / (kg s^2)
    ev: float = 1.602176634e-19        # J per eV


CODATA = PhysicalConstants()

# hbar * c in eV m, used to map the dimensionless Lifshitz frequency
# variable back to a photon energy at a given separation.
HBARC_EV_M = CODATA.hbar * CODATA.c / CODATA.ev

# Elements (float64) per chunk of an array pass taken a chunk at a time:
# 64 KiB temporaries stay below glibc's 128 KiB mmap threshold, so they are
# reused from the heap instead of being mapped and faulted in afresh.
BLOCK = 1 << 13
