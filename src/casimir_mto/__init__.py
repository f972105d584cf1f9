"""Casimir-force pipeline for a sphere-plane torsional-oscillator experiment.

Modules by physics stage:

- materials: dielectric models eps(i xi) from tabulated data + Drude tails
- lifshitz: zero-temperature force/pressure integrals and ideal closed forms
- roughness: separation distributions from topography, averaged forces
- electrostatics: exact sphere-plane force series and system calibration
- oscillator: torsional-oscillator forward/inverse model, sweep simulation
- yukawa: hypothetical short-range force and exclusion limits
- cli: batch command-line interface over all of the above; each command
  loads only the layers it runs

and the modules they share:

- inputs: one reader for JSON documents and headed CSV tables
- records: the immutable ``Record`` base of every parameter and result type
- errors: the exception hierarchy behind the CLI's exit codes
- constants: CODATA values and unit conversions

Everything is pure Python on NumPy and the standard library; there is
no build step.
"""

from .constants import CODATA, PhysicalConstants

__version__ = "0.1.0"

__all__ = [
    "CODATA",
    "PhysicalConstants",
    "__version__",
]
