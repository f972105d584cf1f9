"""Regenerates the bundled demo calibration sweep.

Noiseless synthetic data from the reference system constants
(k = 50280 N/F, V0 = 0.6325 V, R = 294.3 um, delta0 = 39.4 nm), so
`casimir-mto calibrate` on this file recovers exactly those values.

Run from the repository root:  python tools/make_demo_calibration.py
``--out DIR`` writes the file there instead of the package's data directory.
"""

import argparse
from pathlib import Path

import numpy as np

from casimir_mto.electrostatics import make_calibration_samples

OUT = Path(__file__).resolve().parents[1] / "src" / "casimir_mto" / "data"

TRUTH = (50280.0, 0.6325, 294.3e-6, 39.4e-9)
Z_GRID = np.linspace(0.6e-6, 3e-6, 16)
VOLTAGES = (0.1325, 0.3325, 0.4825, 0.7825, 0.9325, 1.1325)


def write_demo(path):
    """Write the demo sweep to ``path``; returns the number of samples."""
    samples = make_calibration_samples(*TRUTH, Z_GRID, VOLTAGES)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# noiseless synthetic sweep; truth: k=50280 N/F, "
                 "V0=0.6325 V, R=294.3e-6 m, delta0=39.4e-9 m\n")
        fh.write("z_metal_m,v_applied_v,delta_c_f\n")
        for z_metal, v_applied, delta_c in samples.tolist():
            fh.write(f"{z_metal:.17e},{v_applied:.17e},{delta_c:.17e}\n")
    return len(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT, metavar="DIR",
                    help="output directory (default: the package data)")
    out = ap.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibration_demo.csv"
    print(f"wrote {path} ({write_demo(path)} samples)")


if __name__ == "__main__":
    main()
