"""Regenerates the bundled synthetic optical tables and registry.

The tables are Drude + interband-Lorentz loss spectra shaped like
noble-metal optical data. They are NOT measurements: they exist so the
pipeline has a self-consistent tabulated-material path out of the box.
The Drude part matches the registry defaults exactly, which keeps the
low-energy splice continuous.

Each tabulated registry entry also gets its eps sampler's state,
``<name>_sampler.f8``, built from the files just written by this
checkout's ``casimir_mto`` and stored with the exact bytes of the table
CSV it was built from (``materials.save_sampler``).

Run from the repository root:  python tools/make_optical_tables.py
``--out DIR`` writes the files there instead of the package's data directory.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "casimir_mto" / "data"
sys.path.insert(0, str(ROOT / "src"))

from casimir_mto.materials import load_registry, save_sampler  # noqa: E402

GRID_EV = np.geomspace(0.15, 100.0, 400)

# (plasma_ev, relaxation_ev), interband oscillators (strength, center_ev, width_ev)
MATERIALS = {
    "au": ((9.0, 0.035), [(0.30, 2.8, 0.8), (0.80, 3.9, 1.3), (1.0, 8.0, 3.0), (1.2, 15.0, 6.0)]),
    "cu": ((8.9, 0.030), [(0.60, 2.3, 0.7), (0.70, 3.9, 1.5), (1.0, 8.5, 3.5), (1.0, 16.0, 7.0)]),
}


def eps2(w, drude, oscillators):
    wp, g = drude
    out = wp**2 * g / (w * (w**2 + g**2))
    for s, w0, gam in oscillators:
        out = out + s * w0**2 * gam * w / ((w0**2 - w**2) ** 2 + gam**2 * w**2)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT, metavar="DIR",
                    help="output directory (default: the package data)")
    out = ap.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    for name, (drude, osc) in MATERIALS.items():
        y = eps2(GRID_EV, drude, osc)
        path = out / f"{name}_eps2.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# synthetic Drude + interband-oscillator loss spectrum\n")
            fh.write("# placeholder data - replace with measured optical constants\n")
            fh.write("energy_ev,eps2\n")
            for e, v in zip(GRID_EV, y):
                fh.write(f"{e:.9e},{v:.9e}\n")
        print(f"wrote {path}")

    registry = {
        "gold": {
            "variant": "tabulated",
            "plasma_ev": 9.0,
            "relaxation_ev": 0.035,
            "table": "au_eps2.csv",
            "label": "Au (synthetic table + Drude tail)",
        },
        "copper": {
            "variant": "tabulated",
            "plasma_ev": 8.9,
            "relaxation_ev": 0.030,
            "table": "cu_eps2.csv",
            "label": "Cu (synthetic table + Drude tail)",
        },
        "gold_drude": {"variant": "drude", "plasma_ev": 9.0, "relaxation_ev": 0.035},
        "copper_drude": {"variant": "drude", "plasma_ev": 8.9, "relaxation_ev": 0.030},
        "ideal": {"variant": "perfect_conductor"},
    }
    reg_path = out / "materials.json"
    with open(reg_path, "w", encoding="utf-8") as fh:
        json.dump(registry, fh, indent=2)
        fh.write("\n")
    print(f"wrote {reg_path}")

    tabulated = [name for name, entry in registry.items() if entry["variant"] == "tabulated"]
    for name, model in load_registry(reg_path, tabulated).items():
        path = out / f"{name}_sampler.f8"
        save_sampler(model, path, out / registry[name]["table"])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
