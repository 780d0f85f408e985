"""Decoder recreation against the reference estimators over an SNR grid.

Three estimators on the same measurements: the raw measurement (no prior,
NMSE = -SNR), the genie-aided Wiener filter (true antenna covariance, an
upper baseline), and the fitted decoder. Prints the comparison table and
writes the per-curve series used for plotting to baseline_curves.json.

The study driver writes the same table in its frozen CSV form:
``unn-csi --profile desk --mode sweep --out results/`` gives results.csv
(schema in docs/artifacts.md) and curves.json.

Run:  python demos/baseline_comparison.py
"""

import json
from importlib import resources

from unn_csi.baselines import (
    make_unn_estimator,
    mmse_genie,
    mmse_raw,
    records_to_curves,
    sweep,
)
from unn_csi.channel import load_scene
from unn_csi.decoder import load_spec
from unn_csi.fitting import FitConfig


def main():
    scene = load_scene(str(resources.files("unn_csi") / "scenes/street_canyon_desk.json"))
    spec = load_spec(str(resources.files("unn_csi") / "specs/single_ue_desk.json"))
    config = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=1000, init_seed=1)

    estimators = {
        "mmse_raw": lambda cells: [mmse_raw(meas) for meas, _, _ in cells],
        "mmse_genie": lambda cells: [mmse_genie(*cell) for cell in cells],
        "unn": make_unn_estimator(spec, config),
    }
    records = sweep(scene, estimators, ue_ids=[3], snrs_db=[0.0, 5.0, 10.0, 15.0, 20.0], seeds=[0, 1])

    print(f"{'estimator':>11} {'SNR':>5} {'NMSE':>9} {'gain':>7}")
    for r in records:
        print(f"{r.estimator:>11} {r.snr_db:5.0f} {r.nmse_db:6.2f} dB {r.gain_db:4.1f} dB")

    with open("baseline_curves.json", "w", encoding="utf-8") as fh:
        json.dump(records_to_curves(records), fh, indent=2)
    print("\nwrote baseline_curves.json; unn-csi --mode sweep writes this table as results.csv")


if __name__ == "__main__":
    main()
