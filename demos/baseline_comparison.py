"""Decoder recreation against the reference estimators over an SNR grid.

Three estimators on the same measurements: the raw measurement (no prior,
NMSE = -SNR), the genie-aided Wiener filter (true antenna covariance, an
upper baseline), and the fitted decoder, scored on the channel recreated
from each measurement's CSI report, which is what the base station
recreates. The demo runs the study driver's sweep mode on its own grid
(UE 3, SNR 0-20 dB, noise seeds 0 and 1), prints the table from the
results.csv it writes (schema in docs/artifacts.md), and copies its
curves.json, the per-curve series used for plotting, to
baseline_curves.json.

The same run from the command line, on the desk profile's full grid:
``unn-csi --profile desk --mode sweep --out results/``.

Run:  python demos/baseline_comparison.py
"""

import csv
import shutil
import tempfile
from pathlib import Path

from unn_csi.cli import ExperimentConfig, run


def main():
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(
            scene="desk",
            decoder_spec="desk",
            fit={"iterations": 3000, "learning_rate": 2e-3, "trace_every": 1000, "init_seed": 1},
            snr_db=[0.0, 5.0, 10.0, 15.0, 20.0],
            ues=[3],
            seeds=[0, 1],
            mode="sweep",
            out=out,
        )
        if run(config) != 0:
            raise SystemExit("the sweep run failed")
        with open(Path(out) / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        shutil.copyfile(Path(out) / "curves.json", "baseline_curves.json")

    print(f"{'estimator':>11} {'SNR':>5} {'NMSE':>9} {'gain':>7}")
    for r in rows:
        print(f"{r['estimator']:>11} {float(r['snr_db']):5.0f} {float(r['nmse_db']):6.2f} dB "
              f"{float(r['gain_db']):4.1f} dB")
    print("\nwrote baseline_curves.json, the curves.json of that sweep run")


if __name__ == "__main__":
    main()
