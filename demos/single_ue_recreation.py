"""Recreate one user's channel from a noisy measurement.

Synthesizes the ground-truth channel for UE 3 of the desk street-canyon
scene, adds measurement noise at a few SNRs, fits the packaged desk decoder
to each measurement, and compares the recreated channel against the raw
measurement. The recreation should sit **below** the measurement NMSE: the
under-parameterized decoder absorbs channel structure but resists fitting
noise.

Run:  python demos/single_ue_recreation.py
"""

from importlib import resources

from unn_csi.baselines import nmse
from unn_csi.channel import add_noise, load_scene, preprocess, synthesize
from unn_csi.codec import recreate
from unn_csi.decoder import compression_ratio, load_spec, param_count
from unn_csi.fitting import FitConfig, fit


def main():
    scene = load_scene(str(resources.files("unn_csi") / "scenes/street_canyon_desk.json"))
    spec = load_spec(str(resources.files("unn_csi") / "specs/single_ue_desk.json"))
    print(f"decoder: {param_count(spec)} parameters for {spec.output_dims} outputs "
          f"({100 * compression_ratio(spec):.1f}% of the complex coefficients)")

    ue = 3
    truth = synthesize(scene, ue)
    config = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=500, init_seed=1)

    print(f"\n{'SNR':>5} {'measurement':>12} {'recreation':>11} {'gain':>7}")
    for snr_db in (0.0, 10.0, 20.0):
        meas = add_noise(truth, snr_db, seed=0)
        target = preprocess(meas)
        report = fit(spec, None, target, config)
        (est,) = recreate(spec, report.params, target.snapshot_norms, target.scale)
        m, e = nmse(meas, truth), nmse(est, truth)
        print(f"{snr_db:5.0f} {m:9.2f} dB {e:8.2f} dB {m - e:4.1f} dB")

    print("\nloss trace of the last fit (iteration, mse):")
    for it, mse in report.trace[::2]:
        print(f"  {it:5d}  {mse:.3e}")


if __name__ == "__main__":
    main()
