"""Serialize a fitted decoder into a CSI report and rebuild the channel.

The user side fits the decoder to its measurement, rounds the weights to
float16 values as the study driver does, and transmits only the report: spec
JSON (with the seed rule), per-snapshot norms, scale, and the weights at 2
bytes each. The base-station side decodes, regenerates the seed tensor,
reruns the forward pass, and lands on the *bit-identical* channel estimate.
The report is a fraction of the raw CSI size; the demo prints the accounting
and what the rounding cost.

Run:  python demos/csi_report_roundtrip.py
"""

from dataclasses import replace
from importlib import resources

import numpy as np

from unn_csi.baselines import nmse
from unn_csi.channel import add_noise, load_scene, preprocess, synthesize
from unn_csi.codec import decode, encode, payload_bytes, recreate, round_to_float16
from unn_csi.decoder import load_spec, param_count
from unn_csi.fitting import FitConfig, fit
from unn_csi.transfer import weight_distance


def main():
    scene = load_scene(str(resources.files("unn_csi") / "scenes/street_canyon_desk.json"))
    spec = load_spec(str(resources.files("unn_csi") / "specs/single_ue_desk.json"))
    config = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=1000, init_seed=1)

    truth = synthesize(scene, 3)
    meas = add_noise(truth, 20.0, seed=0)
    target = preprocess(meas)

    # user side: fit, round to float16 values, then recreate and encode
    report = fit(spec, None, target, config)
    (fit_est,) = recreate(spec, report.params, target.snapshot_norms, target.scale)
    round_to_float16(report.params)
    (tx_est,) = recreate(spec, report.params, target.snapshot_norms, target.scale)
    blob = encode(spec, report.params, target.snapshot_norms, target.scale)

    # base-station side: nothing but the bytes
    (rx_est,) = recreate(*decode(blob))

    raw_bytes = 8 * truth.data.size  # complex64 coefficients
    payload = payload_bytes(blob)  # the weights, their sign/exponent bytes Huffman-coded
    print(f"payload: {payload} bytes ({param_count(spec)} float16 weights, dtype tag {blob[6]}; "
          f"{2 * param_count(spec)} as raw float16, {4 * param_count(spec)} as raw float32)")
    print(f"full report: {len(blob)} bytes, raw CSI: {raw_bytes} bytes "
          f"-> payload/raw = {payload / raw_bytes:.4f}")
    print(f"receiver estimate bit-identical: {np.array_equal(rx_est.data, tx_est.data)}")
    print(f"NMSE at user: {nmse(tx_est, truth):.2f} dB, at base station: {nmse(rx_est, truth):.2f} dB "
          f"(unrounded fit: {nmse(fit_est, truth):.4f} dB, float16: {nmse(tx_est, truth):.4f} dB)")

    # a neighbor fitted from these weights stays closer to them than one
    # fitted from a random start, which a differential compression stage
    # could exploit
    target4 = preprocess(add_noise(synthesize(scene, 4), 20.0, seed=1))
    warm = fit(spec, None, target4, config, init=report.params)
    cold = fit(spec, None, target4, replace(config, init_seed=2))
    print("\nkernel distance from these weights to a fit of neighbor UE 4:")
    for label, neighbor in (("warm start", warm), ("random start", cold)):
        dist = weight_distance(report.params, neighbor.params)
        layers = " ".join(f"{d:.3f}" for d in dist.per_layer)
        print(f"  {label:>12}: total {dist.total:.3f}, per layer {layers}")


if __name__ == "__main__":
    main()
