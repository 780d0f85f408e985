"""Propagate fitted weights along a chain of neighboring users.

Fits UE 3 from scratch, then fits its neighbors initialized from the
already-fitted weights (same iteration budget), and compares against fitting
each neighbor from random init, the control arm that transfer mode
(`unn-csi --mode transfer`) fits beside every warm start. A warm start is
`fitting.fit(..., init=fitted.params)`. Two effects to look for:

* the warm-started solutions stay much closer to their initializer in weight
  space (the per-layer Frobenius distances below), which is what makes
  differential compression of weight reports attractive;
* at moderate SNR the warm start also tends to recreate the channel slightly
  better at the same budget.

Run:  python demos/transfer_learning_chain.py
"""

from importlib import resources

from unn_csi.baselines import nmse
from unn_csi.channel import add_noise, load_scene, preprocess, synthesize
from unn_csi.codec import recreate
from unn_csi.decoder import load_spec
from unn_csi.fitting import FitConfig, fit
from unn_csi.transfer import TransferPlan, TransferStep, weight_distance


def main():
    scene = load_scene(str(resources.files("unn_csi") / "scenes/street_canyon_desk.json"))
    spec = load_spec(str(resources.files("unn_csi") / "specs/single_ue_desk.json"))
    snr_db = 5.0
    config = FitConfig(iterations=1000, learning_rate=2e-3, trace_every=250, init_seed=1)

    plan = TransferPlan(base=3, chain=(TransferStep(2, 3), TransferStep(4, 3), TransferStep(5, 4)))
    truths = {u: synthesize(scene, u) for u in plan.ue_ids}
    targets = {u: preprocess(add_noise(truths[u], snr_db, 100 + u)) for u in plan.ue_ids}

    def nmse_db(u, report):
        (est,) = recreate(spec, report.params, targets[u].snapshot_norms, targets[u].scale)
        return nmse(est, truths[u])

    # each warm start from its predecessor's fit, each control from random init
    fits = {plan.base: fit(spec, None, targets[plan.base], config)}
    controls = {}
    for step in plan.chain:
        fits[step.target] = fit(spec, None, targets[step.target], config, init=fits[step.init_from].params)
        controls[step.target] = fit(spec, None, targets[step.target], config)

    print(f"{'UE':>3} {'init':>6} {'NMSE (TL)':>10} {'NMSE (random)':>14}")
    print(f"{plan.base:3d} {'rand':>6} {nmse_db(plan.base, fits[plan.base]):7.2f} dB {'-':>14}")
    for step in plan.chain:
        print(
            f"{step.target:3d} {('UE' + str(step.init_from)):>6} "
            f"{nmse_db(step.target, fits[step.target]):7.2f} dB "
            f"{nmse_db(step.target, controls[step.target]):11.2f} dB"
        )

    print("\nper-layer kernel distances from the initializer (transfer vs random):")
    for step in plan.chain:
        anchor = fits[step.init_from].params
        d_tl = weight_distance(anchor, fits[step.target].params)
        d_rnd = weight_distance(anchor, controls[step.target].params)
        layers_tl = " ".join(f"{d:5.2f}" for d in d_tl.per_layer)
        layers_rnd = " ".join(f"{d:5.2f}" for d in d_rnd.per_layer)
        print(f"  UE{step.init_from} -> UE{step.target}:")
        print(f"    transfer: [{layers_tl}]  total {d_tl.total:5.2f}")
        print(f"    random  : [{layers_rnd}]  total {d_rnd.total:5.2f}")

if __name__ == "__main__":
    main()
