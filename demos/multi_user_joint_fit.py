"""Recreate three neighboring users simultaneously with one 4-way decoder.

The group decoder uses pointwise (1x1x1) kernels, so its trainable parameter
count is exactly the same as the single-user decoder's no matter how many
users are stacked: per-user reporting overhead shrinks by the group size, at
the price of some per-user accuracy. This demo fits UEs 2, 3, 4 jointly and
prints the parameter accounting next to the per-user errors.

Run:  python demos/multi_user_joint_fit.py
"""

from importlib import resources

from unn_csi.baselines import nmse
from unn_csi.channel import add_noise, load_scene, preprocess, stack_users, synthesize
from unn_csi.codec import recreate
from unn_csi.decoder import load_spec, param_count
from unn_csi.fitting import FitConfig, fit


def main():
    scene = load_scene(str(resources.files("unn_csi") / "scenes/street_canyon_desk.json"))
    single = load_spec(str(resources.files("unn_csi") / "specs/single_ue_desk.json"))
    group_spec = load_spec(str(resources.files("unn_csi") / "specs/group_desk.json"))

    ues = [2, 3, 4]
    snr_db = 20.0
    config = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=500, init_seed=1)

    print(f"single-user decoder: {param_count(single)} parameters")
    print(f"3-user group decoder: {param_count(group_spec)} parameters "
          f"(pointwise kernels: count is independent of the group size)\n")

    truths = {u: synthesize(scene, u) for u in ues}
    targets = {u: preprocess(add_noise(truths[u], snr_db, 50 + u)) for u in ues}

    singles = {}
    for u in ues:
        report = fit(single, None, targets[u], config)
        (est,) = recreate(single, report.params, targets[u].snapshot_norms, targets[u].scale)
        singles[u] = nmse(est, truths[u])

    group = stack_users(targets[u] for u in ues)
    report = fit(group_spec, None, group, config)
    estimates = recreate(group_spec, report.params, group.snapshot_norms, group.scale)

    print(f"{'UE':>3} {'single fit':>11} {'joint fit':>10}")
    for u, est in zip(ues, estimates):
        print(f"{u:3d} {singles[u]:8.2f} dB {nmse(est, truths[u]):7.2f} dB")
    print(f"\njoint training MSE after {config.iterations} iterations: {report.final_mse:.3e}")
    print("reporting cost per user in the group: "
          f"{4 * param_count(group_spec) / len(ues):.0f} bytes vs "
          f"{4 * param_count(single):.0f} bytes standalone")


if __name__ == "__main__":
    main()
