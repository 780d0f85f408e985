import copy
import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from unn_csi import cli
from unn_csi.channel import add_noise, preprocess, synthesize
from unn_csi.decoder import init_params, params_to_vector
from unn_csi.fitting import FitConfig, fit
from unn_csi.transfer import (
    ScheduledFit,
    TransferPlan,
    TransferStep,
    load_plan,
    plan_from_json,
    schedule,
    weight_distance,
)

from conftest import make_spec, save_scene, save_spec


@pytest.fixture
def small_spec():
    return make_spec((2, 2), (8, 8, 8, 8, 4), ((True, True), (True, True)), seed=11, a=0.15)


@pytest.fixture
def micro_fixture(micro_scene, small_spec):
    truths = {u: synthesize(micro_scene, u) for u in (1, 2)}
    targets = {u: preprocess(add_noise(truths[u], 20.0, 40 + u)) for u in (1, 2)}
    config = FitConfig(iterations=300, learning_rate=2e-3, trace_every=100, init_seed=5)
    return truths, targets, config


class TestPlanValidation:
    def test_chain_plan_shape(self):
        plan = TransferPlan(
            base=3,
            chain=(
                TransferStep(2, 3),
                TransferStep(4, 3),
                TransferStep(1, 2),
                TransferStep(5, 4),
            ),
        )
        assert plan.ue_ids == [3, 2, 4, 1, 5]

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            TransferPlan(base=1, chain=(TransferStep(2, 3), TransferStep(3, 1)))

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            TransferPlan(base=1, chain=(TransferStep(2, 1), TransferStep(2, 1)))

    def test_json_round_trip(self):
        plan = TransferPlan(base=3, chain=(TransferStep(2, 3), TransferStep(4, None)))
        doc = {"base": 3, "chain": [{"target": 2, "init_from": 3}, {"target": 4, "init_from": None}]}
        assert plan_from_json(json.dumps(doc)) == plan

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"chain": []}, "'base'"),
            ({"base": "3", "chain": []}, "'base'"),
            ({"base": 3}, "'chain'"),
            ({"base": 3, "chain": {"target": 2}}, "'chain'"),
            ({"base": 3, "chain": [{"init_from": 3}]}, r"'chain\[0\].target'"),
            ({"base": 3, "chain": [{"target": 2, "init_from": "3"}]}, r"'chain\[0\].init_from'"),
            ([3], "object"),
        ],
    )
    def test_missing_or_mistyped_field_is_named(self, doc, field):
        with pytest.raises(ValueError, match=field):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"base": 3, "chain": [], "controls": []}, "controls"),
            ({"base": 3, "chain": [{"target": 2}, {"target": 4, "init_form": 2}]}, r"chain\[1\].init_form"),
        ],
        ids=["top", "chain-step"],
    )
    def test_unknown_field_is_named(self, doc, field):
        # a misspelt init_from ran the step as a random-init fit
        with pytest.raises(ValueError, match=f"^transfer plan: unknown field '{field}'$"):
            plan_from_json(json.dumps(doc))

    def test_repeated_key_is_named(self):
        # Python's JSON parser keeps the last of two values: this step ran
        # as a fit of UE 4 alone
        with pytest.raises(ValueError, match="^transfer plan: repeated field 'target'$"):
            plan_from_json('{"base": 3, "chain": [{"target": 2, "target": 4}]}')

    def test_omitted_init_from_is_random(self):
        plan = plan_from_json('{"base": 3, "chain": [{"target": 2}]}')
        assert plan.chain == (TransferStep(2, None),)

    def test_packaged_plans_load(self):
        for name, base in (("chain_base3.json", 3), ("chain_base6.json", 6)):
            plan = load_plan(str(resources.files("unn_csi").joinpath(f"plans/{name}")))
            assert plan.base == base


def packaged_plan(name):
    return load_plan(str(resources.files("unn_csi").joinpath(f"plans/{name}.json")))


class TestSchedule:
    @pytest.mark.parametrize("name, sizes", [("chain_base3", [7, 2, 2, 1, 1]), ("chain_base6", [4, 2, 1])])
    def test_controls_share_the_base_batch(self, name, sizes):
        plan = packaged_plan(name)
        fits = schedule(plan)
        assert [sum(f.depth == d for f in fits) for d in range(max(f.depth for f in fits) + 1)] == sizes
        # the plan's fits in plan order, then one control per warm start
        n = len(plan.ue_ids)
        assert [f.ue_id for f in fits[:n]] == plan.ue_ids
        assert [f.ue_id for f in fits[n:]] == [s.target for s in plan.chain if s.init_from is not None]
        assert all((f.source, f.depth) == (None, 0) for f in fits[n:])
        for f, step in zip(fits[1:n], plan.chain):
            assert fits[f.source].ue_id == step.init_from
            assert f.depth == fits[f.source].depth + 1

    def test_null_step_is_one_random_fit(self):
        plan = TransferPlan(base=1, chain=(TransferStep(2, None), TransferStep(3, 2)))
        assert schedule(plan) == [
            ScheduledFit(1, None, 0), ScheduledFit(2, None, 0), ScheduledFit(3, 1, 1), ScheduledFit(3, None, 0),
        ]


@pytest.fixture
def twin_setup(tmp_path, micro_scene, small_spec):
    """A transfer-mode config on micro_scene plus UE 3, a twin of UE 1: the
    same track, so the same target at one SNR and noise seed."""
    scene = replace(micro_scene, ues=micro_scene.ues + (replace(micro_scene.ues[0], ue_id=3),))
    save_scene(scene, tmp_path / "scene.json")
    save_spec(small_spec, tmp_path / "spec.json")
    config = {
        "scene": str(tmp_path / "scene.json"),
        "decoder_spec": str(tmp_path / "spec.json"),
        "fit": {"iterations": 300, "learning_rate": 2e-3, "trace_every": 100, "init_seed": 5},
        "snr_db": [20.0],
        "ues": [1],
        "seeds": [41],
        "mode": "transfer",
    }

    def run(out, chain=(), **overrides):
        plan_path = tmp_path / f"{out}.plan.json"
        plan_path.write_text(json.dumps({"base": 1, "chain": [{"target": t, "init_from": s} for t, s in chain]}))
        doc = dict(config, transfer_plan=str(plan_path), out=str(tmp_path / out), **overrides)
        assert cli.run(cli.config_from_dict(doc)) == 0
        return read_rows(tmp_path / out / "results.csv")

    return run


def read_rows(path) -> list:
    lines = path.read_text().strip().split("\n")
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


class TestTransferMode:
    def test_random_fits_equal_single_mode_cells(self, twin_setup):
        # the base, a null step and a control are fits of their cell from the
        # config's init_seed, so single mode fits them to the same bits
        rows = twin_setup("tl", chain=[(3, 1), (2, None)])
        single = {r["ue"]: r for r in twin_setup("single", mode="single", ues=[1, 2, 3])}
        assert [(r["ue"], r["init_from"], r["init_kind"]) for r in rows] == [
            ("1", "", "random"), ("3", "1", "transfer"), ("2", "", "random"), ("3", "", "random"),
        ]
        for r in (rows[0], rows[2], rows[3]):
            assert np.isfinite(float(r["nmse_db"]))
            assert (r["nmse_db"], r["final_mse"]) == (single[r["ue"]]["nmse_db"], single[r["ue"]]["final_mse"])
        assert rows[1]["nmse_db"] != single["3"]["nmse_db"]

    def test_warm_fits_start_from_their_predecessors_weights(self, twin_setup, recorded_fit_batch):
        rows = twin_setup("tl", chain=[(2, 1), (3, 2)], fit={"iterations": 20, "learning_rate": 2e-3})
        assert [r["init_from"] for r in rows] == ["", "1", "2", "", ""]
        # the base and both controls, then each warm start alone
        assert [len(inits) for inits, _ in recorded_fit_batch] == [3, 1, 1]
        assert recorded_fit_batch[0][0] == [None, None, None]
        for (_, before), ((init,), _) in zip(recorded_fit_batch, recorded_fit_batch[1:]):
            assert params_to_vector(init).tobytes() == params_to_vector(before[0].params).tobytes()

    def test_warm_starts_and_distances_use_the_float16_weights(self, twin_setup, recorded_fit_batch, tmp_path):
        # every fit is rounded to the float16 values its report would carry
        # before a warm start takes it up or weight_distances.csv measures it
        twin_setup("tl", chain=[(2, 1)], fit={"iterations": 20, "learning_rate": 2e-3})
        (_, (base, control)), ((init,), (warm,)) = recorded_fit_batch
        for params in (base.params, control.params, warm.params, init):
            vec = params_to_vector(params)
            assert vec.tobytes() == vec.astype(np.float16).astype(np.float32).tobytes()
        rows = read_rows(tmp_path / "tl" / "weight_distances.csv")
        for kind, fitted in (("transfer:1->2", warm), ("random:1->2", control)):
            want = weight_distance(base.params, fitted.params).per_layer
            assert [float(r["distance"]) for r in rows if r["init_kind"] == kind] == list(want)

    def test_warm_start_on_identical_target_never_behind_base(self, twin_setup, recorded_fit_batch):
        twin_setup("tl", chain=[(3, 1)])
        (_, (base, control)), (_, (warm,)) = recorded_fit_batch
        assert control.trace == base.trace  # the twin's control is the base fit again
        for (it, base_loss), (it_warm, warm_loss) in zip(base.trace, warm.trace):
            assert it == it_warm and warm_loss <= base_loss * (1 + 1e-6)


class TestWarmStart:
    def test_chain_uses_predecessor_params(self, micro_fixture, small_spec):
        # a fit warm-started from the base lands nearer the base than a fit
        # of the same target started from a fresh random draw
        truths, targets, config = micro_fixture
        base = fit(small_spec, None, targets[1], config)
        warm = fit(small_spec, None, targets[2], config, init=base.params)
        rnd = fit(small_spec, None, targets[2], replace(config, init_seed=777))
        d_tl = weight_distance(base.params, warm.params).total
        d_rnd = weight_distance(base.params, rnd.params).total
        assert d_tl < d_rnd


class TestWeightDistance:
    def test_identical_params(self, small_spec):
        p = init_params(small_spec, 3)
        d = weight_distance(p, p)
        assert d.total == 0.0
        assert all(x == 0.0 for x in d.per_layer)

    def test_single_entry_perturbation(self, small_spec):
        a = init_params(small_spec, 3)
        b = copy.deepcopy(a)
        b.kernels[1][0, 0] += 0.25
        d = weight_distance(a, b)
        assert d.total == pytest.approx(0.25, rel=1e-6)
        assert d.per_layer[1] == pytest.approx(0.25, rel=1e-6)
        assert d.per_layer[0] == 0.0

    def test_total_is_quadrature_sum(self, small_spec):
        a = init_params(small_spec, 3)
        b = init_params(small_spec, 4)
        d = weight_distance(a, b)
        assert d.total == pytest.approx(np.sqrt(sum(x * x for x in d.per_layer)), rel=1e-12)

    def test_bn_parameters_excluded(self, small_spec):
        a = init_params(small_spec, 3)
        b = copy.deepcopy(a)
        b.gammas[0][:] = 99.0
        assert weight_distance(a, b).total == 0.0

    def test_spec_mismatch_rejected(self, small_spec):
        other = make_spec((2, 2), (4, 4, 4, 4, 4), ((True, True), (True, True)))
        with pytest.raises(ValueError):
            weight_distance(init_params(small_spec, 1), init_params(other, 1))
