import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from unn_csi.channel import add_noise, preprocess, synthesize
from unn_csi.decoder import init_params
from unn_csi.fitting import FitConfig, fit, fit_batch
from unn_csi.transfer import (
    TransferPlan,
    TransferStep,
    load_plan,
    plan_from_json,
    run_transfer,
    weight_distance,
)

from conftest import make_spec


@pytest.fixture
def small_spec():
    return make_spec((2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True), (True, True)), seed=11, a=0.15)


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

    def test_omitted_init_from_is_random(self):
        plan = plan_from_json('{"base": 3, "chain": [{"target": 2}]}')
        assert plan.chain == (TransferStep(2, None),)

    def test_packaged_plans_load(self):
        from importlib import resources

        for name, base in (("chain_base3.json", 3), ("chain_base6.json", 6)):
            plan = load_plan(str(resources.files("unn_csi").joinpath(f"plans/{name}")))
            assert plan.base == base


class TestRunTransfer:
    def test_base_only_plan_equals_direct_fit(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=())
        results = run_transfer(plan, small_spec, targets, truths, config)
        direct = fit(small_spec, None, targets[1], config)
        assert results[1].report.trace == direct.trace
        for a, b in zip(results[1].report.params.arrays(), direct.params.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_random_init_step_reproduces_baseline_bit_exactly(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=(TransferStep(2, None),))
        results = run_transfer(plan, small_spec, targets, truths, config)
        direct = fit(small_spec, None, targets[2], config)
        assert results[2].report.trace == direct.trace
        for a, b in zip(results[2].report.params.arrays(), direct.params.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        # a random-init step is its own baseline: no control arm
        assert results[1].control is None and results[2].control is None

    def test_control_equals_direct_fit_from_init_seed(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=(TransferStep(2, 1),))
        results = run_transfer(plan, small_spec, targets, truths, config)
        assert list(results) == [1, 2] and results[1].control is None
        control = results[2].control
        direct = fit(small_spec, None, targets[2], config)
        assert (control.ue_id, control.init_from, control.control) == (2, None, None)
        assert control.report.trace == direct.trace
        for a, b in zip(control.report.params.arrays(), direct.params.arrays()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("name, sizes", [("chain_base3", [7, 2, 2, 1, 1]), ("chain_base6", [4, 2, 1])])
    def test_controls_share_the_base_batch(self, micro_fixture, small_spec, monkeypatch, name, sizes):
        from importlib import resources

        import unn_csi.transfer as transfer_mod

        truths, targets, config = micro_fixture
        plan = load_plan(str(resources.files("unn_csi").joinpath(f"plans/{name}.json")))
        calls = []

        def recording_fit_batch(spec, z0, batch_targets, cfg, inits=None):
            calls.append(len(batch_targets))
            return fit_batch(spec, z0, batch_targets, cfg, inits)

        monkeypatch.setattr(transfer_mod, "fit_batch", recording_fit_batch)
        same = {u: targets[1] for u in plan.ue_ids}
        results = run_transfer(plan, small_spec, same, {}, replace(config, iterations=2, trace_every=1))
        assert calls == sizes
        assert list(results) == plan.ue_ids
        assert [u for u, res in results.items() if res.control is not None] == [s.target for s in plan.chain]

    def test_warm_start_on_identical_target_never_behind_base(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=(TransferStep(2, 1),))
        same = {1: targets[1], 2: targets[1]}
        same_truths = {1: truths[1], 2: truths[1]}
        results = run_transfer(plan, small_spec, same, same_truths, config)
        base_trace = dict(results[1].report.trace)
        tl_trace = dict(results[2].report.trace)
        for it, base_loss in base_trace.items():
            assert tl_trace[it] <= base_loss * (1 + 1e-6)

    def test_chain_uses_predecessor_params(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=(TransferStep(2, 1),))
        results = run_transfer(plan, small_spec, targets, truths, config)
        # a chain fit warm-started from the base lands nearer the base than a
        # fit of the same target started from a fresh random draw
        rnd = fit(small_spec, None, targets[2], replace(config, init_seed=777))
        d_tl = weight_distance(results[1].report.params, results[2].report.params).total
        d_rnd = weight_distance(results[1].report.params, rnd.params).total
        assert d_tl < d_rnd

    def test_missing_target_rejected(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=(TransferStep(9, 1),))
        with pytest.raises(KeyError):
            run_transfer(plan, small_spec, targets, truths, config)

    def test_nmse_reported(self, micro_fixture, small_spec):
        truths, targets, config = micro_fixture
        plan = TransferPlan(base=1, chain=())
        results = run_transfer(plan, small_spec, targets, truths, config)
        assert np.isfinite(results[1].nmse_db)


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
        other = make_spec((2, 2), (4, 4, 4, 4, 4), 2, 1, ((True, True), (True, True)))
        with pytest.raises(ValueError):
            weight_distance(init_params(small_spec, 1), init_params(other, 1))
