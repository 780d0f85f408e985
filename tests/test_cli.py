import json
import os
import subprocess
import sys
import warnings
import zlib
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from unn_csi import baselines, channel, cli, codec, fitting
from unn_csi.baselines import mmse_genie, mmse_raw, nmse, nmse_linear, ratio_db
from unn_csi.channel import add_noise, load_scene, preprocess, stack_users, synthesize
from unn_csi.codec import decode, recreate
from unn_csi.decoder import load_spec, params_to_vector

from conftest import make_spec, save_scene, save_spec


@pytest.fixture
def tiny_setup(tmp_path, micro_scene):
    """A complete miniature experiment: scene file, decoder spec file, config."""
    scene_path = tmp_path / "scene.json"
    save_scene(micro_scene, scene_path)
    spec = make_spec((2, 2), (8, 8, 8, 8, 4), ((True, True), (True, True)), seed=11, a=0.15)
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    config = {
        "scene": str(scene_path),
        "decoder_spec": str(spec_path),
        "fit": {"iterations": 120, "learning_rate": 2e-3, "trace_every": 40, "init_seed": 1},
        "snr_db": [10.0],
        "ues": [1],
        "seeds": [0],
        "mode": "single",
        "out": str(tmp_path / "results"),
    }
    return tmp_path, config


def shape_errors(diags) -> list:
    """The "<output dims>, the target is <target dims>" tail of every shape
    error diagnostic."""
    return [d.message.split(" outputs ")[1] for d in diags if d.level == "error" and " outputs " in d.message]


def csv_lines(path) -> list:
    """A CSV artifact's lines, read without newline translation. Every CSV
    has LF line endings and plain float reprs (docs/artifacts.md)."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    assert "\r" not in text
    assert "np.float" not in text
    return text.strip().split("\n")


class TestValidate:
    def test_clean_config_has_no_errors(self, tiny_setup):
        _, config = tiny_setup
        diags = cli.validate(cli.config_from_dict(config))
        assert not [d for d in diags if d.level == "error"]

    def test_divisibility_diagnostic(self, tiny_setup, micro_scene, tmp_path):
        _, config = tiny_setup
        # 4 doublings cannot reach 8 subcarriers from any integer extent
        bad = make_spec((2, 2), (8,) * 5 + (4,), ((True, True),) * 4, seed=1)
        bad_path = tmp_path / "bad_spec.json"
        save_spec(bad, bad_path)
        config = dict(config, decoder_spec=str(bad_path))
        diags = cli.validate(cli.config_from_dict(config))
        assert shape_errors(diags) == ["(32, 32, 4), the target is (8, 8, 4)"]

    def test_output_width_diagnostic(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        wrong = make_spec((2, 2), (8, 8, 8, 8, 6), ((True, True), (True, True)), seed=1)
        path = tmp_path / "wrong_width.json"
        save_spec(wrong, path)
        config = dict(config, decoder_spec=str(path))
        diags = cli.validate(cli.config_from_dict(config))
        assert shape_errors(diags) == ["(8, 8, 6), the target is (8, 8, 4)"]

    def test_empty_snr_list(self, tiny_setup):
        _, config = tiny_setup
        config = dict(config, snr_db=[])
        diags = cli.validate(cli.config_from_dict(config))
        assert any("snr_db" in d.message for d in diags)

    def test_missing_ue(self, tiny_setup):
        _, config = tiny_setup
        config = dict(config, ues=[9])
        diags = cli.validate(cli.config_from_dict(config))
        assert any("no UEs" in d.message for d in diags)

    def test_unknown_config_field_rejected(self, tiny_setup):
        _, config = tiny_setup
        with pytest.raises(ValueError):
            cli.config_from_dict(dict(config, bogus=1))

    @pytest.mark.parametrize("groups", [[{"spec": "desk-group"}], [5], [{"ues": []}]])
    def test_malformed_group_entry_diagnosed(self, tiny_setup, groups):
        _, config = tiny_setup
        diags = cli.validate(cli.config_from_dict(dict(config, mode="group", groups=groups)))
        assert any("groups[0]" in d.message and d.level == "error" for d in diags)

    def test_group_ue_missing_from_scene_diagnosed(self):
        config = cli.config_from_dict(
            dict(cli._PROFILES["desk"], mode="group", groups=[{"ues": [2, 3, 99], "spec": "desk-group"}])
        )
        diags = cli.validate(config)
        assert [d.message for d in diags if d.level == "error"] == ["groups[0] references unknown UEs [99]"]

    def test_builtin_profiles_validate(self):
        for profile in ("desk", "full"):
            config = cli.config_from_dict(json.loads(json.dumps(cli._PROFILES[profile])))
            diags = cli.validate(config)
            assert not [d for d in diags if d.level == "error"], profile


@pytest.mark.parametrize(
    "mode, input_dims, fits",
    [
        ("single", (2, 1), True),  # outputs (n_sub, n_sp) = (8, 4)
        ("single", (1, 2), False),
        ("group", (1, 2, 2), True),  # outputs (n_sp, n_sub, M) = (4, 8, 2)
        ("group", (2, 1, 2), False),
    ],
)
def test_non_square_scene_layouts(tmp_path, rect_scene, mode, input_dims, fits):
    scene_path = tmp_path / "rect.json"
    save_scene(rect_scene, scene_path)
    flags = ((True, True, False)[: len(input_dims)],) * 2
    spec_path = tmp_path / "spec.json"
    save_spec(make_spec(input_dims, (8, 8, 8, 8, 4), flags, seed=11, a=0.15), spec_path)
    config = cli.config_from_dict(
        {
            "scene": str(scene_path),
            "decoder_spec": str(spec_path),
            "fit": {"iterations": 5, "learning_rate": 2e-3, "trace_every": 5, "init_seed": 1},
            "snr_db": [10.0],
            "ues": [1],
            "mode": mode,
            # a group entry is checked in every mode: one with the config's
            # one-UE spec would fail the single-mode cases
            "groups": [{"ues": [1, 2]}] if mode == "group" else [],
            "out": str(tmp_path / "out"),
        }
    )
    want = (8, 4, 4) if mode == "single" else (4, 8, 2, 4)
    errors = shape_errors(cli.validate(config))
    swapped = (want[1], want[0]) + want[2:]
    assert errors == ([] if fits else [f"{swapped}, the target is {want}"])
    # an accepted layout is the one the mode fits
    assert cli.run(config) == (0 if fits else 2)


class TestRunSingle:
    def test_artifacts_and_schema(self, tiny_setup):
        _, config = tiny_setup
        code = cli.run(cli.config_from_dict(config))
        assert code == 0
        out = config["out"]
        rows = csv_lines(os.path.join(out, "results.csv"))
        assert rows[0] == "ue,snr_db,seed,status,nmse_db,meas_nmse_db,gain_db,final_mse,iterations"
        assert len(rows) == 2 and rows[1].split(",")[3] == "ok"
        report = Path(out, "reports", "ue1_snr10.0_seed0.csir").read_bytes()
        spec, params, norms, scale = decode(report)
        assert len(norms) == 8
        trace = csv_lines(os.path.join(out, "fit_traces", "ue1_snr10.0_seed0.csv"))
        assert trace[0] == "iteration,mse"
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["mode"] == "single"
        assert summary["param_count"] == 272

    def test_byte_identical_rerun(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        cfg_a = dict(config, out=str(tmp_path / "a"))
        cfg_b = dict(config, out=str(tmp_path / "b"))
        assert cli.run(cli.config_from_dict(cfg_a)) == 0
        assert cli.run(cli.config_from_dict(cfg_b)) == 0
        for name in ("results.csv", "fit_traces/ue1_snr10.0_seed0.csv", "reports/ue1_snr10.0_seed0.csir"):
            a = open(os.path.join(cfg_a["out"], name), "rb").read()
            b = open(os.path.join(cfg_b["out"], name), "rb").read()
            assert a == b, name

    def test_validation_errors_exit_nonzero(self, tiny_setup):
        _, config = tiny_setup
        config = dict(config, snr_db=[])
        assert cli.run(cli.config_from_dict(config)) == 2


class TestRunTransferMode:
    def test_distance_table_and_results(self, tiny_setup, tmp_path):
        base_dir, config = tiny_setup
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base": 1, "chain": [{"target": 2, "init_from": 1}]}))
        config = dict(config, mode="transfer", transfer_plan=str(plan_path), out=str(tmp_path / "tl"))
        assert cli.run(cli.config_from_dict(config)) == 0
        dist = csv_lines(os.path.join(config["out"], "weight_distances.csv"))
        assert dist[0] == "layer,distance,init_kind"
        # four kernel layers, transfer and random rows each
        assert len(dist) == 1 + 4 * 2
        layers = sorted({int(line.split(",")[0]) for line in dist[1:]})
        assert layers == [1, 2, 3, 4]
        rows = csv_lines(os.path.join(config["out"], "results.csv"))
        kinds = [r.split(",")[2] for r in rows[1:]]
        assert kinds.count("transfer") == 1 and kinds.count("random") == 2
        summary = json.loads(Path(config["out"], "summary.json").read_text())
        assert summary["ues"] == config["ues"] and summary["chain"] == 1

    def test_null_init_step_is_one_random_fit(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"base": 1, "chain": [{"target": 2, "init_from": None}]}))
        out = tmp_path / "tl"
        config = dict(config, mode="transfer", transfer_plan=str(plan_path), out=str(out))
        cfg_path = tmp_path / "tl.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg_path)]) == 0
        rows = csv_lines(out / "results.csv")
        assert [r.split(",")[:3] for r in rows[1:]] == [["1", "", "random"], ["2", "", "random"]]
        assert csv_lines(out / "weight_distances.csv") == ["layer,distance,init_kind"]


class TestRunGroupMode:
    def test_group_results_schema(self, tiny_setup, tmp_path, micro_scene):
        base_dir, config = tiny_setup
        gspec = make_spec(
            (2, 2, 2), (8, 8, 8, 8, 4), ((True, True, False), (True, True, False)), seed=11, a=0.15
        )
        gpath = tmp_path / "gspec.json"
        save_spec(gspec, gpath)
        config = dict(
            config,
            mode="group",
            groups=[{"ues": [1, 2], "spec": str(gpath), "iterations": 100}],
            out=str(tmp_path / "grp"),
        )
        assert cli.run(cli.config_from_dict(config)) == 0
        rows = csv_lines(os.path.join(config["out"], "results.csv"))
        assert rows[0] == "group,ue,snr_db,nmse_db,iterations,param_count,compression_ratio"
        assert len(rows) == 3
        blob = Path(config["out"], "reports", "group0.csir").read_bytes()
        _, _, norms, scales = decode(blob)
        assert norms.shape == (2, 8) and len(scales) == 2
        # one row per listed member, in order, with that member's NMSE
        estimates = recreate(*decode(blob))
        cells = [row.split(",") for row in rows[1:]]
        assert [c[1] for c in cells] == ["1", "2"]
        for c, est in zip(cells, estimates):
            assert float(c[3]) == nmse(est, synthesize(micro_scene, int(c[1])))

    def test_group_size_mismatch_diagnosed(self, tiny_setup, tmp_path):
        base_dir, config = tiny_setup
        gspec = make_spec(
            (2, 2, 3), (8, 8, 8, 8, 4), ((True, True, False), (True, True, False)), seed=11
        )
        gpath = tmp_path / "gspec3.json"
        save_spec(gspec, gpath)
        config = dict(config, mode="group", groups=[{"ues": [1, 2], "spec": str(gpath)}])
        diags = cli.validate(cli.config_from_dict(config))
        assert any(d.level == "error" for d in diags)


class TestRunCodecMode:
    def test_round_trip_summary(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        config = dict(config, mode="codec", out=str(tmp_path / "codec"))
        assert cli.run(cli.config_from_dict(config)) == 0
        summary = json.load(open(os.path.join(config["out"], "summary.json")))
        assert summary["bit_exact"] is True
        (report,) = Path(config["out"], "reports").glob("*.csir")
        assert report.read_bytes()[6] == 1
        # the weights alone, as float16 with the high bytes Huffman-coded
        assert summary["payload_bytes"] == codec.payload_bytes(report.read_bytes()) < 2 * 272
        assert summary["report_bytes"] == report.stat().st_size
        assert summary["nmse_db_rx"] == summary["nmse_db_tx"]


class TestRunSweepMode:
    def test_sweep_artifacts(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        config = dict(config, mode="sweep", snr_db=[0.0, 10.0], out=str(tmp_path / "sweep"))
        assert cli.run(cli.config_from_dict(config)) == 0
        rows = csv_lines(os.path.join(config["out"], "results.csv"))
        assert rows[0] == "estimator,ue,snr_db,seed_count,nmse_db,gain_db"
        assert len(rows) == 1 + 3 * 2  # three estimators, two SNRs
        curves = json.load(open(os.path.join(config["out"], "curves.json")))
        assert set(curves) == {"mmse_raw", "mmse_genie", "unn"}

    def test_baseline_rows_match_an_independent_oracle(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        ues, snrs, seeds = [1, 2], [0.0, 10.0], [0, 1]
        config = dict(config, mode="sweep", ues=ues, snr_db=snrs, seeds=seeds, out=str(tmp_path / "sweep"))
        assert cli.run(cli.config_from_dict(config)) == 0
        rows = {
            (row[0], int(row[1]), float(row[2])): row
            for row in (line.split(",") for line in csv_lines(tmp_path / "sweep" / "results.csv")[1:])
        }
        scene = load_scene(config["scene"])
        for ue in ues:
            truth = synthesize(scene, ue)
            for snr in snrs:
                measured = [add_noise(truth, snr, seed) for seed in seeds]
                meas_ratios = [nmse_linear(meas, truth) for meas in measured]
                arms = {
                    "mmse_raw": [nmse_linear(mmse_raw(meas), truth) for meas in measured],
                    "mmse_genie": [nmse_linear(mmse_genie(meas, truth, snr), truth) for meas in measured],
                }
                # mmse_raw copies the measurement: the same ratio, bit for bit
                assert arms["mmse_raw"] == meas_ratios
                meas_db = 10.0 * np.log10(np.mean(meas_ratios))
                for name, ratios in arms.items():
                    want = ratio_db(float(np.mean(ratios)))
                    _, _, _, seed_count, nmse_db, gain_db = rows[(name, ue, snr)]
                    assert (int(seed_count), float(nmse_db), float(gain_db)) == (2, want, meas_db - want)

    def test_infinite_snr_gains_come_from_the_floored_db(self, tmp_path):
        # at +inf the measurement is the truth: its ratio 0 is -300 dB by
        # ratio_db, so mmse_raw gains exactly nothing and unn gains what
        # single mode writes for the cell. log10 of the ratio gave every
        # estimator -inf and a divide-by-zero RuntimeWarning
        doc = {"fit": {"iterations": 20}, "ues": [3], "snr_db": [float("inf"), 10], "seeds": [0]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = run_desk(tmp_path, "sweep", doc)
            single = run_desk(tmp_path, "single", doc)
        rows = {(row[0], row[2]): row for row in (line.split(",") for line in csv_lines(sweep / "results.csv")[1:])}
        cells = {row[1]: row for row in (line.split(",") for line in csv_lines(single / "results.csv")[1:])}
        assert rows[("mmse_raw", "inf")][4:] == ["-300.0", "0.0"]
        assert rows[("unn", "inf")][4:] == [cells["inf"][4], cells["inf"][6]]
        assert float(rows[("unn", "inf")][5]) == ratio_db(0.0) - float(cells["inf"][4])
        assert float(rows[("mmse_genie", "inf")][5]) > -300.0

    def test_each_cell_is_measured_once_and_each_ue_synthesized_once(self, tiny_setup, tmp_path, monkeypatch):
        # counted at every binding in the package, so that a second measure
        # path anywhere shows
        _, config = tiny_setup
        config = dict(config, mode="sweep", ues=[1, 2], snr_db=[0.0, 10.0], seeds=[0, 1, 2], out=str(tmp_path))
        calls = {"add_noise": 0, "synthesize": 0}
        modules = [m for n, m in list(sys.modules.items()) if n == "unn_csi" or n.startswith("unn_csi.")]
        for name in calls:
            original = getattr(channel, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert cli.run(cli.config_from_dict(config)) == 0
        assert calls == {"add_noise": 2 * 2 * 3, "synthesize": 2}


@pytest.mark.parametrize("mode, learning_rate, encodes", [
    ("single", 2e-3, 4), ("single", 1e18, 0), ("codec", 2e-3, 1), ("sweep", 2e-3, 0),
])
def test_only_a_written_report_is_encoded(tiny_setup, tmp_path, monkeypatch, mode, learning_rate, encodes):
    # counted at every binding in the package: one encode per report on
    # disk, which single mode writes for each converged cell
    _, config = tiny_setup
    config = dict(config, mode=mode, ues=[1, 2], snr_db=[0.0, 10.0], out=str(tmp_path / mode))
    config["fit"] = dict(config["fit"], learning_rate=learning_rate)
    calls = []
    original = codec.encode

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in [m for n, m in list(sys.modules.items()) if n == "unn_csi" or n.startswith("unn_csi.")]:
        if getattr(module, "encode", None) is original:
            monkeypatch.setattr(module, "encode", counted)
    with np.errstate(all="ignore"):
        assert cli.run(cli.config_from_dict(config)) == 0
    assert len(calls) == len(list((tmp_path / mode).rglob("*.csir"))) == encodes


# the desk profile's two groups on a short fit
DESK_GROUPS = [
    {"ues": [2, 3, 4], "spec": "desk-group", "iterations": 30},
    {"ues": [5, 6, 7], "spec": "desk-group", "iterations": 30},
]


@pytest.mark.parametrize("mode, workers, sizes", [
    ("single", 1, [19, 2]), ("single", 2, [11, 10]), ("group", 2, [1, 1]),
], ids=["1-sizes0", "2-sizes1", "group-2-sizes2"])
def test_runner_cuts_batches_by_batch_size_and_workers(
    tmp_path, monkeypatch, recorded_fit_batch, mode, workers, sizes
):
    # 21 desk cells: at most batch_size (19 for single_ue_desk) to a batch,
    # and at most ceil(21 / workers), so that every worker gets one. Each
    # group is a batch of one target, and both go out in one map call, in
    # group order, so that two workers fit them side by side. The pool runs
    # in-process here, so its map calls and fit_batch calls are recorded.
    maps = []

    def recording_map(fn, batches):
        maps.append(list(batches))
        return map(fn, maps[-1])

    @contextmanager
    def in_process_pool(n):
        yield SimpleNamespace(map=recording_map)

    monkeypatch.setattr(cli, "_worker_pool", in_process_pool)
    cfg_path = tmp_path / "grid.json"
    groups = [dict(g, iterations=2) for g in DESK_GROUPS]
    cfg_path.write_text(json.dumps({"snr_db": [0, 10, 20], "seeds": [0], "fit": {"iterations": 2}, "groups": groups}))
    argv = ["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--workers", str(workers)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert [len(inits) for inits, _ in recorded_fit_batch] == sizes
    assert [[len(cells) for *_, cells in batches] for batches in maps] == ([sizes] if workers > 1 else [])
    if mode == "group":
        scene = load_scene(cli._data_path(cli._BUILTIN_SCENES, "desk"))
        for group, (_, _, _, ((truths, *_),)) in zip(groups, maps[0]):
            assert [t.data.tobytes() for t in truths] == [synthesize(scene, ue).data.tobytes() for ue in group["ues"]]


# the desk profile on a small grid and a short fit: its single-UE spec and
# its group spec, at a cost of seconds
DESK_SMALL = {
    "fit": {"iterations": 30, "learning_rate": 2e-3, "trace_every": 10, "init_seed": 1},
    "ues": [1, 5], "snr_db": [0, 10], "seeds": [0],
    "groups": [{"ues": [2, 3, 4], "spec": "desk-group", "iterations": 30}],
}


def run_desk(tmp_path, mode, doc=DESK_SMALL) -> Path:
    """Run `mode` of the desk profile under the config `doc`; its output directory."""
    cfg_path = tmp_path / f"{mode}.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / mode
    assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(out)]) == 0
    return out


def test_group_mode_writes_what_one_fit_of_the_stacked_group_gives(tmp_path):
    # the path group mode took before it ran on the cell runner, kept as its
    # reference: measure and preprocess each member, one fit on the stack of
    # their targets, weights rounded to float16, then the report and the
    # NMSE of each member's recreated channel
    doc = dict(DESK_SMALL, groups=DESK_GROUPS)
    out = run_desk(tmp_path, "group", doc)
    scene = load_scene(cli._data_path(cli._BUILTIN_SCENES, "desk"))
    snr_db, seed = float(doc["snr_db"][0]), doc["seeds"][0]
    rows = [line.split(",") for line in csv_lines(out / "results.csv")[1:]]
    assert len(rows) == 6
    for gi, group in enumerate(DESK_GROUPS):
        gspec = load_spec(cli._data_path(cli._BUILTIN_SPECS, group["spec"]))
        fit_cfg = fitting.FitConfig(**dict(doc["fit"], iterations=group["iterations"]))
        truths = [synthesize(scene, ue) for ue in group["ues"]]
        target = stack_users(preprocess(add_noise(truth, snr_db, seed)) for truth in truths)
        report = fitting.fit(gspec, None, target, fit_cfg)
        codec.round_to_float16(report.params)
        blob = codec.encode(gspec, report.params, target.snapshot_norms, target.scale)
        assert (out / "reports" / f"group{gi}.csir").read_bytes() == blob
        estimates = codec.recreate(gspec, report.params, target.snapshot_norms, target.scale)
        got = [(int(row[1]), float(row[3])) for row in rows if row[0] == str(gi)]
        assert got == [(ue, baselines.nmse(est, truth)) for ue, est, truth in zip(group["ues"], estimates, truths)]


class TestFloat16Reports:
    """The runner and group mode round every fit to float16 values before
    they recreate, score and encode it: every report of the desk profile
    carries dtype tag 1, and the NMSE a mode records is the NMSE of the
    channel the report regenerates."""

    @pytest.fixture(scope="class")
    def desk(self):
        scene = load_scene(cli._data_path(cli._BUILTIN_SCENES, "desk"))
        return {ue: synthesize(scene, ue) for ue in range(1, 8)}

    @staticmethod
    def regenerated(path) -> list:
        blob = path.read_bytes()
        assert blob[6] == 1, path.name
        return recreate(*decode(blob))

    def test_single_mode(self, tmp_path, desk):
        out = run_desk(tmp_path, "single")
        rows = [line.split(",") for line in csv_lines(out / "results.csv")[1:]]
        assert len(rows) == 4
        for ue, snr, seed, status, nmse_db, *_ in rows:
            assert status == "ok"
            (est,) = self.regenerated(out / "reports" / f"ue{ue}_snr{int(float(snr))}_seed{seed}.csir")
            assert nmse(est, desk[int(ue)]) == float(nmse_db)

    def test_codec_mode(self, tmp_path, desk):
        out = run_desk(tmp_path, "codec")
        summary = json.loads((out / "summary.json").read_text())
        (est,) = self.regenerated(out / "reports" / "ue1_snr0.0_seed0.csir")
        assert summary["bit_exact"] is True
        assert nmse(est, desk[1]) == summary["nmse_db_rx"] == summary["nmse_db_tx"]
        blob = (out / "reports" / "ue1_snr0.0_seed0.csir").read_bytes()
        assert summary["payload_bytes"] == codec.payload_bytes(blob) < 2 * summary["param_count"] == 2560
        assert summary["report_bytes"] == len(blob) == 2469

    def test_group_mode(self, tmp_path, desk):
        out = run_desk(tmp_path, "group")
        rows = [line.split(",") for line in csv_lines(out / "results.csv")[1:]]
        estimates = self.regenerated(out / "reports" / "group0.csir")
        assert [row[1] for row in rows] == ["2", "3", "4"]
        for row, est in zip(rows, estimates):
            assert nmse(est, desk[int(row[1])]) == float(row[3])

    def test_sweep_scores_the_float16_weights(self, tmp_path):
        # sweep mode writes no report; its unn arm scores, cell for cell, the
        # rounded fit whose report single mode writes
        single = run_desk(tmp_path, "single")
        sweep = run_desk(tmp_path, "sweep")
        cells = {
            (row[0], float(row[1])): float(row[4])
            for row in (line.split(",") for line in csv_lines(single / "results.csv")[1:])
        }
        unn = [line.split(",") for line in csv_lines(sweep / "results.csv")[1:] if line.startswith("unn,")]
        assert len(unn) == 4
        for _, ue, snr, _, nmse_db, _ in unn:
            assert float(nmse_db) == cells[(ue, float(snr))]  # one seed: the cell's own NMSE


class TestOtherModesFields:
    """A config's transfer_plan and group entries are checked in every mode,
    and each is needed in its own mode only: a config naming a plan that
    does not exist, or a group entry with an unknown key, ran to exit 0 in
    every other mode."""

    FAULTS = {
        "group-key": ({"groups": [{"ues": [2, 3], "iterationz": 5}]}, "config: unknown field 'groups[0].iterationz'"),
        "plan-file": ({"transfer_plan": "no-such-plan.json"}, "cannot load transfer plan 'no-such-plan.json'"),
        "groups-type": ({"groups": 5}, "groups must be a list, got int"),
        "group-ue": ({"groups": [{"ues": [2, 3, 99], "spec": "desk-group"}]}, "groups[0] references unknown UEs [99]"),
        # a group entry without a spec takes the config's one-UE spec
        "group-spec": ({"groups": [{"ues": [2, 3]}]}, "decoder spec 'desk' outputs (16, 16, 8), the target is"),
    }

    @staticmethod
    def main(tmp_path, doc, mode):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict({"fit": {"iterations": 2}, "ues": [1], "snr_db": [10]}, **doc)))
        out = tmp_path / "out"
        code = cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("mode", ["single", "codec", "sweep", "transfer"])
    @pytest.mark.parametrize("fault", sorted(set(FAULTS) - {"plan-file"}))
    def test_group_fault_exits_2_with_one_error_line(self, tmp_path, capsys, mode, fault):
        doc, message = self.FAULTS[fault]
        code, out = self.main(tmp_path, doc, mode)
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1 and message in errors[0], errors
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["single", "codec", "sweep", "group"])
    def test_plan_fault_exits_2_with_one_error_line(self, tmp_path, capsys, mode):
        doc, message = self.FAULTS["plan-file"]
        code, out = self.main(tmp_path, doc, mode)
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1 and errors[0].startswith(f"error: {message}: "), errors
        assert not out.exists()

    def test_plan_with_unknown_ue_refused_in_codec_mode(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"base": 1, "chain": [{"target": 99, "init_from": 1}]}))
        code, out = self.main(tmp_path, {"transfer_plan": str(plan)}, "codec")
        assert code == 2 and "error: transfer plan references unknown UEs [99]" in capsys.readouterr().err
        assert not out.exists()

    def test_both_faults_each_give_an_error_line(self, tmp_path, capsys):
        # codec mode ran this config to exit 0 and wrote a full output directory
        doc = {"groups": [{"ues": [2, 3], "iterationz": 5}], "transfer_plan": "no-such-plan.json"}
        code, out = self.main(tmp_path, doc, "codec")
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 2 and not out.exists()
        assert len(errors) == 2
        assert errors[0].startswith("error: cannot load transfer plan 'no-such-plan.json': ")
        assert errors[1] == "error: config: unknown field 'groups[0].iterationz'"

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_each_field_needed_in_its_own_mode_only(self, tiny_setup, mode):
        # tiny_setup's config gives neither a plan nor groups
        _, config = tiny_setup
        errors = [d.message for d in cli.validate(cli.config_from_dict(dict(config, mode=mode))) if d.level == "error"]
        want = {"transfer": ["transfer mode needs a transfer_plan"], "group": ["group mode needs a non-empty groups list"]}
        assert errors == want.get(mode, [])


class TestMain:
    def test_requires_profile_or_config(self):
        with pytest.raises(SystemExit):
            cli.build_config(cli.main.__wrapped__ if False else _args())

    def test_flag_overrides(self, tiny_setup, tmp_path):
        base_dir, config = tiny_setup
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cli_out"
        code = cli.main(["--config", str(cfg_path), "--out", str(out), "--seed-list", "0"])
        assert code == 0
        assert (out / "results.csv").exists()

    def test_workers_flag_overrides_config(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(config, workers=2)))
        out = tmp_path / "flag_out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 0
        assert json.loads((out / "summary.json").read_text())["workers"] == 1

    def test_importing_the_cli_loads_no_worker_pool(self):
        # only a run of more than one worker imports the pool's modules
        pool = "{'multiprocessing', 'concurrent.futures.process'}"
        probe = f"import sys, unn_csi.cli; print(sorted({pool} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_workers_flag_parallel_run_matches_serial(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        serial = dict(config, out=str(tmp_path / "serial"), seeds=[0, 1])
        parallel = dict(config, out=str(tmp_path / "parallel"), seeds=[0, 1], workers=2)
        assert cli.run(cli.config_from_dict(serial)) == 0
        assert cli.run(cli.config_from_dict(parallel)) == 0
        a = open(os.path.join(serial["out"], "results.csv")).read()
        b = open(os.path.join(parallel["out"], "results.csv")).read()
        assert a == b

    @pytest.mark.parametrize("mode, n_files", [
        ("single", 1 + 1 + 2 * 12),  # results.csv, summary.json, a trace and a report per cell
        ("sweep", 1 + 1 + 1),  # results.csv, summary.json, curves.json
        ("transfer", 1 + 1 + 1),  # results.csv, summary.json, weight_distances.csv
        ("group", 1 + 1 + 2),  # results.csv, summary.json, a report per group
    ])
    def test_desk_grid_modes_write_the_same_bytes_with_1_and_2_workers(self, tmp_path, mode, n_files):
        # 12 cells: one batch in one process, or two batches of 6 in two;
        # sweep's unn arm fits its cells through the same pool, transfer
        # mode runs each level of chain-base3's 13 fits through it, and
        # group mode fits the desk profile's two groups side by side in it
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 30, "learning_rate": 2e-3, "trace_every": 10, "init_seed": 1},
            "ues": [1, 2], "snr_db": [0, 10], "seeds": [0, 1, 2], "groups": DESK_GROUPS,
        }))
        outs = {}
        for workers in (1, 2):
            outs[workers] = tmp_path / f"w{workers}"
            argv = ["--profile", "desk", "--config", str(cfg_path), "--mode", mode]
            assert cli.main(argv + ["--out", str(outs[workers]), "--workers", str(workers)]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        one, two = files(outs[1]), files(outs[2])
        assert len(one) == n_files
        summaries = [json.loads(f.pop(Path("summary.json"))) for f in (one, two)]
        assert one == two
        assert [s.pop("workers") for s in summaries] == [1, 2]
        assert summaries[0] == summaries[1]

    def test_codec_mode_sends_single_mode_report_for_the_same_cell(self, tmp_path):
        # the two modes name the cell's SNR differently (snr0 and snr0.0)
        cfg_path = tmp_path / "cell.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 30, "learning_rate": 2e-3, "trace_every": 10, "init_seed": 1},
            "ues": [1], "snr_db": [0], "seeds": [0],
        }))
        for mode in ("single", "codec"):
            argv = ["--profile", "desk", "--config", str(cfg_path), "--mode", mode]
            assert cli.main(argv + ["--out", str(tmp_path / mode)]) == 0
        single = (tmp_path / "single" / "reports" / "ue1_snr0_seed0.csir").read_bytes()
        assert (tmp_path / "codec" / "reports" / "ue1_snr0.0_seed0.csir").read_bytes() == single
        (row,) = csv_lines(tmp_path / "single" / "results.csv")[1:]
        summary = json.loads((tmp_path / "codec" / "summary.json").read_text())
        assert summary["nmse_db_tx"] == float(row.split(",")[4])
        assert summary["bit_exact"] is True

    @pytest.mark.parametrize("mode", ["group", "codec", "sweep", "transfer"])
    def test_diverged_fit_exits_1_with_error_line(self, tmp_path, capsys, mode):
        # only single mode records a diverged cell and runs on; the others
        # have no row for it, and used to die with a FitDivergedError traceback
        cfg_path = tmp_path / "diverge.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 5, "learning_rate": 1e18, "trace_every": 5, "init_seed": 1},
            "ues": [1], "snr_db": [10], "seeds": [0],
            "groups": [{"ues": [2, 3, 4], "spec": "desk-group", "iterations": 5}],
        }))
        out = tmp_path / "out"
        argv = ["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(out)]
        with np.errstate(all="ignore"):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {mode} mode: loss "), errors
        assert "Traceback" not in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_run_loads_each_input_file_once(self, tmp_path, monkeypatch, mode):
        # the mode driver runs on what validate loaded and checked: a file
        # replaced between two reads would otherwise run unchecked
        cfg_path = tmp_path / "once.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 2, "learning_rate": 2e-3, "trace_every": 1, "init_seed": 1},
            "ues": [1], "snr_db": [10], "seeds": [0],
            "groups": [{"ues": [2, 3, 4], "spec": "desk-group", "iterations": 2}],
        }))
        calls = {"load_scene": 0, "load_spec": 0, "load_plan": 0}
        for module, name in ((cli, "load_scene"), (cli, "load_spec"), (cli.transfer_mod, "load_plan")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = ["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        # every mode checks the config's plan and group spec, each loaded once
        assert calls == {"load_scene": 1, "load_spec": 2, "load_plan": 1}

    def test_pool_workers_start_with_one_blas_thread(self, monkeypatch):
        # two workers with the default two BLAS threads each ran four busy
        # threads on two cores; the caller's environment is left as it was
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        with cli._worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, names))
        assert seen == ["1", "1", "1"]
        assert os.environ["OMP_NUM_THREADS"] == "3" and "OPENBLAS_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(fit={"iterations": 10, "bogus": 1}), "config: unknown field 'fit.bogus'"),
            (lambda c: c.update(fit={"iterations": 0}), "iterations must be >= 1"),
            (lambda c: c.update(fit=[10]), "config: fit must be a JSON object"),
            (lambda c: c.update(fit={"iterations": 10, "betas": 0.9}), "config: unknown field 'fit.betas'"),
            (lambda c: c.update(fit={"learning_rate": 2e-3}), "config: missing field 'fit.iterations'"),
            (lambda c: c["fit"].update(iterations=2.5), "iterations: expected int, got float"),
            (lambda c: c["fit"].update(trace_every="40"), "trace_every: expected int, got str"),
            (lambda c: c["fit"].update(init_seed=True), "init_seed: expected int, got bool"),
            (lambda c: c["fit"].update(learning_rate="2e-3"), "learning_rate: expected int or float"),
            (lambda c: c.update(mode="group", groups=[{"ues": [1, 2], "iterations": 2.5}]), "in groups[0]"),
            (lambda c: c.update(snr_db=5), "snr_db must be a non-empty list: expected list, got int"),
            (lambda c: c.update(snr_db=[10.0, "20"]), "snr_db must be a non-empty list: expected int or float"),
            (lambda c: c.update(ues=[1.0]), "ues must be a non-empty list: expected int, got float"),
            (lambda c: c.update(mode="codec", ues=[]), "ues must be a non-empty list: the list is empty"),
            (lambda c: c.update(seeds="0"), "seeds must be a non-empty list: expected list, got str"),
            (lambda c: c.update(snr_db=[float("nan")]), "snr_db must be a non-empty list: nan is not an SNR in dB"),
            (lambda c: c.update(snr_db=[10.0, float("-inf")]), "-inf is not an SNR in dB"),
            # 10^(snr/10) overflows, underflows to 0, or is subnormal
            (lambda c: c.update(snr_db=[1e308]), "snr_db must be a non-empty list: 1e+308 is not an SNR in dB"),
            (lambda c: c.update(snr_db=[-1e308]), "-1e+308 is not an SNR in dB"),
            (lambda c: c.update(snr_db=[10.0, -3100]), "-3100 is not an SNR in dB"),
            (lambda c: c.update(seeds=[0, -1]), "seeds must be a non-empty list: noise seed -1 is negative"),
            (lambda c: c.update(mode="group", groups=[{"ues": [1, 2], "iterations": "x"}]), "in groups[0]"),
            (lambda c: c.update(mode="group", groups=[{"ues": [1, 2, 99]}]), "groups[0] references"),
            (lambda c: c.update(mode="group", groups=[{"spec": "desk-group"}]), "config: missing field 'groups[0].ues'"),
            (lambda c: c.update(mode="group", groups=[5]), "config: groups[0] must be a JSON object"),
            (lambda c: c.update(mode="group", groups=5), "group mode needs a non-empty groups list"),
            (lambda c: c.update(mode="group", groups={"ues": [1, 2]}), "group mode needs a non-empty groups list"),
            # an integer name must never reach open(), which takes it for a file descriptor
            (lambda c: c.update(mode="transfer", transfer_plan=5), "cannot load transfer plan 5: a data name must"),
            (
                lambda c: c.update(mode="group", groups=[{"ues": [1, 2], "spec": 5}]),
                "cannot load group spec 5: a data name must",
            ),
            (lambda c: c.update(scene=5), "cannot load scene 5: a data name must"),
            (lambda c: c.update(decoder_spec=[1]), "cannot load decoder spec [1]: a data name must"),
            (lambda c: c.update(workers=0), "workers must be"),
            (lambda c: c.update(workers="2"), "workers must be"),
            (lambda c: c.pop("fit"), "config: missing field 'fit'"),
            (lambda c: [c.pop(k) for k in ("scene", "ues")], "config: missing field 'scene'"),
        ],
    )
    def test_malformed_config_exits_2_with_error_line(self, tiny_setup, tmp_path, capsys, edit, message):
        _, config = tiny_setup
        edit(config)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert any(message in line for line in errors)
        assert not os.path.exists(config["out"])

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"ues": [2, 3, 4], "iterationz": 5}, "config: unknown field 'groups[0].iterationz'"),
            ({"ues": [2, 2, 3]}, "groups[0] lists UEs [2] more than once"),
            ({"ues": [True, 3, 4]}, "groups[0].ues must be a non-empty list: expected int, got bool"),
        ],
    )
    def test_bad_group_entry_exits_2_with_error_line(self, tmp_path, capsys, entry, message):
        # each entry is otherwise a valid desk group, which would run
        cfg_path = tmp_path / "group.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 5, "learning_rate": 2e-3, "trace_every": 5, "init_seed": 1},
            "groups": [dict(entry, spec="desk-group")],
        }))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", "group", "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err.splitlines()
        assert not out.exists()

    def test_zero_half_range_group_spec_exits_2_with_error_line(self, tmp_path, capsys):
        # an all-zero seed tensor: every group fit would see the same input
        spec_path = tmp_path / "group.json"
        spec = json.loads(resources.files("unn_csi").joinpath("specs/group_desk.json").read_text())
        spec["seed_rule"]["half_range"] = 0.0
        spec_path.write_text(json.dumps(spec))
        cfg_path = tmp_path / "group-config.json"
        cfg_path.write_text(json.dumps({"groups": [{"ues": [2, 3, 4], "spec": str(spec_path)}]}))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", "group", "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot load group spec {str(spec_path)!r}: half_range must be finite and > 0"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"ues": [1, 1]}, "ues lists [1] more than once"),
            ({"ues": [2, 1, 2, 1]}, "ues lists [1, 2] more than once"),
            ({"seeds": [0, 3, 0]}, "seeds lists [0] more than once"),
            # SNRs compare as numbers: 10 and 10.0 are one grid point
            ({"snr_db": [10, 10.0]}, "snr_db lists [10.0] more than once"),
            ({"snr_db": [0, 5, 0.0]}, "snr_db lists [0.0] more than once"),
        ],
    )
    @pytest.mark.parametrize("mode", ["single", "codec"])
    def test_repeated_grid_entry_exits_2_with_error_line(self, tmp_path, capsys, grid, message, mode):
        # every config is otherwise a valid desk grid, which would run
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(dict(
            {"ues": [1], "snr_db": [10], "seeds": [0]},
            fit={"iterations": 5, "learning_rate": 2e-3, "trace_every": 5, "init_seed": 1},
            **grid,
        )))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err.splitlines()
        assert not out.exists()

    @pytest.mark.parametrize(
        "fit, message",
        [
            ({"learning_rate": float("nan")}, "learning rate must be positive and finite, got nan"),
            ({"learning_rate": float("inf")}, "learning rate must be positive and finite, got inf"),
            ({"init_seed": 2**64 + 1}, "init_seed must be in 0..2**64-1, got 18446744073709551617"),
        ],
    )
    @pytest.mark.parametrize("mode", ["single", "group"])
    def test_bad_fit_value_exits_2_before_the_output_exists(self, tmp_path, capsys, fit, message, mode):
        # a NaN learning rate used to run: single mode wrote a diverged row,
        # group mode died with a FitDivergedError traceback
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps({
            "fit": dict({"iterations": 5, "learning_rate": 2e-3, "trace_every": 5, "init_seed": 1}, **fit),
            "groups": [{"ues": [2, 3], "spec": "desk-group"}],
        }))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", mode, "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert any(message in line for line in errors), errors
        assert not out.exists()

    def test_non_finite_scene_number_exits_2_before_the_output_exists(self, tiny_setup, capsys):
        # json reads NaN; a scene holding one must fail validation, before
        # synthesize could raise past main with the output directory made
        tmp_path, config = tiny_setup
        scene = json.loads(Path(config["scene"]).read_text())
        scene["carrier_hz"] = float("nan")
        Path(config["scene"]).write_text(json.dumps(scene))
        cfg_path = tmp_path / "nan.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "'carrier_hz'" in errors[0], errors
        assert not os.path.exists(config["out"])

    def test_scene_repeating_a_ue_id_exits_2_before_the_output_exists(self, tmp_path, capsys):
        # Scene.ue returns the first track with an id: the desk scene's UE 2
        # renamed to 1 could never be fitted, and nothing would say so
        scene = json.loads(Path(cli._data_path(cli._BUILTIN_SCENES, "desk")).read_text())
        scene["ues"][1]["id"] = 1
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        cfg_path = tmp_path / "twice.json"
        cfg_path.write_text(json.dumps({
            "scene": str(tmp_path / "scene.json"), "ues": [1], "snr_db": [10], "seeds": [0], "fit": {"iterations": 2},
        }))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: cannot load scene "), errors
        assert errors[0].endswith("scene lists UE id 1 more than once")
        assert not out.exists()

    @pytest.mark.parametrize("out, shown", [(5, "5"), ("a\0b", "'a\\x00b'")])
    def test_out_that_is_no_path_exits_2_with_error_line(self, tiny_setup, capsys, monkeypatch, out, shown):
        # Path(5) used to raise a TypeError traceback, and mkdir a ValueError
        # on the NUL
        tmp_path, config = tiny_setup
        monkeypatch.chdir(tmp_path)
        config["out"] = out
        cfg_path = tmp_path / "bad_out.json"
        cfg_path.write_text(json.dumps(config))
        before = sorted(tmp_path.iterdir())
        assert cli.main(["--config", str(cfg_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: out must be a directory path string, got {shown}"]
        assert sorted(tmp_path.iterdir()) == before

    def test_out_naming_a_file_exits_2_and_leaves_the_file(self, tiny_setup, capsys):
        # mkdir used to raise a FileExistsError traceback
        tmp_path, config = tiny_setup
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg_path), "--out", str(taken)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot create output directory {str(taken)!r}: File exists"]
        assert taken.read_bytes() == b"not a directory\n"

    def test_distinct_grid_entries_pass(self, tiny_setup):
        _, config = tiny_setup
        config.update(ues=[2, 1], snr_db=[10, 10.5, float("inf")], seeds=[1, 0])
        assert [d for d in cli.validate(cli.config_from_dict(config)) if d.level == "error"] == []

    def test_non_object_config_file_exits_2_with_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: config file {cfg_path} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, kind",
        [(None, "config file {}"), ("scene", "scene"), ("decoder_spec", "decoder spec"), ("transfer_plan", "transfer plan")],
        ids=["config", "scene", "spec", "plan"],
    )
    def test_deeply_nested_file_exits_2_with_one_error_line(self, tmp_path, capsys, field, kind):
        # Python's JSON parser raises RecursionError this deep, which ended
        # the run with a traceback and exit code 1
        nested = tmp_path / "nested.json"
        nested.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        cfg_path = nested
        if field is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({field: str(nested)}))
        out = tmp_path / "out"
        args = ["--profile", "desk", "--config", str(cfg_path), "--mode", "transfer", "--out", str(out)]
        assert cli.main(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].endswith(f"{kind.format(nested)}: JSON nested too deep"), errors
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, kind",
        [(None, "config file {}"), ("scene", "scene"), ("decoder_spec", "decoder spec"), ("transfer_plan", "transfer plan")],
        ids=["config", "scene", "spec", "plan"],
    )
    def test_repeated_key_in_a_file_exits_2_with_one_error_line(self, tmp_path, capsys, field, kind):
        # Python's JSON parser keeps the last of two values, and the run went
        # on with it; the desk profile's file of each kind, its first key
        # given twice
        twice = tmp_path / "twice.json"
        if field is None:
            text = json.dumps({"mode": "single", "fit": {"iterations": 2}})
        else:
            builtin = {"scene": cli._BUILTIN_SCENES, "decoder_spec": cli._BUILTIN_SPECS}.get(field, cli._BUILTIN_PLANS)
            text = Path(cli._data_path(builtin, cli._PROFILES["desk"][field])).read_text()
        key = next(iter(json.loads(text)))
        twice.write_text(text.replace("{", "{" + json.dumps(key) + ": 0, ", 1))
        cfg_path = twice
        if field is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({field: str(twice), "fit": {"iterations": 2}}))
        out = tmp_path / "out"
        args = ["--profile", "desk", "--config", str(cfg_path), "--mode", "transfer", "--out", str(out)]
        assert cli.main(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].endswith(f"{kind.format(twice)}: repeated field {key!r}"), errors
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"fit": {"iterations": 2, "learning_rate": 2e-3, "iterations": 3}}', "iterations"),
            ('{"fit": {"iterations": 2}, "groups": [{"ues": [2, 3, 4], "ues": [5, 6, 7]}]}', "ues"),
        ],
        ids=["fit", "group-entry"],
    )
    def test_repeated_key_in_a_config_object_exits_2_with_error_line(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "twice.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", "group", "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: config file {cfg_path}: repeated field {key!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("carrier_hz", 0), ("carrier_hz", -1e9), ("bandwidth_hz", 0)])
    def test_non_positive_scene_frequency_exits_2_before_the_output_exists(self, tmp_path, capsys, field, value):
        # a zero carrier passed validation, and codec mode died in
        # Scene.wavelength with a ZeroDivisionError traceback and exit code 1
        scene = json.loads(Path(cli._data_path(cli._BUILTIN_SCENES, "desk")).read_text())
        scene[field] = value
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"scene": str(tmp_path / "scene.json"), "fit": {"iterations": 2}}))
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--mode", "codec", "--out", str(out)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: cannot load scene "), errors
        assert errors[0].endswith(": carrier_hz and bandwidth_hz must be positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--config", "fit.json", "--seed-list", ""], "error: seeds must be a non-empty list: the list is empty"),
            (["--config", ""], "No such file or directory: ''"),
            (["--config", "fit.json", "--out", ""], "error: out must be a directory path string, got ''"),
        ],
        ids=["seed-list", "config", "out"],
    )
    def test_empty_flag_value_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, flags, message):
        # each flag was dropped when empty: the profile's seeds ran, the
        # profile ran without the config, or the default out was written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fit.json").write_text(json.dumps({"fit": {"iterations": 2}}))
        assert cli.main(["--profile", "desk", "--mode", "codec", "--out", "out", *flags]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0], errors
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json"]


def _args():
    import argparse

    return argparse.Namespace(profile=None, config=None, mode=None, out=None, seed_list=None, workers=None)


def test_full_scale_output_width_diagnostic(tmp_path):
    # one filter short of 2 * 36 antennas must be flagged
    bad = make_spec((4, 4), (64,) * 6 + (71,), ((True, True),) * 4, seed=1, a=0.15)
    path = tmp_path / "bad71.json"
    save_spec(bad, path)
    config = cli.config_from_dict(
        {
            "scene": "full",
            "decoder_spec": str(path),
            "fit": {"iterations": 1},
            "snr_db": [20.0],
            "ues": [1],
            "seeds": [0],
            "mode": "single",
            "out": "unused",
        }
    )
    diags = cli.validate(config)
    assert shape_errors(diags) == ["(64, 64, 71), the target is (64, 64, 72)"]


def test_diverged_cell_is_recorded_and_run_continues(tiny_setup, tmp_path):
    _, config = tiny_setup
    config = dict(
        config,
        fit={"iterations": 50, "learning_rate": 1e18, "trace_every": 10, "init_seed": 1},
        out=str(tmp_path / "div"),
    )
    with np.errstate(all="ignore"):
        assert cli.run(cli.config_from_dict(config)) == 0
    rows = open(tmp_path / "div" / "results.csv").read().strip().splitlines()
    assert rows[1].split(",")[3] == "diverged"
    summary = json.load(open(tmp_path / "div" / "summary.json"))
    assert summary["diverged"] == 1


def test_full_scale_single_row_and_payload(tmp_path):
    # full-scale geometry, token iteration budget: the row schema and the
    # 51456-byte float16 report payload do not depend on fit length
    config = cli.config_from_dict(
        {
            "scene": "full",
            "decoder_spec": "full",
            "fit": {"iterations": 2, "learning_rate": 5e-3, "trace_every": 1, "init_seed": 1},
            "snr_db": [20.0],
            "ues": [1],
            "seeds": [0],
            "mode": "single",
            "out": str(tmp_path / "full_single"),
        }
    )
    assert cli.run(config) == 0
    rows = open(tmp_path / "full_single" / "results.csv").read().strip().splitlines()
    assert len(rows) == 2
    blob = (tmp_path / "full_single" / "reports" / "ue1_snr20.0_seed0.csir").read_bytes()
    spec, params, norms, scale = decode(blob)
    from unn_csi.codec import payload_bytes

    assert blob[6] == 1
    assert 25728 < payload_bytes(blob) < 2 * 25728
    low, high = params_to_vector(params).astype("<f2").view(np.uint8).reshape(-1, 2).T
    assert blob[-payload_bytes(blob) :][:25728] == low.tobytes()
    assert zlib.decompress(blob[-payload_bytes(blob) + 25728 :], -15) == high.tobytes()
    assert len(norms) == 64
