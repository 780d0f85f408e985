import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from unn_csi import channel, cli, codec
from unn_csi.baselines import mmse_genie, mmse_raw, nmse, nmse_linear, ratio_db
from unn_csi.channel import add_noise, load_scene, synthesize
from unn_csi.codec import decode, recreate

from conftest import make_spec, save_scene, save_spec


@pytest.fixture
def tiny_setup(tmp_path, micro_scene):
    """A complete miniature experiment: scene file, decoder spec file, config."""
    scene_path = tmp_path / "scene.json"
    save_scene(micro_scene, scene_path)
    spec = make_spec((2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True), (True, True)), seed=11, a=0.15)
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
        bad = make_spec((2, 2), (8,) * 5 + (4,), 4, 0, ((True, True),) * 4, seed=1)
        bad_path = tmp_path / "bad_spec.json"
        save_spec(bad, bad_path)
        config = dict(config, decoder_spec=str(bad_path))
        diags = cli.validate(cli.config_from_dict(config))
        assert shape_errors(diags) == ["(32, 32, 4), the target is (8, 8, 4)"]

    def test_output_width_diagnostic(self, tiny_setup, tmp_path):
        _, config = tiny_setup
        wrong = make_spec((2, 2), (8, 8, 8, 8, 6), 2, 1, ((True, True), (True, True)), seed=1)
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
    save_spec(make_spec(input_dims, (8, 8, 8, 8, 4), 2, 1, flags, seed=11, a=0.15), spec_path)
    config = cli.config_from_dict(
        {
            "scene": str(scene_path),
            "decoder_spec": str(spec_path),
            "fit": {"iterations": 5, "learning_rate": 2e-3, "trace_every": 5, "init_seed": 1},
            "snr_db": [10.0],
            "ues": [1],
            "mode": mode,
            "groups": [{"ues": [1, 2]}],
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
            (2, 2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True, False), (True, True, False)), seed=11, a=0.15
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
            (2, 2, 3), (8, 8, 8, 8, 4), 2, 1, ((True, True, False), (True, True, False)), seed=11
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
        assert summary["payload_bytes"] == 4 * 272
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
    ])
    def test_desk_grid_modes_write_the_same_bytes_with_1_and_2_workers(self, tmp_path, mode, n_files):
        # 12 cells: one batch in one process, or two batches of 6 in two;
        # sweep's unn arm fits its cells through the same pool, and transfer
        # mode runs each level of chain-base3's 13 fits through it
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({
            "fit": {"iterations": 30, "learning_rate": 2e-3, "trace_every": 10, "init_seed": 1},
            "ues": [1, 2], "snr_db": [0, 10], "seeds": [0, 1, 2],
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
        assert calls == {
            "load_scene": 1, "load_spec": 2 if mode == "group" else 1, "load_plan": int(mode == "transfer"),
        }

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
            (lambda c: c.update(fit={"iterations": 10, "bogus": 1}), "'bogus'"),
            (lambda c: c.update(fit={"iterations": 0}), "iterations must be >= 1"),
            (lambda c: c.update(fit={"iterations": 10, "betas": 0.9}), "bad fit settings in fit"),
            (lambda c: c.update(fit={"learning_rate": 2e-3}), "'iterations'"),
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
            (lambda c: c.update(mode="group", groups=[{"spec": "desk-group"}]), "groups[0] needs"),
            (lambda c: c.update(mode="group", groups=[5]), "groups[0] needs"),
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
            (lambda c: c.pop("fit"), "missing config fields: ['fit']"),
            (lambda c: [c.pop(k) for k in ("scene", "ues")], "missing config fields: ['scene', 'ues']"),
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
            ({"ues": [2, 3, 4], "iterationz": 5}, "groups[0] has unknown fields ['iterationz']"),
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

    def test_distinct_grid_entries_pass(self, tiny_setup):
        _, config = tiny_setup
        config.update(ues=[2, 1], snr_db=[10, 10.5, float("inf")], seeds=[1, 0])
        assert [d for d in cli.validate(cli.config_from_dict(config)) if d.level == "error"] == []

    def test_non_object_config_file_exits_2_with_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        out = tmp_path / "out"
        assert cli.main(["--profile", "desk", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: config file {cfg_path} holds a list, not a JSON object" in capsys.readouterr().err
        assert not out.exists()


def _args():
    import argparse

    return argparse.Namespace(profile=None, config=None, mode=None, out=None, seed_list=None, workers=None)


def test_full_scale_output_width_diagnostic(tmp_path):
    # one filter short of 2 * 36 antennas must be flagged
    bad = make_spec((4, 4), (64,) * 6 + (71,), 4, 1, ((True, True),) * 4, seed=1, a=0.15)
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
    # 102912-byte report payload do not depend on fit length
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
    assert blob[-4 * 25728 :] == blob[len(blob) - 102912 :]
    from unn_csi.codec import payload_bytes

    assert payload_bytes(spec) == 102912
    assert len(norms) == 64
