"""The benchmark's workloads. Each one drives ``unn_csi`` from outside: it
generates its inputs from the workload seed in ``setup``, runs one pass of
product calls in ``run_pass`` (timed), and checks every output the pass
produced against what the product promises.

Product functions are always looked up through their module
(``channel.synthesize``, ``cli.run``) so that a traced run sees the tracer's
wrappers.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import re
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

from unn_csi import baselines, channel, cli, codec, decoder, transfer

SWEEP_ESTIMATORS = ("mmse_raw", "mmse_genie", "unn")
# A regeneration latency sample is the median of this many back-to-back
# runs, so that a single burst of CPU steal on a shared host is not a sample.
REGEN_REPEATS = 3


@dataclass
class PassResult:
    # wall time of the product calls that recreate the cells, per part of
    # the pass (a CLI mode, or "cells" in report-regen)
    part_wall_s: dict = field(default_factory=dict)
    timed_s: float = 0.0  # every timed call, regeneration included
    iterations: int = 0  # Adam iterations, or decoder passes in report-regen
    cells: int = 0
    regen_s: list = field(default_factory=list)  # BS-side latency samples
    # the same at reference host speed (see hostspeed.py)
    part_ref_s: dict = field(default_factory=dict)
    regen_ref_s: list = field(default_factory=list)
    nmse_db: list = field(default_factory=list)
    report_bytes: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)


class Tally:
    """Attempted and failed operations; a failure is a diverged fit, a
    missing artifact, a decode error or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.warnings: list = []  # product defects that fail no listed check

    def check(self, ok, what) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _timed(tracer, res: PassResult, fn, *args):
    with tracer.region() if tracer is not None else nullcontext():
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
    res.timed_s += dt
    return out, dt


def _bracketed(host, tracer, res: PassResult, fn, *args):
    """Time one call between two host-speed samples; returns the output, the
    time and the host's slowdown around the call."""
    before = host.slowdown()
    out, dt = _timed(tracer, res, fn, *args)
    return out, dt, statistics.fmean((before, host.slowdown()))


def _regen_sample(host, tracer, res: PassResult, blob: bytes):
    """Regenerate `blob` REGEN_REPEATS times between two host-speed samples;
    returns the first output, the first run's time, the median time and the
    host's slowdown around them."""
    before = host.slowdown()
    out, first = _timed(tracer, res, regenerate, blob)
    times = [first] + [_timed(tracer, res, regenerate, blob)[1] for _ in range(REGEN_REPEATS - 1)]
    return out, first, statistics.median(times), statistics.fmean((before, host.slowdown()))


def _data(rel: str) -> str:
    return str(resources.files("unn_csi").joinpath(rel))


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _csv_float(text: str, what: str, tally: Tally) -> float:
    """A results.csv float. docs/artifacts.md promises plain `repr` floats;
    a numpy scalar repr such as `np.float64(-0.5)` is read for its value and
    reported as a schema warning."""
    try:
        return float(text)
    except ValueError:
        m = re.fullmatch(r"np\.float(?:64|32)\((.*)\)", text)
        if m is None:
            raise
        tally.warnings.append(f"{what}: {text!r} is not a plain float repr")
        return float(m.group(1))


def _read_rows(path: Path):
    if not path.is_file():
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def regenerate(blob: bytes) -> tuple:
    """Base-station side: decode a report and recreate every channel it
    carries (one for a single-user report, one per user for a group).
    Returns the decoder output and the list of recreated channels."""
    spec, params, norms, scale = codec.decode(blob)
    out = decoder.forward(spec, params)
    if spec.n_spatial == 2:
        return out, [channel.postprocess(out, norms, scale)]
    return out, [
        channel.postprocess(out[:, :, m, :].transpose(1, 0, 2), norms[m], float(scale[m]))
        for m in range(out.shape[2])
    ]


# ---------------------------------------------------------------------------
# workloads that run the study driver


class CliWorkload:
    """Modes of one CLI profile, each run once per pass through
    ``cli.run(config)`` with a config generated from the workload seed."""

    profile = ""
    scene_file = ""
    modes: tuple = ()
    regen_samples = 1  # BS-side latency samples per single-user report and pass
    min_passes = 3
    host_weights: dict = {}  # hostspeed kernel -> weight, by the work done

    def __init__(self, seed: int, workdir: Path, host):
        self.seed = seed
        self.workdir = workdir
        self.host = host  # HostSpeed, sampled around every timed call

    def grid(self, base, rng, ue_ids) -> dict:
        raise NotImplementedError

    def warm_up_configs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.scene = channel.load_scene(_data(self.scene_file))
        base = cli.build_config(
            argparse.Namespace(
                profile=self.profile, config=None, mode=None, out=None, seed_list=None, workers=1
            )
        )
        doc = dataclasses.asdict(base)
        doc.update(self.grid(base, np.random.default_rng(self.seed), self.scene.ue_ids))
        self.configs = {
            m: cli.config_from_dict(dict(doc, mode=m, out=str(self.workdir / m))) for m in self.modes
        }
        cfg = next(iter(self.configs.values()))
        self.iters = cfg.fit_config().iterations
        if "transfer" in self.modes:
            self.plan = transfer.load_plan(cfg.transfer_plan)
        wanted = set(cfg.ues) | {u for g in cfg.groups for u in g["ues"]}
        self.truths = {u: channel.synthesize(self.scene, u) for u in sorted(wanted)}
        for config in self.warm_up_configs():
            if cli.run(config) != 0:
                raise RuntimeError(f"warm-up {config.mode} run failed")

    def expected(self, mode) -> tuple:
        """(results.csv rows, Adam iterations) one run of `mode` produces."""
        c = self.configs[mode]
        grid = len(c.ues) * len(c.snr_db) * len(c.seeds)
        if mode == "single":
            return grid, grid * self.iters
        if mode == "transfer":
            fits = len(self.plan.ue_ids) + len(self.plan.chain)
            return fits, fits * self.iters
        if mode == "group":
            return sum(len(g["ues"]) for g in c.groups), sum(g["iterations"] for g in c.groups)
        if mode == "codec":
            return 1, self.iters
        if mode == "sweep":
            return len(SWEEP_ESTIMATORS) * len(c.ues) * len(c.snr_db), grid * self.iters
        raise ValueError(mode)

    def run_pass(self, tally: Tally, tracer=None) -> PassResult:
        res = PassResult()
        for mode in self.modes:
            out = self.workdir / mode
            shutil.rmtree(out, ignore_errors=True)
            code, dt, speed = _bracketed(self.host, tracer, res, cli.run, self.configs[mode])
            res.part_wall_s[mode] = dt
            res.part_ref_s[mode] = dt / speed
            rows, iters = self.expected(mode)
            res.cells += rows
            res.iterations += iters
            if tally.check(code == 0, f"{mode}: cli.run exit code {code}"):
                getattr(self, f"_check_{mode}")(out, res, tally, tracer)
        return res

    # -- output checks -----------------------------------------------------

    def _rows(self, mode, out, res, tally):
        path = out / "results.csv"
        rows = _read_rows(path)
        if not tally.check(rows is not None, f"{mode}: results.csv missing"):
            return []
        res.hashes[f"{mode}/results.csv"] = _sha256(path.read_bytes())
        want = self.expected(mode)[0]
        tally.check(len(rows) == want, f"{mode}: {len(rows)} results.csv rows, grid has {want}")
        return rows

    def _regen(self, path, truths, want_nmse, res, tally, tracer, samples):
        """Decode a written report, recreate its channels and check each NMSE
        against the value the CLI recorded for it."""
        if not tally.check(path.is_file(), f"report {path.name} missing"):
            return
        blob = path.read_bytes()
        res.hashes[f"{path.parent.parent.name}/{path.name}"] = _sha256(blob)
        res.report_bytes.append(len(blob))
        try:
            (_, estimates), _ = _timed(tracer, res, regenerate, blob)
            for _ in range(samples):
                _, _, sample, speed = _regen_sample(self.host, tracer, res, blob)
                res.regen_s.append(sample)
                res.regen_ref_s.append(sample / speed)
        except codec.CodecError as exc:
            tally.check(False, f"report {path.name}: decode error {exc}")
            return
        for est, truth, want in zip(estimates, truths, want_nmse):
            got = baselines.nmse(est, truth)
            tally.check(got == want, f"report {path.name}: regenerated NMSE {got!r} != recorded {want!r}")

    def _check_single(self, out, res, tally, tracer):
        c = self.configs["single"]
        rows = {(int(r["ue"]), float(r["snr_db"]), int(r["seed"])): r for r in self._rows("single", out, res, tally)}
        for ue in c.ues:
            for snr in c.snr_db:
                for seed in c.seeds:
                    r = rows.get((ue, float(snr), seed))
                    tag = f"ue{ue}_snr{snr}_seed{seed}"
                    if not tally.check(r is not None and r["status"] == "ok", f"single {tag}: status not ok"):
                        continue
                    res.nmse_db.append(float(r["nmse_db"]))
                    if float(snr) == 0.0:
                        tally.check(float(r["gain_db"]) > 0.0, f"single {tag}: no gain over the 0 dB measurement")
                    self._regen(
                        out / "reports" / f"{tag}.csir", [self.truths[ue]], [float(r["nmse_db"])],
                        res, tally, tracer, self.regen_samples,
                    )

    def _check_transfer(self, out, res, tally, tracer):
        for r in self._rows("transfer", out, res, tally):
            if tally.check(np.isfinite(float(r["nmse_db"])), f"transfer ue{r['ue']}: NMSE not finite"):
                res.nmse_db.append(float(r["nmse_db"]))
        tally.check((out / "weight_distances.csv").is_file(), "transfer: weight_distances.csv missing")

    def _check_group(self, out, res, tally, tracer):
        rows = self._rows("group", out, res, tally)
        for gi, entry in enumerate(self.configs["group"].groups):
            got = {int(r["ue"]): float(r["nmse_db"]) for r in rows if int(r["group"]) == gi}
            if not tally.check(set(got) == set(entry["ues"]), f"group {gi}: rows do not cover its UEs"):
                continue
            res.nmse_db.extend(got[u] for u in entry["ues"])
            self._regen(
                out / "reports" / f"group{gi}.csir", [self.truths[u] for u in entry["ues"]],
                [got[u] for u in entry["ues"]], res, tally, tracer, 0,
            )

    def _check_codec(self, out, res, tally, tracer):
        c = self.configs["codec"]
        path = out / "summary.json"
        if not tally.check(path.is_file(), "codec: summary.json missing"):
            return
        summary = json.loads(path.read_text(encoding="utf-8"))
        tally.check(summary.get("bit_exact") is True, "codec: round trip not bit_exact")
        res.nmse_db.append(summary["nmse_db_rx"])
        ue, snr, seed = c.ues[0], float(c.snr_db[0]), c.seeds[0]
        self._regen(
            out / "reports" / f"ue{ue}_snr{snr}_seed{seed}.csir", [self.truths[ue]],
            [summary["nmse_db_rx"]], res, tally, tracer, self.regen_samples,
        )

    def _check_sweep(self, out, res, tally, tracer):
        for r in self._rows("sweep", out, res, tally):
            what = f"sweep {r['estimator']} ue{r['ue']} snr{r['snr_db']}"
            value = _csv_float(r["nmse_db"], what + " nmse_db", tally)
            _csv_float(r["gain_db"], what + " gain_db", tally)
            ok = r["estimator"] in SWEEP_ESTIMATORS and np.isfinite(value)
            if tally.check(ok, f"{what}: bad row") and r["estimator"] == "unn":
                res.nmse_db.append(value)


class DeskStudy(CliWorkload):
    """All five modes of the ``desk`` profile on a reduced grid: about 30
    small 16x16x8 fits per pass, where per-call dispatch, the per-array Adam
    loop, seed/parameter regeneration and per-cell artifact writes dominate."""

    profile = "desk"
    scene_file = "scenes/street_canyon_desk.json"
    modes = ("single", "transfer", "group", "codec", "sweep")
    iterations = 100
    regen_samples = 8
    host_weights = {"interpreter": 1, "small_arrays": 1}

    def grid(self, base, rng, ue_ids):
        return {
            "snr_db": [0, 10],
            "ues": sorted(int(u) for u in rng.choice(ue_ids, 2, replace=False)),
            "seeds": [int(s) for s in rng.integers(0, 2**31, 2)],
            "fit": dict(base.fit, iterations=self.iterations, init_seed=int(rng.integers(1, 2**31))),
            "transfer_plan": _data("plans/chain_base6.json"),
            "groups": [
                {
                    "ues": sorted(int(u) for u in rng.choice(ue_ids, 3, replace=False)),
                    "spec": "desk-group",
                    "iterations": self.iterations,
                }
            ],
            "workers": 1,
        }

    def warm_up_configs(self):
        c = self.configs["codec"]
        return [dataclasses.replace(c, out=str(self.workdir / "warm-up"))]


class FullFit(CliWorkload):
    """One full-scale single-UE cell (64x64x72, 25,728 parameters) and one
    three-user joint fit (64x64x3x72) on a short fixed iteration budget:
    MB-sized activations on both the 3-way and the 4-way layout."""

    profile = "full"
    scene_file = "scenes/street_canyon.json"
    modes = ("single", "group")
    iterations = 30
    group_iterations = 10
    regen_samples = 32
    host_weights = {"interpreter": 1, "large_arrays": 1}

    def grid(self, base, rng, ue_ids):
        return {
            "snr_db": [10],
            "ues": [int(rng.choice(ue_ids))],
            "seeds": [int(rng.integers(0, 2**31))],
            "fit": dict(base.fit, iterations=self.iterations, init_seed=int(rng.integers(1, 2**31))),
            "groups": [
                {
                    "ues": sorted(int(u) for u in rng.choice(ue_ids, 3, replace=False)),
                    "spec": "full-group-a",
                    "iterations": self.group_iterations,
                }
            ],
            "workers": 1,
        }

    def warm_up_configs(self):
        # one iteration fills the upsampler cache, which the 3-way and 4-way
        # decoders share (same source extents)
        single = self.configs["single"]
        return [dataclasses.replace(single, out=str(self.workdir / "warm-up"), fit=dict(single.fit, iterations=1))]


# ---------------------------------------------------------------------------
# report regeneration, no fitting


class ReportRegen:
    """Full-scale CSI reports without fitting. The UE side measures, runs the
    two baselines and encodes the weights of an initialized decoder; the
    base-station side decodes and recreates the channel. The decoder runs
    forward only, and codec/channel/baselines carry the load."""

    cells_per_pass = 12
    host_weights = {"interpreter": 1, "large_arrays": 1}
    snr_cycle = (0, 10, 20)
    min_passes = -(-100 // cells_per_pass)  # at least 100 reports per run

    def __init__(self, seed: int, workdir: Path, host):
        self.seed = seed
        self.workdir = workdir
        self.host = host  # HostSpeed, sampled around every timed call

    def setup(self) -> None:
        self.scene = channel.load_scene(_data("scenes/street_canyon.json"))
        self.spec = decoder.load_spec(_data("specs/single_ue_full.json"))
        rng = np.random.default_rng(self.seed)
        self.cells = [
            (
                int(rng.choice(self.scene.ue_ids)),
                float(self.snr_cycle[i % len(self.snr_cycle)]),
                int(rng.integers(0, 2**31)),
                int(rng.integers(1, 2**31)),
            )
            for i in range(self.cells_per_pass)
        ]
        _, blob = self.ue_side(self.cells[0])
        regenerate(blob)

    def ue_side(self, cell):
        ue, snr, noise_seed, init_seed = cell
        truth = channel.synthesize(self.scene, ue)
        meas = channel.add_noise(truth, snr, noise_seed)
        target = channel.preprocess(meas)
        baselines.nmse(baselines.mmse_raw(meas), truth)
        baselines.nmse(baselines.mmse_genie(meas, truth, snr), truth)
        params = decoder.init_params(self.spec, init_seed)
        y = decoder.forward(self.spec, params)
        blob = codec.encode(self.spec, params, target.snapshot_norms, target.scale)
        return (truth, target, y), blob

    def run_pass(self, tally: Tally, tracer=None) -> PassResult:
        res = PassResult(part_wall_s={"cells": 0.0}, part_ref_s={"cells": 0.0})
        for i, cell in enumerate(self.cells):
            ((truth, target, y_tx), blob), dt_ue, speed_ue = _bracketed(self.host, tracer, res, self.ue_side, cell)
            res.report_bytes.append(len(blob))
            res.hashes[f"cell{i}.csir"] = _sha256(blob)
            try:
                (y_rx, estimates), dt_bs, sample_bs, speed_bs = _regen_sample(self.host, tracer, res, blob)
            except codec.CodecError as exc:
                tally.check(False, f"cell {i}: decode error {exc}")
                continue
            res.part_wall_s["cells"] += dt_ue + dt_bs
            res.part_ref_s["cells"] += dt_ue / speed_ue + dt_bs / speed_bs
            res.regen_s.append(sample_bs)
            res.regen_ref_s.append(sample_bs / speed_bs)
            res.cells += 1
            res.iterations += 2  # encoder-side and base-station forward
            est = estimates[0]
            tx = channel.postprocess(y_tx, target.snapshot_norms, target.scale)
            tally.check(
                np.array_equal(y_rx, y_tx) and np.array_equal(est.data, tx.data),
                f"cell {i}: base-station estimate differs from the encoder-side forward",
            )
            res.nmse_db.append(baselines.nmse(est, truth))
        return res


WORKLOADS = {"desk-study": DeskStudy, "full-fit": FullFit, "report-regen": ReportRegen}
