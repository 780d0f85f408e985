"""Experiment driver: scene generation, single-UE sweeps, transfer chains,
multi-user groups, and codec round-trips, reproducing the study layout end to
end and emitting CSV/JSON artifacts.

Invocation:

    unn-csi --profile desk --mode single --out results/
    unn-csi --config my_experiment.json --out results/

A profile supplies a complete default configuration (scene, decoder spec, fit
settings, SNR grid, seeds); an explicit config file and command-line flags
override it field by field. All randomness is seeded, so re-running a config
reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from importlib import resources
from itertools import product
from math import prod
from multiprocessing import get_context
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, codec, transfer as transfer_mod
from ._fields import INT, NUMBER, list_of
from .channel import Scene, add_noise, load_scene, noise_variance, preprocess, stack_users, synthesize
from .decoder import DecoderSpec, compression_ratio, load_spec, param_count, params_to_vector
from .fitting import FitConfig, FitDivergedError, batch_size, fit, fit_batch
from .baselines import mmse_genie, nmse, nmse_linear, ratio_db, records_to_curves

__all__ = ["ExperimentConfig", "Diagnostic", "validate", "run", "main"]

_BUILTIN_SCENES = {
    "desk": "scenes/street_canyon_desk.json",
    "full": "scenes/street_canyon.json",
}
_BUILTIN_SPECS = {
    "desk": "specs/single_ue_desk.json",
    "full": "specs/single_ue_full.json",
    "desk-group": "specs/group_desk.json",
    "full-group-a": "specs/group_full_a.json",
    "full-group-b": "specs/group_full_b.json",
}
_BUILTIN_PLANS = {
    "chain-base3": "plans/chain_base3.json",
    "chain-base6": "plans/chain_base6.json",
}

_PROFILES = {
    "desk": {
        "scene": "desk",
        "decoder_spec": "desk",
        "fit": {"iterations": 3000, "learning_rate": 2e-3, "trace_every": 100, "init_seed": 1},
        "snr_db": [0, 5, 10, 15, 20],
        "ues": [1, 2, 3, 4, 5, 6, 7],
        "seeds": [0, 1, 2],
        "transfer_plan": "chain-base3",
        "groups": [
            {"ues": [2, 3, 4], "spec": "desk-group", "iterations": 3000},
            {"ues": [5, 6, 7], "spec": "desk-group", "iterations": 3000},
        ],
        "workers": 1,
    },
    "full": {
        "scene": "full",
        "decoder_spec": "full",
        "fit": {"iterations": 25000, "learning_rate": 5e-3, "trace_every": 500, "init_seed": 1},
        "snr_db": [0, 5, 10, 15, 20],
        "ues": [1, 2, 3, 4, 5, 6, 7],
        "seeds": [0, 1, 2, 3, 4],
        "transfer_plan": "chain-base3",
        "groups": [
            {"ues": [2, 3, 4], "spec": "full-group-a", "iterations": 50000},
            {"ues": [5, 6, 7], "spec": "full-group-b", "iterations": 100000},
        ],
        "workers": 1,
    },
}


@dataclass
class Diagnostic:
    level: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.level}: {self.message}"


@dataclass
class ExperimentConfig:
    scene: str
    decoder_spec: str
    fit: dict
    snr_db: list
    ues: list
    mode: str = "single"
    out: str = "results"
    seeds: list = field(default_factory=lambda: [0])
    transfer_plan: str | None = None
    groups: list = field(default_factory=list)
    workers: int = 1

    def fit_config(self, iterations=None) -> FitConfig:
        kw = dict(self.fit)
        if iterations is not None:
            kw["iterations"] = iterations
        return FitConfig(**kw)


def _data_path(mapping: dict, name: str) -> str:
    """Resolve a builtin data name or pass a filesystem path through;
    ValueError unless `name` is a string."""
    if not isinstance(name, str):
        raise ValueError(f"a data name must be a string, got {name!r}")
    if name in mapping:
        return str(resources.files("unn_csi").joinpath(mapping[name]))
    return name


def config_from_dict(doc: dict) -> ExperimentConfig:
    fields = ExperimentConfig.__dataclass_fields__
    unknown = set(doc) - set(fields)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    required = [n for n, f in fields.items() if f.default is MISSING and f.default_factory is MISSING]
    missing = [n for n in required if n not in doc]
    if missing:
        raise ValueError(f"missing config fields: {missing}")
    return ExperimentConfig(**doc)


# ---------------------------------------------------------------------------
# validation


def _check_spec_against(scene: Scene, spec: DecoderSpec, name: str, diags: list, group_size=None):
    """Error unless the decoder outputs the target the mode fits: (n_sub, n_sp,
    2*n_ant) for one UE, (n_sp, n_sub, M, 2*n_ant) for a group of M UEs (the
    layout of channel.stack_users)."""
    want = (scene.n_sub, scene.n_sp) if group_size is None else (scene.n_sp, scene.n_sub, group_size)
    want += (2 * scene.n_ant,)
    if spec.output_dims != want:
        diags.append(
            Diagnostic("error", f"decoder spec {name!r} outputs {spec.output_dims}, the target is {want}")
        )
    extent = prod(spec.output_dims)
    if param_count(spec) >= extent:
        diags.append(
            Diagnostic(
                "warning",
                f"decoder is not under-parameterized ({param_count(spec)} parameters for "
                f"a {extent}-entry target)",
            )
        )


def _load(loader, mapping: dict, name: str, what: str, diags: list):
    """`loader` on a builtin data name or path; None plus an error diagnostic
    if the file is missing or malformed."""
    try:
        return loader(_data_path(mapping, name))
    except (OSError, ValueError) as exc:
        diags.append(Diagnostic("error", f"cannot load {what} {name!r}: {exc}"))
        return None


def _check_fit(config: ExperimentConfig, iterations, where: str, diags: list) -> None:
    try:
        config.fit_config(iterations)
    except (TypeError, ValueError) as exc:
        diags.append(Diagnostic("error", f"bad fit settings in {where}: {exc}"))


def _snr(value):
    """An SNR in dB that :func:`noise_variance` takes; +inf means no noise."""
    noise_variance(1.0, 1, NUMBER(value))
    return value


def _noise_seed(value):
    if INT(value) < 0:
        raise ValueError(f"noise seed {value} is negative")
    return value


def _check_list(value, item, name: str, diags: list):
    """`value` as a tuple of `item`-checked entries; None plus an error
    diagnostic unless it is a non-empty list of such entries."""
    try:
        items = list_of(item)(value)
        if not items:
            raise ValueError("the list is empty")
        return items
    except (TypeError, ValueError) as exc:
        diags.append(Diagnostic("error", f"{name} must be a non-empty list: {exc}"))
        return None


def _repeats(items, key=None) -> list:
    """The sorted distinct values (under `key`) that `items` holds more than once."""
    keys = [key(v) for v in items] if key else list(items)
    return sorted({k for k in keys if keys.count(k) > 1})


class _Inputs(NamedTuple):
    """The files :func:`_checked` loaded and checked, which :func:`run`
    hands to the mode driver, so that it runs on exactly what was checked."""

    scene: Scene
    spec: DecoderSpec
    plan: transfer_mod.TransferPlan | None  # transfer mode's
    group_specs: list  # group mode's, one per entry of config.groups


def validate(config: ExperimentConfig) -> list:
    """Static checks; returns diagnostics and never mutates or runs anything."""
    return _checked(config)[0]


def _checked(config: ExperimentConfig) -> tuple:
    """(diagnostics, inputs): what :func:`validate` returns, and the
    :class:`_Inputs` it loaded, None if the scene or spec failed to load."""
    diags: list = []
    if config.mode not in MODES:
        diags.append(Diagnostic("error", f"unknown mode {config.mode!r}"))
        return diags, None
    scene = _load(load_scene, _BUILTIN_SCENES, config.scene, "scene", diags)
    if scene is None:
        return diags, None
    spec = _load(load_spec, _BUILTIN_SPECS, config.decoder_spec, "decoder spec", diags)
    if spec is None:
        return diags, None

    # SNRs compare as numbers, so 10 and 10.0 name one grid point
    for name, item, key in (("snr_db", _snr, float), ("ues", INT, None), ("seeds", _noise_seed, None)):
        items = _check_list(getattr(config, name), item, name, diags)
        repeated = _repeats(items, key) if items else []
        if repeated:
            diags.append(Diagnostic("error", f"{name} lists {repeated} more than once"))
    if not isinstance(config.workers, int) or isinstance(config.workers, bool) or config.workers < 1:
        diags.append(Diagnostic("error", f"workers must be an integer >= 1, got {config.workers!r}"))
    _check_fit(config, None, "fit", diags)
    if spec.seed_rule.half_range <= 0:
        diags.append(Diagnostic("error", "seed rule has zero half-range; the decoder input is all zeros"))
    missing = [u for u in config.ues if u not in scene.ue_ids] if isinstance(config.ues, list) else []
    if missing:
        diags.append(Diagnostic("error", f"scene has no UEs {missing}"))

    if config.mode in ("single", "sweep", "codec", "transfer"):
        _check_spec_against(scene, spec, config.decoder_spec, diags)
    plan, group_specs = None, []
    if config.mode == "transfer":
        if not config.transfer_plan:
            diags.append(Diagnostic("error", "transfer mode needs a transfer_plan"))
        else:
            plan = _load(transfer_mod.load_plan, _BUILTIN_PLANS, config.transfer_plan, "transfer plan", diags)
            absent = [u for u in plan.ue_ids if u not in scene.ue_ids] if plan else []
            if absent:
                diags.append(Diagnostic("error", f"transfer plan references unknown UEs {absent}"))
    if config.mode == "group":
        groups = config.groups if isinstance(config.groups, list) else []
        if not groups:
            diags.append(Diagnostic("error", "group mode needs a non-empty groups list"))
        for gi, entry in enumerate(groups):
            if not isinstance(entry, dict) or "ues" not in entry:
                diags.append(Diagnostic("error", f'groups[{gi}] needs a non-empty "ues" list'))
                continue
            unknown = sorted(set(entry) - {"ues", "spec", "iterations"})
            if unknown:
                diags.append(Diagnostic("error", f"groups[{gi}] has unknown fields {unknown}"))
            ues = _check_list(entry["ues"], INT, f"groups[{gi}].ues", diags)
            if ues is None:
                continue
            repeated = _repeats(ues)
            if repeated:
                diags.append(Diagnostic("error", f"groups[{gi}] lists UEs {repeated} more than once"))
            absent = [u for u in ues if u not in scene.ue_ids]
            if absent:
                diags.append(Diagnostic("error", f"groups[{gi}] references unknown UEs {absent}"))
            _check_fit(config, entry.get("iterations"), f"groups[{gi}]", diags)
            spec_name = entry.get("spec", config.decoder_spec)
            gspec = _load(load_spec, _BUILTIN_SPECS, spec_name, "group spec", diags) if "spec" in entry else spec
            group_specs.append(gspec)
            if gspec is not None:
                _check_spec_against(scene, gspec, spec_name, diags, group_size=len(ues))
    return diags, _Inputs(scene, spec, plan, group_specs)


# ---------------------------------------------------------------------------
# artifact helpers


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # also strips numpy scalar reprs such as np.float64(...)
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    """The one writer of every CSV schema in docs/artifacts.md: header row,
    every cell through :func:`_fmt`, LF line endings, written atomically."""
    lines = [",".join(_fmt(c) for c in row) for row in [header, *rows]]
    _atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# mode drivers


# set for the life of a worker pool: each worker runs one BLAS thread, since
# the pool already keeps the cores busy. BLAS reads these once, when a spawned
# worker imports numpy, before any code of ours runs in it.
_WORKER_THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@contextmanager
def _worker_pool(workers: int):
    """A pool of `workers` freshly spawned processes, each with one BLAS
    thread. A forked worker would keep the parent's BLAS thread pool, so
    two workers would run four busy threads on two cores."""
    saved = {name: os.environ.get(name) for name in _WORKER_THREAD_ENV}
    os.environ.update(_WORKER_THREAD_ENV)
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


class _Cell(NamedTuple):
    """One fitted cell, nothing channel-sized."""

    error: FitDivergedError | None  # None if the fit converged
    trace: list
    final_mse: float
    meas_ratio: float  # linear NMSE of the measurement
    ratio: float  # linear NMSE of the recreated channel, nan if diverged
    blob: bytes | None  # the .csir report, None if diverged
    scored: tuple  # linear NMSE of each of the batch's estimators
    encoded: tuple | None = None  # (params, snapshot_norms, scale) in the blob, if asked for


def _fit_cells(batch, keep_encoded: bool = False) -> list:
    """The cell runner on one batch (spec, fit config, estimators, cells of
    (truth, snr_db, seed)): measure, preprocess and fit_batch every cell, then
    score the measurement and each estimator (a module-level function, which
    a pool worker can unpickle, called as (measurement, truth, snr_db)), and
    recreate, score and encode each fit. The measurements stay referenced
    through the fit; no estimate outlives its cell's scoring."""
    spec, fit_cfg, estimators, cells = batch
    measured = [add_noise(truth, snr_db, seed) for truth, snr_db, seed in cells]
    targets = [preprocess(meas) for meas in measured]
    results = []
    for (truth, snr_db, _), meas, target, report in zip(
        cells, measured, targets, fit_batch(spec, None, targets, fit_cfg)
    ):
        meas_ratio = nmse_linear(meas, truth)
        scored = tuple(nmse_linear(estimate(meas, truth, snr_db), truth) for estimate in estimators)
        if isinstance(report, FitDivergedError):
            results.append(_Cell(report, [], float("nan"), meas_ratio, float("nan"), None, scored))
            continue
        encoded = (report.params, target.snapshot_norms, target.scale)
        (est,) = codec.recreate(spec, *encoded)
        results.append(_Cell(
            None, report.trace, report.final_mse, meas_ratio, nmse_linear(est, truth),
            codec.encode(spec, *encoded), scored, encoded if keep_encoded else None,
        ))
    return results


def _run_grid(config: ExperimentConfig, scene, spec, estimators: tuple) -> list:
    """:func:`_fit_cells` with `estimators` over the `ues x snr_db x seeds`
    grid, in that order, in batches cut so that every worker gets whole ones
    (at least one if there are enough cells); a :func:`_worker_pool` runs
    them if `workers` > 1."""
    truths = {ue: synthesize(scene, ue) for ue in config.ues}
    cells = [(truths[ue], snr, seed) for ue, snr, seed in product(config.ues, config.snr_db, config.seeds)]
    size = min(batch_size(spec), -(-len(cells) // config.workers))
    batches = [(spec, config.fit_config(), estimators, cells[i : i + size]) for i in range(0, len(cells), size)]
    if config.workers > 1:
        with _worker_pool(config.workers) as pool:
            return [cell for batch in pool.map(_fit_cells, batches) for cell in batch]
    return [cell for batch in map(_fit_cells, batches) for cell in batch]


def _mode_single(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    cells = _run_grid(config, inputs.scene, inputs.spec, ())
    (out / "fit_traces").mkdir(exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    rows = []
    for (ue, snr_db, seed), cell in zip(product(config.ues, config.snr_db, config.seeds), cells):
        if cell.error is None:
            tag = f"ue{ue}_snr{snr_db}_seed{seed}"
            _write_csv(out / "fit_traces" / f"{tag}.csv", ["iteration", "mse"], cell.trace)
            _atomic_write_bytes(out / "reports" / f"{tag}.csir", cell.blob)
        nmse_db, meas_nmse_db = ratio_db(cell.ratio), ratio_db(cell.meas_ratio)
        rows.append([
            ue, float(snr_db), seed, "ok" if cell.error is None else "diverged", nmse_db, meas_nmse_db,
            meas_nmse_db - nmse_db, cell.final_mse, config.fit_config().iterations,
        ])
    _write_csv(
        out / "results.csv",
        ["ue", "snr_db", "seed", "status", "nmse_db", "meas_nmse_db", "gain_db", "final_mse", "iterations"],
        rows,
    )
    return {"cells": len(cells), "diverged": sum(cell.error is not None for cell in cells)}


def _mode_transfer(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    scene, plan = inputs.scene, inputs.plan
    snr_db = float(config.snr_db[0])
    seed = config.seeds[0]

    targets, truths = {}, {}
    for ue_id in plan.ue_ids:
        truth = synthesize(scene, ue_id)
        truths[ue_id] = truth
        targets[ue_id] = preprocess(add_noise(truth, snr_db, seed))

    results = transfer_mod.run_transfer(plan, inputs.spec, targets, truths, config.fit_config())
    fits = list(results.values()) + [res.control for res in results.values() if res.control is not None]
    rows = [
        [res.ue_id, "" if res.init_from is None else res.init_from, "random" if res.init_from is None else "transfer",
         snr_db, seed, res.nmse_db, res.report.final_mse, res.report.iterations]
        for res in fits
    ]
    _write_csv(
        out / "results.csv",
        ["ue", "init_from", "init_kind", "snr_db", "seed", "nmse_db", "final_mse", "iterations"],
        rows,
    )

    dist_rows = []
    for res in results.values():
        if res.control is None:
            continue
        anchor = results[res.init_from].report.params
        edge = f"{res.init_from}->{res.ue_id}"
        for kind, fitted in (("transfer", res), ("random", res.control)):
            distance = transfer_mod.weight_distance(anchor, fitted.report.params)
            dist_rows += [(layer, d, f"{kind}:{edge}") for layer, d in enumerate(distance.per_layer, start=1)]
    _write_csv(out / "weight_distances.csv", ["layer", "distance", "init_kind"], dist_rows)
    return {"chain": len(plan.chain)}


def _mode_group(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    snr_db = float(config.snr_db[0])
    seed = config.seeds[0]
    rows = []
    summaries = []
    for gi, (entry, gspec) in enumerate(zip(config.groups, inputs.group_specs)):
        ues = list(entry["ues"])
        fit_cfg = config.fit_config(iterations=entry.get("iterations"))
        truths = [synthesize(inputs.scene, ue_id) for ue_id in ues]
        target = stack_users(preprocess(add_noise(truth, snr_db, seed)) for truth in truths)
        report = fit(gspec, None, target, fit_cfg)
        estimates = codec.recreate(gspec, report.params, target.snapshot_norms, target.scale)
        for ue_id, est, truth in zip(ues, estimates, truths):
            rows.append(
                (gi, ue_id, snr_db, nmse(est, truth), fit_cfg.iterations,
                 param_count(gspec), compression_ratio(gspec))
            )
        blob = codec.encode(gspec, report.params, target.snapshot_norms, target.scale)
        (out / "reports").mkdir(exist_ok=True)
        _atomic_write_bytes(out / "reports" / f"group{gi}.csir", blob)
        summaries.append(
            {"group": gi, "ues": ues, "param_count": param_count(gspec),
             "compression_ratio": compression_ratio(gspec), "final_mse": report.final_mse}
        )
    _write_csv(
        out / "results.csv",
        ["group", "ue", "snr_db", "nmse_db", "iterations", "param_count", "compression_ratio"],
        rows,
    )
    return {"groups": summaries}


def _mode_codec(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    spec = inputs.spec
    ue_id, snr_db, seed = config.ues[0], float(config.snr_db[0]), config.seeds[0]
    truth = synthesize(inputs.scene, ue_id)
    (cell,) = _fit_cells((spec, config.fit_config(), (), [(truth, snr_db, seed)]), keep_encoded=True)
    if cell.error is not None:
        raise cell.error
    (out / "reports").mkdir(exist_ok=True)
    _atomic_write_bytes(out / "reports" / f"ue{ue_id}_snr{snr_db}_seed{seed}.csir", cell.blob)

    decoded = codec.decode(cell.blob)
    (tx,), (rx,) = codec.recreate(spec, *cell.encoded), codec.recreate(*decoded)
    same_weights = params_to_vector(cell.encoded[0]).tobytes() == params_to_vector(decoded[1]).tobytes()
    raw_bytes = 8 * truth.data.size
    return {
        "bit_exact": same_weights and bool(np.array_equal(tx.data, rx.data)),
        "payload_bytes": codec.payload_bytes(spec),
        "report_bytes": len(cell.blob),
        "raw_csi_bytes": raw_bytes,
        "payload_over_raw": codec.payload_bytes(spec) / raw_bytes,
        "nmse_db_tx": ratio_db(cell.ratio),
        "nmse_db_rx": nmse(rx, truth),
    }


def _mode_sweep(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    # mmse_raw copies the measurement, so its ratios are the measurement's
    cells = _run_grid(config, inputs.scene, inputs.spec, (mmse_genie,))
    for cell in cells:
        if cell.error is not None:
            raise cell.error
    meas_ratios = [cell.meas_ratio for cell in cells]
    scored = {
        "mmse_raw": meas_ratios,
        "mmse_genie": [cell.scored[0] for cell in cells],
        "unn": [cell.ratio for cell in cells],
    }
    records = baselines.sweep(config.ues, config.snr_db, len(config.seeds), meas_ratios, scored)
    _write_csv(
        out / "results.csv",
        ["estimator", "ue", "snr_db", "seed_count", "nmse_db", "gain_db"],
        [(r.estimator, r.ue_id, r.snr_db, r.seed_count, r.nmse_db, r.gain_db) for r in records],
    )
    _atomic_write_text(
        out / "curves.json", json.dumps(records_to_curves(records), sort_keys=True, indent=2) + "\n"
    )
    return {"records": len(records)}


_MODE_DRIVERS = {
    "single": _mode_single,
    "transfer": _mode_transfer,
    "group": _mode_group,
    "codec": _mode_codec,
    "sweep": _mode_sweep,
}
MODES = tuple(_MODE_DRIVERS)


def run(config: ExperimentConfig) -> int:
    """Execute the configured mode; returns a process exit code."""
    diags, inputs = _checked(config)
    for d in diags:
        print(d, file=sys.stderr)
    if any(d.level == "error" for d in diags):
        return 2

    scene, spec = inputs.scene, inputs.spec
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        extra = _MODE_DRIVERS[config.mode](config, inputs, out)
    except FitDivergedError as exc:
        print(f"error: {config.mode} mode: {exc}", file=sys.stderr)
        return 1

    coeffs = scene.n_sub * scene.n_sp * scene.n_ant
    summary = {
        "mode": config.mode,
        "scene": config.scene,
        "decoder_spec": config.decoder_spec,
        "param_count": param_count(spec),
        "complex_coefficients": coeffs,
        "compression_ratio": param_count(spec) / coeffs,
        "snr_db": list(config.snr_db),
        "ues": list(config.ues),
        "seeds": list(config.seeds),
        "workers": config.workers,
    }
    summary.update(extra)
    _atomic_write_text(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# command line


def _parse_seed_list(text: str) -> list:
    return [int(s) for s in text.split(",") if s.strip() != ""]


def build_config(args) -> ExperimentConfig:
    doc: dict = {}
    if args.profile:
        doc.update(json.loads(json.dumps(_PROFILES[args.profile])))
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} holds a {type(loaded).__name__}, not a JSON object")
        doc.update(loaded)
    if not doc:
        raise SystemExit("pass --profile desk|full and/or --config <path>")
    if args.mode:
        doc["mode"] = args.mode
    if args.out:
        doc["out"] = args.out
    if args.seed_list:
        doc["seeds"] = _parse_seed_list(args.seed_list)
    if args.workers is not None:
        doc["workers"] = args.workers
    return config_from_dict(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unn-csi",
        description="Recreate MIMO-OFDM channels by fitting under-parameterized decoders.",
    )
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--mode", choices=MODES, help="experiment mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, help="worker processes for single and sweep mode (overrides the config)")
    parser.add_argument("--profile", choices=sorted(_PROFILES), help="built-in default configuration")
    parser.add_argument("--seed-list", help="comma-separated noise seeds")
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
