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
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, field
from importlib import resources
from itertools import product
from math import prod
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, codec, transfer as transfer_mod
from ._fields import INT, NUMBER, check_keys, list_of, parse, read_field
from .channel import Scene, add_noise, load_scene, noise_variance, preprocess, stack_users, synthesize
from .decoder import DecoderSpec, compression_ratio, load_spec, param_count, params_to_vector
from .fitting import FitConfig, FitDivergedError, batch_size, fit_batch
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

    def fit_config(self) -> FitConfig:
        return FitConfig(**self.fit)


def _data_path(mapping: dict, name: str) -> str:
    """Resolve a builtin data name or pass a filesystem path through;
    ValueError unless `name` is a string."""
    if not isinstance(name, str):
        raise ValueError(f"a data name must be a string, got {name!r}")
    if name in mapping:
        return str(resources.files("unn_csi").joinpath(mapping[name]))
    return name


_CONFIG = "config"
_FIELDS = ExperimentConfig.__dataclass_fields__
_REQUIRED = [name for name, f in _FIELDS.items() if f.default is MISSING and f.default_factory is MISSING]


def _config_object(doc, names, required, prefix: str = ""):
    """`doc`; ValueError unless it is a JSON object holding each field of
    `required` and none outside `names`. :func:`validate` checks the values."""
    check_keys(_CONFIG, doc, names, prefix)
    for name in required:
        read_field(_CONFIG, doc, name, lambda value: value, prefix)
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    return ExperimentConfig(**_config_object(doc, _FIELDS, _REQUIRED))


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


def _diagnosed(diags: list, context: str, call, *args, **kwargs):
    """`call(*args, **kwargs)`; None plus an error diagnostic, `context`
    followed by the error, if it raises OSError, TypeError or ValueError."""
    try:
        return call(*args, **kwargs)
    except (OSError, TypeError, ValueError) as exc:
        diags.append(Diagnostic("error", f"{context}{exc}"))
        return None


def _load(loader, mapping: dict, name: str, what: str, diags: list):
    """`loader` on a builtin data name or path; None plus an error diagnostic
    if the file is missing or malformed."""
    return _diagnosed(diags, f"cannot load {what} {name!r}: ", lambda: loader(_data_path(mapping, name)))


def _snr(value):
    """An SNR in dB that :func:`noise_variance` takes; +inf means no noise."""
    noise_variance(1.0, 1, NUMBER(value))
    return value


def _noise_seed(value):
    if INT(value) < 0:
        raise ValueError(f"noise seed {value} is negative")
    return value


def _non_empty_list(value, item) -> tuple:
    """`value`, a non-empty list of `item`-checked entries, as a tuple."""
    items = list_of(item)(value)
    if not items:
        raise ValueError("the list is empty")
    return items


def _repeats(items, key=None) -> list:
    """The sorted distinct values (under `key`) that `items` holds more than once."""
    keys = [key(v) for v in items] if key else list(items)
    return sorted({k for k in keys if keys.count(k) > 1})


class _Inputs(NamedTuple):
    """What :func:`_checked` loaded and checked, which :func:`run` hands to
    the mode driver, so that it runs on exactly what was checked."""

    scene: Scene
    spec: DecoderSpec
    fit: FitConfig
    plan: transfer_mod.TransferPlan | None  # the config's transfer_plan, None without one
    groups: list  # (ues, spec, fit config), one per entry of config.groups


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
        items = _diagnosed(diags, f"{name} must be a non-empty list: ", _non_empty_list, getattr(config, name), item)
        repeated = _repeats(items, key) if items else []
        if repeated:
            diags.append(Diagnostic("error", f"{name} lists {repeated} more than once"))
    if not isinstance(config.workers, int) or isinstance(config.workers, bool) or config.workers < 1:
        diags.append(Diagnostic("error", f"workers must be an integer >= 1, got {config.workers!r}"))
    # an empty path would be the working directory; the OS takes no NUL in one
    if not isinstance(config.out, str) or not config.out or "\0" in config.out:
        diags.append(Diagnostic("error", f"out must be a directory path string, got {config.out!r}"))
    fit_doc = _diagnosed(diags, "", _config_object, config.fit, FitConfig.__dataclass_fields__, ["iterations"], "fit.")
    fit_cfg = None if fit_doc is None else _diagnosed(diags, "bad fit settings in fit: ", FitConfig, **fit_doc)
    missing = [u for u in config.ues if u not in scene.ue_ids] if isinstance(config.ues, list) else []
    if missing:
        diags.append(Diagnostic("error", f"scene has no UEs {missing}"))

    if config.mode in ("single", "sweep", "codec", "transfer"):
        _check_spec_against(scene, spec, config.decoder_spec, diags)
    # a plan and group entries are checked whenever given, and needed in their own mode only
    plan, groups = None, []
    if config.transfer_plan is not None:
        plan = _load(transfer_mod.load_plan, _BUILTIN_PLANS, config.transfer_plan, "transfer plan", diags)
        absent = [u for u in plan.ue_ids if u not in scene.ue_ids] if plan else []
        if absent:
            diags.append(Diagnostic("error", f"transfer plan references unknown UEs {absent}"))
    elif config.mode == "transfer":
        diags.append(Diagnostic("error", "transfer mode needs a transfer_plan"))
    entries = config.groups if isinstance(config.groups, list) else None
    if config.mode == "group" and not entries:
        diags.append(Diagnostic("error", "group mode needs a non-empty groups list"))
    elif entries is None:
        diags.append(Diagnostic("error", f"groups must be a list, got {type(config.groups).__name__}"))
    for gi, entry in enumerate(entries or []):
        where = f"groups[{gi}]"
        entry = _diagnosed(diags, "", _config_object, entry, ("ues", "spec", "iterations"), ["ues"], where + ".")
        if entry is None:
            continue
        ues = _diagnosed(diags, f"{where}.ues must be a non-empty list: ", _non_empty_list, entry["ues"], INT)
        if ues is None:
            continue
        repeated = _repeats(ues)
        if repeated:
            diags.append(Diagnostic("error", f"{where} lists UEs {repeated} more than once"))
        absent = [u for u in ues if u not in scene.ue_ids]
        if absent:
            diags.append(Diagnostic("error", f"{where} references unknown UEs {absent}"))
        group_fit = fit_cfg
        if "iterations" in entry:  # on the fit object's other settings, or their defaults if it failed
            kw = dict(fit_doc or {}, iterations=entry["iterations"])
            group_fit = _diagnosed(diags, f"bad fit settings in {where}: ", FitConfig, **kw)
        spec_name = entry.get("spec", config.decoder_spec)
        gspec = _load(load_spec, _BUILTIN_SPECS, spec_name, "group spec", diags) if "spec" in entry else spec
        if gspec is not None:
            _check_spec_against(scene, gspec, spec_name, diags, group_size=len(ues))
        groups.append((list(ues), gspec, group_fit))
    return diags, _Inputs(scene, spec, fit_cfg, plan, groups)


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
    two workers would run four busy threads on two cores. The pool's
    modules are imported here, so that a one-worker run never loads them."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

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
    """One fitted cell, nothing channel-sized; its ratios run over the cell's UEs, in order."""

    error: FitDivergedError | None  # None if the fit converged
    trace: list
    final_mse: float
    meas_ratios: tuple  # linear NMSE of each UE's measurement
    ratios: tuple  # linear NMSE of each UE's recreated channel, nan if diverged
    scored: tuple  # per estimator of the run, the linear NMSE of each UE's estimate
    fitted: tuple | None  # (params, snapshot_norms, scale) a report encodes, None if diverged


def _fit_cells(batch) -> list:
    """The cell runner on one batch (spec, fit config, estimators, cells of
    (truths, snr_db, seed, init)): measure and preprocess each UE, one for a
    3-way spec or a group, stacked by :func:`stack_users`, for a 4-way one;
    fit_batch every cell from its init (None draws one from the fit config's
    init_seed); per UE score the measurement and each estimator (a
    module-level function, which a pool worker can unpickle, called as
    (measurement, truth, snr_db)); round each fit to the float16 weights a
    report carries (:func:`codec.round_to_float16`), recreate it and score
    it per UE. The measurements stay referenced through the fit."""
    spec, fit_cfg, estimators, cells = batch
    measured = [[add_noise(t, snr_db, seed) for t in truths] for truths, snr_db, seed, _ in cells]
    targets = [preprocess(m[0]) if spec.n_spatial == 2 else stack_users(map(preprocess, m)) for m in measured]
    reports = fit_batch(spec, None, targets, fit_cfg, [init for *_, init in cells])
    results = []
    for (truths, snr_db, *_), meas, target, report in zip(cells, measured, targets, reports):
        pairs = list(zip(meas, truths))
        meas_ratios = tuple(nmse_linear(m, truth) for m, truth in pairs)
        scored = tuple(tuple(nmse_linear(est(m, truth, snr_db), truth) for m, truth in pairs) for est in estimators)
        if isinstance(report, FitDivergedError):
            results.append(_Cell(report, [], float("nan"), meas_ratios, (float("nan"),) * len(pairs), scored, None))
            continue
        codec.round_to_float16(report.params)
        fitted = (report.params, target.snapshot_norms, target.scale)
        ratios = tuple(nmse_linear(est, truth) for est, truth in zip(codec.recreate(spec, *fitted), truths))
        results.append(_Cell(None, report.trace, report.final_mse, meas_ratios, ratios, scored, fitted))
    return results


@contextmanager
def _cell_runner(workers: int, estimators: tuple = ()):
    """Yields a function that runs :func:`_fit_cells` with `estimators` on a
    list of jobs (spec, fit config, cells) and returns their `_Cell`s in
    order. It is the one place that cuts fits into batches: a job's cells at
    most :func:`batch_size` to a batch, and few enough that every worker gets
    one; the batches of all jobs go out in one map, which one
    :func:`_worker_pool`, open for the life of the context, runs if `workers` > 1."""
    with _worker_pool(workers) if workers > 1 else nullcontext() as pool:

        def run(jobs: list) -> list:
            batches = []
            for spec, fit_cfg, cells in jobs:
                size = min(batch_size(spec), -(-len(cells) // workers))
                batches += [(spec, fit_cfg, estimators, cells[i : i + size]) for i in range(0, len(cells), size)]
            return [cell for batch in (pool.map if pool else map)(_fit_cells, batches) for cell in batch]

        yield run


def _converged(cells: list) -> list:
    """`cells`; raises the error of the first of them whose fit diverged."""
    for cell in cells:
        if cell.error is not None:
            raise cell.error
    return cells


def _run_grid(config: ExperimentConfig, inputs: _Inputs, estimators: tuple) -> list:
    """The cell runner with `estimators` over the `ues x snr_db x seeds`
    grid, in that order, every fit from a random init."""
    truths = {ue: (synthesize(inputs.scene, ue),) for ue in config.ues}
    cells = [(truths[ue], snr, seed, None) for ue, snr, seed in product(config.ues, config.snr_db, config.seeds)]
    with _cell_runner(config.workers, estimators) as run:
        return run([(inputs.spec, inputs.fit, cells)])


def _mode_single(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    spec = inputs.spec
    cells = _run_grid(config, inputs, ())
    (out / "fit_traces").mkdir(exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    rows = []
    for (ue, snr_db, seed), cell in zip(product(config.ues, config.snr_db, config.seeds), cells):
        if cell.error is None:
            tag = f"ue{ue}_snr{snr_db}_seed{seed}"
            _write_csv(out / "fit_traces" / f"{tag}.csv", ["iteration", "mse"], cell.trace)
            _atomic_write_bytes(out / "reports" / f"{tag}.csir", codec.encode(spec, *cell.fitted))
        nmse_db, meas_nmse_db = ratio_db(cell.ratios[0]), ratio_db(cell.meas_ratios[0])
        rows.append([
            ue, float(snr_db), seed, "ok" if cell.error is None else "diverged", nmse_db, meas_nmse_db,
            meas_nmse_db - nmse_db, cell.final_mse, inputs.fit.iterations,
        ])
    _write_csv(
        out / "results.csv",
        ["ue", "snr_db", "seed", "status", "nmse_db", "meas_nmse_db", "gain_db", "final_mse", "iterations"],
        rows,
    )
    return {"cells": len(cells), "diverged": sum(cell.error is not None for cell in cells)}


def _mode_transfer(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    plan = inputs.plan
    snr_db, seed = float(config.snr_db[0]), config.seeds[0]
    truths = {ue_id: (synthesize(inputs.scene, ue_id),) for ue_id in plan.ue_ids}
    fits = transfer_mod.schedule(plan)
    cells = [None] * len(fits)
    with _cell_runner(config.workers) as run:
        for depth in range(max(fit.depth for fit in fits) + 1):
            level = [i for i, fit in enumerate(fits) if fit.depth == depth]
            inits = [None if fits[i].source is None else cells[fits[i].source].fitted[0] for i in level]
            batch = [(truths[fits[i].ue_id], snr_db, seed, init) for i, init in zip(level, inits)]
            for i, cell in zip(level, _converged(run([(inputs.spec, inputs.fit, batch)]))):
                cells[i] = cell

    rows = [
        [fit.ue_id, "" if fit.source is None else fits[fit.source].ue_id,
         "random" if fit.source is None else "transfer", snr_db, seed, ratio_db(cell.ratios[0]), cell.final_mse,
         cell.trace[-1][0]]
        for fit, cell in zip(fits, cells)
    ]
    _write_csv(
        out / "results.csv",
        ["ue", "init_from", "init_kind", "snr_db", "seed", "nmse_db", "final_mse", "iterations"],
        rows,
    )

    # the controls follow the plan's fits, one per warm start in chain order
    warm = [i for i, fit in enumerate(fits) if fit.source is not None]
    dist_rows = []
    for i, control in zip(warm, range(len(plan.ue_ids), len(fits))):
        source = fits[i].source
        edge = f"{fits[source].ue_id}->{fits[i].ue_id}"
        for kind, j in (("transfer", i), ("random", control)):
            distance = transfer_mod.weight_distance(cells[source].fitted[0], cells[j].fitted[0])
            dist_rows += [(layer, d, f"{kind}:{edge}") for layer, d in enumerate(distance.per_layer, start=1)]
    _write_csv(out / "weight_distances.csv", ["layer", "distance", "init_kind"], dist_rows)
    return {"chain": len(plan.chain)}


def _mode_group(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    snr_db, seed = float(config.snr_db[0]), config.seeds[0]
    # one job of one cell per group, so that a pool fits the groups side by side
    jobs = [
        (gspec, fit_cfg, [(tuple(synthesize(inputs.scene, ue_id) for ue_id in ues), snr_db, seed, None)])
        for ues, gspec, fit_cfg in inputs.groups
    ]
    with _cell_runner(config.workers) as run:
        cells = _converged(run(jobs))
    (out / "reports").mkdir(exist_ok=True)
    rows, summaries = [], []
    for gi, ((ues, gspec, fit_cfg), cell) in enumerate(zip(inputs.groups, cells)):
        rows += [(gi, ue_id, snr_db, ratio_db(ratio), fit_cfg.iterations, param_count(gspec), compression_ratio(gspec))
                 for ue_id, ratio in zip(ues, cell.ratios)]
        _atomic_write_bytes(out / "reports" / f"group{gi}.csir", codec.encode(gspec, *cell.fitted))
        summaries.append(
            {"group": gi, "ues": ues, "param_count": param_count(gspec),
             "compression_ratio": compression_ratio(gspec), "final_mse": cell.final_mse}
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
    (cell,) = _converged(_fit_cells((spec, inputs.fit, (), [((truth,), snr_db, seed, None)])))
    blob = codec.encode(spec, *cell.fitted)
    (out / "reports").mkdir(exist_ok=True)
    _atomic_write_bytes(out / "reports" / f"ue{ue_id}_snr{snr_db}_seed{seed}.csir", blob)

    decoded = codec.decode(blob)
    (tx,), (rx,) = codec.recreate(spec, *cell.fitted), codec.recreate(*decoded)
    same_weights = params_to_vector(cell.fitted[0]).tobytes() == params_to_vector(decoded[1]).tobytes()
    raw_bytes = 8 * truth.data.size
    payload = codec.payload_bytes(blob)
    return {
        "bit_exact": same_weights and bool(np.array_equal(tx.data, rx.data)),
        "payload_bytes": payload,
        "report_bytes": len(blob),
        "raw_csi_bytes": raw_bytes,
        "payload_over_raw": payload / raw_bytes,
        "nmse_db_tx": ratio_db(cell.ratios[0]),
        "nmse_db_rx": nmse(rx, truth),
    }


def _mode_sweep(config: ExperimentConfig, inputs: _Inputs, out: Path) -> dict:
    # mmse_raw copies the measurement, so its ratios are the measurement's
    cells = _converged(_run_grid(config, inputs, (mmse_genie,)))
    meas_ratios = [cell.meas_ratios[0] for cell in cells]
    scored = {
        "mmse_raw": meas_ratios,
        "mmse_genie": [cell.scored[0][0] for cell in cells],
        "unn": [cell.ratios[0] for cell in cells],
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {config.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
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


def build_config(args) -> ExperimentConfig:
    doc: dict = {}
    if args.profile:
        doc.update(json.loads(json.dumps(_PROFILES[args.profile])))
    if args.config is not None:
        kind = f"config file {args.config}"
        with open(args.config, "r", encoding="utf-8") as fh:
            doc.update(check_keys(kind, parse(kind, fh.read()), _FIELDS))
    if not doc:
        raise SystemExit("pass --profile desk|full and/or --config <path>")
    # a flag that is given applies, even empty, and then fails its check
    seeds = None if args.seed_list is None else [int(s) for s in args.seed_list.split(",") if s.strip() != ""]
    flags = {"mode": args.mode, "out": args.out, "seeds": seeds, "workers": args.workers}
    doc.update((name, value) for name, value in flags.items() if value is not None)
    return config_from_dict(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unn-csi",
        description="Recreate MIMO-OFDM channels by fitting under-parameterized decoders.",
    )
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--mode", choices=MODES, help="experiment mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--workers", type=int, help="worker processes for single, sweep, transfer and group mode (overrides config)"
    )
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
