"""Transfer learning across neighboring users.

A base UE is fitted from random initialization; each chain entry is then
fitted with the same iteration budget but initialized from an already-fitted
neighbor's parameters (kernels and batch-norm pairs alike). Every such warm
start is compared against its control: the same target fitted from random
initialization with the same budget. A chain entry with no neighbor to start
from is a plain random fit with no control. The per-layer Frobenius
distances between fitted kernel sets quantify how much the warm start
constrained the search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fields import INT, OBJECT, list_of, read_field, typed
from .baselines import nmse
from .codec import recreate
from .decoder import DecoderSpec, ParamSet
from .fitting import FitConfig, FitDivergedError, FitReport, fit_batch

__all__ = [
    "TransferStep",
    "TransferPlan",
    "TransferResult",
    "WeightDistance",
    "run_transfer",
    "weight_distance",
    "plan_from_json",
    "load_plan",
]


@dataclass(frozen=True)
class TransferStep:
    target: int
    init_from: int | None  # None = random initialization


@dataclass(frozen=True)
class TransferPlan:
    base: int
    chain: tuple

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        fitted = {self.base}
        for step in self.chain:
            if step.target in fitted:
                raise ValueError(f"UE {step.target} is fitted twice in the plan")
            if step.init_from is not None and step.init_from not in fitted:
                raise ValueError(
                    f"UE {step.target} initializes from {step.init_from}, "
                    "which is neither the base nor an earlier target"
                )
            fitted.add(step.target)

    @property
    def ue_ids(self) -> list:
        return [self.base] + [s.target for s in self.chain]


@dataclass
class TransferResult:
    ue_id: int
    init_from: int | None
    report: FitReport
    nmse_db: float
    control: TransferResult | None = None  # the same target fitted from random init


def run_transfer(
    plan: TransferPlan,
    spec: DecoderSpec,
    targets: dict,
    truths: dict,
    config: FitConfig,
) -> dict:
    """Fit the base UE from random init, then every chain entry from its
    predecessor's fitted weights (or from random init if its `init_from` is
    None), all with the same seed tensor and the same iteration count. Each
    warm-started entry also gets its control: its target fitted from random
    init. Random inits draw from config.init_seed.

    Returns {ue_id: TransferResult} in plan order; `control` is set on the
    warm-started entries only. `targets` maps UE id to PreprocessedTarget,
    `truths` to the ground-truth ChannelTensor used for the NMSE.

    Fits the same number of warm starts away from a random init run as one
    batch, so the base and the controls share the first. Once a batch is
    done, raises the FitDivergedError of its first diverged fit.
    """
    for ue_id in plan.ue_ids:
        if ue_id not in targets:
            raise KeyError(f"plan references UE {ue_id} with no target")
    # each step: (ue_id, index of the step whose fitted weights it starts from)
    index = {ue_id: i for i, ue_id in enumerate(plan.ue_ids)}
    steps = [(plan.base, None)] + [
        (s.target, None if s.init_from is None else index[s.init_from]) for s in plan.chain
    ]
    warm = [ue_id for ue_id, source in steps if source is not None]
    steps += [(ue_id, None) for ue_id in warm]
    depth = []
    for _, source in steps:
        depth.append(0 if source is None else depth[source] + 1)

    fitted = [None] * len(steps)
    for level in range(max(depth) + 1):
        batch = [i for i, d in enumerate(depth) if d == level]
        inits = [None if steps[i][1] is None else fitted[steps[i][1]].report.params for i in batch]
        reports = fit_batch(spec, None, [targets[steps[i][0]] for i in batch], config, inits)
        for i, report in zip(batch, reports):
            if isinstance(report, FitDivergedError):
                raise report
            ue_id, source = steps[i]
            target = targets[ue_id]
            (est,) = recreate(spec, report.params, target.snapshot_norms, target.scale)
            err = nmse(est, truths[ue_id]) if ue_id in truths else float("nan")
            init_from = None if source is None else steps[source][0]
            fitted[i] = TransferResult(ue_id, init_from, report, err)

    results = {res.ue_id: res for res in fitted[: len(plan.ue_ids)]}
    for ue_id, control in zip(warm, fitted[len(plan.ue_ids) :]):
        results[ue_id].control = control
    return results


@dataclass
class WeightDistance:
    per_layer: list  # Frobenius distance of each convolution kernel
    total: float  # Frobenius distance over all kernels jointly


def weight_distance(a: ParamSet, b: ParamSet) -> WeightDistance:
    """Per-layer and total Frobenius distances between two fitted kernel sets.
    Batch-norm parameters are transferred during init but excluded here."""
    if len(a.kernels) != len(b.kernels) or any(
        wa.shape != wb.shape for wa, wb in zip(a.kernels, b.kernels)
    ):
        raise ValueError("parameter sets come from different specs")
    per_layer = [
        float(np.linalg.norm(np.asarray(wa, dtype=np.float64) - np.asarray(wb, dtype=np.float64)))
        for wa, wb in zip(a.kernels, b.kernels)
    ]
    return WeightDistance(per_layer=per_layer, total=float(np.sqrt(sum(d * d for d in per_layer))))


_plan_field = partial(read_field, "transfer plan")
_optional_int = typed(int, type(None))


def plan_from_json(text: str) -> TransferPlan:
    """Parse a plan file (docs/artifacts.md). A missing or mistyped field
    raises ValueError naming the field; `init_from` may be omitted or null."""
    doc = json.loads(text)
    chain = []
    for i, step in enumerate(_plan_field(doc, "chain", list_of(OBJECT))):
        where = f"chain[{i}]."
        target = _plan_field(step, "target", INT, where)
        init_from = _plan_field(step, "init_from", _optional_int, where, default=None)
        chain.append(TransferStep(target, init_from))
    return TransferPlan(base=_plan_field(doc, "base", INT), chain=tuple(chain))


def load_plan(path) -> TransferPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())
