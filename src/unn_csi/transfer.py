"""Transfer learning across neighboring users.

A base UE is fitted from random initialization; each chain entry is then
fitted with the same iteration budget but initialized from an already-fitted
neighbor's parameters (kernels and batch-norm pairs alike). The per-layer
Frobenius distances between fitted kernel sets quantify how much the warm
start constrained the search.
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
from .fitting import FitConfig, FitReport, fit

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
    init_from: int | None  # None = random initialization (control arm)


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


def run_transfer(
    plan: TransferPlan,
    spec: DecoderSpec,
    targets: dict,
    truths: dict,
    config: FitConfig,
) -> dict:
    """Fit the base UE from random init, then every chain entry from its
    predecessor's fitted weights, all with the same seed tensor and the same
    iteration count. Returns {ue_id: TransferResult}.

    `targets` maps UE id to PreprocessedTarget, `truths` to the ground-truth
    ChannelTensor used for the NMSE.
    """
    for ue_id in plan.ue_ids:
        if ue_id not in targets:
            raise KeyError(f"plan references UE {ue_id} with no target")

    results: dict = {}

    def run_one(ue_id, init_params):
        target = targets[ue_id]
        report = fit(spec, None, target, config, init=init_params)
        (est,) = recreate(spec, report.params, target.snapshot_norms, target.scale)
        err = nmse(est, truths[ue_id]) if ue_id in truths else float("nan")
        return report, err

    report, err = run_one(plan.base, None)
    results[plan.base] = TransferResult(plan.base, None, report, err)
    for step in plan.chain:
        init = results[step.init_from].report.params if step.init_from is not None else None
        report, err = run_one(step.target, init)
        results[step.target] = TransferResult(step.target, step.init_from, report, err)
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
