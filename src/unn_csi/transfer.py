"""Transfer learning across neighboring users: plans and their schedule.

A plan names a base UE, fitted from random initialization, and a chain of
steps. Each step fits its target with the same iteration budget, initialized
from an already-fitted neighbor's parameters (kernels and batch-norm pairs
alike), and every such warm start is compared against its control: the same
target fitted from random initialization with the same budget. A step with
no neighbor to start from is a plain random fit with no control.

:func:`schedule` turns a plan into the fits that run it and the order they
can run in; the study driver (``unn-csi --mode transfer``) runs them on its
cell runner, level by level. The library primitive under a warm start is
``fitting.fit(..., init=fitted.params)``. The per-layer Frobenius distances
between fitted kernel sets (:func:`weight_distance`) quantify how much the
warm start constrained the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._fields import INT, OBJECT, check_keys, list_of, parse, read_field, typed
from .decoder import ParamSet

__all__ = [
    "TransferStep",
    "TransferPlan",
    "ScheduledFit",
    "WeightDistance",
    "schedule",
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


class ScheduledFit(NamedTuple):
    ue_id: int
    source: int | None  # index of the fit whose weights this one starts from, None = random init
    depth: int  # warm starts between this fit and a random init


def schedule(plan: TransferPlan) -> list:
    """The fits that run `plan`: one per plan UE, in plan order, then the
    random-init control of each warm-started step, in chain order.

    A fit can start once the fit it starts from is done, so the fits of one
    `depth` can run side by side: the base, the `null` steps and every
    control at depth 0, then each warm start one level below its source.
    """
    index = {ue_id: i for i, ue_id in enumerate(plan.ue_ids)}
    fits = [ScheduledFit(plan.base, None, 0)]
    for step in plan.chain:
        source = None if step.init_from is None else index[step.init_from]
        fits.append(ScheduledFit(step.target, source, 0 if source is None else fits[source].depth + 1))
    return fits + [ScheduledFit(fit.ue_id, None, 0) for fit in fits if fit.source is not None]


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


_PLAN = "transfer plan"
_plan_field = partial(read_field, _PLAN)
_optional_int = typed(int, type(None))


def plan_from_json(text: str) -> TransferPlan:
    """Parse a plan file (docs/artifacts.md). JSON nested too deep, or a
    missing, mistyped or unknown field, raises ValueError naming the field;
    `init_from` may be omitted or null."""
    doc = check_keys(_PLAN, parse(_PLAN, text), ("base", "chain"))
    chain = []
    for i, step in enumerate(_plan_field(doc, "chain", list_of(OBJECT))):
        where = f"chain[{i}]."
        check_keys(_PLAN, step, ("target", "init_from"), where)
        target = _plan_field(step, "target", INT, where)
        init_from = _plan_field(step, "init_from", _optional_int, where, default=None)
        chain.append(TransferStep(target, init_from))
    return TransferPlan(base=_plan_field(doc, "base", INT), chain=tuple(chain))


def load_plan(path) -> TransferPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())
