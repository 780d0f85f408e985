"""Simultaneous channel recreation for a group of neighboring users.

Per-user targets (n_sub, n_sp, 2*n_ant) are transposed to the 4-way layout
(n_sp, n_sub, user, 2*n_ant) and stacked along the user mode. The 4-way
decoder shares one 1x1x1 kernel set across all users, so its parameter count
does not grow with the group size; upsampling along the user mode is a spec
flag and stays off unless the group size supports doubling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import nmse
from .channel import PreprocessedTarget
from .codec import recreate
from .decoder import DecoderSpec
from .fitting import FitConfig, fit

__all__ = ["GroupTarget", "build_group", "split_group", "fit_group"]


@dataclass
class GroupTarget:
    ue_ids: list
    data: np.ndarray  # (n_sp, n_sub, M, 2*n_ant)
    snapshot_norms: np.ndarray  # (M, n_sp)
    scales: np.ndarray  # (M,)

    @property
    def group_size(self) -> int:
        return len(self.ue_ids)


def build_group(targets, ue_ids) -> GroupTarget:
    """Stack per-user preprocessed targets along a new user mode, swapping the
    subcarrier/snapshot order to the 4-way convention."""
    targets = list(targets)
    ue_ids = list(ue_ids)
    if len(targets) != len(ue_ids) or len(targets) < 1:
        raise ValueError("need one target per UE id")
    dims = targets[0].data.shape
    if any(t.data.shape != dims for t in targets):
        raise ValueError("all group members must share tensor dimensions")
    data = np.stack([t.data.transpose(1, 0, 2) for t in targets], axis=2)
    norms = np.stack([t.snapshot_norms for t in targets], axis=0)
    scales = np.array([t.scale for t in targets], dtype=float)
    return GroupTarget(ue_ids=ue_ids, data=data, snapshot_norms=norms, scales=scales)


def split_group(group: GroupTarget) -> list:
    """Recover each user's PreprocessedTarget from the stacked tensor."""
    out = []
    for m in range(group.group_size):
        out.append(
            PreprocessedTarget(
                data=group.data[:, :, m, :].transpose(1, 0, 2),
                snapshot_norms=group.snapshot_norms[m],
                scale=float(group.scales[m]),
            )
        )
    return out


def fit_group(
    spec4: DecoderSpec,
    group: GroupTarget,
    config: FitConfig,
    truths: dict | None = None,
    z0=None,
) -> tuple:
    """Joint Adam fit of all group members through shared parameters.

    Returns (FitReport, {ue_id: nmse_db}); NMSE entries appear only for UEs
    with a ground-truth tensor in `truths`. Raises ValueError, through
    :func:`fit`, unless spec4.output_dims is the group tensor's shape.
    """
    report = fit(spec4, z0, group.data, config)
    errors = {}
    if truths:
        estimates = recreate(spec4, report.params, group.snapshot_norms, group.scales, z0)
        for ue_id, est in zip(group.ue_ids, estimates):
            if ue_id in truths:
                errors[ue_id] = nmse(est, truths[ue_id])
    return report, errors
