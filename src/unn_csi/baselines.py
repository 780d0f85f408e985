"""Reference estimators and the NMSE metric.

Two baselines bracket the decoder: the raw-measurement estimator (no prior at
all, NMSE tracks -SNR) and a genie-aided Wiener filter granted the true
antenna-domain second-order statistics. :func:`sweep` turns per-cell NMSE
ratios over a (UE, SNR, seed) grid, scored where each cell is measured, into
records averaged over the seeds in the linear domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import ChannelTensor, ESTIMATED, MEASURED, _power, noise_variance

__all__ = [
    "EvalRecord",
    "nmse",
    "nmse_linear",
    "ratio_db",
    "mmse_raw",
    "mmse_genie",
    "sweep",
    "records_to_curves",
]

NMSE_FLOOR_DB = -300.0


def nmse_linear(est, truth) -> float:
    """||est - truth||_F^2 / ||truth||_F^2 as a linear ratio."""
    e = np.asarray(getattr(est, "data", est))
    t = np.asarray(getattr(truth, "data", truth))
    if e.shape != t.shape:
        raise ValueError(f"shape mismatch: estimate {e.shape} vs truth {t.shape}")
    denom = _power(t)
    if denom == 0.0:
        raise ValueError("truth tensor has zero norm")
    return _power(e - t) / denom


def ratio_db(ratio: float) -> float:
    """A linear NMSE ratio in dB, floored at -300 dB so an exact
    reconstruction stays finite."""
    if ratio <= 0.0:
        return NMSE_FLOOR_DB
    return float(max(10.0 * np.log10(ratio), NMSE_FLOOR_DB))


def nmse(est, truth) -> float:
    """Normalized mean squared error in dB (:func:`ratio_db`)."""
    return ratio_db(nmse_linear(est, truth))


def mmse_raw(meas: ChannelTensor) -> ChannelTensor:
    """The direct-observation estimator: the measurement itself, untouched.
    Its NMSE equals -SNR dB in expectation."""
    if meas.role != MEASURED:
        raise ValueError("mmse_raw expects a measured tensor")
    return ChannelTensor(meas.data.copy(), role=ESTIMATED)


def mmse_genie(meas: ChannelTensor, truth: ChannelTensor, snr_db: float) -> ChannelTensor:
    """Genie-aided Wiener filter in the antenna dimension.

    R is the sample covariance of the true antenna vectors across all
    subcarriers and snapshots; every measured vector is filtered with
    R (R + sigma^2 I)^{-1}, sigma^2 being the calibrated per-coefficient noise
    power for `snr_db`. Simulation-only: it needs the ground truth.
    """
    t = truth.data
    x = meas.data
    if t.shape != x.shape:
        raise ValueError("measurement and truth must share dimensions")
    n_ant = t.shape[-1]
    vecs = t.reshape(-1, n_ant)
    # R[a, b] = E[h_a conj(h_b)] over all (subcarrier, snapshot) vectors
    r = (vecs.T @ vecs.conj()) / vecs.shape[0]
    sigma2 = noise_variance(_power(t), t.size, snr_db)
    a = r + sigma2 * np.eye(n_ant)
    w = np.linalg.solve(a, r.conj().T).conj().T  # W = R (R + sigma^2 I)^{-1}
    est = x.reshape(-1, n_ant) @ w.T
    return ChannelTensor(est.reshape(x.shape), role=ESTIMATED)


@dataclass
class EvalRecord:
    estimator: str
    ue_id: int
    snr_db: float
    seed_count: int
    nmse_db: float
    gain_db: float  # measurement NMSE minus estimator NMSE, same seeds


def sweep(ue_ids, snrs_db, seed_count: int, meas_ratios, scored: dict) -> list:
    """One record per (UE, SNR) grid point and estimator, NMSE ratios averaged
    over the `seed_count` noise seeds in the linear domain before conversion
    to dB.

    `meas_ratios` and each list of `scored`, which maps estimator names to
    their ratios in record order, hold one linear NMSE ratio per cell in
    (UE, SNR, seed) order; the measurement's give each record's `gain_db`.
    Both sides of the gain are in :func:`ratio_db`, floored at -300 dB: at an
    SNR of +inf the measurement is exact, and `mmse_raw` gains 0 dB.
    """
    cells = len(ue_ids) * len(snrs_db) * seed_count
    for name, values in [("measurement", meas_ratios), *scored.items()]:
        if len(values) != cells:
            raise ValueError(f"{name}: {len(values)} NMSE ratios for {cells} cells")

    records = []
    for i, (ue_id, snr_db) in enumerate(product(ue_ids, snrs_db)):
        seeds_of = slice(i * seed_count, (i + 1) * seed_count)
        meas_db = ratio_db(float(np.mean(meas_ratios[seeds_of])))
        for name, values in scored.items():
            est_db = ratio_db(float(np.mean(values[seeds_of])))
            records.append(
                EvalRecord(
                    estimator=name,
                    ue_id=ue_id,
                    snr_db=float(snr_db),
                    seed_count=seed_count,
                    nmse_db=est_db,
                    gain_db=meas_db - est_db,
                )
            )
    return records


def records_to_curves(records) -> dict:
    """Per-curve series (one curve per estimator/UE, NMSE over SNR), the data
    layout behind the usual NMSE-vs-SNR comparison plot."""
    curves: dict = {}
    for r in records:
        curves.setdefault(r.estimator, {}).setdefault(str(r.ue_id), []).append(
            [r.snr_db, r.nmse_db]
        )
    for per_ue in curves.values():
        for series in per_ue.values():
            series.sort(key=lambda p: p[0])
    return curves
