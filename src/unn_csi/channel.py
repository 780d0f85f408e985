"""Geometric multipath channel synthesis, noise, preprocessing, user stacking.

The ground-truth channel of a moving single-antenna user is the sum of a
line-of-sight path and single-bounce scatterer paths:

    H[f, t, a] = sum_p g_p * exp(-j 2 pi f_sub(f) tau_p(t))
                       * exp(+j 2 pi nu_p t dt) * steer_a(u_p)

with f_sub(f) = f * bandwidth / n_sub, tau_p(t) the instantaneous path delay
along the constant-velocity track, nu_p the Doppler shift from the initial
geometry, and steer the plane-wave phase response of the base-station URA in
the departure direction u_p. The complex path gain g_p carries the free-space
amplitude loss 1/(4 pi d_p) together with the carrier phase at the first
snapshot and, for scatterer paths, the reflection gain. Everything is a pure
function of the scene, so identical scenes give identical tensors.

The sum over paths is one real matrix product. The unit-modulus phases of
all P paths form C (n_sub * n_sp, P); the gains times the steering vectors
form S (P, n_ant); and H = C S is written straight into the real view of the
complex result as

    [Re C, Im C] @ [[Re S, Im S], [-Im S, Re S]]

with the rows and columns of the right factor interleaved (real, imaginary)
to match the memory order of complex numbers. Noise, preprocessing and its
inverse likewise read and write the real and imaginary parts of complex
arrays in place, so the channel path makes no complex temporaries of H's
size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fields import BOOL, FINITE, INT, OBJECT, check_keys, list_of, parse, read_field

__all__ = [
    "Scatterer",
    "UserTrack",
    "Scene",
    "ChannelTensor",
    "PreprocessedTarget",
    "synthesize",
    "add_noise",
    "preprocess",
    "postprocess",
    "stack_users",
    "split_users",
    "noise_variance",
    "load_scene",
]

SPEED_OF_LIGHT = 299_792_458.0

GROUND_TRUTH = "ground-truth"
MEASURED = "measured"
ESTIMATED = "estimated"


@dataclass(frozen=True)
class Scatterer:
    position: tuple  # meters
    gain: complex  # reflection coefficient


@dataclass(frozen=True)
class UserTrack:
    ue_id: int
    start: tuple  # meters
    velocity: tuple  # m/s
    los: bool = True  # unobstructed direct path


@dataclass(frozen=True)
class Scene:
    bs_position: tuple
    ura_rows: int
    ura_cols: int
    element_spacing_wl: float  # in wavelengths
    scatterers: tuple
    ues: tuple
    carrier_hz: float
    bandwidth_hz: float
    n_sub: int
    n_sp: int
    snapshot_dt_s: float

    def __post_init__(self):
        if self.ura_rows < 1 or self.ura_cols < 1:
            raise ValueError("URA needs at least one element")
        if self.n_sub < 1 or self.n_sp < 1:
            raise ValueError("n_sub and n_sp must be positive")
        if not (self.carrier_hz > 0 and self.bandwidth_hz > 0):  # the wavelength divides by the carrier
            raise ValueError("carrier_hz and bandwidth_hz must be positive")
        for i, ue in enumerate(self.ues):
            if ue.ue_id in self.ue_ids[:i]:  # Scene.ue could never reach this track
                raise ValueError(f"scene lists UE id {ue.ue_id} more than once")
            if not ue.los and not self.scatterers:
                raise ValueError(f"UE {ue.ue_id} has no propagation path")

    @property
    def n_ant(self) -> int:
        return self.ura_rows * self.ura_cols

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def ue_ids(self) -> list:
        return [ue.ue_id for ue in self.ues]

    def ue(self, ue_id: int) -> UserTrack:
        for ue in self.ues:
            if ue.ue_id == ue_id:
                return ue
        raise KeyError(f"scene has no UE with id {ue_id}")


@dataclass
class ChannelTensor:
    """A complex channel tensor with its provenance role."""

    data: np.ndarray
    role: str = GROUND_TRUTH
    snr_db: float | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if not np.iscomplexobj(self.data):
            raise ValueError("channel tensors are complex")
        # on the real view: half the time of isfinite on the complex values
        if not np.isfinite(np.ascontiguousarray(self.data).view(self.data.real.dtype)).all():
            raise ValueError("channel tensor has non-finite entries")
        if self.role not in (GROUND_TRUTH, MEASURED, ESTIMATED):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == MEASURED and self.snr_db is None:
            raise ValueError("measured tensors must record their SNR")


@dataclass
class PreprocessedTarget:
    """Real training target plus the metadata that inverts the preprocessing."""

    data: np.ndarray  # (n_sub, n_sp, 2*n_ant); a group (stack_users): (n_sp, n_sub, M, 2*n_ant)
    snapshot_norms: np.ndarray  # (n_sp,); a group: (M, n_sp)
    scale: float | np.ndarray  # a group: (M,)


def _unit(vec):
    n = np.linalg.norm(vec)
    if n < 1e-9:
        raise ValueError("degenerate geometry: zero-length direction")
    return vec / n


def _steering(scene: Scene, directions) -> np.ndarray:
    """Plane-wave URA responses (P, n_ant) for P departure directions (unit
    vectors, one per row).

    Elements sit in the x=0 plane of the array frame, columns along y and rows
    along z, indexed row-major (a = r * cols + c). Spacing is given in
    wavelengths, so the phase is 2 pi spacing (c u_y + r u_z).
    """
    u = np.asarray(directions, dtype=float)
    rows = np.arange(scene.ura_rows)
    cols = np.arange(scene.ura_cols)
    phase = 2.0 * np.pi * scene.element_spacing_wl * (
        cols[None, None, :] * u[:, 1, None, None] + rows[None, :, None] * u[:, 2, None, None]
    )
    return np.exp(1j * phase).reshape(len(u), -1)


def synthesize(scene: Scene, ue_id: int) -> ChannelTensor:
    """Ground-truth channel (n_sub, n_sp, n_ant) for one UE of the scene, as
    one real matrix product over its paths (see the module docstring)."""
    ue = scene.ue(ue_id)
    bs = np.asarray(scene.bs_position, dtype=float)
    start = np.asarray(ue.start, dtype=float)
    vel = np.asarray(ue.velocity, dtype=float)
    t_idx = np.arange(scene.n_sp)
    positions = start[None, :] + vel[None, :] * (t_idx * scene.snapshot_dt_s)[:, None]
    lam = scene.wavelength

    paths = []
    if ue.los:
        d = np.linalg.norm(positions - bs[None, :], axis=1)
        if d.min() < 1e-3:
            raise ValueError("degenerate geometry: UE coincides with the BS")
        radial = float(np.dot(_unit(start - bs), vel))
        paths.append((1.0 + 0.0j, d, -radial / lam, _unit(start - bs)))
    for sc in scene.scatterers:
        s = np.asarray(sc.position, dtype=float)
        d_ue = np.linalg.norm(positions - s[None, :], axis=1)
        if d_ue.min() < 1e-3:
            raise ValueError("degenerate geometry: UE coincides with a scatterer")
        d_bs = float(np.linalg.norm(s - bs))
        if d_bs < 1e-3:
            raise ValueError("degenerate geometry: scatterer coincides with the BS")
        radial = float(np.dot(_unit(start - s), vel))
        paths.append((complex(sc.gain), d_bs + d_ue, -radial / lam, _unit(s - bs)))
    if not paths:
        raise ValueError(f"UE {ue_id} has no propagation path")

    gains, dists, dopplers, directions = (np.array(v) for v in zip(*paths))
    taus = dists.T / SPEED_OF_LIGHT  # (n_sp, P)
    n_paths = len(paths)
    # S: path gain (free-space loss, carrier phase at the first snapshot)
    # times steering vector, as the rows of the real right factor
    g = gains / (4.0 * np.pi * dists[:, 0]) * np.exp(-2j * np.pi * scene.carrier_hz * taus[0])
    s = g[:, None] * _steering(scene, directions)  # (P, n_ant)
    right = np.empty((n_paths, 2, scene.n_ant, 2))
    right[:, 0, :, 0] = s.real
    right[:, 0, :, 1] = s.imag
    right[:, 1, :, 0] = -s.imag
    right[:, 1, :, 1] = s.real
    h = np.empty((scene.n_sub, scene.n_sp, scene.n_ant), dtype=np.complex128)
    # C: c[f, t, p] = exp(+j 2 pi nu_p t dt) * w[t, p]**f, with w the delay
    # phase of one subcarrier step, filled by doubling along the subcarrier mode
    c = np.empty((scene.n_sub, scene.n_sp, n_paths), dtype=np.complex128)
    c[0] = np.exp(2j * np.pi * dopplers[None, :] * (t_idx * scene.snapshot_dt_s)[:, None])
    w = np.exp(-2j * np.pi * (scene.bandwidth_hz / scene.n_sub) * taus)
    filled = 1
    while filled < scene.n_sub:
        step = min(filled, scene.n_sub - filled)
        np.multiply(c[:step], w, out=c[filled : filled + step])
        w *= w
        filled += step

    np.matmul(
        c.view(np.float64).reshape(scene.n_sub * scene.n_sp, 2 * n_paths),
        right.reshape(2 * n_paths, 2 * scene.n_ant),
        out=h.view(np.float64).reshape(scene.n_sub * scene.n_sp, 2 * scene.n_ant),
    )
    return ChannelTensor(h, role=GROUND_TRUTH)


def _power(x) -> float:
    """||x||_F^2: one dot product over the real view of x (einsum, which
    stays on the calling thread, where a BLAS dot may wake its pool)."""
    x = np.ascontiguousarray(x)
    flat = (x.view(x.real.dtype) if np.iscomplexobj(x) else x).reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


def noise_variance(signal_norm_sq: float, n_entries: int, snr_db: float) -> float:
    """Per-entry complex noise variance that realizes the requested tensor SNR
    10 log10(||H||_F^2 / E||N||_F^2); 0 at an SNR of +inf. Any other SNR
    whose ratio 10^(snr_db / 10) is not a normal float (NaN, -inf, or beyond
    about +-3,080 dB) raises ValueError."""
    if snr_db == math.inf:
        return 0.0
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio <= sys.float_info.max:
        raise ValueError(f"{snr_db} is not an SNR in dB")
    return signal_norm_sq / (n_entries * ratio)


def add_noise(h: ChannelTensor, snr_db: float, seed: int) -> ChannelTensor:
    """Measured channel: ground truth plus circularly symmetric complex
    Gaussian noise calibrated against the whole-tensor Frobenius norm. An
    SNR of +inf adds no noise; one :func:`noise_variance` rejects raises
    ValueError."""
    if h.role != GROUND_TRUTH:
        raise ValueError("noise is added to ground-truth tensors only")
    if snr_db == np.inf:
        return ChannelTensor(h.data.copy(), role=MEASURED, snr_db=snr_db)
    truth = np.ascontiguousarray(h.data, dtype=np.complex128)
    std = np.sqrt(noise_variance(_power(truth), truth.size, snr_db) / 2.0)
    rng = np.random.default_rng(seed)
    meas = np.empty_like(truth)
    # real parts take the first normal draw, imaginary parts the second
    for part, clean in zip(_parts(meas), _parts(truth)):
        np.multiply(rng.standard_normal(truth.shape), std, out=part)
        part += clean
    return ChannelTensor(meas, role=MEASURED, snr_db=snr_db)


def _parts(x: np.ndarray) -> tuple:
    """Real and imaginary parts of a contiguous complex128 array as writable
    float64 views of the same shape."""
    pairs = x.view(np.float64).reshape(x.shape + (2,))
    return pairs[..., 0], pairs[..., 1]


def preprocess(h: ChannelTensor) -> PreprocessedTarget:
    """Real training target for the decoder.

    Each time-snapshot slice is divided by its Frobenius norm and multiplied
    by the scale 0.9 / max|entry| of the normalized tensor, so every target
    entry stays inside the open TanH range; real and imaginary parts are then
    concatenated along the antenna mode.
    """
    if h.role not in (GROUND_TRUTH, MEASURED):
        raise ValueError("preprocess expects a ground-truth or measured tensor")
    if h.data.ndim != 3:
        raise ValueError("single-user preprocessing expects (n_sub, n_sp, n_ant)")
    data = np.ascontiguousarray(h.data, dtype=np.complex128)
    flat = data.view(np.float64)  # (n_sub, n_sp, 2*n_ant), parts interleaved
    norms = np.sqrt(np.einsum("ftk,ftk->t", flat, flat))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm snapshot cannot be normalized")
    peak = np.maximum(flat.max(axis=(0, 2)), -flat.min(axis=(0, 2))) / norms
    scale = 0.9 / peak.max()
    gain = (scale / norms)[None, :, None]
    n_ant = data.shape[2]
    target = np.empty(flat.shape)
    re, im = _parts(data)
    np.multiply(re, gain, out=target[..., :n_ant])
    np.multiply(im, gain, out=target[..., n_ant:])
    return PreprocessedTarget(data=target, snapshot_norms=norms, scale=float(scale))


def postprocess(data, snapshot_norms, scale: float) -> ChannelTensor:
    """Invert :func:`preprocess` on a target or decoder output of shape
    (n_sub, n_sp, 2*n_ant): scale the real and imaginary halves by each
    snapshot's norm over the scale, straight into the parts of the complex
    result."""
    arr = np.asarray(getattr(data, "data", data))
    if arr.shape[-1] % 2 != 0:
        raise ValueError("last extent must be even (stacked real/imaginary parts)")
    n_ant = arr.shape[-1] // 2
    gain = np.asarray(snapshot_norms, dtype=float)[None, :, None] / scale
    out = np.empty(arr.shape[:-1] + (n_ant,), dtype=np.complex128)
    re, im = _parts(out)
    np.multiply(arr[..., :n_ant], gain, out=re)
    np.multiply(arr[..., n_ant:], gain, out=im)
    return ChannelTensor(out, role=ESTIMATED)


def stack_users(targets) -> PreprocessedTarget:
    """The group target of M users' targets, in order: each user's data,
    with subcarrier and snapshot modes swapped, is slice m of a new user mode
    (n_sp, n_sub, M, 2*n_ant); its norms are row m of an (M, n_sp) matrix
    and its scale entry m of an (M,) array. ValueError unless there is at
    least one user and all share one shape."""
    targets = list(targets)
    return PreprocessedTarget(
        data=np.stack([t.data.transpose(1, 0, 2) for t in targets], axis=2),
        snapshot_norms=np.stack([t.snapshot_norms for t in targets], axis=0),
        scale=np.array([t.scale for t in targets], dtype=float),
    )


def split_users(data, snapshot_norms, scale) -> list:
    """Invert :func:`stack_users` and :func:`preprocess` on group target data
    or a 4-way decoder output (n_sp, n_sub, M, 2*n_ant): one estimated
    channel per user, in the order of the user mode."""
    return [
        postprocess(data[:, :, m, :].transpose(1, 0, 2), snapshot_norms[m], float(scale[m]))
        for m in range(data.shape[2])
    ]


# ---------------------------------------------------------------------------
# scene files


_scene_field = partial(read_field, "scene")
_scene_keys = partial(check_keys, "scene")
_point = list_of(FINITE, 3)


def _scatterer(doc, where: str) -> Scatterer:
    _scene_keys(doc, ("position_m", "gain_re", "gain_im"), where)
    gain = complex(_scene_field(doc, "gain_re", FINITE, where), _scene_field(doc, "gain_im", FINITE, where))
    return Scatterer(_scene_field(doc, "position_m", _point, where), gain)


def _user_track(doc, where: str) -> UserTrack:
    _scene_keys(doc, ("id", "start_m", "velocity_mps", "los"), where)
    return UserTrack(
        ue_id=_scene_field(doc, "id", INT, where),
        start=_scene_field(doc, "start_m", _point, where),
        velocity=_scene_field(doc, "velocity_mps", _point, where),
        los=_scene_field(doc, "los", BOOL, where, default=True),
    )


def scene_from_dict(doc: dict) -> Scene:
    """The Scene a parsed scene file describes (docs/artifacts.md). A missing
    or mistyped field, or an unknown one, raises ValueError naming the field."""
    _scene_keys(doc, ("carrier_hz", "bandwidth_hz", "n_sub", "n_sp", "snapshot_dt_s", "bs", "scatterers", "ues"))
    bs = _scene_field(doc, "bs", OBJECT)
    _scene_keys(bs, ("position_m", "ura_rows", "ura_cols", "element_spacing_wl"), "bs.")
    scatterers = _scene_field(doc, "scatterers", list_of(OBJECT))
    ues = _scene_field(doc, "ues", list_of(OBJECT))
    return Scene(
        bs_position=_scene_field(bs, "position_m", _point, "bs."),
        ura_rows=_scene_field(bs, "ura_rows", INT, "bs."),
        ura_cols=_scene_field(bs, "ura_cols", INT, "bs."),
        element_spacing_wl=float(_scene_field(bs, "element_spacing_wl", FINITE, "bs.")),
        scatterers=tuple(_scatterer(s, f"scatterers[{i}].") for i, s in enumerate(scatterers)),
        ues=tuple(_user_track(u, f"ues[{i}].") for i, u in enumerate(ues)),
        carrier_hz=float(_scene_field(doc, "carrier_hz", FINITE)),
        bandwidth_hz=float(_scene_field(doc, "bandwidth_hz", FINITE)),
        n_sub=_scene_field(doc, "n_sub", INT),
        n_sp=_scene_field(doc, "n_sp", INT),
        snapshot_dt_s=float(_scene_field(doc, "snapshot_dt_s", FINITE)),
    )


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(parse("scene", fh.read()))
