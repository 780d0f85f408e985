"""Independent loop-based reference implementations used as test oracles.

Everything here is written as plainly as possible (explicit loops, no shared
code with the package) so it can disagree with the library when the library is
wrong.
"""

import numpy as np


def loop_mode_product(tensor, matrix, mode):
    """Triple-loop d-mode product."""
    shape = list(tensor.shape)
    shape[mode] = matrix.shape[0]
    out = np.zeros(shape, dtype=np.result_type(tensor, matrix))
    for out_idx in np.ndindex(*shape):
        acc = 0.0
        for k in range(tensor.shape[mode]):
            src = list(out_idx)
            src[mode] = k
            acc += matrix[out_idx[mode], k] * tensor[tuple(src)]
        out[out_idx] = acc
    return out


def loop_upsampler(n):
    """Half-pixel linear interpolation matrix evaluated entry by entry."""
    op = np.zeros((2 * n, n))
    for p in range(2 * n):
        s = (p + 0.5) / 2.0 - 0.5
        s = 0.0 if s < 0 else (n - 1.0 if s > n - 1 else s)
        lo = int(np.floor(s))
        frac = s - lo
        op[p, lo] += 1.0 - frac
        if frac > 0:
            op[p, lo + 1] += frac
    return op


def loop_forward(spec, params, z0, eps=1e-5):
    """Straight-loop decoder forward pass in float64.

    Mirrors the documented layer recipe with nothing shared with the library:
    channel products via explicit sums, upsampling via loop_upsampler, batch
    statistics via flattened slices.
    """
    z = np.asarray(z0, dtype=np.float64)
    n_layers = len(spec.widths) - 1
    for l in range(n_layers):
        w = np.asarray(params.kernels[l], dtype=np.float64)
        k_out = w.shape[1]
        u = np.zeros(z.shape[:-1] + (k_out,))
        for idx in np.ndindex(*z.shape[:-1]):
            for j in range(k_out):
                u[idx + (j,)] = sum(z[idx + (p,)] * w[p, j] for p in range(w.shape[0]))
        if l < len(spec.upsample_flags):
            for ax, on in enumerate(spec.upsample_flags[l]):
                if on:
                    u = loop_mode_product(u, loop_upsampler(u.shape[ax]), ax)
        if l == n_layers - 1:
            z = np.tanh(u)
        else:
            r = np.maximum(u, 0.0)
            y = np.empty_like(r)
            for j in range(k_out):
                col = r[..., j].ravel()
                mu = col.mean()
                var = col.var()
                y[..., j] = (r[..., j] - mu) / np.sqrt(var + eps) * params.gammas[l][j] + params.betas[l][j]
            z = y
    return z


def loop_mse(a, b):
    acc = 0.0
    fa, fb = np.asarray(a).ravel(), np.asarray(b).ravel()
    for x, y in zip(fa, fb):
        acc += (x - y) ** 2
    return acc / fa.size


def splitmix64_reference(seed, count):
    """Pure-Python SplitMix64 with explicit 64-bit masking."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z)
    return out


def two_path_channel(scene, ue_id):
    """Closed-form two-path (or any-path) channel evaluated with explicit
    loops, following the documented synthesis formula."""
    c_light = 299_792_458.0
    ue = scene.ue(ue_id)
    bs = np.asarray(scene.bs_position, dtype=float)
    start = np.asarray(ue.start, dtype=float)
    vel = np.asarray(ue.velocity, dtype=float)
    lam = c_light / scene.carrier_hz
    df = scene.bandwidth_hz / scene.n_sub

    paths = []
    if ue.los:
        u = (start - bs) / np.linalg.norm(start - bs)
        paths.append((1.0 + 0.0j, None, u))
    for sc in scene.scatterers:
        s = np.asarray(sc.position, dtype=float)
        u = (s - bs) / np.linalg.norm(s - bs)
        paths.append((complex(sc.gain), s, u))

    h = np.zeros((scene.n_sub, scene.n_sp, scene.ura_rows * scene.ura_cols), dtype=complex)
    for f in range(scene.n_sub):
        for t in range(scene.n_sp):
            pos = start + vel * t * scene.snapshot_dt_s
            for gain, s, u in paths:
                if s is None:
                    dist_t = np.linalg.norm(pos - bs)
                    dist_0 = np.linalg.norm(start - bs)
                    radial = np.dot((start - bs) / dist_0, vel)
                else:
                    dist_t = np.linalg.norm(s - bs) + np.linalg.norm(pos - s)
                    dist_0 = np.linalg.norm(s - bs) + np.linalg.norm(start - s)
                    radial = np.dot((start - s) / np.linalg.norm(start - s), vel)
                tau_t = dist_t / c_light
                tau_0 = dist_0 / c_light
                nu = -radial / lam
                g = gain / (4 * np.pi * dist_0) * np.exp(-2j * np.pi * scene.carrier_hz * tau_0)
                a = 0
                for r in range(scene.ura_rows):
                    for c in range(scene.ura_cols):
                        steer = np.exp(
                            2j * np.pi * scene.element_spacing_wl * (c * u[1] + r * u[2])
                        )
                        h[f, t, a] += (
                            g
                            * np.exp(-2j * np.pi * f * df * tau_t)
                            * np.exp(2j * np.pi * nu * t * scene.snapshot_dt_s)
                            * steer
                        )
                        a += 1
    return h


def loop_synthesize(scene, ue_id):
    """The channel as a sequential sum over paths: per path, the delay phase
    (n_sub, n_sp) times the Doppler phase times the path gain, as an outer
    product with the steering vector added into H."""
    c_light = 299_792_458.0
    ue = scene.ue(ue_id)
    bs = np.asarray(scene.bs_position, dtype=float)
    start = np.asarray(ue.start, dtype=float)
    vel = np.asarray(ue.velocity, dtype=float)
    t_idx = np.arange(scene.n_sp)
    positions = start[None, :] + vel[None, :] * (t_idx * scene.snapshot_dt_s)[:, None]
    f_sub = np.arange(scene.n_sub) * (scene.bandwidth_hz / scene.n_sub)
    lam = c_light / scene.carrier_hz

    def unit(v):
        return v / np.linalg.norm(v)

    paths = []
    if ue.los:
        d = np.linalg.norm(positions - bs[None, :], axis=1)
        paths.append((1.0 + 0.0j, d, -float(np.dot(unit(start - bs), vel)) / lam, unit(start - bs)))
    for sc in scene.scatterers:
        s = np.asarray(sc.position, dtype=float)
        d = float(np.linalg.norm(s - bs)) + np.linalg.norm(positions - s[None, :], axis=1)
        paths.append((complex(sc.gain), d, -float(np.dot(unit(start - s), vel)) / lam, unit(s - bs)))

    rows = np.arange(scene.ura_rows)
    cols = np.arange(scene.ura_cols)
    h = np.zeros((scene.n_sub, scene.n_sp, scene.ura_rows * scene.ura_cols), dtype=np.complex128)
    for gain, dist, doppler, u in paths:
        tau = dist / c_light
        g = gain / (4.0 * np.pi * dist[0]) * np.exp(-2j * np.pi * scene.carrier_hz * tau[0])
        delay_phase = np.exp(-2j * np.pi * f_sub[:, None] * tau[None, :])
        doppler_phase = np.exp(2j * np.pi * doppler * t_idx * scene.snapshot_dt_s)
        phase = 2.0 * np.pi * scene.element_spacing_wl * (cols[None, :] * u[1] + rows[:, None] * u[2])
        steer = np.exp(1j * phase).reshape(-1)
        h += g * (delay_phase * doppler_phase[None, :])[:, :, None] * steer[None, None, :]
    return h


def formula_postprocess(data, snapshot_norms, scale):
    """Inverse preprocessing in its complex-arithmetic form: recombine the
    real and imaginary halves as a + 1j*b, then restore each snapshot's norm
    over the scale."""
    arr = np.asarray(data)
    n_ant = arr.shape[-1] // 2
    cplx = arr[..., :n_ant] + 1j * arr[..., n_ant:]
    return cplx * (np.asarray(snapshot_norms, dtype=float)[None, :, None] / scale)


def inplace_loss_and_grad(ws):
    """`fitting._loss_and_grad` as it was first written: the reverse pass
    scales the cached centred ReLU output d in place into the batch-norm
    correction d * c1 + c2, and overwrites the cached ReLU input u with the
    0/1 ReLU mask. Unlike the rest of this file it runs the package's
    forward pass on the package's workspace (the same `ws.rev` entries), so
    it pins the bits of the reverse pass's statement order, not its
    formulas; the central-difference checks pin those."""
    from unn_csi.decoder import _column_sums, _each, _forward, _tiled

    folded = []
    y = _forward(ws, folded)
    t, g, row, column, lead, size = ws.loss
    np.subtract(y, t, out=g)
    mse = np.matmul(row, column).reshape(lead).astype(np.float64) / size
    y *= y
    np.subtract(1.0, y, out=y)
    g *= y
    g *= 2.0 / size
    for l, ups_t, xt, g, g_w, w, gamma, beta, g_gamma_out, g_beta_out, ones, n, g_prev, x_wide, tile, u, _, _ in ws.rev:
        for op, src, dst in ups_t:
            np.matmul(op, src, out=dst)
        inv = folded[l - 1][1]
        a = gamma * inv
        m = xt @ g
        s = (ones @ g)[..., 0, :] if ones is not None else _each(_column_sums, g)
        g_w[...] = a[..., None] * m + beta * s[..., None, :]
        g_beta = (w @ s[..., None])[..., 0]
        g_gamma = inv * np.einsum("...ij,...ij->...i", w, m)
        g_beta_out[...] = g_beta
        g_gamma_out[...] = g_gamma
        np.matmul(g, folded[l][0].swapaxes(-1, -2), out=g_prev)
        c1 = (a * inv * g_gamma / n)[..., None, :]
        x_wide *= _tiled(c1, tile)
        c2 = (a * g_beta / n)[..., None, :]
        x_wide += _tiled(c2, tile)
        g_prev -= x_wide.reshape(u.shape)
        g_prev *= np.greater(u, 0, out=u)
    ups_t, xt, g, g_w = ws.rev0
    for op, src, dst in ups_t:
        np.matmul(op, src, out=dst)
    np.matmul(xt, g, out=g_w)
    return mse


def dense_workspace(spec, x, params, t=None, grads=None, cache=False):
    """`decoder._Workspace` with every upsampling bound as it first was: one
    matmul of the whole 2n x n operator (loop_upsampler's), or of its
    transpose in the reverse pass, over the (pre, n, post) views of
    `tensors._mode_views`, in place of the band plan's steps. It pins the
    bits of the band steps against the dense product they replace."""
    from unn_csi import decoder

    def dense(n, dtype, transposed, src, dst):
        op = loop_upsampler(n).astype(dtype)
        return [(op.T if transposed else op, src, dst)]

    banded, decoder._upsampling_steps = decoder._upsampling_steps, dense
    try:
        return decoder._Workspace(spec, x, params, t, grads, cache)
    finally:
        decoder._upsampling_steps = banded
