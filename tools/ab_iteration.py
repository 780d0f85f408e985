"""In-process A/B of one fit iteration's passes: a parent checkout against
the working tree.

    OPENBLAS_NUM_THREADS=1 python tools/ab_iteration.py PARENT [--rounds 10]

PARENT is a checkout of the parent commit, for example
``git archive HEAD~1 | tar -x -C PARENT``. Its ``src/unn_csi`` is imported
as the package ``unn_csi_parent`` beside the working tree's ``unn_csi``, in
this one process, so both sides share the interpreter, the heap and the
BLAS threads; the benchmark's end-to-end times move with heap state, and
this does not.

First, on every packaged spec, in float32 and float64, without a batch
axis and for a batch of BYTES_BATCH, both sides' ``fitting._loss_and_grad``
run on equal parameters and targets, and the script checks that their
gradient and MSE bytes agree. Then, for each spec and batch size of TIMED,
each round times CALLS calls of each side's ``_loss_and_grad`` on its own
bound float32 workspace, after one untimed call each. The two sides' calls
take turns, the parent's first in odd rounds and second in even ones, so
that both see the same host speed when a shared host's speed changes
level, and each side's median call is kept. It prints per spec, batch size
and side the median of those over the rounds, in ms, with its quartiles,
and the rounds in which the working tree was faster. Exit status 1 if any
bytes differ.

With the checkout on both sides, one side can still read faster in most
rounds: on a 2-core Xeon at one BLAS thread, single_ue_full read +1.1 %
(0 of 10 rounds faster) against the same code. So this A/B does not
resolve full-scale differences of that size.

BLAS threads are whatever OpenBLAS starts with: set OPENBLAS_NUM_THREADS to
measure at 1 and at 2.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# (spec, batch size): the full specs at the batch size of their fits, and
# the desk specs at those of the desk study's single, sweep, group and
# transfer modes; a batch of one runs without the batch axis, as in fit_batch
TIMED = (("single_ue_full", 1), ("group_full_a", 1), ("single_ue_desk", 8), ("group_desk", 1), ("group_desk", 3))
# the batch size of the byte check's batched workspaces
BYTES_BATCH = 3
# the timed calls of each side per spec and round
CALLS = 20


def load_side(checkout: Path, name: str):
    """The `unn_csi` package of `checkout` imported as `name`: its decoder
    and fitting modules, and its specs directory."""
    package = checkout / "src" / "unn_csi"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.decoder"), importlib.import_module(f"{name}.fitting"), package / "specs"


def bind(side, spec_name: str, dtype, batch: int):
    """A workspace of `side` bound for `_loss_and_grad` on `spec_name` for
    `batch` samples, without the batch axis for one, at init_params(seed 1)
    with each sample's gammas and betas moved off 1 and 0, random targets,
    and its gradient block; equal inputs on either side."""
    decoder, _, specs = side
    spec = decoder.load_spec(str(specs / f"{spec_name}.json"))
    rng = np.random.default_rng(7)
    rows = slice(None) if batch > 1 else 0
    vec = np.stack([decoder.params_to_vector(decoder.init_params(spec, 1, dtype))] * batch)[rows]
    params = decoder.param_views(spec, vec)
    for g, b in zip(params.gammas, params.betas):
        g[...] = rng.uniform(0.5, 1.5, g.shape)
        b[...] = rng.uniform(-0.5, 0.5, b.shape)
    target = rng.uniform(-0.8, 0.8, vec.shape[:-1] + spec.output_dims).astype(dtype)
    grads = np.full_like(vec, np.nan)
    x = decoder._seed(spec, None, dtype)[None][rows]
    return decoder._Workspace(spec, x, params, target, decoder.param_views(spec, grads)), grads


def same_bytes(sides, spec_name: str, dtype, batch: int) -> bool:
    out = []
    for side in sides:
        ws, grads = bind(side, spec_name, dtype, batch)
        mse = side[1]._loss_and_grad(ws)
        out.append((grads.tobytes(), np.asarray(mse).tobytes()))
    return out[0] == out[1]


def ms_per_call(bound, first: int) -> np.ndarray:
    """Each side's median ms over CALLS calls of its `_loss_and_grad` on
    its workspace (`bound`), the two sides' calls taken in turn, side
    `first` first."""
    times = np.empty((CALLS, 2))
    for c in range(CALLS):
        for i in (first, 1 - first):
            loss_and_grad, ws = bound[i]
            start = time.perf_counter()
            loss_and_grad(ws)
            times[c, i] = time.perf_counter() - start
    return np.median(times, axis=0) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = (load_side(args.parent, "unn_csi_parent"), load_side(ROOT, "unn_csi"))
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(default)')}, numpy {np.__version__}")

    differ = []
    for path in sorted(sides[1][2].glob("*.json")):
        for dtype in (np.float32, np.float64):
            for batch in (1, BYTES_BATCH):
                if not same_bytes(sides, path.stem, dtype, batch):
                    differ.append(f"{path.stem} {np.dtype(dtype).name} B={batch}")
    print(
        "gradient and MSE bytes:",
        "differ on " + ", ".join(differ) if differ else f"equal on every packaged spec, at B=1 and B={BYTES_BATCH}",
    )

    for spec_name, batch in TIMED:
        bound = [(side[1]._loss_and_grad, bind(side, spec_name, np.float32, batch)[0]) for side in sides]
        for loss_and_grad, ws in bound:
            loss_and_grad(ws)
        times = np.empty((args.rounds, 2))
        for r in range(args.rounds):
            times[r] = ms_per_call(bound, r % 2)
        q = np.percentile(times, [25, 50, 75], axis=0)
        won = int((times[:, 1] < times[:, 0]).sum())
        change = (q[1, 1] / q[1, 0] - 1) * 100
        print(
            f"{spec_name} B={batch}: parent {q[1, 0]:.3f} ms ({q[0, 0]:.3f}-{q[2, 0]:.3f}), "
            f"change {q[1, 1]:.3f} ms ({q[0, 1]:.3f}-{q[2, 1]:.3f}), {change:+.1f} %, "
            f"faster in {won}/{args.rounds} rounds"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
