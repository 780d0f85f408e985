"""In-process A/B of one fit iteration's passes: a parent checkout against
the working tree.

    OPENBLAS_NUM_THREADS=1 python tools/ab_iteration.py PARENT [--rounds 10]

PARENT is a checkout of the parent commit, for example
``git archive HEAD~1 | tar -x -C PARENT``. Its ``src/unn_csi`` is imported
as the package ``unn_csi_parent`` beside the working tree's ``unn_csi``, in
this one process, so both sides share the interpreter, the heap and the
BLAS threads; the benchmark's end-to-end times move with heap state, and
this does not.

First, on every packaged spec, in float32 and float64, both sides'
``fitting._loss_and_grad`` run on equal parameters and targets, and the
script checks that their gradient and MSE bytes agree. Then, on
single_ue_full and group_full_a, each round times CALLS calls of each side's
``_loss_and_grad`` on its own bound float32 workspace, the parent first in odd rounds and second in even
ones, after one untimed call each, and takes each side's median call. It
prints per spec and side the median of those over the rounds, in ms, with
its quartiles, and the rounds in which
the working tree was faster. Exit status 1 if any bytes differ.

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
TIMED = ("single_ue_full", "group_full_a")
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


def bind(side, spec_name: str, dtype):
    """A workspace of `side` bound for `_loss_and_grad` on `spec_name` at
    init_params(seed 1) with gammas and betas moved off 1 and 0, random
    targets, and its gradient vector; equal inputs on either side."""
    decoder, _, specs = side
    spec = decoder.load_spec(str(specs / f"{spec_name}.json"))
    rng = np.random.default_rng(7)
    vec = decoder.params_to_vector(decoder.init_params(spec, 1, dtype))
    params = decoder.param_views(spec, vec)
    for g, b in zip(params.gammas, params.betas):
        g[...] = rng.uniform(0.5, 1.5, g.shape)
        b[...] = rng.uniform(-0.5, 0.5, b.shape)
    target = rng.uniform(-0.8, 0.8, spec.output_dims).astype(dtype)
    grads = np.full_like(vec, np.nan)
    x = decoder._seed(spec, None, dtype)
    return decoder._Workspace(spec, x, params, target, decoder.param_views(spec, grads)), grads


def same_bytes(sides, spec_name: str, dtype) -> bool:
    out = []
    for side in sides:
        ws, grads = bind(side, spec_name, dtype)
        mse = side[1]._loss_and_grad(ws)
        out.append((grads.tobytes(), np.asarray(mse).tobytes()))
    return out[0] == out[1]


def ms_per_call(loss_and_grad, ws) -> float:
    """The median ms of CALLS calls of `loss_and_grad` on `ws`."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        loss_and_grad(ws)
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


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
            if not same_bytes(sides, path.stem, dtype):
                differ.append(f"{path.stem} {np.dtype(dtype).name}")
    print("gradient and MSE bytes:", "differ on " + ", ".join(differ) if differ else "equal on every packaged spec")

    for spec_name in TIMED:
        bound = [(side[1]._loss_and_grad, bind(side, spec_name, np.float32)[0]) for side in sides]
        for loss_and_grad, ws in bound:
            loss_and_grad(ws)
        times = np.empty((args.rounds, 2))
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[r, i] = ms_per_call(*bound[i])
        q = np.percentile(times, [25, 50, 75], axis=0)
        won = int((times[:, 1] < times[:, 0]).sum())
        change = (q[1, 1] / q[1, 0] - 1) * 100
        print(
            f"{spec_name}: parent {q[1, 0]:.3f} ms ({q[0, 0]:.3f}-{q[2, 0]:.3f}), "
            f"change {q[1, 1]:.3f} ms ({q[0, 1]:.3f}-{q[2, 1]:.3f}), {change:+.1f} %, "
            f"faster in {won}/{args.rounds} rounds"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
