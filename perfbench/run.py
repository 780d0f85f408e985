"""unn-csi benchmark: runs one workload from a workload seed, checks every
output, and prints its metrics; the last line of stdout is one JSON object.

    python3 perfbench/run.py --workload desk-study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
prints the per-layer metrics instead: an untraced measurement, the same
passes again with every public ``unn_csi`` function wrapped, and the isolated
probes. Artifacts, records and spans go to ``.bench_out/`` in the checkout.
See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, unn_csi.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "iter_ms": "ms",
    "cells_per_s": "1/s",
    "regen_ms.p50": "ms",
    "regen_ms.p90": "ms",
    "report_bytes.mean": "bytes",
    "peak_rss_mb": "MB",
}

# traced layer -> counters reported for it
LAYER_STATS = {
    "fitting.fit": ("calls", "self_s", "iterations", "diverged"),
    "fitting.loss": ("self_s",),
    "decoder.forward": ("calls", "self_s"),
    "tensors.mode_product": ("calls", "self_s"),
    "decoder.generate_seed": ("self_s",),
    "decoder.init_params": ("self_s",),
    "decoder.uniform_stream": ("self_s",),
    "channel.synthesize": ("self_s",),
    "channel.add_noise": ("self_s",),
    "channel.preprocess": ("self_s",),
    "channel.postprocess": ("self_s",),
    "channel.load_scene": ("self_s",),
    "baselines.nmse": ("self_s",),
    "baselines.mmse_genie": ("self_s",),
    "baselines.sweep": ("self_s",),
    "codec.encode": ("calls", "self_s"),
    "codec.decode": ("calls", "self_s", "errors"),
    "transfer.run_transfer": ("self_s",),
    "transfer.weight_distance": ("self_s",),
    "multiuser.build_group": ("self_s",),
    "multiuser.fit_group": ("self_s",),
    "cli.run": ("calls", "self_s"),
    "cli.validate": ("self_s",),
}
CLI_MODES = ("single", "transfer", "group", "codec", "sweep")
PROBE_SCALES = ("desk", "full", "full_group")
PROBE_KINDS = ("forward_ms", "fwd_bwd_ms", "batch_norm_ms", "upsample_ms", "adam_loop_ms")


def per_layer_units() -> dict:
    units = {}
    for layer, counters in LAYER_STATS.items():
        for c in counters:
            units[f"{layer}.{c}"] = "s" if c.endswith("_s") else "count"
    for mode in CLI_MODES:
        units[f"cli.mode.{mode}.wall_s"] = "s"
    for scale in PROBE_SCALES:
        for kind in PROBE_KINDS:
            units[f"probe.{scale}.{kind}"] = "ms"
    units.update({"trace.overhead_frac": "frac", "trace.wall_s": "s", "trace.layer_self_s": "s", "nmse_db.mean": "dB", "failed_frac": "frac",
                  "check.schema_warnings": "count"})
    return units


# ---------------------------------------------------------------------------
# machine facts


def _code_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout; code_sha256 identifies the code


def _blas_threads(np):
    import ctypes

    libdirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".libs"]
    for libdir in libdirs:
        for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def machine_facts(np, code_sha) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "code_sha256": code_sha,
    }


# ---------------------------------------------------------------------------
# measurement


def set_up(workload, host) -> dict:
    """Set-up time: the median import time of numpy and the package in fresh
    interpreters (an import can only be timed once per process) plus the
    median of in-process set-ups. At reference speed it is divided by the
    median host slowdown sampled between the repeats: a sample taken right
    after a child process exits can read several times high, so a single
    repeat's own bracket is not used."""
    imports, setups, slowdowns = [], [], []
    for _ in range(SETUP_REPEATS):
        slowdowns.append(host.slowdown())
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        slowdowns.append(host.slowdown())
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=120
        )
        imports.append(float(out.stdout))
    raw_s = statistics.median(imports) + statistics.median(setups)
    return {"raw_s": raw_s, "s": raw_s / statistics.median(slowdowns), "imports_s": imports, "setups_s": setups}


def measure(workload, tally, seconds=None, passes=None, tracer=None) -> list:
    """Run passes until `seconds` have elapsed (and at least the workload's
    minimum), or exactly `passes` of them."""
    results = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.trace_id = f"pass{len(results)}"
        results.append(workload.run_pass(tally, tracer))
        if passes is not None:
            if len(results) >= passes:
                return results
        elif time.perf_counter() - start >= seconds and len(results) >= workload.min_passes:
            return results


def check_determinism(name, seed, code_sha, passes, tally) -> dict:
    """Every pass repeats the same inputs, so its artifacts must be
    byte-identical to the first pass's, and to any earlier run of this code
    with the same workload seed."""
    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        tally.check(p.hashes == first.hashes, f"pass {i}: artifact bytes differ from pass 0")
        tally.check(p.nmse_db == first.nmse_db, f"pass {i}: NMSE values differ from pass 0")
    record = OUT / "determinism" / code_sha[:16] / f"{name}-seed{seed}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        tally.check(earlier == first.hashes, f"artifact bytes differ from the earlier run recorded in {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_name(f"{record.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first.hashes, sort_keys=True, indent=1))
        os.replace(tmp, record)
    return first.hashes


def end_to_end(passes, setup_s, reference) -> dict:
    """Rates over the whole timed run, and latency percentiles over every
    sample of it. With `reference`, every time is at the reference host
    speed: each timed call divided by the host's slowdown around it."""
    walls = [p.part_ref_s if reference else p.part_wall_s for p in passes]
    wall_s = sum(sum(w.values()) for w in walls)
    regen_ms = [1e3 * s for p in passes for s in (p.regen_ref_s if reference else p.regen_s)]
    return {
        "setup_s": setup_s,
        "iter_ms": 1e3 * wall_s / sum(p.iterations for p in passes),
        "cells_per_s": sum(p.cells for p in passes) / wall_s,
        "regen_ms.p50": statistics.median(regen_ms),
        "regen_ms.p90": statistics.quantiles(regen_ms, n=10)[8],
        "report_bytes.mean": statistics.fmean(passes[0].report_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced, traced, probe_metrics, tally) -> dict:
    """Traced counters and times per pass, untraced per-mode walls, probes."""
    n = len(traced)
    out = {}
    for layer, counters in LAYER_STATS.items():
        st = tracer.stat(layer)
        for c in counters:
            if c == "diverged":
                value = st.errors.get("FitDivergedError", 0)
            elif c == "errors":
                value = sum(st.errors.values())
            else:
                value = getattr(st, c)
            out[f"{layer}.{c}"] = value / n
    for mode in CLI_MODES:
        walls = [p.part_wall_s[mode] for p in untraced if mode in p.part_wall_s]
        out[f"cli.mode.{mode}.wall_s"] = statistics.median(walls) if walls else 0.0
    out.update(probe_metrics)

    traced_s = sum(p.timed_s for p in traced)
    layer_self = tracer.self_total()
    closure = layer_self + tracer.region_self_s
    tally.check(
        abs(closure - tracer.region_wall_s) <= 1e-6 * tracer.region_wall_s + 1e-6,
        f"traced self times sum to {closure!r} s, traced wall is {tracer.region_wall_s!r} s",
    )
    tally.check(
        abs(tracer.region_wall_s - traced_s) <= 0.02 * traced_s,
        f"traced regions cover {tracer.region_wall_s!r} s of {traced_s!r} s timed",
    )
    out["trace.overhead_frac"] = traced_s / sum(p.timed_s for p in untraced) - 1.0
    out["trace.wall_s"] = tracer.region_wall_s / n
    out["trace.layer_self_s"] = layer_self / n
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unn_csi" / "__init__.py").is_file():
        print(f"error: no unn_csi package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("UNN_CSI_THREADS", None)  # the CLI must not start a process pool

    import numpy as np

    import probes
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    code_sha = _code_sha256()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        host = HostSpeed(cls.host_weights)
        workload = cls(args.seed, workdir, host)
        setup = set_up(workload, host)

        tally = workloads.Tally()
        untraced = measure(workload, tally, seconds=args.seconds)
        hashes = check_determinism(args.workload, args.seed, code_sha, untraced, tally)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, tally, passes=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            check_determinism(args.workload, args.seed, code_sha, untraced[:1] + traced, tally)
            tracer.dump(records / f"{tag}-spans.json")
            metrics = per_layer(tracer, untraced, traced, probes.run_all(), tally)
            units = per_layer_units()
            metrics["nmse_db.mean"] = statistics.fmean(untraced[0].nmse_db)
            metrics["failed_frac"] = tally.failed / tally.attempted
            metrics["check.schema_warnings"] = len(tally.warnings) / (len(untraced) + len(traced))
        else:
            raw = end_to_end(untraced, setup["raw_s"], reference=False)
            metrics = end_to_end(untraced, setup["s"], reference=True)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_facts(np, code_sha)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup": setup,
        "host_slowdowns": host.samples,
        "raw_metrics": raw if not args.trace else None,
        "passes": [
            {
                "part_wall_s": p.part_wall_s, "part_ref_s": p.part_ref_s, "timed_s": p.timed_s,
                "iterations": p.iterations, "cells": p.cells, "regen_s": p.regen_s, "regen_ref_s": p.regen_ref_s,
            }
            for p in untraced
        ],
        "artifact_sha256": hashes,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "warnings": sorted(set(tally.warnings)),
        "metrics": metrics,
    }
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print("machine " + json.dumps(machine, sort_keys=True))
    print(
        f"passes {len(untraced)}  regen samples {sum(len(p.regen_s) for p in untraced)}  "
        f"attempted {tally.attempted}  failed {tally.failed}"
    )
    print(f"host speed: {len(host.samples)} kernel samples, median slowdown {statistics.median(host.samples)!r}")
    if not args.trace:
        for name, value in raw.items():
            print(f"raw {name:36s} {value!r:>24} {units[name]}")
    for msg in tally.failures[:20]:
        print(f"FAILED {msg}")
    for msg in sorted(set(tally.warnings))[:20]:
        print(f"WARNING {msg}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            n: {"value": v if math.isfinite(v) else None, "unit": units[n]} for n, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
