"""Guards the calls the benchmark's isolated probes (perfbench/probes.py)
and workloads (perfbench/workloads.py) make into the package, so that a
refactor cannot silently break a benchmark run."""

import importlib.util
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from unn_csi import cli
from unn_csi.decoder import forward, init_params, load_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DESK_SPECS = ["specs/single_ue_desk.json", "specs/group_desk.json"]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve a class's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("spec_file", DESK_SPECS)
def test_probe_runs_at_desk_shapes(spec_file):
    out = load_perfbench("probes").probe(spec_file, 1, (1, 2))
    assert set(out) == {"forward_ms", "fwd_bwd_ms", "batch_norm_ms", "upsample_ms", "adam_loop_ms"}
    assert all(math.isfinite(v) for v in out.values())


@pytest.mark.parametrize("spec_file", DESK_SPECS)
def test_forward_cache_keeps_tensor_layout(spec_file):
    spec = load_spec(str(resources.files("unn_csi").joinpath(spec_file)))
    y, cache = forward(spec, init_params(spec, 1), return_cache=True)
    assert y.shape == spec.output_dims
    assert [c["kind"] for c in cache] == ["bn"] * (spec.n_layers - 1) + ["out"]
    dims = list(spec.input_dims)
    for l, c in enumerate(cache):
        assert c["z_in"].shape == tuple(dims) + (spec.widths[l],)
        if l < spec.inner_count:
            dims = [2 * d if on else d for d, on in zip(dims, spec.upsample_flags[l])]
        if c["kind"] == "bn":
            assert c["u"].shape == tuple(dims) + (spec.widths[l + 1],)
            assert np.all(np.isfinite(c["u"]))


@pytest.mark.parametrize("workload", ["DeskStudy", "FullFit"])
def test_workload_configs_validate(workload, tmp_path):
    # setup() builds every config through cli.build_config and
    # cli.config_from_dict, reads fit_config() and runs one warm-up config
    bench = getattr(load_perfbench("workloads"), workload)(1, tmp_path, None)
    bench.setup()
    for mode, config in bench.configs.items():
        assert not [str(d) for d in cli.validate(config) if d.level == "error"], mode
