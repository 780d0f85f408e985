"""Recreate MIMO-OFDM channel tensors by fitting small under-parameterized
decoders to noisy measurements, transfer the fitted weights between
neighboring users, jointly recreate user groups with a 4-way decoder, and
serialize the result into a compact CSI report.
"""

from .tensors import make_upsampler, mode_product
from .decoder import (
    DecoderSpec,
    ParamSet,
    SeedRule,
    batch_norm,
    compression_ratio,
    forward,
    generate_seed,
    init_params,
    param_count,
)
from .channel import (
    ChannelTensor,
    PreprocessedTarget,
    Scatterer,
    Scene,
    UserTrack,
    add_noise,
    load_scene,
    postprocess,
    preprocess,
    split_users,
    stack_users,
    synthesize,
)
from .fitting import FitConfig, FitDivergedError, FitReport, fit, gradient, loss
from .transfer import TransferPlan, TransferStep, weight_distance
from .baselines import mmse_genie, mmse_raw, nmse, sweep
from .codec import decode, encode, recreate

__version__ = "0.1.0"
