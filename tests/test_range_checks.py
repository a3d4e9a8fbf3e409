"""Each range check on a public input is reached by one input outside its range."""

import re

import numpy as np
import pytest

from _helpers import loads_csv
from gasnorm import (
    ArSpec,
    ExperimentSpec,
    FitConfig,
    LorenzSpec,
    MlpSpec,
    NormalizerKind,
    SeriesFrame,
    SplitSpec,
    mase,
    windows,
)
from gasnorm.errors import ValidationError


def experiment(dataset=ArSpec(length=60), normalizers=(NormalizerKind.GLOBAL_NORM,), **kw):
    return ExperimentSpec(dataset, normalizers, MlpSpec((4,)), SplitSpec(0.6, 0.2, 4, 2), **kw)


# (call, the message it raises)
CASES = {
    "ar_length": (lambda: ArSpec(length=0), "length must be positive"),
    "ar_noise_std": (lambda: ArSpec(noise_std=0.0), "noise_std must be positive"),
    "ar_season_period": (lambda: ArSpec(season_period=-12), "season_period must be positive"),
    "lorenz_steps": (lambda: LorenzSpec(steps=0), "steps must be at least 1, got 0"),
    "lorenz_noise_std": (lambda: LorenzSpec(noise_std=-0.1), "noise_std must be non-negative"),
    "mase_m": (
        lambda: mase(np.ones((2, 1)), np.ones((2, 1)), np.ones((5, 1)), m=0),
        "seasonality m must be positive",
    ),
    "mase_train_length": (
        lambda: mase(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), m=2),
        "training length 2 must exceed m=2",
    ),
    "mase_train_width": (
        lambda: mase(np.ones((2, 2)), np.ones((2, 2)), np.arange(5.0)[:, None]),
        "actual (2, 2), forecast (2, 2) and train (5, 1) must agree in shape,"
        " except in the train's length",
    ),
    "mase_ndim": (
        lambda: mase(np.ones((2, 1, 1)), np.ones((2, 1, 1)), np.ones((5, 1, 1))),
        "actual must be 1-D or 2-D (time, feature), got ndim=3",
    ),
    "experiment_gammas": (lambda: experiment(gammas=(0.5, 1.0)), "gammas must lie in [0, 1)"),
    "experiment_normalizers": (
        lambda: experiment(normalizers=()), "normalizers must be non-empty, got ()"
    ),
    "experiment_gas_norm_gammas": (
        lambda: experiment(normalizers=(NormalizerKind.GAS_NORM,), gammas=()),
        "gammas must be non-empty when gas_norm runs, got ()",
    ),
    "experiment_dataset": (
        lambda: experiment(dataset=3),
        "dataset must be an ArSpec, a LorenzSpec or a csv dataset path (a non-empty string), got 3",
    ),
    "experiment_nu": (
        lambda: experiment(nu=2.0), "nu must exceed 2 for the student_t family, got 2.0"
    ),
    "fit_gamma": (lambda: FitConfig(gamma=-0.1), "gamma must lie in [0, 1)"),
    "mlp_epochs": (
        lambda: MlpSpec(epochs=0),
        "layer_widths, learning_rate, epochs, batch_size must be > 0",
    ),
    "mlp_width": (
        lambda: MlpSpec(layer_widths=(8, 0)),
        "layer_widths, learning_rate, epochs, batch_size must be > 0",
    ),
    "frame_ndim": (
        lambda: SeriesFrame(np.zeros((2, 2, 2))),
        "values must be 2-D (time, feature), got ndim=3",
    ),
    "frame_names": (lambda: SeriesFrame(np.zeros((3, 2)), ["a"]), "1 feature names for 2 columns"),
    "split_val_fraction": (lambda: SplitSpec(0.5, val_fraction=1.0), "val_fraction must be in [0, 1)"),
    "split_horizon": (
        lambda: SplitSpec(0.5, horizon=0),
        "context_length and horizon must be positive",
    ),
    "csv_header_only": (lambda: loads_csv("a,b\n"), "<string>: header but no data rows"),
    "windows_stride": (
        lambda: windows(SeriesFrame(np.zeros((6, 1))), 2, 1, stride=0),
        "context_length, horizon and stride must be positive",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_out_of_range_input_is_named(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
