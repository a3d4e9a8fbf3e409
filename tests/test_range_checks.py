"""Each range check on a public input is reached by one input outside its range."""

import re

import numpy as np
import pytest

from _helpers import loads_csv
from gasnorm import (
    ArSpec,
    ExperimentSpec,
    FitConfig,
    GasParams,
    LorenzSpec,
    MlpSpec,
    NormalizerKind,
    SeriesFrame,
    SplitSpec,
    from_keys,
    mase,
    to_json,
    windows,
)
from gasnorm.errors import ValidationError


def experiment(dataset=ArSpec(length=60), normalizers=(NormalizerKind.GLOBAL_NORM,), **kw):
    return ExperimentSpec(dataset, normalizers, MlpSpec((4,)), SplitSpec(0.6, 0.2, 4, 2), **kw)


# (call, the message it raises)
CASES = {
    "ar_length": (lambda: ArSpec(length=0), "length must be at least 1, got 0"),
    "ar_noise_std": (lambda: ArSpec(noise_std=0.0), "noise_std must be above 0, got 0.0"),
    "ar_season_period": (
        lambda: ArSpec(season_period=-12), "season_period must be at least 1, got -12"
    ),
    # fields are checked in order, so failing on a later field shows that a closed end
    # (dt=0.05 here, alpha_mu=0.0 in gas_beta) was accepted
    "lorenz_steps": (lambda: LorenzSpec(dt=0.05, steps=0), "steps must be at least 1, got 0"),
    "lorenz_dt": (lambda: LorenzSpec(dt=0), "dt must be in (0, 0.05], got 0.0"),
    "lorenz_noise_std": (
        lambda: LorenzSpec(noise_std=-0.1), "noise_std must be at least 0, got -0.1"
    ),
    "gas_beta": (
        lambda: GasParams(alpha_mu=0.0, beta_mu=-1.0), "beta_mu must be in (-1, 1), got -1.0"
    ),
    "gas_nu": (
        lambda: GasParams(nu=2.0), "nu must exceed 2 for the student_t family, got 2.0"
    ),
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
    "experiment_gammas": (
        lambda: experiment(gammas=(0.5, 1.0)), "gammas entry 1 must be in [0, 1), got 1.0"
    ),
    "experiment_config_gammas": (
        lambda: from_keys(ExperimentSpec, {**to_json(experiment()), "dataset": "ar.csv",
                                           "gammas": [0.5, 1.5]}, "experiment config"),
        "experiment config: gammas entry 1 must be in [0, 1), got 1.5",
    ),
    "experiment_seeds": (
        lambda: experiment(seeds=(0, -1)), "seeds entry 1 must be at least 0, got -1"
    ),
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
    "fit_gamma": (lambda: FitConfig(gamma=-0.1), "gamma must be in [0, 1), got -0.1"),
    "fit_nu": (
        lambda: FitConfig(nu=1.5), "nu must exceed 2 for the student_t family, got 1.5"
    ),
    "mlp_epochs": (lambda: MlpSpec(epochs=0), "epochs must be at least 1, got 0"),
    "mlp_learning_rate": (
        lambda: MlpSpec(learning_rate=0.0), "learning_rate must be above 0, got 0.0"
    ),
    "mlp_width": (
        lambda: MlpSpec(layer_widths=(8, 0)), "layer_widths entry 1 must be at least 1, got 0"
    ),
    "frame_ndim": (
        lambda: SeriesFrame(np.zeros((2, 2, 2))),
        "values must be 2-D (time, feature), got ndim=3",
    ),
    "frame_names": (lambda: SeriesFrame(np.zeros((3, 2)), ["a"]), "1 feature names for 2 columns"),
    "split_train_fraction": (
        lambda: SplitSpec(1.0), "train_fraction must be in (0, 1), got 1.0"
    ),
    "split_val_fraction": (
        lambda: SplitSpec(0.5, val_fraction=1.0), "val_fraction must be in [0, 1), got 1.0"
    ),
    "split_horizon": (lambda: SplitSpec(0.5, horizon=0), "horizon must be at least 1, got 0"),
    "csv_header_only": (lambda: loads_csv("a,b\n"), "<string>: header but no data rows"),
    "windows_stride": (
        lambda: windows(SeriesFrame(np.zeros((6, 1))), 2, 1, stride=0),
        "stride must be at least 1, got 0",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_out_of_range_input_is_named(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
