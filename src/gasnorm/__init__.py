"""gasnorm: score-driven adaptive normalization for non-stationary forecasting.

A per-feature filter tracks time-varying mean and variance with natural
gradient (inverse-Fisher-scaled score) updates under a Gaussian or
Student's t observation density. The filtered statistics normalize the
input of a downstream residual forecaster and their forecasts
denormalize its output.
"""

from .datagen import ArSpec, LorenzSpec, gen_ar, gen_lorenz
from .errors import FitError, GasNormError, NumericalError, ValidationError, from_keys, to_json
from .evaluation import (
    EvalReport,
    ExperimentSpec,
    emit_report,
    mase,
    run_experiment,
    select_gamma,
)
from .filtering import (
    VARIANCE_FLOOR,
    Family,
    FilterTrace,
    GasParams,
    filter_series,
    forecast_statistics,
)
from .fitting import FitConfig, FitResult, fit, fit_frame, penalized_objective
from .mlp import Activation, MlpSpec, TrainedModel, predict, train
from .normalization import (
    NormalizedBatch,
    NormalizerKind,
    NormalizerSpec,
    denormalize,
    normalize,
)
from .series import SeriesFrame, SplitSpec, load_csv, split, windows, write_csv

__version__ = "0.1.0"
