"""LSTM forecasting on a behavioral 16-level memristive crossbar model."""

from .core import (
    Dims,
    LstmParams,
    OutputLayer,
    sigmoid,
)
from .crossbar import (
    CrossbarConfig,
    CrossbarProgram,
    crossbar_window_predictions,
    level_conductances,
    monte_carlo,
    program_crossbar,
    quantize_output_layer,
    read_program,
    reconstruct_weights,
    write_program,
)
from .data import (
    Normalizer,
    TimeSeries,
    WindowedSeries,
    denormalize,
    fit_normalizer,
    load_series,
    make_windows,
    normalize,
    rmse,
    split,
)
from .training import (
    TrainConfig,
    train,
)
from .weights_io import read_weights, write_weights

__version__ = "0.1.0"
