"""LSTM forecasting on a behavioral 16-level memristive crossbar model.

The public names resolve on first use (PEP 562), so ``import xbarlstm``
loads no submodule and no numpy; ``xbarlstm.train`` loads ``training``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CrossbarConfig": "config", "TrainConfig": "config",
    "LstmParams": "kernels", "OutputLayer": "kernels", "sigmoid": "kernels",
    "CrossbarProgram": "crossbar", "crossbar_window_predictions": "crossbar", "level_conductances": "crossbar",
    "monte_carlo": "crossbar", "program_crossbar": "crossbar", "quantize_output_layer": "crossbar",
    "read_program": "crossbar", "reconstruct_weights": "crossbar", "seed_sequence_words": "crossbar",
    "sweep": "crossbar", "write_program": "crossbar",
    "Normalizer": "data", "TimeSeries": "data", "WindowedSeries": "data", "denormalize": "data",
    "fit_normalizer": "data", "load_series": "data", "make_windows": "data", "normalize": "data", "rmse": "data",
    "split": "data",
    "batch_predictions": "training", "train": "training",
    "named_matrices": "weights_io", "packed_shapes": "weights_io", "read_weights": "weights_io",
    "write_weights": "weights_io",
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
