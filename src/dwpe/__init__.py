"""Centralized and distributed weighted-prediction-error speech
dereverberation over a simulated fully-connected microphone-node network."""

from . import complexity, danse, dsp, metrics, netsim, room, signals, wpe
from .errors import (
    ConfigurationError,
    DwpeError,
    InvalidInputError,
    NumericalError,
    SolverError,
    UndefinedLagError,
    UndefinedMetricError,
)

__version__ = "0.1.0"
