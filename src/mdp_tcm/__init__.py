"""Multi-state diagnosis and prognosis for tool condition monitoring.

Sensor runs are normalized and windowed to one spindle rotation, a
cost-sensitive deep belief network diagnoses the tool state, and each
state routes to its own wear regressor. A synthetic run-to-failure
generator provides ground truth for every end-to-end property.
"""

from ._kernels import ACTIVE_BACKEND
from .cost_sensitive import CostVector, predict_cs
from .dbn import DbnModel, TrainConfig
from .metrics import MetricsReport
from .multistate import EcsDbnModel, MultiStateModel, estimate_wear, train_mdp
from .rbm import CdConfig, RbmParams
from .signal_pipeline import ChannelSeries, FrameDataset, WindowSpec
from .synth import SynthConfig, SynthRun

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND",
    "ChannelSeries",
    "CdConfig",
    "CostVector",
    "DbnModel",
    "EcsDbnModel",
    "FrameDataset",
    "MetricsReport",
    "MultiStateModel",
    "RbmParams",
    "SynthConfig",
    "SynthRun",
    "TrainConfig",
    "WindowSpec",
    "estimate_wear",
    "predict_cs",
    "train_mdp",
    "__version__",
]
