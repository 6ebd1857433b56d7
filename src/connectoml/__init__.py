"""Complex-network graph features and neural-network ensembles for
classifying brain connectivity matrices (healthy control vs mild cognitive
impairment).

The top level holds the names the README's quickstart uses and the error
classes; every other name lives in its module (``connectoml.dataio``,
``connectoml.evaluation``, ...).
"""

from .connectome import extract_features, validate_matrix
from .errors import ConnectomlError, NumericalError, ValidationError
from .evaluation import run_experiment
from .neuralnet import TrainConfig
from .sampling import SamplerConfig

__version__ = "0.1.0"
