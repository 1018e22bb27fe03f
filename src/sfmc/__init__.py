"""Semi-supervised multi-task feature selection toolkit.

The top level exports what a script needs to make or load a dataset, fit,
rank and benchmark; the solver's and the graph's building blocks stay in
sfmc.solver and sfmc.graph.
"""

from .dataset import (SynthConfig, ValidationError, apply_label_fraction,
                      generate_synthetic, load_manifest, write_manifest)
from .select_eval import rank_features, run_experiment, select_top
from .solver import Hyperparams, NumericalError, fit, load_selection_model

__version__ = "0.1.0"
