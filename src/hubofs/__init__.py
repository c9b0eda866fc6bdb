"""Higher-order Ising (HUBO) feature selection.

Pipeline: tabular data -> mutual-information tensors -> three-body Ising
Hamiltonian with hinge penalties -> low-energy sampling (exhaustive,
simulated annealing, digitized-counterdiabatic statevector) -> importance
scores and a thresholded feature subset, with classical baselines for
comparison.
"""

from .dataset import (
    Dataset,
    DiscretizedDataset,
    discretize,
    load_csv,
    standardize,
    stratified_split,
)
from .errors import CapabilityError, DataError, HubofsError, UsageError
from .hubo import (
    HuboCoefficients,
    SpinConfig,
    apply_penalty,
    build_coefficients,
    energy,
    normalize_global,
    preselect_top_k,
)
from .mi import MiTensors, compute_tensors, cyclic_mi, entropy, mi_joint_pair_single, mi_pair
from .postselect import (
    ImportanceScores,
    SelectionResult,
    importance,
    retain_low_energy,
    threshold_select,
    threshold_sweep,
)
from .samplers import SampleSet, exhaustive_solve, random_sample, simulated_annealing

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DataError",
    "Dataset",
    "DiscretizedDataset",
    "HubofsError",
    "HuboCoefficients",
    "ImportanceScores",
    "MiTensors",
    "SampleSet",
    "SelectionResult",
    "SpinConfig",
    "UsageError",
    "apply_penalty",
    "build_coefficients",
    "compute_tensors",
    "cyclic_mi",
    "discretize",
    "energy",
    "entropy",
    "exhaustive_solve",
    "importance",
    "load_csv",
    "mi_joint_pair_single",
    "mi_pair",
    "normalize_global",
    "preselect_top_k",
    "random_sample",
    "retain_low_energy",
    "simulated_annealing",
    "standardize",
    "stratified_split",
    "threshold_select",
    "threshold_sweep",
]
