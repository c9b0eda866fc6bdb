"""Higher-order Ising (HUBO) feature selection.

Pipeline: tabular data -> mutual-information tensors -> three-body Ising
Hamiltonian with hinge penalties -> low-energy sampling (exhaustive,
simulated annealing, digitized-counterdiabatic statevector) -> importance
scores and a thresholded feature subset, with classical baselines for
comparison.

Importing the package loads numpy with one OpenBLAS thread, unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set;
``os.environ`` is left as it was (see README).
"""

import os

# OpenBLAS sizes its pool once, when numpy loads it, and reads the variable only then,
# so it is set for that import and removed again: child processes see the caller's own.
# One thread took less CPU time on every table timed and no more wall time (see README).
# A count the caller set in any of the variables OpenBLAS reads wins; setdefault would
# override OMP_NUM_THREADS.
_set_blas_threads = not any(
    os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _set_blas_threads:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy  # noqa: E402,F401

if _set_blas_threads:
    del os.environ["OPENBLAS_NUM_THREADS"]

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
    normalize_global,
    preselect_top_k,
)
from .mi import MiTensors, compute_tensors, mi_pair
from .postselect import importance, retain_low_energy, threshold_select
from .samplers import SampleSet, exhaustive_solve, random_sample, simulated_annealing

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DataError",
    "Dataset",
    "DiscretizedDataset",
    "HubofsError",
    "HuboCoefficients",
    "MiTensors",
    "SampleSet",
    "SpinConfig",
    "UsageError",
    "apply_penalty",
    "build_coefficients",
    "compute_tensors",
    "discretize",
    "exhaustive_solve",
    "importance",
    "load_csv",
    "mi_pair",
    "normalize_global",
    "preselect_top_k",
    "random_sample",
    "retain_low_energy",
    "simulated_annealing",
    "standardize",
    "stratified_split",
    "threshold_select",
]
