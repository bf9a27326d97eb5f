"""Deterministic simulator for decentralized learning on heterogeneous data.

Implements gossip-based decentralized SGD with a tracked-update family
that corrects local steps toward the global average update (plus its
momentum, bias-correction and memory-efficient formulations), standard
baselines and ablations, an average-consensus harness, a Dirichlet
non-IID data partitioner and synthetic problems with analytically
controlled heterogeneity.
"""

from .algorithms import (
    AlgorithmSpec,
    HyperparameterCheck,
    State,
    comm_cost,
    init_states,
    run_round,
    validate_hyperparameters,
)
from .harness import (
    EquivalenceReport,
    MetricTrace,
    TrainingResult,
    check_equivalence,
    consensus_error,
    run_consensus,
    run_training,
)
from .models import (
    Batch,
    Problem,
    SyntheticProblemSpec,
    finite_diff_check,
    make_oracle,
    make_problem,
)
from .partition import Partition, dirichlet_partition, partition_histogram
from .topology import (
    MixingMatrix,
    SpectralStats,
    ValidationReport,
    build_topology,
    spectral_stats,
    validate_mixing,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "Batch",
    "EquivalenceReport",
    "HyperparameterCheck",
    "MetricTrace",
    "MixingMatrix",
    "Partition",
    "Problem",
    "SpectralStats",
    "State",
    "SyntheticProblemSpec",
    "TrainingResult",
    "ValidationReport",
    "build_topology",
    "check_equivalence",
    "comm_cost",
    "consensus_error",
    "dirichlet_partition",
    "finite_diff_check",
    "init_states",
    "make_oracle",
    "make_problem",
    "partition_histogram",
    "run_consensus",
    "run_round",
    "run_training",
    "spectral_stats",
    "validate_mixing",
    "validate_hyperparameters",
    "__version__",
]
