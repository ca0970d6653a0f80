"""Exact rational certificates for a triangular-array gauge norm.

The package builds finite pieces of a sequence-space construction on the
triangle {(i, j): i >= j >= 1}: 0/1 generator columns, their solid convex
hull, row-disjoint sums with a weak-Lorentz envelope, and the gauge of
the resulting body.  Everything is computed over Fraction and every
inequality ships with a witness that re-validates independently.
"""

from .core import (
    DEFAULT_P,
    LorentzParam,
    TriVector,
    dot,
    is_row_disjoint,
    l2_norm_sq,
    lorentz_l2_constant,
    lorentz_le_sq,
    lorentz_value_sq,
    pairing_vector,
    row_norm_sq,
    row_pairing,
)
from .decompose import (
    DecompositionCertificate,
    DisjointRep,
    MergeResult,
    PartitionResult,
    SplitResult,
    block_conditions_sq,
    column_blocking,
    decompose_average,
    make_disjoint_rep,
    merge_representatives,
    partition_matrix,
    select_subset,
    split_element,
)
from .exact import Interval, format_fraction, parse_fraction
from .gauge import (
    GaugeCertificate,
    GaugeInterval,
    GaugeLowerWitness,
    PairingWitness,
    gauge_interval,
    gauge_lower,
    gauge_upper,
    pairing_witness,
)
from .generators import (
    EnumerationBudgetError,
    GridSeq,
    HullCertificate,
    ZERO_SEQ,
    average_indicators,
    disjointness_degree,
    enumerate_grid_seqs,
    hull_min_scale,
    parse_seq_file,
    seq_file_text,
)
from .micro import ToleranceUnreachableError, tau_micro_oracle
from .report import Report, SweepConfig, TrialRecord
from .sweeps import DEFAULT_TRIALS, SUITES, run_suite

__all__ = [
    "DEFAULT_P",
    "DEFAULT_TRIALS",
    "DecompositionCertificate",
    "DisjointRep",
    "EnumerationBudgetError",
    "GaugeCertificate",
    "GaugeInterval",
    "GaugeLowerWitness",
    "GridSeq",
    "HullCertificate",
    "Interval",
    "LorentzParam",
    "MergeResult",
    "PairingWitness",
    "PartitionResult",
    "Report",
    "SUITES",
    "SplitResult",
    "SweepConfig",
    "ToleranceUnreachableError",
    "TriVector",
    "TrialRecord",
    "ZERO_SEQ",
    "average_indicators",
    "block_conditions_sq",
    "column_blocking",
    "decompose_average",
    "disjointness_degree",
    "dot",
    "enumerate_grid_seqs",
    "format_fraction",
    "gauge_interval",
    "gauge_lower",
    "gauge_upper",
    "hull_min_scale",
    "is_row_disjoint",
    "l2_norm_sq",
    "lorentz_l2_constant",
    "lorentz_le_sq",
    "lorentz_value_sq",
    "make_disjoint_rep",
    "merge_representatives",
    "pairing_vector",
    "pairing_witness",
    "parse_fraction",
    "parse_seq_file",
    "partition_matrix",
    "row_norm_sq",
    "row_pairing",
    "run_suite",
    "select_subset",
    "seq_file_text",
    "split_element",
    "tau_micro_oracle",
]
