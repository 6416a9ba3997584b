"""Coarsest bisimulation on deterministic labelled transition systems.

Worklist partition refinement with letter-free splitters and smaller-half
scanning: O(m log n) time, O(k + m + n) space on a normalized instance.
Ships with a set-based reference implementation, seeded instance generators,
and a DFA minimizer built on the same engine.
"""

from .bisim import ScanStats, dbisim, init_refine
from .cli import MinimizeReport, minimize_dfa
from .gen import GenConfig, gen_random_dfa, gen_random_dlts, instance_stream
from .lts import (
    Dfa,
    LtsError,
    LtsParseError,
    NondeterminismError,
    NormalizedDlts,
    RawLts,
    format_dfa,
    format_dlts,
    format_partition,
    normalize,
    parse_dfa,
    parse_lts,
    parse_partition,
)
from .oracle import canonical_view, is_bisimulation, naive_fixpoint
from .partition import PartitionError, RefinablePartition

__version__ = "0.1.0"

# The API that README.md documents.  The other names imported above are
# documented under README's "Modules" and stay importable from the package.
__all__ = [
    "Dfa",
    "LtsError",
    "LtsParseError",
    "MinimizeReport",
    "NondeterminismError",
    "NormalizedDlts",
    "PartitionError",
    "RawLts",
    "RefinablePartition",
    "ScanStats",
    "dbisim",
    "format_dfa",
    "format_dlts",
    "format_partition",
    "is_bisimulation",
    "minimize_dfa",
    "naive_fixpoint",
    "normalize",
    "parse_dfa",
    "parse_lts",
    "parse_partition",
]
