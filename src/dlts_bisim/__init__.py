"""Coarsest bisimulation on deterministic labelled transition systems.

Worklist partition refinement with letter-free splitters and smaller-half
scanning: O(m log n) time, O(k + m + n) space on a normalized instance.
Ships with a set-based reference implementation, seeded instance generators,
and a DFA minimizer built on the same engine.
"""

from .bisim import DEBUG_ENV, ScanStats, dbisim, init_refine
from .cli import MinimizeReport, bench_rows, main, minimize_dfa
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
from .oracle import (
    GenConfig,
    canonical_view,
    dfa_language_equivalent,
    gen_random_dfa,
    gen_random_dlts,
    instance_stream,
    is_bisimulation,
    naive_fixpoint,
)
from .partition import PartitionError, RefinablePartition

__version__ = "0.1.0"

# The API that README.md documents.  The other names imported above stay
# importable from the package; the tests and the benchmark use some of them.
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
