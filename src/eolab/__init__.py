"""eolab: a desk-scale workbench for enumeration-order relations.

Decides order-pattern relations exactly on finite listing prefixes,
materializes the quotient poset of patterns, runs a toy enumerator VM
whose halting costs create nontrivial enumeration orders, and searches a
bounded strategy space for set-level relation witnesses.
"""

from .patterns import (
    ListingPrefix,
    OrderPattern,
    PairSet,
    apply_pattern,
    ascents,
    eo_equiv,
    eo_leq,
    eo_lt,
    identity,
    incomparable,
    inversions,
    pattern_of,
    prefix_restrict,
    reversal,
    uniform,
)
from .poset import PatternPoset, build_poset, export, max_chain, sample_antichain
from .search import (
    SearchBudget,
    WitnessReport,
    search_eo_witness,
    search_uniform_witness,
)
from .vm import DovetailTrace, EnumeratorProgram, Scheduler, dovetail, parse_program, schedule

__version__ = "0.1.0"

__all__ = [
    "DovetailTrace",
    "EnumeratorProgram",
    "ListingPrefix",
    "OrderPattern",
    "PairSet",
    "PatternPoset",
    "Scheduler",
    "SearchBudget",
    "WitnessReport",
    "apply_pattern",
    "ascents",
    "build_poset",
    "dovetail",
    "eo_equiv",
    "eo_leq",
    "eo_lt",
    "export",
    "identity",
    "incomparable",
    "inversions",
    "max_chain",
    "parse_program",
    "pattern_of",
    "prefix_restrict",
    "reversal",
    "sample_antichain",
    "schedule",
    "search_eo_witness",
    "search_uniform_witness",
    "uniform",
]
