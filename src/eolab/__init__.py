"""eolab: a desk-scale workbench for enumeration-order relations.

Decides order-pattern relations exactly on finite listing prefixes,
materializes the quotient poset of patterns, runs a toy enumerator VM
whose halting costs create nontrivial enumeration orders, and searches a
bounded strategy space for set-level relation witnesses.

The public names below are loaded on first use (PEP 562), so importing the
package, or ``eolab.cli``, loads no layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "patterns": (
        "ListingPrefix",
        "OrderPattern",
        "apply_pattern",
        "eo_equiv",
        "eo_leq",
        "pattern_of",
        "uniform",
    ),
    "poset": ("PatternPoset", "build_poset", "export", "max_chain", "sample_antichain"),
    "search": ("SearchBudget", "WitnessReport", "search_eo_witness", "search_uniform_witness"),
    "vm": (
        "DovetailTrace", "EnumeratorProgram", "Scheduler", "dovetail", "parse_program", "schedule"
    ),
}

#: Each public name and the layer that defines it.
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
