"""eolab: a desk-scale workbench for enumeration-order relations.

Decides order-pattern relations exactly on finite listing prefixes,
materializes the quotient poset of patterns, runs a toy enumerator VM
whose halting costs create nontrivial enumeration orders, and searches a
bounded strategy space for set-level relation witnesses.

Each name is imported from the layer that defines it, as in ``from
eolab.patterns import pattern_of``; importing ``eolab`` loads no layer.
"""

__version__ = "0.1.0"
