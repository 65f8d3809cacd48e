"""shiftlab: a workbench for two-dimensional symbolic dynamics.

Subpackages:

* ``core`` — patterns, alphabets, shift specifications, forbidden-pattern
  enumeration and occurrence scanning;
* ``admissibility`` — margin-bounded lex-first completions and counts;
* ``complexity`` — the exact resource-bounded descriptional-complexity
  oracle (a fixed tiny machine) and searches built on it;
* ``deepshift`` — hierarchical block families, membership, reconstruction,
  two-part codes, archives;
* ``lowcfg`` — low-description-complexity square configurations for
  nearest-neighbour constraints;
* ``epitomes`` — pattern summaries enforced by window constructions, with
  exhaustive small-instance verification;
* ``cli`` — the ``shiftlab`` command-line interface.
"""

__version__ = "0.1.0"
