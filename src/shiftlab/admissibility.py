"""Local admissibility with margins: lex-first completions and counts.

A pattern is *locally admissible* when it contains no forbidden occurrence;
``extendable`` strengthens this by requiring a locally admissible completion
of a surrounding margin.  All searches are deterministic backtracking in a
fixed order — variables row-major over the free cells, values in alphabet
order — so every witness returned is the lexicographically first one.
``extendable`` and ``lex_first_completion`` are the reference route: the
tests check ``core.iter_rect_patterns(spec, h, w, margin)``, the lister of
the blocks that extend, against them.

When the spec's kernel has a filler letter f for the extent of the margin
box (``ShiftSpec`` defines it), every locally admissible block extends by
every margin: fill the ring with f.  A forbidden occurrence that meets the
ring either puts one of its non-f cells on a ring cell, where the letter is
f, or has all its non-f cells in the block; they span its bounding box,
which then lies in the block too.  The lister and ``count_admissible``
then need no ring search.  The lex-first witness of ``extendable`` is not
the all-f ring in general, so ``extendable`` always searches.

So the margin cannot matter at margin 0 or with such a filler, and
``count_admissible`` counts the locally admissible n x n blocks with
``core.count_rect_patterns``, a row transfer over placements of the
kernel's ``window_plan(n)``.  That plan is exact in a full rectangle: a
``window_plan(side)`` pattern occurs in a fully coloured window of extent
at most ``side`` exactly where a pattern of the forbidden list does
(``ShiftSpec``), an n x n block is such a window for side n, and a
forbidden pattern of larger extent does not fit in it.  The red-black
plan's squares have no interior, so they match wherever a listed square
does only because every interior cell is coloured; in a window with holes
they would not.  Without a filler at a positive margin, each block gets
its own ring search, counted on the lister's fill loop, unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Pattern,
    PatternError,
    ShiftSpec,
    _bbox_of,
    _margin_blocks,
    _row_transfer,
    annulus,
    contains_forbidden,
    kernel_of,
    lex_assignments,
)


@dataclass(frozen=True)
class CompletionRegion:
    """A partially colored region: fixed host cells plus cells left to fill.

    ``free_cells`` must be disjoint from the host support; the search fills
    them in row-major order regardless of the order given here.
    """

    host: Pattern
    free_cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set(self.free_cells)
        if len(seen) != len(self.free_cells):
            raise PatternError("duplicate free cells")
        if seen & self.host.support:
            raise PatternError("free cells overlap the host support")


def lex_first_completion(region: CompletionRegion, spec: ShiftSpec) -> Pattern | None:
    """Lex-first locally admissible filling of the region's free cells.

    Returns the completed pattern (host plus assignment), or None when no
    completion exists or the host itself is already inadmissible.
    """
    host = region.host
    if host.alphabet.letters != spec.alphabet.letters:
        raise PatternError("region alphabet does not match spec")
    free = sorted(region.free_cells)
    if not free:
        return host if contains_forbidden(host, spec) is None else None
    state = kernel_of(spec).state(_bbox_of(list(host.support) + free))
    state.load(host.cells)
    if state.scan() is not None:
        return None
    for _ in lex_assignments(state, free, spec.alphabet.letters):
        return Pattern._adopt(spec.alphabet, state.cells)  # noqa: SLF001 - the state dies here
    return None


def extendable(p: Pattern, spec: ShiftSpec, margin: int) -> Pattern | None:
    """Lex-first admissible extension of ``p`` by a margin ring, or None.

    The witness is the full (h+2*margin) x (w+2*margin) pattern with ``p``
    at its centre.  margin 0 degenerates to the local admissibility check.
    """
    if not p.is_rectangular:
        raise PatternError("extendable requires a rectangular pattern")
    if margin < 0:
        raise PatternError("margin must be nonnegative")
    free = tuple(annulus(p.height, p.width, margin))
    return lex_first_completion(CompletionRegion(p.translate(margin, margin), free), spec)


def block_count(spec: ShiftSpec, n: int, margin: int) -> tuple[int, dict]:
    """The count of ``count_admissible`` and how it was reached: ``filler``,
    the kernel's filler for the margin box or None; ``route``,
    ``"row-transfer"`` when the margin cannot matter (margin 0 or a filler)
    and ``"ring-search"`` otherwise; and for the row transfer ``rows``, the
    admissible rows of width n, and ``states``, its largest state dict
    (None on the ring search).

    Raises ``InfeasibleError`` before counting when the row transfer is over
    its bounds (``core.MAX_ROW_WORDS``, ``core.MAX_TRANSFER_STEPS``)."""
    if n < 1:
        raise PatternError("n must be positive")
    if margin < 0:
        raise PatternError("margin must be nonnegative")
    filler = kernel_of(spec).filler(n + 2 * margin)
    if margin and filler is None:
        count = sum(1 for _ in _margin_blocks(spec, n, n, margin))
        return count, {"filler": None, "route": "ring-search", "rows": None, "states": None}
    count, rows, states = _row_transfer(spec, n, n)
    return count, {"filler": filler, "route": "row-transfer", "rows": rows, "states": states}


def count_admissible(spec: ShiftSpec, n: int, margin: int) -> int:
    """Number of locally admissible n x n patterns with an admissible margin
    extension.

    When the spec's kernel has a filler for extent n + 2 * margin, every
    locally admissible pattern extends (module docstring), so this is the
    margin-0 count, taken by a row transfer; otherwise each block gets a
    ring search.  ``block_count`` also says which route ran."""
    return block_count(spec, n, margin)[0]
