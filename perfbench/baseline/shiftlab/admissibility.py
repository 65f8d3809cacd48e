"""Local admissibility with margins: lex-first completions and counts.

A pattern is *locally admissible* when it contains no forbidden occurrence;
``extendable`` strengthens this by requiring a locally admissible completion
of a surrounding margin.  All searches are deterministic backtracking in a
fixed order — variables row-major over the free cells, values in alphabet
order — so every witness returned is the lexicographically first one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .core import (
    Occurrence,
    Pattern,
    PatternError,
    ShiftSpec,
    contains_forbidden,
    enumerate_forbidden,
    iter_rect_patterns,
    run_mask,
)

WORKERS_ENV = "SHIFTLAB_WORKERS"


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


class _DictState:
    """Incremental admissibility oracle backed by the enumerated forbidden
    list.  Suitable when that list is small (hard-square, mirror, user specs)."""

    def __init__(self, spec: ShiftSpec, max_extent: int):
        self.cells: dict[tuple[int, int], str] = {}
        self._plan = [tuple(f.items()) for f in enumerate_forbidden(spec, max_extent)]

    def load(self, cells: dict[tuple[int, int], str]) -> None:
        self.cells.update(cells)

    def assign(self, cell: tuple[int, int], letter: str) -> bool:
        cells = self.cells
        cells[cell] = letter
        r, c = cell
        for fcells in self._plan:
            for (dr, dc), _ in fcells:
                ar, ac = r - dr, c - dc
                for (er, ec), el in fcells:
                    if cells.get((ar + er, ac + ec)) != el:
                        break
                else:
                    del cells[cell]
                    return False
        return True

    def retract(self, cell: tuple[int, int]) -> None:
        del self.cells[cell]


class _RedBlackState:
    """Bitmask oracle for the red-black family.

    Keeps per-row red/black/support masks; an assignment completes a forbidden
    square iff some size-s window containing the new cell has an all-red top
    row, an all-black bottom row, and full support.  Run masks make each check
    O(extent^3) worst case instead of materializing 3^(s(s-2)) patterns.
    """

    def __init__(self, bbox: tuple[int, int, int, int]):
        r0, c0, r1, c1 = bbox
        self._r0, self._c0 = r0, c0
        self.height = r1 - r0 + 1
        self.width = c1 - c0 + 1
        self.red = [0] * self.height
        self.black = [0] * self.height
        self.filled = [0] * self.height
        self.cells: dict[tuple[int, int], str] = {}

    def load(self, cells: dict[tuple[int, int], str]) -> None:
        for (r, c), letter in cells.items():
            self._set(r, c, letter)
        self.cells.update(cells)

    def _set(self, r: int, c: int, letter: str) -> None:
        bit = 1 << (c - self._c0)
        rr = r - self._r0
        self.filled[rr] |= bit
        if letter == "R":
            self.red[rr] |= bit
        elif letter == "B":
            self.black[rr] |= bit

    def _clear(self, r: int, c: int) -> None:
        bit = 1 << (c - self._c0)
        rr = r - self._r0
        self.filled[rr] &= ~bit
        self.red[rr] &= ~bit
        self.black[rr] &= ~bit

    def assign(self, cell: tuple[int, int], letter: str) -> bool:
        r, c = cell
        self._set(r, c, letter)
        if self._completes(r - self._r0, c - self._c0):
            self._clear(r, c)
            return False
        self.cells[cell] = letter
        return True

    def retract(self, cell: tuple[int, int]) -> None:
        r, c = cell
        self._clear(r, c)
        del self.cells[cell]

    def _completes(self, r: int, c: int) -> bool:
        red, black, filled = self.red, self.black, self.filled
        for s in range(2, min(self.height, self.width) + 1):
            lo_t = max(0, r - s + 1)
            hi_t = min(r, self.height - s)
            lo_c = max(0, c - s + 1)
            hi_c = min(c, self.width - s)
            if lo_t > hi_t or lo_c > hi_c:
                continue
            colmask = ((1 << (hi_c - lo_c + 1)) - 1) << lo_c
            for top in range(lo_t, hi_t + 1):
                bot = top + s - 1
                m = run_mask(red[top], s) & colmask
                if not m:
                    continue
                m &= run_mask(black[bot], s)
                if not m:
                    continue
                acc = filled[top]
                for rr in range(top + 1, bot + 1):
                    acc &= filled[rr]
                if run_mask(acc, s) & m:
                    return True
        return False


def _make_state(spec: ShiftSpec, bbox: tuple[int, int, int, int]):
    if spec.name == "red-black":
        return _RedBlackState(bbox)
    r0, c0, r1, c1 = bbox
    return _DictState(spec, max(r1 - r0 + 1, c1 - c0 + 1))


def _search(state, free: list[tuple[int, int]], letters: tuple[str, ...], leaf_ok=None) -> bool:
    """Depth-first lexicographic search; leaves the winning assignment in
    ``state.cells`` and returns True, or exhausts and returns False.

    ``leaf_ok(state)``, when given, vets every full assignment; a rejected
    leaf is treated as a dead end and the search continues."""
    n = len(free)
    if n == 0:
        return leaf_ok is None or leaf_ok(state)
    choice = [-1] * n
    i = 0
    while True:
        if i == n:
            if leaf_ok is None or leaf_ok(state):
                return True
            i -= 1
            state.retract(free[i])
            continue
        nxt = choice[i] + 1
        if nxt >= len(letters):
            choice[i] = -1
            i -= 1
            if i < 0:
                return False
            state.retract(free[i])
            continue
        choice[i] = nxt
        if state.assign(free[i], letters[nxt]):
            i += 1
    # not reached


def lex_first_completion(region: CompletionRegion, spec: ShiftSpec) -> Pattern | None:
    """Lex-first locally admissible filling of the region's free cells.

    Returns the completed pattern (host plus assignment), or None when no
    completion exists or the host itself is already inadmissible.
    """
    host = region.host
    if host.alphabet.letters != spec.alphabet.letters:
        raise PatternError("region alphabet does not match spec")
    if contains_forbidden(host, spec) is not None:
        return None
    free = sorted(region.free_cells)
    if not free:
        return host
    pts = list(host.support) + free
    rs = [r for r, _ in pts]
    cs = [c for _, c in pts]
    bbox = (min(rs), min(cs), max(rs), max(cs))
    state = _make_state(spec, bbox)
    state.load(host.cells)
    if _search(state, free, spec.alphabet.letters):
        return Pattern(spec.alphabet, state.cells)
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
    if contains_forbidden(p, spec) is not None:
        return None
    if margin == 0:
        return p
    host = p.translate(margin, margin)
    height = p.height + 2 * margin
    width = p.width + 2 * margin
    free = tuple(
        (r, c)
        for r in range(height)
        for c in range(width)
        if (r, c) not in host.support
    )
    return lex_first_completion(CompletionRegion(host, free), spec)


def count_admissible(spec: ShiftSpec, n: int, margin: int) -> int:
    """Number of n x n patterns with an admissible margin extension.

    Exhaustive over all |alphabet|^(n*n) candidates.  Set the environment
    variable SHIFTLAB_WORKERS to partition the sweep across threads; the count
    is independent of the partitioning.
    """
    workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    candidates = list(iter_rect_patterns(spec.alphabet, n, n))

    def count_slice(chunk) -> int:
        return sum(1 for q in chunk if extendable(q, spec, margin) is not None)

    if workers <= 1 or len(candidates) < 2 * workers:
        return count_slice(candidates)
    step = (len(candidates) + workers - 1) // workers
    chunks = [candidates[i : i + step] for i in range(0, len(candidates), step)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count_slice, chunks))


def first_violation(p: Pattern, spec: ShiftSpec) -> Occurrence | None:
    """Alias of contains_forbidden, re-exported for callers of this module."""
    return contains_forbidden(p, spec)
