"""Patterns, alphabets, and shift specifications.

Conventions used throughout the package:

* Coordinates are ``(row, col)`` with rows increasing downward.  A rectangular
  h x w pattern is anchored at the origin and occupies ``[0, h) x [0, w)``.
* The canonical order on same-shape rectangular patterns is lexicographic on
  the row-major letter sequence (top row first), letters ordered as in the
  alphabet.
* Text serialization: first line ``"<width> <height> <alphabet size>"``,
  followed by ``height`` rows of single-character letters, ``'.'`` marking
  cells outside the support.  Alphabet size 2 means letters ``0 1``, size 3
  means ``B W R``.  Patterns are re-anchored at their bounding-box origin when
  serialized.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class PatternError(ValueError):
    """Malformed pattern, alphabet mismatch, or bad geometry."""


class InfeasibleError(RuntimeError):
    """Parameters outside the feasible regime, or a search space provably
    exhausted (e.g. a threshold above the literal bound)."""


class Alphabet:
    """An ordered finite alphabet of single-character letters.  Immutable;
    alphabets with the same letters are equal and hash alike."""

    def __init__(self, letters: tuple[str, ...]):
        if len(set(letters)) != len(letters):
            raise PatternError(f"duplicate letters in alphabet {letters!r}")
        for a in letters:
            if len(a) != 1 or a == ".":
                raise PatternError(f"letters must be single non-dot characters, got {a!r}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __repr__(self) -> str:
        return f"Alphabet(letters={self.letters!r})"

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise PatternError(f"letter {letter!r} not in alphabet {self.letters!r}") from None

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    @property
    def letter_bits(self) -> int:
        """Bits per letter of a fixed-width code: ceil(log2 |alphabet|)."""
        return (len(self.letters) - 1).bit_length()


BINARY = Alphabet(("0", "1"))
BWR = Alphabet(("B", "W", "R"))

_ALPHABET_BY_SIZE = {2: BINARY, 3: BWR}


class Pattern:
    """A finite partial configuration: a map from cells to letters.

    Instances are immutable.  Rectangular patterns (support exactly
    ``[0, h) x [0, w)``) are the common case; sparse supports are allowed and
    arise for forbidden patterns with gaps and for border rings.

    A pattern is held in one of two forms.  A nonempty rectangle built from
    row strings (``make_pattern`` and the builders on it, ``from_text`` of a
    body without ``.``, ``subpattern`` of a rectangle) keeps its rows and
    builds its cell map only on the first cell-level access: ``at``,
    ``items``, ``cells``, ``support``, ``in`` and the hash.  Every other
    pattern holds its cell map, and a rectangular one keeps its rows once
    ``rows()`` has computed them.  Both forms answer every query alike.
    """

    __slots__ = ("alphabet", "_map", "_rows", "_bbox", "_hash")

    def __init__(self, alphabet: Alphabet, cells: dict[tuple[int, int], str]):
        self._take(alphabet, dict(cells))

    @classmethod
    def _adopt(
        cls,
        alphabet: Alphabet,
        cells: dict[tuple[int, int], str],
        box: tuple[int, int, int, int] | None = None,
    ) -> "Pattern":
        """A pattern that takes over ``cells`` without copying it.  For a
        dict whose owner is thrown away, so nothing else changes it.  A
        caller that knows the bounding box of ``cells`` passes it as ``box``."""
        p = cls.__new__(cls)
        p._take(alphabet, cells, box)
        return p

    @classmethod
    def _from_rows(cls, alphabet: Alphabet, rows: Sequence[str]) -> "Pattern":
        """The rectangle whose rows are ``rows``, all of one length, held as
        its rows; the empty pattern when there are no cells."""
        if not rows or not rows[0]:
            return cls._adopt(alphabet, {})
        if "".join(rows).strip("".join(alphabet.letters)):  # a letter outside
            for r, line in enumerate(rows):
                for c, letter in enumerate(line):
                    if letter not in alphabet:
                        raise PatternError(f"letter {letter!r} at {(r, c)} not in alphabet")
        p = cls.__new__(cls)
        object.__setattr__(p, "alphabet", alphabet)
        object.__setattr__(p, "_map", None)
        object.__setattr__(p, "_rows", tuple(rows))
        object.__setattr__(p, "_bbox", (0, 0, len(rows) - 1, len(rows[0]) - 1))
        object.__setattr__(p, "_hash", None)
        return p

    def _take(
        self,
        alphabet: Alphabet,
        cells: dict[tuple[int, int], str],
        box: tuple[int, int, int, int] | None = None,
    ) -> None:
        if not set(cells.values()).issubset(alphabet.letters):
            for (r, c), letter in cells.items():
                if letter not in alphabet:
                    raise PatternError(f"letter {letter!r} at {(r, c)} not in alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_map", cells)
        object.__setattr__(self, "_rows", None)
        if box is None and cells:
            box = _bbox_of(cells)
        object.__setattr__(self, "_bbox", box)
        object.__setattr__(self, "_hash", None)

    @property
    def _cells(self) -> dict[tuple[int, int], str]:
        """The cell map, built from the rows on first use."""
        cells = self._map
        if cells is None:
            cells = {(r, c): a for r, line in enumerate(self._rows) for c, a in enumerate(line)}
            object.__setattr__(self, "_map", cells)
        return cells

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Pattern is immutable")

    # -- geometry ---------------------------------------------------------

    @property
    def cells(self) -> dict[tuple[int, int], str]:
        return dict(self._cells)

    @property
    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._cells)

    @property
    def bbox(self) -> tuple[int, int, int, int] | None:
        """(rmin, cmin, rmax, cmax), or None for the empty pattern."""
        return self._bbox

    @property
    def height(self) -> int:
        return 0 if self._bbox is None else self._bbox[2] - self._bbox[0] + 1

    @property
    def width(self) -> int:
        return 0 if self._bbox is None else self._bbox[3] - self._bbox[1] + 1

    @property
    def extent(self) -> int:
        return max(self.height, self.width)

    @property
    def is_rectangular(self) -> bool:
        if self._bbox is None or self._map is None:
            return True
        r0, c0, _, _ = self._bbox
        return (r0, c0) == (0, 0) and len(self._map) == self.height * self.width

    def at(self, r: int, c: int) -> str | None:
        return self._cells.get((r, c))

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self._cells

    def __len__(self) -> int:
        if self._map is None:
            return len(self._rows) * len(self._rows[0])
        return len(self._map)

    def items(self):
        return self._cells.items()

    # -- derived forms ----------------------------------------------------

    def rows(self) -> list[str]:
        """Row strings for a rectangular pattern."""
        return list(self._row_tuple())

    def _row_tuple(self) -> tuple[str, ...]:
        """The rows, computed from the cell map once and kept."""
        rows = self._rows
        if rows is None:
            if not self.is_rectangular:
                raise PatternError("rows() requires a rectangular pattern")
            cells = self._map
            rows = tuple(
                "".join([cells[(r, c)] for c in range(self.width)]) for r in range(self.height)
            )
            object.__setattr__(self, "_rows", rows)
        return rows

    def translate(self, dr: int, dc: int) -> "Pattern":
        return Pattern(self.alphabet, {(r + dr, c + dc): a for (r, c), a in self._cells.items()})

    def reanchored(self) -> "Pattern":
        if self._bbox is None:
            return self
        r0, c0, _, _ = self._bbox
        if (r0, c0) == (0, 0):
            return self
        return self.translate(-r0, -c0)

    def union(self, other: "Pattern") -> "Pattern":
        if self.alphabet.letters != other.alphabet.letters:
            raise PatternError("union requires a common alphabet")
        merged = dict(self._cells)
        for cell, letter in other._cells.items():
            if merged.get(cell, letter) != letter:
                raise PatternError(f"conflicting letters at {cell}")
            merged[cell] = letter
        return Pattern(self.alphabet, merged)

    def lex_key(self) -> tuple[int, ...]:
        """Row-major letter indices over the sorted support."""
        if self._map is None:
            idx = {a: i for i, a in enumerate(self.alphabet.letters)}
            return tuple(map(idx.__getitem__, "".join(self._rows)))
        idx = self.alphabet.index
        return tuple(idx(self._map[cell]) for cell in sorted(self._map))

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern) or self.alphabet.letters != other.alphabet.letters:
            return False
        if self._map is None or other._map is None:  # a rows-held rectangle
            return (
                self.is_rectangular
                and other.is_rectangular
                and self._row_tuple() == other._row_tuple()
            )
        return self._map == other._map

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.alphabet.letters, frozenset(self._cells.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_rectangular:
            return f"Pattern({self.height}x{self.width} {'/'.join(self._row_tuple())})"
        return f"Pattern(sparse {len(self)} cells)"

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        p = self.reanchored()
        header = f"{p.width} {p.height} {len(self.alphabet)}"
        if p.is_rectangular:
            lines = p._row_tuple()
        else:
            lines = [
                "".join(p._map.get((r, c), ".") for c in range(p.width))
                for r in range(p.height)
            ]
        return "\n".join([header, *lines]) + "\n"

    @staticmethod
    def from_text(text: str) -> "Pattern":
        lines = text.splitlines()
        if not lines:
            raise PatternError("empty pattern file")
        head = lines[0].split()
        if len(head) != 3:
            raise PatternError(f"bad header {lines[0]!r}")
        try:
            w, h, size = (int(x) for x in head)
        except ValueError:
            raise PatternError(f"bad header {lines[0]!r}") from None
        alphabet = _ALPHABET_BY_SIZE.get(size)
        if alphabet is None:
            raise PatternError(f"unsupported alphabet size {size}")
        body = lines[1 : 1 + h]
        if len(body) != h:
            raise PatternError(f"expected {h} rows, found {len(body)}")
        if any(line.strip() for line in lines[1 + h :]):
            raise PatternError(f"text follows the {h} rows")
        for r, line in enumerate(body):
            if len(line) != w:
                raise PatternError(f"row {r} has length {len(line)}, expected {w}")
        if not any("." in line for line in body):
            return Pattern._from_rows(alphabet, body)
        cells = {
            (r, c): ch for r, line in enumerate(body) for c, ch in enumerate(line) if ch != "."
        }
        return Pattern(alphabet, cells)

    def render(self) -> str:
        """The grid body alone (no header), '.' for absent cells."""
        return "".join(line + "\n" for line in self.to_text().splitlines()[1:])


def make_pattern(rows: Iterable[str], alphabet: Alphabet | None = None) -> Pattern:
    """Build a rectangular pattern from row strings (top row first).

    The alphabet is inferred when omitted: rows over {0,1} give the binary
    alphabet, rows over {B,W,R} the three-letter one.
    """
    rows = list(rows)
    if any(len(r) != len(rows[0]) for r in rows):
        raise PatternError("ragged rows")
    if alphabet is None:
        used = set("".join(rows))
        if used <= {"0", "1"}:
            alphabet = BINARY
        elif used <= {"B", "W", "R"}:
            alphabet = BWR
        else:
            raise PatternError(f"cannot infer alphabet from letters {sorted(used)}")
    return Pattern._from_rows(alphabet, rows)


def word_square(word: str, n: int, alphabet: Alphabet | None = None) -> Pattern:
    """The n x n pattern whose row-major letters are ``word`` (n * n letters)."""
    return make_pattern((word[r * n : r * n + n] for r in range(n)), alphabet)


def tile(blocks: Sequence[Pattern], grid: Sequence[Sequence[int]]) -> Pattern:
    """``blocks[grid[i][j]]`` at block row i, block column j: the blocks are
    rectangles of one shape h x w, so cell (r, c) of the block at (i, j)
    lands at (i * h + r, j * w + c).  Each block's rows are read once."""
    if len({(b.height, b.width) for b in blocks}) > 1:
        raise PatternError("blocks must share a shape")
    rows_of = [b.rows() for b in blocks]
    h = blocks[0].height
    return make_pattern(
        ("".join(rows_of[ix][r] for ix in line) for line in grid for r in range(h)),
        blocks[0].alphabet,
    )


def annulus(h: int, w: int, width: int) -> list[tuple[int, int]]:
    """The cells of the (h + 2 * width) x (w + 2 * width) box anchored at the
    origin that lie outside its central h x w rectangle, row-major; every
    cell of the box when h <= 0 or w <= 0."""
    cols = range(w + 2 * width)
    sides = [*range(width), *range(width + w, len(cols))] if w > 0 else cols
    return [
        (r, c)
        for r in range(h + 2 * width)
        for c in (sides if width <= r < width + h else cols)
    ]


def subpattern(p: Pattern, rect: tuple[int, int, int, int]) -> Pattern:
    """Restriction of ``p`` to ``rect = (r0, c0, h, w)``, re-anchored at the origin.

    Every cell of the rectangle must lie in the support of ``p``.  A cut of
    a rectangle is made of slices of its rows and holds them.
    """
    r0, c0, h, w = rect
    if h < 0 or w < 0:
        raise PatternError(f"bad rectangle {rect}")
    if p.is_rectangular and 0 <= r0 and r0 + h <= p.height and 0 <= c0 and c0 + w <= p.width:
        rows = p._row_tuple()[r0 : r0 + h]  # noqa: SLF001 - read only
        return Pattern._from_rows(p.alphabet, [row[c0 : c0 + w] for row in rows])
    src = p._cells  # noqa: SLF001 - read only
    cells = {}
    for r in range(h):
        for c in range(w):
            letter = src.get((r0 + r, c0 + c))
            if letter is None:
                raise PatternError(f"rectangle {rect} leaves the support at {(r0 + r, c0 + c)}")
            cells[(r, c)] = letter
    return Pattern._adopt(p.alphabet, cells, (0, 0, h - 1, w - 1) if h and w else None)


def invert(p: Pattern) -> Pattern:
    """Swap the two letters of a binary pattern."""
    if p.alphabet.letters != BINARY.letters:
        raise PatternError("invert is defined for binary patterns only")
    flip = {"0": "1", "1": "0"}
    return Pattern(p.alphabet, {cell: flip[a] for cell, a in p.items()})


# ---------------------------------------------------------------------------
# Shift specifications
# ---------------------------------------------------------------------------


class Occurrence(NamedTuple):
    """A forbidden pattern found in a host: which one, and where.

    ``anchor`` is the translation applied to the forbidden pattern, i.e. the
    forbidden cell (dr, dc) matched host cell (anchor[0]+dr, anchor[1]+dc).
    """

    forbidden_index: int
    anchor: tuple[int, int]


class ShiftSpec:
    """A shift of finite (or countable, extent-bounded) type.

    ``enumerator(max_extent)`` returns the nonempty forbidden patterns of
    extent at most ``max_extent``, each anchored at the origin, as a tuple;
    it must be deterministic and prefix-closed (the list for a smaller extent
    is a prefix of the list for a larger one).
    ``forbidden_index`` values refer to positions in this list.

    ``kernel`` is an optional fast path for families whose forbidden lists
    grow too fast to materialize.  It must give the answers of
    ``GenericKernel``, which derives them from ``enumerator`` when ``kernel``
    is None: ``state(bbox)``, an incremental oracle over cells inside
    ``bbox`` with ``cells``, ``load(cells)`` (no check; a loaded letter
    overwrites the one a cell held), ``assign(cell, letter)`` on an empty
    cell (False, assigning nothing, when the letter completes a forbidden
    pattern), ``retract(cell)`` and ``scan()``, the first forbidden
    occurrence in a pattern of ``cells``;
    ``window_plan(side)``, forbidden patterns as cell tuples
    (``((row, col), letter)`` pairs, anchored at the origin) that occur in
    any fully colored window of extent at most ``side`` exactly where some
    pattern of the forbidden list does, so a window check can test
    placements of a short list in place of the listed patterns; and
    ``filler(max_extent)``, a letter f such that, in every forbidden
    pattern of extent at most ``max_extent``, the cells not labelled f are
    nonempty and span the pattern's bounding box, or None when no letter
    qualifies.  Filling every cell around a locally admissible rectangle with
    f then completes no forbidden pattern: an occurrence that puts a non-f
    cell outside fails there, and one whose non-f cells all lie inside has
    its whole bounding box inside.

    Specs are immutable and compare by all four fields; the repr shows the
    name and the alphabet only.
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        enumerator: Callable[[int], tuple[Pattern, ...]],
        kernel: object | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "enumerator", enumerator)
        object.__setattr__(self, "kernel", kernel)

    def __setattr__(self, *a):
        raise AttributeError("ShiftSpec is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.alphabet, self.enumerator, self.kernel) == (
            other.name, other.alphabet, other.enumerator, other.kernel
        )

    def __hash__(self) -> int:
        return hash((self.name, self.alphabet, self.enumerator, self.kernel))

    def __repr__(self) -> str:
        return f"ShiftSpec(name={self.name!r}, alphabet={self.alphabet!r})"

    @functools.cached_property
    def _generic_kernel(self) -> "GenericKernel":
        return GenericKernel(self.alphabet, self.enumerator)


def kernel_of(spec: ShiftSpec):
    """The spec's own kernel, or the generic one derived from its enumerator."""
    return spec._generic_kernel if spec.kernel is None else spec.kernel  # noqa: SLF001


def contains_forbidden(p: Pattern, spec: ShiftSpec) -> Occurrence | None:
    """First forbidden occurrence in ``p``: anchors scanned row-major, and at
    each anchor the forbidden list is consulted in index order.  None if the
    pattern is locally admissible."""
    if p.alphabet.letters != spec.alphabet.letters:
        raise PatternError(f"pattern alphabet does not match spec {spec.name!r}")
    if p.bbox is None:
        return None
    state = kernel_of(spec).state(p.bbox)
    state.load(p._cells)  # noqa: SLF001 - states copy what they load
    return state.scan()


def lex_assignments(state, free: list[tuple[int, int]], letters: tuple[str, ...]) -> Iterator[None]:
    """Depth-first search over ``free`` (filled in the given order, letters in
    the given order) on an incremental ``state``: yields once per admissible
    assignment, in lexicographic order, with the assignment in
    ``state.cells`` while suspended.  The consumer may change the state
    between yields if it restores it."""
    assign, retract, k = state.assign, state.retract, len(letters)
    n = len(free)
    choice = [-1] * n
    i = 0
    while True:
        if i < n:
            nxt = choice[i] + 1
            if nxt < k:
                choice[i] = nxt
                if assign(free[i], letters[nxt]):
                    i += 1
                continue
            choice[i] = -1
        else:
            yield
        i -= 1
        if i < 0:
            return
        retract(free[i])


def completable(state, free: list[tuple[int, int]], letters: tuple[str, ...]) -> bool:
    """Whether ``free`` admits a locally admissible filling on ``state``;
    leaves the state as it found it."""
    for _ in lex_assignments(state, free, letters):
        for cell in reversed(free):
            state.retract(cell)
        return True
    return False


def iter_rect_patterns(spec: ShiftSpec, h: int, w: int, margin: int = 0) -> Iterator[Pattern]:
    """The locally admissible h x w patterns of ``spec`` whose ring of width
    ``margin`` has a locally admissible filling (the contract of
    ``admissibility.extendable``), in canonical (row-major lexicographic)
    order: all |alphabet|^(h*w) of them when the spec forbids nothing.

    The patterns are listed from the rows of the row transfer, each held as
    its rows (``_row_blocks``).  With a filler for the extent of the margin
    box every locally admissible pattern extends (``ShiftSpec``), so only a
    positive margin without one searches a ring per block
    (``_margin_blocks``).

    Raises ``InfeasibleError`` before building any pattern when more than
    ``MAX_CANDIDATES`` locally admissible h x w patterns exist, counted by
    ``count_rect_patterns``, or when that count is over its own bounds."""
    if margin < 0:
        raise PatternError("margin must be nonnegative")
    structure = _row_structure(spec, h, w)
    count = _row_transfer(structure, h)[0]
    if count > MAX_CANDIDATES:
        raise InfeasibleError(
            f"{count} admissible {h}x{w} patterns of {spec.name} exceed the "
            f"{MAX_CANDIDATES} a check lists; lower the size"
        )
    if margin and kernel_of(spec).filler(max(h, w) + 2 * margin) is None:
        box = (0, 0, h - 1, w - 1) if h and w else None
        return (
            Pattern._adopt(spec.alphabet, dict(cells), box)
            for cells in _margin_blocks(spec, h, w, margin)
        )
    return _row_blocks(spec.alphabet, h, *structure)


def _margin_blocks(
    spec: ShiftSpec, h: int, w: int, margin: int
) -> Iterator[dict[tuple[int, int], str]]:
    """The ring search: yields ``state.cells`` holding each locally
    admissible h x w pattern at the origin whose ring of width ``margin``
    has a locally admissible filling, in canonical order, under the
    ``lex_assignments`` contract.  One state covers the margin box, ring
    cells at negative coordinates and past row h - 1 or column w - 1; the
    interior is filled first, then the ring, and a state rejects an
    occurrence when its last cell is assigned, so the ring search succeeds
    iff ``extendable`` finds a witness.  It fills cell by cell and reads no
    row transfer, so at margin 0 it lists what ``_row_blocks`` lists by
    another route."""
    state = kernel_of(spec).state((-margin, -margin, h + margin - 1, w + margin - 1))
    interior = [(r, c) for r in range(h) for c in range(w)]
    letters = spec.alphabet.letters
    ring = [(r - margin, c - margin) for r, c in annulus(h, w, margin)]
    for _ in lex_assignments(state, interior, letters):
        if not ring or completable(state, ring, letters):
            yield state.cells


def _row_blocks(
    alphabet: Alphabet, h: int, rows: list[str], depth: int, allowed: Callable
) -> Iterator[Pattern]:
    """The patterns of h rows of ``rows`` in which ``allowed`` admits every
    row after the history of the at most ``depth`` rows above it (see
    ``_row_structure``), depth first with row indices taken lowest first:
    ``rows`` is in lexicographic order, so the patterns come in canonical
    order."""
    if not h:
        yield Pattern._from_rows(alphabet, ())
        return
    chosen: list[int] = []  # the row index at each row placed so far
    untried = [allowed(())]  # per row being placed, the rows not yet tried
    while untried:
        m = untried[-1]
        if not m:
            untried.pop()
            if chosen:
                chosen.pop()
            continue
        low = m & -m
        untried[-1] = m ^ low
        chosen.append(low.bit_length() - 1)
        if len(chosen) < h:
            untried.append(allowed(tuple(chosen[max(len(chosen) - depth, 0):])))
        else:
            yield Pattern._from_rows(alphabet, [rows[i] for i in chosen])
            chosen.pop()


# Refusal bounds of the row transfer, both checked before it runs, so that
# an admitted count takes seconds (2-core Xeon, Python 3.11).  The bound on
# rows counts admissible rows as they are listed; listing the 3^11 rows of
# width 11 over three letters takes about 1 s.  Red-black 4
# takes 1,069,524 steps of ``_transfer_steps`` in about 1 s and mirror 5
# 2,408,901 in about 3 s (1.1 million states, 150 MB); red-black 5 and
# hard-square 13 are refused.
MAX_ROW_WORDS = 3**11
MAX_TRANSFER_STEPS = 3_000_000


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transfer_steps(rows: int, depth: int, h: int) -> int:
    """Most (state, row) pairs a transfer over ``rows`` admissible rows with
    states of ``depth`` rows visits on h rows: before row i + 1 there are at
    most rows^min(i, depth) states, each trying every row, and each state
    before the last row takes one popcount."""
    return sum(rows ** (min(i, depth) + 1) for i in range(h - 1)) + rows ** min(h - 1, depth)


def count_rect_patterns(spec: ShiftSpec, h: int, w: int) -> int:
    """The number of locally admissible h x w patterns of ``spec``: the count
    of ``iter_rect_patterns`` at margin 0, by a row transfer (Calkin & Wilf
    1998)."""
    return _row_transfer(_row_structure(spec, h, w), h)[0]


# The most candidates ``iter_rect_patterns`` lists, each yielded as a
# ``Pattern`` of its rows; it counts them first: hard-square 5 (55,447),
# red-black 3 (18,748) and mirror 4 (74,240) are listed, red-black 4
# (38,559,440) and mirror 5 (35,718,144) refused.  ``block_count``'s ring
# search counts without listing and is not bounded.  The generic epitome
# check also sweeps at most ``MAX_ANNULUS_COLORINGS`` colorings of its
# annulus.
MAX_CANDIDATES = 100_000
MAX_ANNULUS_COLORINGS = 2_000_000


def _row_structure(spec: ShiftSpec, h: int, w: int) -> tuple[list[str], int, Callable]:
    """``(rows, depth, allowed)`` of the row transfer over h x w patterns:
    the admissible rows of width w in lexicographic order, the number D of
    rows a state holds, and ``allowed(t)``, the bitset of the rows that may
    follow the tuple ``t`` of the last at most D rows placed (row indices,
    the nearest last).

    The rows are listed once with ``lex_assignments`` on a 1 x w state, and
    ``has[c][a]`` is the bitset of rows with letter a in column c.  Every
    placement of a ``window_plan(max(h, w))`` pattern spanning two or more
    rows becomes the rows it allows at each distance above its bottom row
    and the bitset of bottom rows it forbids; one-row patterns are the row
    listing's.  A placement with cells in two rows is folded into
    ``bad[distance][row]``.  One with cells in more rows is filed under its
    distance with the fewest allowed rows, in ``multi[distance][row]``, and
    tested on each state that holds one of those rows there.  D is the
    largest distance a fitting placement spans.  The plan is exact here
    because the rectangle is fully coloured (see ``ShiftSpec``).

    Raises ``InfeasibleError`` before the transfer when more than
    ``MAX_ROW_WORDS`` rows are admissible (the listing stops at the first
    row over) or the step bound is over ``MAX_TRANSFER_STEPS``."""
    if h < 0 or w < 0:
        raise PatternError(f"negative rectangle size {h} x {w}")
    letters = spec.alphabet.letters
    kernel = kernel_of(spec)
    state = kernel.state((0, 0, 0, w - 1))
    row_cells = [(0, c) for c in range(w)]
    rows = []
    for _ in lex_assignments(state, row_cells, letters):
        if len(rows) == MAX_ROW_WORDS:
            raise InfeasibleError(
                f"over {MAX_ROW_WORDS} admissible rows of width {w}: more candidate rows "
                "than the row transfer lists"
            )
        rows.append("".join(map(state.cells.__getitem__, row_cells)))
    full = (1 << len(rows)) - 1
    has = [
        {a: int("".join("1" if row[c] == a else "0" for row in reversed(rows)) or "0", 2)
         for a in letters}
        for c in range(w)
    ]

    placements = []  # (row span, column span, cells re-anchored at their bbox)
    for fcells in kernel.window_plan(max(h, w)):
        r0, c0, r1, c1 = _bbox_of([cell for cell, _ in fcells])
        if 2 <= r1 - r0 + 1 <= h and c1 - c0 + 1 <= w:
            cells = tuple(((r - r0, c - c0), a) for (r, c), a in fcells)
            placements.append((r1 - r0 + 1, c1 - c0 + 1, cells))
    depth = max((span - 1 for span, _, _ in placements), default=0)
    if not depth:  # no placement spans two rows: the rows stack freely
        return rows, 0, lambda t: full
    steps = _transfer_steps(len(rows), depth, h)
    if steps > MAX_TRANSFER_STEPS:
        raise InfeasibleError(
            f"a row transfer over {len(rows)} rows with {depth}-row states may take "
            f"{steps} steps, over the {MAX_TRANSFER_STEPS} allowed"
        )

    bad = [[0] * len(rows) for _ in range(depth + 1)]  # bad[k][a]: rows banned k below a
    # multi[k][a]: (the other (distance, rows allowed) pairs, rows banned) of
    # each placement over three or more rows whose fewest allowed rows are
    # at distance k and include row a
    multi: list[list[list]] = [[[] for _ in rows] for _ in range(depth + 1)]
    for span, cspan, cells in placements:
        for x in range(w - cspan + 1):
            masks: dict[int, int] = {}
            for (r, c), a in cells:
                masks[r] = masks.get(r, full) & has[c + x][a]
            banned = masks.pop(span - 1)
            above = sorted(((span - 1 - r, m) for r, m in masks.items()),
                           key=lambda km: km[1].bit_count())
            if not banned or not above[0][1]:
                continue
            (k, top), *rest = above
            if rest:
                for a in _members(top):
                    multi[k][a].append((rest, banned))
            else:
                for a in _members(top):
                    bad[k][a] |= banned

    def allowed(t: tuple[int, ...]) -> int:
        banned = 0
        for k, a in enumerate(reversed(t), 1):
            banned |= bad[k][a]
            for rest, rows_banned in multi[k][a]:
                for j, m in rest:
                    if j > len(t) or not m >> t[-j] & 1:
                        break
                else:
                    banned |= rows_banned
        return full & ~banned

    return rows, depth, allowed


def _row_transfer(structure: tuple[list[str], int, Callable], h: int) -> tuple[int, int, int]:
    """``(count, rows, states)`` over the ``_row_structure`` of an h-row
    rectangle: the count of ``count_rect_patterns``, the number of
    admissible rows and the size of the largest state dict.  A state is the
    tuple of the last D rows placed and maps to its number of admissible
    histories; the last row adds each count times the number of rows still
    allowed."""
    rows, depth, allowed = structure
    if not depth:
        return len(rows) ** h, len(rows), 1
    counts: dict[tuple[int, ...], int] = {(): 1}
    largest = 1
    for _ in range(h - 1):
        nxt: dict[tuple[int, ...], int] = {}
        for t, k in counts.items():
            m = allowed(t)
            t = t[max(len(t) + 1 - depth, 0):]  # with the new row, the last depth rows
            while m:
                low = m & -m
                key = (*t, low.bit_length() - 1)
                nxt[key] = nxt.get(key, 0) + k
                m ^= low
        counts = nxt
        largest = max(largest, len(counts))
    total = sum(k * allowed(t).bit_count() for t, k in counts.items())
    return total, len(rows), largest


def _bbox_of(cells) -> tuple[int, int, int, int]:
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    return (min(rows), min(cols), max(rows), max(cols))


def _spans(fcells, f: str) -> bool:
    """Whether the cells of ``fcells`` not labelled ``f`` are nonempty and
    have the bounding box of all of ``fcells``."""
    rest = [cell for cell, letter in fcells if letter != f]
    return bool(rest) and _bbox_of(rest) == _bbox_of([cell for cell, _ in fcells])


class _IndexedState:
    """Incremental oracle over a materialized forbidden list.

    Forbidden cells are indexed by letter: assigning letter ``a`` tests only
    the forbidden patterns with an ``a``-cell, each at the anchor that puts
    that cell on the assigned one.
    """

    def __init__(self, plan: list, by_letter: dict[str, list]):
        self.cells: dict[tuple[int, int], str] = {}
        self._plan = plan
        self._by_letter = by_letter

    def load(self, cells: dict[tuple[int, int], str]) -> None:
        self.cells.update(cells)

    def assign(self, cell: tuple[int, int], letter: str) -> bool:
        cells = self.cells
        cells[cell] = letter
        r, c = cell
        for (dr, dc), fcells in self._by_letter.get(letter, ()):
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

    def scan(self) -> Occurrence | None:
        """Anchors row-major over the cells' bounding box, and at each anchor
        the plan in index order.  The plan is for the extent of the state's
        box.  Enumerators are prefix-closed, so the plan of the cells' own
        extent comes first and the rest cannot fit in the cells' box: the
        answers agree."""
        cells = self.cells
        if not cells:
            return None
        r0, c0, r1, c1 = _bbox_of(cells)
        for ar in range(r0, r1 + 1):
            for ac in range(c0, c1 + 1):
                for idx, fcells in self._plan:
                    for (dr, dc), letter in fcells:
                        if cells.get((ar + dr, ac + dc)) != letter:
                            break
                    else:
                        return Occurrence(idx, (ar, ac))
        return None


class GenericKernel:
    """The kernel of a spec that brings none: every answer comes from the
    forbidden list ``enumerator`` materializes up to the extent at hand.
    Enumerators are deterministic, so each extent's list is read, and
    indexed by letter for ``_IndexedState``, once."""

    def __init__(self, alphabet: Alphabet, enumerator: Callable[[int], tuple[Pattern, ...]]):
        self.alphabet = alphabet
        self.enumerator = enumerator
        self._plans: dict[int, tuple[list, dict[str, list]]] = {}
        self._fillers: dict[int, str | None] = {}

    def _plan(self, max_extent: int) -> tuple[list, dict[str, list]]:
        """The forbidden list as ``(index, cells)`` entries, and the entries'
        cells by letter as ``(offset, cells)`` pairs."""
        if max_extent not in self._plans:
            plan = [(idx, tuple(f.items())) for idx, f in enumerate(self.enumerator(max_extent))]
            by_letter: dict[str, list] = {}
            for _, fcells in plan:
                for offset, letter in fcells:
                    by_letter.setdefault(letter, []).append((offset, fcells))
            self._plans[max_extent] = (plan, by_letter)
        return self._plans[max_extent]

    def filler(self, max_extent: int) -> str | None:
        """The first letter, in alphabet order, that is a filler for the
        plan of ``max_extent`` (see ``ShiftSpec``)."""
        if max_extent not in self._fillers:
            plan, _ = self._plan(max_extent)
            self._fillers[max_extent] = next(
                (f for f in self.alphabet.letters if all(_spans(fc, f) for _, fc in plan)), None
            )
        return self._fillers[max_extent]

    def state(self, bbox: tuple[int, int, int, int]) -> _IndexedState:
        r0, c0, r1, c1 = bbox
        return _IndexedState(*self._plan(max(r1 - r0 + 1, c1 - c0 + 1)))

    def window_plan(self, side: int) -> list:
        """The cells of the plan of ``side``: every listed pattern, so each
        occurs where it is listed, in any window of extent at most ``side``,
        full or not."""
        plan, _ = self._plan(side)
        return [fcells for _, fcells in plan]


def run_mask(mask: int, length: int) -> int:
    """Bit i set iff bits i..i+length-1 are all set in ``mask``."""
    out = mask
    for k in range(1, length):
        out = out & (mask >> k)
    return out


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _hard_square_enumerator(max_extent: int) -> tuple[Pattern, ...]:
    if max_extent < 2:
        return ()
    h = Pattern(BINARY, {(0, 0): "1", (0, 1): "1"})
    v = Pattern(BINARY, {(0, 0): "1", (1, 0): "1"})
    return (h, v)


def hard_square_spec() -> ShiftSpec:
    """Binary shift forbidding adjacent 1s (horizontally or vertically)."""
    return ShiftSpec("hard-square", BINARY, _hard_square_enumerator)


def red_black_square_count(size: int) -> int:
    """Number of forbidden squares of a given size: one per interior filling."""
    if size < 2:
        return 0
    return 3 ** (size * (size - 2))


def red_black_index_offset(size: int) -> int:
    """Index of the first size-``size`` forbidden square in the canonical list."""
    return sum(red_black_square_count(s) for s in range(2, size))


def _red_black_square(size: int, rank: int) -> Pattern:
    cells = {(0, c): "R" for c in range(size)}
    for c in range(size):
        cells[(size - 1, c)] = "B"
    digits = []
    x = rank
    for _ in range(size * (size - 2)):
        digits.append(x % 3)
        x //= 3
    digits.reverse()  # row-major, most significant first
    k = 0
    for r in range(1, size - 1):
        for c in range(size):
            cells[(r, c)] = BWR.letters[digits[k]]
            k += 1
    return Pattern(BWR, cells)


def _red_black_enumerator(max_extent: int) -> tuple[Pattern, ...]:
    """Materialized forbidden squares: red top row, black bottom row, free
    interior, sizes ascending, interiors in lexicographic (base-3) order.

    The count at size s is 3^(s(s-2)); callers needing large extents should go
    through the spec's kernel instead of this list.
    """
    out = []
    for s in range(2, max_extent + 1):
        for rank in range(red_black_square_count(s)):
            out.append(_red_black_square(s, rank))
    return tuple(out)


def _square_hits(red, black, filled, top: int, s: int) -> int:
    """Bit c is set iff the s x s square with top-left cell (top, c) has an
    all-red top row, an all-black bottom row and every cell filled.
    ``red``, ``black`` and ``filled`` hold one int bitmask per row; an empty
    partial result returns early."""
    m = run_mask(red[top], s)
    if m:
        m &= run_mask(black[top + s - 1], s)
    if m:
        acc = filled[top]
        for r in range(top + 1, top + s):
            acc &= filled[r]
        m &= run_mask(acc, s)
    return m


def _square_plan(h: int, w: int, r: int, c: int) -> list[list]:
    """One ``[top, None]`` entry per top row of a square of side >= 2 in an
    h x w box that can hold cell (r, c).  ``_RunMaskState`` puts
    ``_squares_at(h, w, top, r, c)`` in place of None when it first needs
    that row, so rows never red at column c cost nothing."""
    return [[top, None] for top in range(max(0, r - min(h, w) + 1), min(r, h - 2) + 1)]


def _squares_at(h: int, w: int, top: int, r: int, c: int) -> tuple[tuple[int, int], ...]:
    """``(bottom, column bits)`` of each square of side >= 2 in an h x w box
    with top row ``top`` that holds cell (r, c)."""
    return tuple(
        (top + s - 1, ((1 << s) - 1) << left)
        for s in range(max(2, r - top + 1), min(h - top, w) + 1)
        for left in range(max(0, c - s + 1), min(c, w - s) + 1)
    )


class _RunMaskState:
    """Incremental oracle of the red-black family over per-row red, black and
    filled bitmasks (bit c of row r is cell (r0 + r, c0 + c)).  An assignment
    completes a forbidden square iff some square holding the new cell has an
    all-red top row, an all-black bottom row and every row between filled.
    The squares holding a cell come from ``_square_plan``, built on the
    cell's first assignment and kept by the state, so a scan that only
    loads builds none: ``scan`` tests every square of the box with
    ``_square_hits``."""

    def __init__(self, bbox: tuple[int, int, int, int]):
        r0, c0, r1, c1 = bbox
        self._r0, self._c0 = r0, c0
        self.height = r1 - r0 + 1
        self.width = c1 - c0 + 1
        self.red, self.black, self.filled = ([0] * self.height for _ in range(3))
        self.cells: dict[tuple[int, int], str] = {}
        self._plans: dict[tuple[int, int], list] = {}

    def load(self, cells: dict[tuple[int, int], str]) -> None:
        held = self.cells
        for (r, c), letter in cells.items():
            if (r, c) in held:
                self._clear(r, c)
            self._set(r, c, letter)
        held.update(cells)

    def _set(self, r: int, c: int, letter: str) -> None:
        bit = 1 << (c - self._c0)
        rr = r - self._r0
        self.filled[rr] |= bit
        if letter == "R":
            self.red[rr] |= bit
        elif letter == "B":
            self.black[rr] |= bit

    def _clear(self, r: int, c: int) -> None:
        bit = ~(1 << (c - self._c0))
        rr = r - self._r0
        self.filled[rr] &= bit
        self.red[rr] &= bit
        self.black[rr] &= bit

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

    def scan(self) -> Occurrence | None:
        red, black, filled = self.red, self.black, self.filled
        for top in range(self.height):
            if not red[top]:
                continue
            found = []  # (leftmost column, size): ties go to the smaller square
            for s in range(2, min(self.height - top, self.width) + 1):
                hits = _square_hits(red, black, filled, top, s)
                if hits:
                    found.append(((hits & -hits).bit_length() - 1, s))
            if found:
                ac, s = min(found)
                ar, ac = self._r0 + top, self._c0 + ac
                rank = 0
                for r in range(ar + 1, ar + s - 1):
                    for c in range(ac, ac + s):
                        rank = rank * 3 + BWR.letters.index(self.cells[r, c])
                return Occurrence(red_black_index_offset(s) + rank, (ar, ac))
        return None

    def _completes(self, r: int, c: int) -> bool:
        plan = self._plans.get((r, c))
        if plan is None:
            plan = self._plans[r, c] = _square_plan(self.height, self.width, r, c)
        red, black, filled = self.red, self.black, self.filled
        cbit = 1 << c
        for entry in plan:
            top, squares = entry
            rt = red[top]
            if not rt & cbit:  # column c is in the top row of each square
                continue
            if squares is None:
                squares = entry[1] = _squares_at(self.height, self.width, top, r, c)
            for bottom, bits in squares:
                if rt & bits == bits and black[bottom] & bits == bits:
                    for row in range(top + 1, bottom):
                        if filled[row] & bits != bits:
                            break
                    else:
                        return True
        return False


class RunMaskKernel:
    """The red-black family's kernel: the state's scan tests
    ``_square_hits`` on row bitmasks, the state's ``assign`` tests the
    squares of ``_square_plan``."""

    def state(self, bbox: tuple[int, int, int, int]) -> _RunMaskState:
        return _RunMaskState(bbox)

    def filler(self, max_extent: int) -> str | None:
        """W at every extent: a square's top row is all R and its bottom row
        all B, so its non-W cells hold both rows, which span the square."""
        return "W"

    def window_plan(self, side: int) -> list:
        """One square per size 2..side with an all-R top row, an all-B bottom
        row and no interior.  Exact in any fully colored window of extent
        at most ``side``: every cell there is colored, so a placement of it
        matches exactly where one of the 3^(s(s-2)) listed squares of its
        size does.  A window with holes needs the listed squares."""
        return [
            tuple(((0, c), "R") for c in range(s)) + tuple(((s - 1, c), "B") for c in range(s))
            for s in range(2, side + 1)
        ]


RED_BLACK_KERNEL = RunMaskKernel()


def red_black_spec() -> ShiftSpec:
    """Three-letter shift forbidding squares with red top row and black bottom
    row (any interior), one forbidden pattern per size >= 2 and interior."""
    return ShiftSpec("red-black", BWR, _red_black_enumerator, RED_BLACK_KERNEL)


def _mirror_enumerator(max_extent: int) -> tuple[Pattern, ...]:
    """Mirror-family forbidden patterns, extent ascending.

    Per extent e the new patterns are: at e = 2 the four horizontal dominoes
    pairing red with a non-red letter; at every e >= 2 the two-cell column
    {red, red} at distance e-1; at odd e >= 3 the six three-cell columns with
    a red centre at distance d = (e-1)/2 and differing letters at the ends.
    Sparse supports: only the constrained cells are present.
    """
    out: list[Pattern] = []
    if max_extent < 2:
        return ()
    for left, right in (("B", "R"), ("W", "R"), ("R", "B"), ("R", "W")):
        out.append(Pattern(BWR, {(0, 0): left, (0, 1): right}))
    for e in range(2, max_extent + 1):
        d = e - 1
        out.append(Pattern(BWR, {(0, 0): "R", (d, 0): "R"}))
        if e >= 3 and e % 2 == 1:
            half = d // 2
            for x, y in (("B", "W"), ("B", "R"), ("W", "B"), ("W", "R"), ("R", "B"), ("R", "W")):
                out.append(Pattern(BWR, {(0, 0): x, (half, 0): "R", (2 * half, 0): y}))
    return tuple(out)


def mirror_spec() -> ShiftSpec:
    """Three-letter shift whose red rows act as horizontal mirrors: red never
    sits beside non-red, no column holds two reds, and letters at equal
    distances above/below a red cell must agree."""
    return ShiftSpec("mirror", BWR, _mirror_enumerator)


BUILTIN_SPECS: dict[str, Callable[[], ShiftSpec]] = {
    "hard-square": hard_square_spec,
    "red-black": red_black_spec,
    "mirror": mirror_spec,
}


def spec_from_patterns(name: str, alphabet: Alphabet, patterns: Iterable[Pattern]) -> ShiftSpec:
    """A user-defined shift from explicit forbidden patterns.

    Patterns are re-anchored at the origin (a forbidden pattern is forbidden
    at every translate) and ordered by extent (stable within equal extents),
    making the enumerator prefix-closed by construction.
    """
    pats = sorted((q.reanchored() for q in patterns), key=lambda q: q.extent)
    for q in pats:
        if q.alphabet.letters != alphabet.letters:
            raise PatternError("forbidden pattern alphabet mismatch")
        if not len(q):
            raise PatternError("empty forbidden pattern")

    def enumerator(max_extent: int) -> tuple[Pattern, ...]:
        return tuple(q for q in pats if q.extent <= max_extent)

    return ShiftSpec(name, alphabet, enumerator)


def get_spec(name: str) -> ShiftSpec:
    """Resolve a built-in spec name or a ``file:`` prefixed pattern path list."""
    if name in BUILTIN_SPECS:
        return BUILTIN_SPECS[name]()
    if name.startswith("file:"):
        pats = [read_pattern(path) for path in name[len("file:") :].split(",")]
        return spec_from_patterns("user", pats[0].alphabet, pats)
    raise PatternError(f"unknown shift spec {name!r}")


# ---------------------------------------------------------------------------
# Archives: directories of pattern files named by a JSON head
# ---------------------------------------------------------------------------


def read_pattern(path: str) -> Pattern:
    """One pattern file; ``-`` reads standard input."""
    if path == "-":
        return Pattern.from_text(sys.stdin.read())
    with open(path, "r", encoding="ascii") as fh:
        return Pattern.from_text(fh.read())


def read_head(path: str):
    """One JSON head, parsed but not checked."""
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def write_pattern(p: Pattern, path: str) -> None:
    """Write one pattern file, making its parent directories."""
    _write(path, p.to_text())


def write_head(head: dict, path: str) -> None:
    """Write one JSON head (indent 2, sorted keys, a trailing newline),
    making its parent directories."""
    _write(path, json.dumps(head, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def require_keys(d, keys: Iterable[str], what: str) -> None:
    """Refuse a head part that is not an object or lacks a key (all named)."""
    if not isinstance(d, dict):
        raise PatternError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise PatternError(f"{what} lacks {', '.join(map(repr, missing))}")


def int_field(v, what: str) -> int:
    """``v`` if it is an int; bools and floats are refused."""
    if type(v) is not int:
        raise PatternError(f"{what} is not an int: {v!r}")
    return v


def list_field(v, what: str, length: int | None = None) -> list:
    """``v`` if it is a list, of ``length`` entries when that is given."""
    if not isinstance(v, list):
        raise PatternError(f"{what} is not a list: {v!r}")
    if length not in (None, len(v)):
        raise PatternError(f"{what} has {len(v)} entries, not {length}")
    return v


def int_list(v, what: str, length: int | None = None) -> tuple[int, ...]:
    """A list of ints, of ``length`` entries when that is given, as a tuple."""
    return tuple(int_field(x, f"{what} entry") for x in list_field(v, what, length))


def archive_path(dirpath: str, rel, what: str) -> str:
    """``rel`` joined to ``dirpath``, refused unless it names a file inside
    that directory: a relative path with no '..' component whose last
    component is a name."""
    parts = rel.replace(os.sep, "/").split("/") if isinstance(rel, str) else None
    if (
        parts is None
        or ".." in parts
        or parts[-1] in ("", ".")
        or "\0" in rel
        or os.path.isabs(rel)
    ):
        raise PatternError(f"{what} {rel!r} is not a file inside the directory")
    return os.path.join(dirpath, rel)


def gamma_encode(v: int) -> str:
    """Elias gamma code of a positive integer."""
    if v < 1:
        raise ValueError("gamma codes positive integers")
    b = bin(v)[2:]
    return "0" * (len(b) - 1) + b


def gamma_decode(bits: str, pos: int) -> tuple[int, int]:
    z = 0
    while pos + z < len(bits) and bits[pos + z] == "0":
        z += 1
    end = pos + z + z + 1
    if end > len(bits):
        raise PatternError("truncated gamma code")
    return int(bits[pos + z : end], 2), end
