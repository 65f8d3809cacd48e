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

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


class PatternError(ValueError):
    """Malformed pattern, alphabet mismatch, or bad geometry."""


class InfeasibleError(RuntimeError):
    """Parameters outside the feasible regime, or a search space provably
    exhausted (e.g. a threshold above the literal bound)."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite alphabet of single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise PatternError(f"duplicate letters in alphabet {self.letters!r}")
        for a in self.letters:
            if len(a) != 1 or a == ".":
                raise PatternError(f"letters must be single non-dot characters, got {a!r}")

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise PatternError(f"letter {letter!r} not in alphabet {self.letters!r}") from None

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters


BINARY = Alphabet(("0", "1"))
BWR = Alphabet(("B", "W", "R"))

_ALPHABET_BY_SIZE = {2: BINARY, 3: BWR}


class Pattern:
    """A finite partial configuration: a map from cells to letters.

    Instances are immutable.  Rectangular patterns (support exactly
    ``[0, h) x [0, w)``) are the common case; sparse supports are allowed and
    arise for forbidden patterns with gaps and for border rings.
    """

    __slots__ = ("alphabet", "_cells", "_bbox", "_hash")

    def __init__(self, alphabet: Alphabet, cells: dict[tuple[int, int], str]):
        for (r, c), letter in cells.items():
            if letter not in alphabet:
                raise PatternError(f"letter {letter!r} at {(r, c)} not in alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_cells", dict(cells))
        if cells:
            rs = [r for r, _ in cells]
            cs = [c for _, c in cells]
            bbox = (min(rs), min(cs), max(rs), max(cs))
        else:
            bbox = None
        object.__setattr__(self, "_bbox", bbox)
        object.__setattr__(self, "_hash", None)

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
        if self._bbox is None:
            return True
        r0, c0, _, _ = self._bbox
        return (r0, c0) == (0, 0) and len(self._cells) == self.height * self.width

    def at(self, r: int, c: int) -> str | None:
        return self._cells.get((r, c))

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def items(self):
        return self._cells.items()

    # -- derived forms ----------------------------------------------------

    def rows(self) -> list[str]:
        """Row strings for a rectangular pattern."""
        if not self.is_rectangular:
            raise PatternError("rows() requires a rectangular pattern")
        return [
            "".join(self._cells[(r, c)] for c in range(self.width))
            for r in range(self.height)
        ]

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
        idx = self.alphabet.index
        return tuple(idx(self._cells[cell]) for cell in sorted(self._cells))

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pattern)
            and self.alphabet.letters == other.alphabet.letters
            and self._cells == other._cells
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.alphabet.letters, frozenset(self._cells.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_rectangular:
            return f"Pattern({self.height}x{self.width} {'/'.join(self.rows())})"
        return f"Pattern(sparse {len(self._cells)} cells)"

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        p = self.reanchored()
        header = f"{p.width} {p.height} {len(self.alphabet)}"
        lines = [
            "".join(p._cells.get((r, c), ".") for c in range(p.width))
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
        cells: dict[tuple[int, int], str] = {}
        for r, line in enumerate(body):
            if len(line) != w:
                raise PatternError(f"row {r} has length {len(line)}, expected {w}")
            for c, ch in enumerate(line):
                if ch == ".":
                    continue
                cells[(r, c)] = ch
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
    cells = {(r, c): ch for r, line in enumerate(rows) for c, ch in enumerate(line)}
    return Pattern(alphabet, cells)


def subpattern(p: Pattern, rect: tuple[int, int, int, int]) -> Pattern:
    """Restriction of ``p`` to ``rect = (r0, c0, h, w)``, re-anchored at the origin.

    Every cell of the rectangle must lie in the support of ``p``.
    """
    r0, c0, h, w = rect
    if h < 0 or w < 0:
        raise PatternError(f"bad rectangle {rect}")
    cells = {}
    for r in range(h):
        for c in range(w):
            letter = p.at(r0 + r, c0 + c)
            if letter is None:
                raise PatternError(f"rectangle {rect} leaves the support at {(r0 + r, c0 + c)}")
            cells[(r, c)] = letter
    return Pattern(p.alphabet, cells)


def invert(p: Pattern) -> Pattern:
    """Swap the two letters of a binary pattern."""
    if p.alphabet.letters != BINARY.letters:
        raise PatternError("invert is defined for binary patterns only")
    flip = {"0": "1", "1": "0"}
    return Pattern(p.alphabet, {cell: flip[a] for cell, a in p.items()})


def iter_rect_patterns(alphabet: Alphabet, h: int, w: int) -> Iterator[Pattern]:
    """All h x w patterns in canonical (row-major lexicographic) order."""
    coords = [(r, c) for r in range(h) for c in range(w)]
    for letters in itertools.product(alphabet.letters, repeat=h * w):
        yield Pattern(alphabet, dict(zip(coords, letters)))


# ---------------------------------------------------------------------------
# Shift specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Occurrence:
    """A forbidden pattern found in a host: which one, and where.

    ``anchor`` is the translation applied to the forbidden pattern, i.e. the
    forbidden cell (dr, dc) matched host cell (anchor[0]+dr, anchor[1]+dc).
    """

    forbidden_index: int
    anchor: tuple[int, int]


@dataclass(frozen=True)
class ShiftSpec:
    """A shift of finite (or countable, extent-bounded) type.

    ``enumerator(max_extent)`` returns the forbidden patterns of extent at
    most ``max_extent`` as a tuple; it must be deterministic and prefix-closed
    (the list for a smaller extent is a prefix of the list for a larger one).
    ``forbidden_index`` values refer to positions in this list.

    ``finder`` is an optional fast occurrence scanner with semantics identical
    to the generic enumerate-and-scan; built-in families whose forbidden lists
    grow too fast to materialize supply one.
    """

    name: str
    alphabet: Alphabet
    enumerator: Callable[[int], tuple[Pattern, ...]] = field(repr=False)
    finder: Callable[[Pattern], Occurrence | None] | None = field(default=None, repr=False)

    def __hash__(self):
        return hash(self.name)


def enumerate_forbidden(spec: ShiftSpec, max_extent: int) -> tuple[Pattern, ...]:
    """The forbidden patterns of extent <= max_extent, in canonical order."""
    forb = spec.enumerator(max_extent)
    return forb


def contains_forbidden(p: Pattern, spec: ShiftSpec) -> Occurrence | None:
    """First forbidden occurrence in ``p``: anchors scanned row-major, and at
    each anchor the forbidden list is consulted in index order.  None if the
    pattern is locally admissible."""
    if p.alphabet.letters != spec.alphabet.letters:
        raise PatternError(f"pattern alphabet does not match spec {spec.name!r}")
    if spec.finder is not None:
        return spec.finder(p)
    return generic_scan(p, enumerate_forbidden(spec, p.extent))


def generic_scan(p: Pattern, forbidden: Iterable[Pattern]) -> Occurrence | None:
    """Reference occurrence scan used when no fast finder is installed."""
    if p.bbox is None:
        return None
    plan = []
    for idx, f in enumerate(forbidden):
        plan.append((idx, tuple(f.items())))
    r0, c0, r1, c1 = p.bbox
    cells = p._cells  # noqa: SLF001 - hot loop on our own type
    for ar in range(r0, r1 + 1):
        for ac in range(c0, c1 + 1):
            for idx, fcells in plan:
                for (dr, dc), letter in fcells:
                    if cells.get((ar + dr, ac + dc)) != letter:
                        break
                else:
                    return Occurrence(idx, (ar, ac))
    return None


def run_mask(mask: int, length: int) -> int:
    """Bit i set iff bits i..i+length-1 are all set in ``mask``."""
    out = mask
    for k in range(1, length):
        out &= mask >> k
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
    through the installed finder instead of this list.
    """
    out = []
    for s in range(2, max_extent + 1):
        for rank in range(red_black_square_count(s)):
            out.append(_red_black_square(s, rank))
    return tuple(out)


def _red_black_finder(p: Pattern) -> Occurrence | None:
    if p.bbox is None:
        return None
    r0, c0, r1, c1 = p.bbox
    h, w = r1 - r0 + 1, c1 - c0 + 1
    red = [0] * h
    black = [0] * h
    filled = [0] * h
    for (r, c), letter in p.items():
        bit = 1 << (c - c0)
        rr = r - r0
        filled[rr] |= bit
        if letter == "R":
            red[rr] |= bit
        elif letter == "B":
            black[rr] |= bit
    max_s = min(h, w)
    for ar in range(h):
        best: tuple[int, int] | None = None  # (ac, size)
        acc = filled[ar]
        for s in range(2, max_s + 1):
            if ar + s > h:
                break
            acc &= filled[ar + s - 1]
            cand = run_mask(red[ar], s) & run_mask(black[ar + s - 1], s) & run_mask(acc, s)
            if cand:
                ac = (cand & -cand).bit_length() - 1
                if best is None or ac < best[0]:
                    best = (ac, s)
                # smaller s wins ties at the same ac since we scan s ascending
        if best is not None:
            ac, s = best
            rank = 0
            for r in range(1, s - 1):
                for c in range(s):
                    rank = rank * 3 + BWR.index(p.at(r0 + ar + r, c0 + ac + c))
            return Occurrence(red_black_index_offset(s) + rank, (r0 + ar, c0 + ac))
    return None


def red_black_spec() -> ShiftSpec:
    """Three-letter shift forbidding squares with red top row and black bottom
    row (any interior), one forbidden pattern per size >= 2 and interior."""
    return ShiftSpec("red-black", BWR, _red_black_enumerator, _red_black_finder)


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

    Patterns are ordered by extent (stable within equal extents), making the
    enumerator prefix-closed by construction.
    """
    pats = sorted(patterns, key=lambda q: q.extent)
    for q in pats:
        if q.alphabet.letters != alphabet.letters:
            raise PatternError("forbidden pattern alphabet mismatch")

    def enumerator(max_extent: int) -> tuple[Pattern, ...]:
        return tuple(q for q in pats if q.extent <= max_extent)

    return ShiftSpec(name, alphabet, enumerator)


def spec_from_files(name: str, paths: Iterable[str]) -> ShiftSpec:
    """Load forbidden patterns from text files (one pattern per file)."""
    pats = []
    for path in paths:
        with open(path, "r", encoding="ascii") as fh:
            pats.append(Pattern.from_text(fh.read()))
    if not pats:
        raise PatternError("no forbidden pattern files given")
    return spec_from_patterns(name, pats[0].alphabet, pats)


def get_spec(name: str) -> ShiftSpec:
    """Resolve a built-in spec name or a ``file:`` prefixed pattern path list."""
    if name in BUILTIN_SPECS:
        return BUILTIN_SPECS[name]()
    if name.startswith("file:"):
        paths = name[len("file:") :].split(",")
        return spec_from_files("user", paths)
    raise PatternError(f"unknown shift spec {name!r}")
