"""Low-description-complexity squares for nearest-neighbour constraints.

For a nearest-neighbour specification (all forbidden patterns are dominoes)
the standard square of level m has side 2^m + 1 and is determined by its
border ring alone: fill the two centerlines lex-first subject to local
admissibility *and* completability of the remaining interior, then recurse
into the four quadrants (side 2^(m-1) + 1), whose borders are now fixed.
Because the constraints are nearest-neighbour, quadrant interiors are
conditionally independent given the centerlines, so the recursion reproduces
exactly what a global lex-first-with-certification fill would produce, while
any aligned sub-square of the result is itself a standard square of its own
border — the property that makes O(side)-bit descriptions of arbitrary
sub-rectangles possible.

Completability needs a search only for specs without a filler letter (see
``ShiftSpec``).  A filler f occurs in no domino or single-cell ban, since
the cells not labelled f must span the pattern, so filling the rest of the
square with f completes every locally admissible partial assignment.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .core import (
    Alphabet,
    InfeasibleError,
    Pattern,
    PatternError,
    ShiftSpec,
    annulus,
    archive_path,
    completable,
    gamma_encode,
    int_field,
    int_list,
    kernel_of,
    lex_assignments,
    list_field,
    read_head,
    read_pattern,
    require_keys,
    subpattern,
    write_head,
    write_pattern,
)

_NN_SUPPORTS = (
    frozenset({(0, 0)}),
    frozenset({(0, 0), (0, 1)}),
    frozenset({(0, 0), (1, 0)}),
)


@dataclass(frozen=True)
class NNSpec:
    """A shift specification certified nearest-neighbour.

    Validation checks that every forbidden pattern up to extent 4 is a
    horizontal or vertical domino (single-cell letter bans are also allowed,
    as degenerate dominoes) and that nothing new appears beyond extent 2
    (enumerators are prefix-closed, so this pins the whole family for any
    honest spec)."""

    spec: ShiftSpec

    def __post_init__(self):
        small = self.spec.enumerator(2)
        for f in small:
            if frozenset(f.support) not in _NN_SUPPORTS:
                raise PatternError(
                    f"spec {self.spec.name!r} is not nearest-neighbour: "
                    f"forbidden support {sorted(f.support)}"
                )
        if self.spec.enumerator(4) != small:
            raise PatternError(
                f"spec {self.spec.name!r} has forbidden patterns beyond extent 2"
            )

    @property
    def alphabet(self) -> Alphabet:
        return self.spec.alphabet


# The largest level built.  `lowcfg-build --k 11` (side 2049) takes 6-9 s and
# peaks at 787 MB for hard-square on a 2-core Xeon, and each level up costs
# about four times more.
MAX_LEVEL = 11


def side_of_level(m: int) -> int:
    return 2**m + 1


def _check_level(k: int) -> None:
    if k < 0:
        raise PatternError("k must be nonnegative")
    if k > MAX_LEVEL:
        raise InfeasibleError(f"lowcfg is limited to levels k <= {MAX_LEVEL}")


def ring_cells(side: int) -> list[tuple[int, int]]:
    """Border ring of a side x side square anchored at the origin, row-major."""
    return annulus(side - 2, side - 2, 1)


def _interior_cells(r0: int, c0: int, side: int, assigned) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in range(r0 + 1, r0 + side - 1)
        for c in range(c0 + 1, c0 + side - 1)
        if (r, c) not in assigned
    ]


def choose_border(nn: NNSpec, k: int) -> Pattern:
    """Lex-first completable border ring for the level-k square.

    Backtracks over ring cells in row-major order; a full ring is accepted
    only if its interior admits a locally admissible completion, so the
    returned border is the lex-least *completable* one, not merely the
    lex-least admissible one."""
    _check_level(k)
    side = side_of_level(k)
    ring = ring_cells(side)
    spec = nn.spec
    letters = spec.alphabet.letters
    kernel = kernel_of(spec)
    state = kernel.state((0, 0, side - 1, side - 1))
    always = kernel.filler(side) is not None  # every admissible ring completes
    for _ in lex_assignments(state, ring, letters):
        if always or completable(state, _interior_cells(0, 0, side, state.cells), letters):
            return Pattern(spec.alphabet, {cell: state.cells[cell] for cell in ring})
    raise InfeasibleError(f"no completable border at level {k} for {spec.name!r}")


def _fill_order(side: int) -> list[tuple[int, int]]:
    """Every centerline cell of the side x side square, in fill order: the
    inner cells of the centre row left to right, then those of the centre
    column top to bottom (the centre counted once), then the order of the
    quadrants (0, 0), (0, mid), (mid, 0), (mid, mid), each the order of side
    mid + 1 translated.  Sub-squares come in pre-order, so each one's
    centerlines (2 * size - 5 cells) are a contiguous run."""
    if side < 3:
        return []
    mid = (side - 1) // 2
    inner = range(1, side - 1)
    quad = _fill_order(mid + 1)
    return (
        [(mid, c) for c in inner]
        + [(r, mid) for r in inner if r != mid]
        + quad
        + [(r, c + mid) for r, c in quad]
        + [(r + mid, c) for r, c in quad]
        + [(r + mid, c + mid) for r, c in quad]
    )


def standard_square(nn: NNSpec, border: Pattern, m: int) -> Pattern:
    """The level-m standard square over a given border ring.

    Deterministic: centerlines are filled lex-first (row cells left-to-right,
    then column cells top-to-bottom, centre counted once) subject to local
    admissibility and completability of the remaining interior, then the four
    quadrants recurse with their borders now fixed.

    With a filler letter every locally admissible assignment completes and
    the filler fits every cell, so one lex-first pass over ``_fill_order``
    never backtracks and its first filling is the recursion's.  Without one,
    each sub-square of side >= 3 takes its run of the order in pre-order and
    certifies it with ``completable``."""
    _check_level(m)
    side = side_of_level(m)
    if border.support != frozenset(ring_cells(side)):
        raise PatternError(f"border support is not the level-{m} ring")
    spec = nn.spec
    if border.alphabet.letters != spec.alphabet.letters:
        raise PatternError(f"border alphabet does not match spec {spec.name!r}")
    letters = spec.alphabet.letters
    kernel = kernel_of(spec)
    box = (0, 0, side - 1, side - 1)
    state = kernel.state(box)
    # an occurrence made of ring cells alone is refused as its last cell goes in
    for cell, letter in border.items():
        if not state.assign(cell, letter):
            raise PatternError("border ring is not locally admissible")
    if kernel.filler(side) is not None:
        for _ in lex_assignments(state, _fill_order(side), letters):
            break  # the filler fits every cell: the first filling always comes
        return Pattern._adopt(spec.alphabet, state.cells, box)  # noqa: SLF001 - the state dies here

    order = _fill_order(side)
    pos = 0
    squares = [(0, 0, side)] if side >= 3 else []
    while squares:
        r0, c0, size = squares.pop()
        end = pos + 2 * size - 5
        for _ in lex_assignments(state, order[pos:end], letters):
            if completable(state, _interior_cells(r0, c0, size, state.cells), letters):
                break
        else:
            raise InfeasibleError(
                f"centerlines of the square at ({r0}, {c0}) size {size} "
                "admit no completable assignment"
            )
        pos = end
        half = (size - 1) // 2
        if half >= 2:  # quadrants of side 2 have no centerlines
            # pushed last-first, so they pop in the order of _fill_order
            for dr, dc in ((half, half), (half, 0), (0, half), (0, 0)):
                squares.append((r0 + dr, c0 + dc, half + 1))
    return Pattern._adopt(spec.alphabet, state.cells, box)  # noqa: SLF001 - the state dies here


def build_Pk(nn: NNSpec, k: int) -> Pattern:
    """The canonical level-k square: lex-first completable border, then the
    deterministic recursive fill."""
    return standard_square(nn, choose_border(nn, k), k)


# ---------------------------------------------------------------------------
# Sub-rectangle descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareDescription:
    """A short description of a sub-rectangle of a standard square: the level
    of the covering grid, up to 2x2 covering-square borders, and the offset
    and shape of the rectangle inside the covering block."""

    level: int
    grid: tuple[int, int]  # covering squares: (rows, cols), each 1 or 2
    offset: tuple[int, int]  # rectangle origin within the covering block
    shape: tuple[int, int]  # (h, w)
    borders: tuple[Pattern, ...]  # row-major over the covering squares


def _min_level(n: int) -> int:
    """The least m with 2^m + 1 >= n."""
    if n <= 2:
        return 0
    return (n - 2).bit_length()


def describe_subpattern(
    nn: NNSpec, pk: Pattern, k: int, rect: tuple[int, int, int, int]
) -> SquareDescription:
    """Describe ``subpattern(pk, rect)`` by covering-square borders.

    The covering grid has pitch 2^m where m is the least level whose square
    side 2^m + 1 covers max(h, w); at most 2x2 grid-aligned squares are
    needed.  Reconstruction rebuilds each covering square from its border and
    cuts the rectangle out — the stored data is O(max(h, w)) bits.
    """
    r0, c0, h, w = rect
    side_k = side_of_level(k)
    square = pk.is_rectangular and pk.bbox == (0, 0, side_k - 1, side_k - 1)
    if not square or pk.alphabet != nn.alphabet:
        raise PatternError(f"pk is not a {side_k}x{side_k} square over the {nn.spec.name} alphabet")
    if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > side_k or c0 + w > side_k:
        raise PatternError(f"rect {rect} outside the level-{k} square")
    m = _min_level(max(h, w))
    g = 2**m
    last = 2 ** (k - m) - 1  # topmost grid index keeping the square inside pk
    i0 = min(r0 // g, last)
    j0 = min(c0 // g, last)
    rows = (i0,) if r0 + h - 1 <= i0 * g + g else (i0, i0 + 1)
    cols = (j0,) if c0 + w - 1 <= j0 * g + g else (j0, j0 + 1)
    side = side_of_level(m)
    box = (0, 0, side - 1, side - 1)
    lines = pk.rows()
    borders = []
    for i in rows:
        for j in cols:
            cells = {}  # the ring's top and bottom rows whole, its two end cells between
            for r, line in enumerate(lines[i * g : i * g + side]):
                ends = range(side) if r in (0, side - 1) else (0, side - 1)
                cells.update(((r, c), line[j * g + c]) for c in ends)
            borders.append(Pattern._adopt(nn.alphabet, cells, box))  # noqa: SLF001
    return SquareDescription(
        level=m,
        grid=(len(rows), len(cols)),
        offset=(r0 - rows[0] * g, c0 - cols[0] * g),
        shape=(h, w),
        borders=tuple(borders),
    )


def _check_description(desc: SquareDescription) -> None:
    """Refuse a description whose grid, borders, shape and offset do not fit
    together: ``load_description`` checks only their types."""
    _check_level(desc.level)
    di, dj = desc.grid
    if di not in (1, 2) or dj not in (1, 2):
        raise PatternError(f"description grid {desc.grid} is not 1 or 2 squares each way")
    if len(desc.borders) != di * dj:
        raise PatternError(f"description has {len(desc.borders)} borders for a {di}x{dj} grid")
    (dr, dc), (h, w) = desc.offset, desc.shape
    if h < 1 or w < 1:
        raise PatternError(f"description shape {desc.shape} is empty")
    g = 2**desc.level
    if dr < 0 or dc < 0 or dr + h > di * g + 1 or dc + w > dj * g + 1:
        raise PatternError(
            f"description offset {desc.offset} and shape {desc.shape} leave the covering block"
        )


def reconstruct_subpattern(
    desc: SquareDescription, nn: NNSpec, squares: dict | None = None
) -> Pattern:
    """Rebuild the described rectangle from borders alone.

    ``squares`` maps (level, border) to the row strings of the square built
    over it, so a caller that passes one dict to many descriptions of one
    ``nn`` builds each distinct square once; ``standard_square`` is
    deterministic, so the memo changes no answer.  Adjacent covering squares
    share only ring cells, which ``standard_square`` keeps as given, so the
    shared-line check reads O(side) cells, and each rectangle row is joined
    from row slices of its covering squares."""
    _check_description(desc)
    if squares is None:
        squares = {}
    g = 2**desc.level
    di, dj = desc.grid
    built = []
    for border in desc.borders:
        key = (desc.level, border)
        if key not in squares:
            squares[key] = standard_square(nn, border, desc.level).rows()
        built.append(squares[key])
    for a, b in itertools.combinations(range(len(built)), 2):
        (ia, ja), (ib, jb) = divmod(a, dj), divmod(b, dj)
        rs = range(max(ia, ib) * g, min(ia, ib) * g + g + 1)
        cs = range(max(ja, jb) * g, min(ja, jb) * g + g + 1)
        if any(built[a][r - ia * g][c - ja * g] != built[b][r - ib * g][c - jb * g]
               for r in rs for c in cs):
            raise PatternError("covering squares disagree on a shared line")

    def runs(x0: int, n: int, parts: int) -> list[tuple[int, int, int]]:
        """(grid index, start, stop) of the pieces of block coordinates
        x0 .. x0 + n - 1 along one axis: square i holds i * g .. i * g + g - 1,
        and the last square also its far line."""
        out = []
        for i in range(parts):
            lo = max(x0, i * g)
            hi = min(x0 + n, i * g + g + (i == parts - 1))
            if lo < hi:
                out.append((i, lo - i * g, hi - i * g))
        return out

    dr, dc = desc.offset
    h, w = desc.shape
    cols = runs(dc, w, dj)
    rows = [
        "".join([built[i * dj + j][rr][a:b] for j, a, b in cols])
        for i, lo, hi in runs(dr, h, di)
        for rr in range(lo, hi)
    ]
    return Pattern._from_rows(nn.alphabet, rows)  # noqa: SLF001


def description_bits(desc: SquareDescription, alphabet: Alphabet) -> int:
    """Measured size: gamma-coded header plus the border cells at
    ceil(log2 |alphabet|) bits per cell."""
    dr, dc = desc.offset
    h, w = desc.shape
    header = sum(
        len(gamma_encode(v))
        for v in (desc.level + 1, desc.grid[0], desc.grid[1], dr + 1, dc + 1, h, w)
    )
    side = side_of_level(desc.level)
    return header + len(desc.borders) * (4 * side - 4) * alphabet.letter_bits


def description_constant(alphabet: Alphabet) -> int:
    """Declared constant C with description_bits <= C * max(h, w)."""
    return 32 * alphabet.letter_bits + 16


def save_description(desc: SquareDescription, dirpath: str) -> None:
    files = [f"border_{ix}.txt" for ix in range(len(desc.borders))]
    for rel, border in zip(files, desc.borders):
        write_pattern(border, os.path.join(dirpath, rel))
    head = {
        "format_version": 1,
        "level": desc.level,
        "grid": list(desc.grid),
        "offset": list(desc.offset),
        "shape": list(desc.shape),
        "border_files": files,
    }
    write_head(head, os.path.join(dirpath, "description.json"))


def load_description(dirpath: str) -> SquareDescription:
    """Read a description back, refusing with ``PatternError`` a head whose
    keys are missing or of the wrong type, or that names a file outside the
    directory."""
    what = "description.json"
    head = read_head(os.path.join(dirpath, what))
    require_keys(head, ["level", "grid", "offset", "shape", "border_files"], what)
    level = int_field(head["level"], f"{what} 'level'")
    pairs = {key: int_list(head[key], f"{what} {key!r}", 2) for key in ("grid", "offset", "shape")}
    rels = list_field(head["border_files"], f"{what} 'border_files'")
    files = [archive_path(dirpath, rel, f"{what} 'border_files' entry") for rel in rels]
    return SquareDescription(level=level, borders=tuple(map(read_pattern, files)), **pairs)


def lowcfg_roundtrip(
    nn: NNSpec,
    pk: Pattern,
    k: int,
    rects: list[tuple[int, int, int, int]],
    metrics: dict | None = None,
) -> list[dict]:
    """Describe/reconstruct each rectangle and compare against the direct
    restriction; returns one report entry per rectangle.  The rectangles
    share one memo of built squares.  A ``metrics`` dict receives the number
    of covering squares described and of squares built."""
    squares: dict = {}
    described = 0
    out = []
    for rect in rects:
        desc = describe_subpattern(nn, pk, k, rect)
        described += len(desc.borders)
        rebuilt = reconstruct_subpattern(desc, nn, squares)
        direct = subpattern(pk, rect)
        bits = description_bits(desc, nn.alphabet)
        bound = description_constant(nn.alphabet) * max(rect[2], rect[3])
        out.append(
            {
                "rect": list(rect),
                "ok": rebuilt == direct,
                "bits": bits,
                "bound": bound,
                "within_bound": bits <= bound,
            }
        )
    if metrics is not None:
        metrics.update(squares_described=described, squares_built=len(squares))
    return out


__all__ = [
    "MAX_LEVEL",
    "NNSpec",
    "SquareDescription",
    "build_Pk",
    "choose_border",
    "describe_subpattern",
    "description_bits",
    "description_constant",
    "lowcfg_roundtrip",
    "load_description",
    "reconstruct_subpattern",
    "ring_cells",
    "save_description",
    "side_of_level",
    "standard_square",
]
