"""Epitomes: pattern summaries a window construction can enforce.

An epitome family assigns a summary value to (some) n x n patterns.  The
defining property, checked exhaustively at small sizes: for every pattern P
with a defined value there is a window coloring R such that P is compatible
with R and every pattern compatible with R has the same summary (plain kind)
or a summary bounded by P's (ordered kind).  "Compatible" is approximated by
local admissibility of the filled window — the note carried by every report.

Line-numbering convention: the enforcer window for an n-entry profile has 3n
rows; construction line i counted bottom-up corresponds to window row 3n - i
top-down (row 0 is the top).  The slot sits in the bottom-right quadrant,
occupying window rows 2n..3n-1, columns 3n-1..4n-2 of the 3n x 4n window;
pattern row r (top-down) lands in window row 2n + r, i.e. line n - r.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from .core import (
    BWR,
    BINARY,
    MAX_ANNULUS_COLORINGS,
    InfeasibleError,
    Occurrence,
    Pattern,
    PatternError,
    ShiftSpec,
    RED_BLACK_KERNEL,
    _bbox_of,
    _members,
    _mirror_enumerator,
    annulus,
    contains_forbidden,
    iter_rect_patterns,
    kernel_of,
    red_black_spec,
    spec_from_patterns,
)

# ---------------------------------------------------------------------------
# Profiles of simple patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Per-row black counts of a simple pattern (top row first)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        n = len(self.counts)
        if any(not 0 <= k <= n for k in self.counts):
            raise PatternError(f"profile entries must lie in 0..{n}")

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


def profile(p: Pattern) -> Profile | None:
    """The profile of a simple pattern: each row consists of blacks followed
    by whites, no red anywhere.  None when the pattern is not simple."""
    if not p.is_rectangular or p.height != p.width:
        raise PatternError("profile is defined for square patterns")
    if p.alphabet.letters != BWR.letters:
        raise PatternError("profile expects the three-letter alphabet")
    counts = []
    for row in p.rows():
        k = 0
        while k < len(row) and row[k] == "B":
            k += 1
        if any(ch != "W" for ch in row[k:]):
            return None
        counts.append(k)
    return Profile(tuple(counts))


def profile_leq(a: Profile, b: Profile) -> bool:
    """Coordinatewise order; profiles must have equal length."""
    if len(a) != len(b):
        raise PatternError("profiles of different sizes are incomparable")
    return all(x <= y for x, y in zip(a.counts, b.counts))


def _simple_cells(prof: Profile, r0: int = 0, c0: int = 0) -> dict[tuple[int, int], str]:
    """The cells of ``simple_pattern(prof)`` translated by (r0, c0)."""
    n = len(prof)
    return {
        (r0 + r, c0 + c): "B" if c < k else "W"
        for r, k in enumerate(prof.counts)
        for c in range(n)
    }


def simple_pattern(prof: Profile) -> Pattern:
    return Pattern(BWR, _simple_cells(prof))


def all_profiles(n: int):
    for counts in itertools.product(range(n + 1), repeat=n):
        yield Profile(counts)


# The simple patterns are exactly the locally admissible patterns of the
# shift forbidding red and a white cell directly left of a black one.
_SIMPLE = spec_from_patterns(
    "simple",
    BWR,
    (Pattern(BWR, {(0, 0): "R"}), Pattern(BWR, {(0, 0): "W", (0, 1): "B"})),
)


def simple_pattern_census(n: int) -> int:
    """Count of simple n x n patterns, produced by enumerating each one, not
    by a closed formula."""
    if n < 1:
        raise PatternError("n must be positive")
    if n > 4:
        raise InfeasibleError("census is limited to n <= 4")
    return sum(1 for _ in iter_rect_patterns(_SIMPLE, n, n))


# ---------------------------------------------------------------------------
# Mirror epitome
# ---------------------------------------------------------------------------


def mirror_epitome(p: Pattern) -> str:
    """Row-major bit string (B -> 0, W -> 1) of a red-free pattern; the empty
    string for any pattern containing red.  Total on all three-letter
    patterns."""
    if not p.is_rectangular:
        raise PatternError("mirror_epitome expects a rectangular pattern")
    if p.alphabet.letters != BWR.letters:
        raise PatternError("mirror_epitome expects the three-letter alphabet")
    rows = p.rows()
    if any("R" in row for row in rows):
        return ""
    return "".join(row.replace("B", "0").replace("W", "1") for row in rows)


# ---------------------------------------------------------------------------
# The enforcer window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnforcerWindow:
    """The 3n x 4n window enforcing a profile maximum at its slot.

    For line i = 1..n (bottom-up; profile entry k = counts[n-i]):

    * a black stripe in window row 3n-i runs from column k+2i-2 up to the
      slot's left edge; together with the k in-slot blacks of a compatible
      pattern the line holds a black run of total length 3n-(2i-1);
    * a red stripe in window row i-1 (line 3n-i+1) spans columns k+2i-2
      through k+3n-1 — length 3n-2(i-1), left-aligned with the black stripe.

    Everything else outside the slot is white.  A pattern P' in the slot
    whose row n-i has k' > k blacks extends the black run right by at least
    one cell, placing a (3n-2i+2)-square with red top row and black bottom
    row between the two stripes.
    """

    n: int
    prof: Profile
    window: Pattern
    slot_origin: tuple[int, int]

    def line_row(self, line: int) -> int:
        return 3 * self.n - line


def build_enforcer(prof: Profile) -> EnforcerWindow:
    n = len(prof)
    if n < 1:
        raise PatternError("profiles must have at least one row")
    H, W = 3 * n, 4 * n
    slot_r, slot_c = 2 * n, 3 * n - 1
    slot = {(slot_r + r, slot_c + c) for r in range(n) for c in range(n)}
    cells: dict[tuple[int, int], str] = {}
    for i in range(1, n + 1):
        k = prof.counts[n - i]
        start = k + 2 * i - 2
        for c in range(start, 3 * n - 1):
            cells[(3 * n - i, c)] = "B"
        for c in range(start, k + 3 * n):
            cells[(i - 1, c)] = "R"
    for r in range(H):
        for c in range(W):
            if (r, c) not in cells and (r, c) not in slot:
                cells.setdefault((r, c), "W")
    return EnforcerWindow(n, prof, Pattern(BWR, cells), (slot_r, slot_c))


def place_in_slot(win: EnforcerWindow, p: Pattern) -> Pattern:
    """The full 3n x 4n window with ``p`` in the slot."""
    n = win.n
    if not (p.is_rectangular and p.height == n and p.width == n):
        raise PatternError(f"slot patterns must be {n}x{n}")
    return win.window.union(p.translate(*win.slot_origin))


@dataclass(frozen=True)
class EnforcerCase:
    counts: tuple[int, ...]
    compatible: bool
    leq: bool
    occurrence: Occurrence | None


@dataclass(frozen=True)
class EnforcerReport:
    """Exhaustive sweep of all (n+1)^n simple slot patterns against one
    enforcer window.

    Clauses: (1) the window accepts its own profile's pattern; (2) every
    compatible pattern has profile <= the target; (3) every pattern with
    profile not <= the target produces an explicit forbidden occurrence.
    ``converse`` records the reverse of (2): profile <= target implies
    compatible."""

    prof: Profile
    cases: tuple[EnforcerCase, ...]
    clause1: bool
    clause2: bool
    clause3: bool
    converse: bool

    @property
    def ok(self) -> bool:
        return self.clause1 and self.clause2 and self.clause3


def verify_enforcer(prof: Profile, spec: ShiftSpec | None = None) -> EnforcerReport:
    """Sweep every simple slot pattern through the enforcer window of
    ``prof``: each case's occurrence is the one ``contains_forbidden`` finds
    in ``place_in_slot(win, simple_pattern(cand))``."""
    spec = spec or red_black_spec()
    win = build_enforcer(prof)
    cases = []
    for cand in all_profiles(len(prof)):
        occ = contains_forbidden(place_in_slot(win, simple_pattern(cand)), spec)
        cases.append(EnforcerCase(cand.counts, occ is None, profile_leq(cand, prof), occ))
    clause1 = any(c.counts == prof.counts and c.compatible for c in cases)
    clause2 = all(c.leq for c in cases if c.compatible)
    clause3 = all(c.occurrence is not None for c in cases if not c.leq)
    converse = all(c.compatible for c in cases if c.leq)
    return EnforcerReport(prof, tuple(cases), clause1, clause2, clause3, converse)


# ---------------------------------------------------------------------------
# Epitome families and the enforcement property check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpitomeFamily:
    """A summary map plus, for the ordered kind, its comparison.

    ``evaluate`` returns a hashable value or None (undefined)."""

    name: str
    evaluate: Callable[[Pattern], object]
    leq: Callable[[object, object], bool] | None = None

    @property
    def kind(self) -> str:
        """Ordered when the family carries a comparison, plain otherwise."""
        return "plain" if self.leq is None else "ordered"


def _total(evaluate):
    """Make a summary map total: undefined (None) instead of raising on
    patterns outside its domain."""

    def wrapped(p: Pattern):
        try:
            return evaluate(p)
        except PatternError:
            return None

    return wrapped


# The property check gives these two objects, and no copies of them, their
# dedicated window builders: the builders never call ``evaluate`` or ``leq``.
_PROFILE_FAMILY = EpitomeFamily("profile", _total(profile), profile_leq)
_MIRROR_FAMILY = EpitomeFamily("mirror", _total(mirror_epitome))


def profile_family() -> EpitomeFamily:
    return _PROFILE_FAMILY


def mirror_family() -> EpitomeFamily:
    return _MIRROR_FAMILY


def identity_family() -> EpitomeFamily:
    """Every pattern is its own summary — enforceable only if single patterns
    can be pinned by a window, which small-instance search refutes for the
    square-forbidding family."""
    return EpitomeFamily(
        name="identity",
        evaluate=lambda p: tuple(p.rows()),
    )


def constant_family(value: object = 0) -> EpitomeFamily:
    return EpitomeFamily(name="constant", evaluate=lambda p: value)


def interior_popcount_family(kind: str = "plain") -> EpitomeFamily:
    """Number of 1-cells strictly inside the bounding box (binary patterns)."""
    if kind not in ("plain", "ordered"):
        raise PatternError(f"unknown kind {kind!r}")

    def evaluate(p: Pattern):
        if p.alphabet.letters != BINARY.letters or not p.is_rectangular:
            return None
        return sum(
            1
            for (r, c), letter in p.items()
            if letter == "1" and 0 < r < p.height - 1 and 0 < c < p.width - 1
        )

    return EpitomeFamily(
        name="interior-popcount",
        evaluate=evaluate,
        leq=(lambda a, b: a <= b) if kind == "ordered" else None,
    )


@dataclass(frozen=True)
class PropertyReport:
    spec_name: str
    family: str
    kind: str
    n: int
    margin: int
    entries: tuple[dict, ...]
    ok: bool
    counterexample: dict | None
    # work counts of the route taken, kept apart from the answer
    work: dict
    note: str = (
        "compatibility means local admissibility of the filled window; "
        "extension to the full plane is approximated by the margin"
    )


def _annulus_pattern(spec, annulus, combo_index):
    letters = spec.alphabet.letters
    base = len(letters)
    cells = {}
    x = combo_index
    for cell in annulus:
        cells[cell] = letters[x % base]
        x //= base
    return Pattern(spec.alphabet, cells)


# Colorings per ``_window_compat`` call: the property check holds one block's
# rows of ``_BLOCK`` bits at a time, never the whole matrix.
_BLOCK = 1 << 15


def _digit_mask(base, t, x, lo, hi):
    """Bit i set iff digit t of lo + i in base ``base`` is x, in O(hi - lo)
    bits however large lo is.  The digit is x on one run of base^t colorings
    per period base^(t+1): a period that fits the block is tiled by doubling
    and shifted to lo; a longer one meets [lo, hi) in at most two runs."""
    run = base**t
    period = run * base
    width = hi - lo
    if period <= width:
        mask, length = ((1 << run) - 1) << (x * run), period
        while length < width + period:
            mask |= mask << length
            length *= 2
        return (mask >> (lo % period)) & ((1 << width) - 1)
    mask = 0
    start = lo - lo % period + x * run
    for a in (start, start + period):
        a, b = max(a, lo), min(a + run, hi)
        if a < b:
            mask |= ((1 << (b - a)) - 1) << (a - lo)
    return mask


def _slot_index(fillings) -> tuple[int, dict]:
    """The number of ``fillings`` (cell dicts), and per cell and letter the
    bitset of the fillings with that letter there.  A filling that lacks a
    cell (a hole) is in none of that cell's bitsets."""
    index: dict = collections.defaultdict(lambda: collections.defaultdict(int))
    count = 0
    for count, cells in enumerate(fillings, 1):
        for cell, a in cells.items():
            index[cell][a] |= 1 << (count - 1)
    return count, index


def _coloring_index(spec, plan, box, annulus):
    """A function of (lo, hi): the ``_slot_index`` of annulus colorings lo..hi
    - 1 (digit t in base |alphabet| is the letter at ``annulus[t]``), with a
    digit mask for each (cell, letter) that some placement of ``plan``
    inside ``box`` reads, and for no other: unread masks cost red-black
    identity at n = 2 about 7%.  A pattern cell (r, c) is read in the
    rectangle of the pattern's anchors shifted by (r, c)."""
    letters = spec.alphabet.letters
    r0, c0, r1, c1 = box
    reads = set()
    for fcells in plan:
        fr0, fc0, fr1, fc1 = _bbox_of([cell for cell, _ in fcells])
        for (dr, dc), a in fcells:
            rows = range(r0 - fr0 + dr, r1 - fr1 + dr + 1)
            cols = range(c0 - fc0 + dc, c1 - fc1 + dc + 1)
            reads.update(((r, c), a) for r in rows for c in cols)

    def index(lo, hi):
        return hi - lo, {
            cell: {
                a: _digit_mask(len(letters), t, x, lo, hi)
                for x, a in enumerate(letters)
                if (cell, a) in reads
            }
            for t, cell in enumerate(annulus)
        }

    return index


def _window_compat(plan, box, rows, cols):
    """One int per row of ``rows``: bit i of entry j says whether row j and
    column i of ``cols`` (``_slot_index`` results over disjoint cells)
    together fill a locally admissible window.

    A placement of a ``plan`` pattern inside ``box`` (r0, c0, r1, c1)
    matches the AND of the row bitsets of its row cells and the column
    bitsets of its column cells; one that meets a cell neither side holds
    (a hole) matches nothing.  So the check is exact where ``plan`` is: the
    forbidden list in any window, ``window_plan`` in a full one.  Matched
    rows lose the matched columns; a placement stops once either is empty."""
    count, row_index = rows
    width, col_index = cols
    every = (1 << count) - 1
    full = (1 << width) - 1
    cleared = [0] * count
    everywhere = 0
    r0, c0, r1, c1 = box
    for fcells in plan:
        fr0, fc0, fr1, fc1 = _bbox_of([cell for cell, _ in fcells])
        for ar in range(r0 - fr0, r1 - fr1 + 1):
            for ac in range(c0 - fc0, c1 - fc1 + 1):
                hit_rows, hit_cols = every, full
                for (dr, dc), a in fcells:
                    cell = (ar + dr, ac + dc)
                    if cell in row_index:
                        hit_rows &= row_index[cell].get(a, 0)
                    elif cell in col_index:
                        hit_cols &= col_index[cell].get(a, 0)
                    else:
                        break
                    if not (hit_rows and hit_cols):
                        break
                else:
                    if hit_rows == every:
                        everywhere |= hit_cols
                        continue
                    while hit_rows:
                        low = hit_rows & -hit_rows
                        cleared[low.bit_length() - 1] |= hit_cols
                        hit_rows ^= low
    return [full & ~(everywhere | bits) for bits in cleared]


def _vacuous(spec, fam, n) -> PatternError:
    return PatternError(
        f"the {fam.name} family is undefined on every {n}x{n} pattern of {spec.name}, "
        "so the check would hold vacuously"
    )


def _check_generic(spec, fam, n, margin):
    """Every annulus coloring against every candidate, in blocks of
    ``_BLOCK`` colorings.  Per candidate the blocks fold whether it is
    compatible anywhere, whether some compatible coloring witnesses it (no
    more tests once one has), and its first compatible coloring, whose
    column a counterexample is read from."""
    ring = annulus(n, n, margin)
    combos = len(spec.alphabet) ** len(ring)
    if combos > MAX_ANNULUS_COLORINGS:
        raise InfeasibleError(
            f"annulus search over {combos} colorings is infeasible; lower --n or --margin"
        )
    candidates = list(iter_rect_patterns(spec, n, n))
    values = [fam.evaluate(q) for q in candidates]
    if all(v is None for v in values):
        raise _vacuous(spec, fam, n)
    plain = fam.kind == "plain"

    def conflicts(vv, v) -> bool:
        """A candidate of value ``vv`` sharing a coloring with one of value
        ``v`` keeps that coloring from witnessing ``v``."""
        return vv is None or (vv != v if plain else not fam.leq(vv, v))

    defined = [j for j, v in enumerate(values) if v is not None]
    undefined = [j for j, v in enumerate(values) if v is None]
    by_value: dict = {}
    for j in defined:
        by_value.setdefault(values[j], []).append(j)
    bad: dict[int, list[int]] = {}  # ordered kind: the defined conflicts of j

    def any_of(rows, cols) -> int:
        """Colorings compatible with at least one candidate of ``cols``."""
        out = 0
        for j in cols:
            out |= rows[j]
        return out

    side = n + 2 * margin
    plan = kernel_of(spec).window_plan(side)
    box = (0, 0, side - 1, side - 1)
    index = _slot_index(q.translate(margin, margin).cells for q in candidates)
    colorings = _coloring_index(spec, plan, box, ring)
    first: dict[int, int] = {}  # j -> its first compatible coloring
    passed = [False] * len(candidates)
    for lo in range(0, combos, _BLOCK):
        hi = min(lo + _BLOCK, combos)
        rows = _window_compat(plan, box, index, colorings(lo, hi))
        for j, row in enumerate(rows):
            if row and j not in first:
                first[j] = lo + (row & -row).bit_length() - 1
        pending = [j for j in defined if rows[j] and not passed[j]]
        if not pending:
            continue
        undef_any = any_of(rows, undefined)
        if plain:
            # a coloring witnesses P iff exactly one distinct value is
            # compatible with it (necessarily P's own) and nothing undefined
            # is: ``once`` marks the colorings some value hits, ``twice``
            # those a second value hits too
            once = twice = 0
            for cols in by_value.values():
                hits = any_of(rows, cols)
                twice |= once & hits
                once |= hits
            unique_ok = once & ~(twice | undef_any)
        for j in pending:
            if plain:
                good = rows[j] & unique_ok
            else:
                if j not in bad:
                    bad[j] = [jj for jj in defined if conflicts(values[jj], values[j])]
                good = rows[j] & ~(any_of(rows, bad[j]) | undef_any)
            passed[j] = bool(good)

    entries = []
    counterexample = None
    for j in defined:
        if j not in first:
            continue  # not margin-admissible; outside the contract
        q, v = candidates[j], values[j]
        entries.append({"pattern": q.rows(), "value": repr(v), "pass": passed[j]})
        if not passed[j] and counterexample is None:
            i = first[j]
            # the column of coloring i, built again: one bit per candidate
            column = _window_compat(plan, box, index, colorings(i, i + 1))
            conflict = next(jj for jj, vv in enumerate(values) if column[jj] and conflicts(vv, v))
            counterexample = {
                "pattern": q.rows(),
                "annulus": _annulus_pattern(spec, ring, i).render(),
                "also_compatible": candidates[conflict].rows(),
                "other_value": repr(values[conflict]),
            }
    work = {
        "annulus_colorings": combos,
        "candidates": len(candidates),
        "window_checks": combos * len(candidates),
    }
    return entries, counterexample, work


def _profiles_below(profs) -> list[int]:
    """Per profile j, the bitset of the profiles i with ``profile_leq(profs[i],
    profs[j])``: the AND over rows r of the bitsets of the profiles with at
    most ``profs[j].counts[r]`` blacks in row r."""
    _, exact = _slot_index(dict(enumerate(p.counts)) for p in profs)
    at_most = {
        r: {k: sum(m for x, m in ks.items() if x <= k) for k in ks} for r, ks in exact.items()
    }
    return [
        functools.reduce(operator.and_, (at_most[r][k] for r, k in enumerate(p.counts)))
        for p in profs
    ]


def _check_red_black_profiles(spec, n):
    """The enforcer route: one placement pass with every profile's window as
    a row and every simple slot pattern (slot at (2n, 3n - 1)) as a column.
    A filled window is full, so ``window_plan`` is exact; the margin plays
    no part."""
    profs = list(all_profiles(n))
    windows = _slot_index(build_enforcer(prof).window.cells for prof in profs)
    fillings = _slot_index(_simple_cells(cand, 2 * n, 3 * n - 1) for cand in profs)
    plan = kernel_of(spec).window_plan(4 * n)
    rows = _window_compat(plan, (0, 0, 3 * n - 1, 4 * n - 1), windows, fillings)
    below = _profiles_below(profs)
    entries = []
    for j, (prof, row) in enumerate(zip(profs, rows)):
        passed = bool(row >> j & 1) and not row & ~below[j]
        entries.append(
            {
                "pattern": simple_pattern(prof).rows(),
                "value": repr(prof.counts),
                "pass": passed,
            }
        )
    counterexample = None if all(e["pass"] for e in entries) else {"detail": "see enforcer sweep"}
    return entries, counterexample, {"window_scans": len(profs) ** 2}


def _mirror_window(p: Pattern) -> Pattern:
    """The mirror family's witness window for a slot pattern.

    Black/white patterns get a full red row directly below the slot plus the
    reflected copy of the slot rows below it; a pattern containing red (one
    full red row in any admissible case) gets two red cells flanking that
    row just outside the slot, which force the row red and mirror-pin the
    rest."""
    n = p.height
    rows = p.rows()
    if not any("R" in row for row in rows):
        cells = {(n, c): "R" for c in range(n)}
        for d in range(1, n + 1):
            for c in range(n):
                cells[(n + d, c)] = rows[n - d][c]
        return Pattern(BWR, cells)
    red_rows = [r for r, row in enumerate(rows) if row == "R" * n]
    if len(red_rows) != 1:
        raise PatternError("admissible mirror patterns have exactly one full red row")
    r = red_rows[0]
    return Pattern(BWR, {(r, -1): "R", (r, n): "R"})


def _check_mirror(spec, n, margin):
    """The mirror-line route over the blocks that extend by ``margin``: one
    placement pass with every block's window as a row and every candidate
    as a column.  The windows have holes, so the plan is the forbidden list
    itself, up to the extent 2n + 1 of the box (0, -1, 2n, n) that holds
    each window and its slot."""
    candidates = list(iter_rect_patterns(spec, n, n))
    blocks = list(iter_rect_patterns(spec, n, n, margin))
    windows = _slot_index(_mirror_window(p).cells for p in blocks)
    plan = [tuple(f.items()) for f in spec.enumerator(2 * n + 1)]
    fillings = _slot_index(q.cells for q in candidates)
    rows = _window_compat(plan, (0, -1, 2 * n, n), windows, fillings)
    values = [_MIRROR_FAMILY.evaluate(q) for q in candidates]
    entries = []
    for p, row in zip(blocks, rows):
        value = _MIRROR_FAMILY.evaluate(p)
        compatible = list(_members(row))
        self_ok = any(candidates[j] == p for j in compatible)
        passed = self_ok and all(values[j] == value for j in compatible)
        entry = {
            "pattern": p.rows(),
            "value": repr(value),
            "compatible_count": len(compatible),
            "pass": passed,
        }
        entries.append(entry)
    counterexample = next(({"pattern": e["pattern"]} for e in entries if not e["pass"]), None)
    return entries, counterexample, {"window_scans": len(entries) * len(candidates)}


def epitome_property_check(
    spec: ShiftSpec, fam: EpitomeFamily, n: int, window_margin: int = 1
) -> PropertyReport:
    """Exhaustively test the enforcement property of a family at size n.

    Route selection: the object ``profile_family()`` returns, over a spec
    with the square-forbidding kernel, uses its enforcer windows (the margin
    plays no part); the object ``mirror_family()`` returns, over a spec with
    the mirror enumerator, uses the red-line window builder; any other
    family, a copy of those two included, sweeps every annulus coloring of
    the given margin (with a feasibility guard).  A spec's name never
    selects a route.  A check that would hold vacuously is refused: one
    whose family is undefined on every candidate, or that leaves no entry.
    """
    if n < 1:
        raise PatternError("n must be positive")
    if window_margin < 0:
        raise PatternError("window_margin must be nonnegative")
    if fam is _PROFILE_FAMILY and spec.kernel is RED_BLACK_KERNEL:
        entries, counterexample, work = _check_red_black_profiles(spec, n)
    elif fam is _MIRROR_FAMILY and spec.enumerator is _mirror_enumerator:
        entries, counterexample, work = _check_mirror(spec, n, window_margin)
    else:
        entries, counterexample, work = _check_generic(spec, fam, n, window_margin)
    if not entries:
        raise PatternError(
            f"no {n}x{n} pattern of {spec.name} with a defined {fam.name} value fits "
            f"a window of margin {window_margin}, so the check would hold vacuously"
        )
    ok = all(e["pass"] for e in entries)
    return PropertyReport(
        spec.name, fam.name, fam.kind, n, window_margin, tuple(entries), ok, counterexample, work
    )


# ---------------------------------------------------------------------------
# Border consistency for factor covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorderGroup:
    border: str
    size: int
    values: tuple[str, ...]
    flagged: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Groups of locally admissible cover patterns sharing a border ring.

    A group is flagged when the border fails to determine the epitome of the
    projection: several distinct values (plain kind) or no maximum value
    (ordered kind).  The undefined value None is one more value: the order
    compares it by equality only.  ``ledger_bits`` is the cost of
    remembering one border: its cells (4n-4, or the one cell at n = 1) times
    ceil(log2 |cover alphabet|)."""

    n: int
    family: str
    kind: str
    groups: tuple[BorderGroup, ...]
    flagged_count: int
    ledger_bits: int


def _project(p: Pattern, projection: dict[str, str]) -> Pattern:
    image = sorted(set(projection.values()))
    if set(image) <= {"0", "1"}:
        alphabet = BINARY
    elif set(image) <= {"B", "W", "R"}:
        alphabet = BWR
    else:
        raise PatternError(f"projection image {image} is not a supported alphabet")
    cells = {cell: projection[a] for cell, a in p.items()}
    return Pattern._adopt(alphabet, cells, p.bbox)  # noqa: SLF001 - cells dies here


def border_epitome_consistency(
    spec: ShiftSpec, projection: dict[str, str], fam: EpitomeFamily, n: int
) -> ConsistencyReport:
    """Group the locally admissible n x n cover patterns by border ring and
    test whether the ring determines the projected pattern's epitome.  A
    family undefined on every projected pattern is refused."""
    if n < 1:
        raise PatternError("n must be positive")
    missing = [a for a in spec.alphabet.letters if a not in projection]
    if missing:
        raise PatternError(
            f"projection leaves out {', '.join(map(repr, missing))} "
            f"of the {spec.name} alphabet"
        )
    ring = annulus(n - 2, n - 2, 1)
    groups: dict[str, list] = {}
    for q in iter_rect_patterns(spec, n, n):
        key = "".join(q.at(r, c) for r, c in ring)
        groups.setdefault(key, []).append(fam.evaluate(_project(q, projection)))
    if all(v is None for vals in groups.values() for v in vals):
        raise _vacuous(spec, fam, n)

    def leq(u, v) -> bool:
        return u == v if u is None or v is None else fam.leq(u, v)

    out = []
    flagged_count = 0
    for key in sorted(groups):
        vals = groups[key]
        if fam.kind == "plain":
            flagged = len(set(map(repr, vals))) > 1
        else:
            flagged = not any(all(leq(u, v) for u in vals) for v in vals)
        if flagged:
            flagged_count += 1
        out.append(
            BorderGroup(
                border=key,
                size=len(vals),
                values=tuple(sorted(set(map(repr, vals)))),
                flagged=flagged,
            )
        )
    return ConsistencyReport(
        n=n,
        family=fam.name,
        kind=fam.kind,
        groups=tuple(out),
        flagged_count=flagged_count,
        ledger_bits=len(ring) * spec.alphabet.letter_bits,
    )
