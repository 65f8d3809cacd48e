"""Spec kernels.

A spec's name never selects a fast path: user specs named like the built-in
families get the answers of their own forbidden list.  The red-black
run-mask kernel agrees with the generic kernel built from the materialized
red-black list.
"""

import collections
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_admissibility import user_specs_and_sizes

from shiftlab.admissibility import count_admissible, extendable
from shiftlab.core import (
    BWR,
    RED_BLACK_KERNEL,
    Pattern,
    ShiftSpec,
    _square_plan,
    _squares_at,
    annulus,
    contains_forbidden,
    hard_square_spec,
    iter_rect_patterns,
    kernel_of,
    make_pattern,
    mirror_spec,
    red_black_index_offset,
    red_black_spec,
    spec_from_patterns,
)
from shiftlab.epitomes import (
    _coloring_index,
    _digit_mask,
    _slot_index,
    _window_compat,
    epitome_property_check,
    identity_family,
    mirror_family,
    profile_family,
)

BB = Pattern(BWR, {(0, 0): "B", (0, 1): "B"})
RB_SPEC = red_black_spec()
RB_FORBIDDEN = RB_SPEC.enumerator(4)


def _domino_spec(name):
    return spec_from_patterns(name, BWR, [BB])


def _annulus_classes(spec, n, margin, annulus):
    """``_coloring_index`` of ``annulus`` as the generic route builds it."""
    side = n + 2 * margin
    plan = kernel_of(spec).window_plan(side)
    return _coloring_index(spec, plan, (0, 0, side - 1, side - 1), annulus)


def _annulus_compat(spec, n, margin, annulus, candidates, lo, hi):
    """``_window_compat`` as the generic route calls it: the candidates in
    the slot at (margin, margin) of a full window, the kernel's plan, and
    coloring classes lo..hi - 1."""
    side = n + 2 * margin
    plan = kernel_of(spec).window_plan(side)
    index = _slot_index(q.translate(margin, margin).cells for q in candidates)
    box = (0, 0, side - 1, side - 1)
    _, _, classes = _annulus_classes(spec, n, margin, annulus)
    return _window_compat(plan, box, index, classes(lo, hi))


def _capped_spec(cap):
    """The red-black spec without its kernel, its list leaving out squares
    larger than ``cap``, which cannot occur in a box whose shorter side is
    ``cap``."""
    return ShiftSpec(
        "red-black", BWR, lambda e: RB_FORBIDDEN[: red_black_index_offset(min(e, cap) + 1)]
    )


def _capped_generic(cap):
    return kernel_of(_capped_spec(cap))


# ---------------------------------------------------------------------------
# No routing on spec names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, routed", [("red-black", profile_family), ("mirror", mirror_family)])
def test_spec_name_selects_no_fast_path(name, routed):
    named, user = _domino_spec(name), _domino_spec("user")
    host = make_pattern(["BW", "WB"])
    witness = extendable(host, named, 1)
    assert witness == extendable(host, user, 1)
    assert contains_forbidden(witness, user) is None
    assert count_admissible(named, 2, 1) == count_admissible(user, 2, 1)
    for fam in (identity_family(), routed()):
        got = epitome_property_check(named, fam, 1)
        want = epitome_property_check(user, fam, 1)
        assert (got.ok, got.entries, got.counterexample) == (
            want.ok,
            want.entries,
            want.counterexample,
        )
    rep = epitome_property_check(named, identity_family(), 1)
    assert [e["pass"] for e in rep.entries] == [False, False, False]


# ---------------------------------------------------------------------------
# Run-mask kernel against the generic kernel
# ---------------------------------------------------------------------------


@st.composite
def planted_coloring(draw, squares):
    """A box of at most 5 x 5 cells but not 5 x 5 (that would need the 3^15
    forbidden squares of size 5), colored at random, with ``squares``
    planted squares of red top row and black bottom row (none in a box one
    cell thin), and the cells of the planted interiors."""
    h = draw(st.integers(min_value=1, max_value=5))
    w = draw(st.integers(min_value=1, max_value=4 if h == 5 else 5))
    coloring = {(r, c): draw(st.sampled_from(BWR.letters)) for r in range(h) for c in range(w)}
    interiors = []
    for _ in range(squares):
        s = draw(st.integers(min_value=min(2, h, w), max_value=min(h, w)))
        top = draw(st.integers(min_value=0, max_value=h - s))
        left = draw(st.integers(min_value=0, max_value=w - s))
        if s > 1:
            for c in range(left, left + s):
                coloring[(top, c)] = "R"
                coloring[(top + s - 1, c)] = "B"
                interiors += [(r, c) for r in range(top + 1, top + s - 1)]
    return h, w, coloring, interiors


@settings(max_examples=100, deadline=None)
@given(planted_coloring(1), st.data())
def test_run_mask_state_matches_generic_state(box, data):
    # The coloring is assigned cell by cell in a drawn order, so the planted
    # square completes with its interior full or with holes; random
    # retracts (letter None) and reassignments follow.
    h, w, coloring, _ = box
    order = data.draw(st.permutations(sorted(coloring)))
    loaded = data.draw(st.integers(min_value=0, max_value=len(order) // 3))
    ops = [(cell, coloring[cell]) for cell in order[loaded:]]
    ops += data.draw(
        st.lists(st.tuples(st.sampled_from(order), st.sampled_from(BWR.letters + (None,))), max_size=40)
    )
    bbox = (0, 0, h - 1, w - 1)
    fast = RED_BLACK_KERNEL.state(bbox)
    slow = _capped_generic(min(h, w)).state(bbox)
    for oracle in (fast, slow):
        oracle.load({cell: coloring[cell] for cell in order[:loaded]})
    for cell, letter in ops:
        if letter is None:
            if cell in fast.cells:
                fast.retract(cell)
                slow.retract(cell)
        elif cell not in fast.cells:
            assert fast.assign(cell, letter) == slow.assign(cell, letter)
        assert fast.cells == slow.cells


def _squares_holding(h, w, r, c):
    return sorted(
        (top, top + s - 1, sum(1 << col for col in range(left, left + s)))
        for s in range(2, min(h, w) + 1)
        for top in range(h - s + 1)
        for left in range(w - s + 1)
        if top <= r < top + s and left <= c < left + s
    )


@pytest.mark.parametrize("h", range(1, 8))
def test_square_plan_lists_the_squares_holding_each_cell(h):
    for w in range(1, 8 if h < 7 else 7):
        for r in range(h):
            for c in range(w):
                plan = [
                    (top, bottom, bits)
                    for top, _ in _square_plan(h, w, r, c)
                    for bottom, bits in _squares_at(h, w, top, r, c)
                ]
                assert sorted(plan) == _squares_holding(h, w, r, c)


@settings(max_examples=80, deadline=None)
@given(planted_coloring(3), st.data())
def test_run_mask_scan_matches_generic_scan(box, data):
    # holes inside a planted square keep it from being forbidden
    h, w, coloring, interiors = box
    holes = data.draw(st.sets(st.sampled_from(interiors or sorted(coloring)), max_size=1))
    p = Pattern(BWR, {cell: a for cell, a in coloring.items() if cell not in holes})
    assert contains_forbidden(p, RB_SPEC) == contains_forbidden(p, _capped_spec(min(h, w)))


@settings(max_examples=100, deadline=None)
@given(planted_coloring(2), st.data())
def test_state_scan_matches_contains_forbidden(box, data):
    # A partial box at a drawn offset is loaded whole, then a drawn sub-box
    # is retracted and loaded again, as an enforcer sweep refills its slot.
    h, w, coloring, interiors = box
    dr, dc = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    holes = data.draw(st.sets(st.sampled_from(interiors or sorted(coloring)), max_size=2))
    holes |= data.draw(st.sets(st.sampled_from(sorted(coloring)), max_size=3))
    cells = {(r + dr, c + dc): a for (r, c), a in coloring.items() if (r, c) not in holes}
    r0 = data.draw(st.integers(0, h - 1))
    r1 = data.draw(st.integers(r0, h - 1))
    c0 = data.draw(st.integers(0, w - 1))
    c1 = data.draw(st.integers(c0, w - 1))
    sub = {
        (r, c): a for (r, c), a in cells.items() if r0 <= r - dr <= r1 and c0 <= c - dc <= c1
    }
    rest = {cell: a for cell, a in cells.items() if cell not in sub}

    def reference(cells):
        return contains_forbidden(Pattern(BWR, cells), RB_SPEC)

    bbox = (dr, dc, dr + h - 1, dc + w - 1)
    for kernel in (RED_BLACK_KERNEL, _capped_generic(min(h, w))):
        state = kernel.state(bbox)
        state.load(cells)
        assert state.scan() == reference(cells)
        for cell in sub:
            state.retract(cell)
        assert state.cells == rest
        assert state.scan() == reference(rest)
        state.load(sub)
        assert state.scan() == reference(cells)


@settings(max_examples=100, deadline=None)
@given(planted_coloring(2), planted_coloring(2), st.data())
def test_load_over_filled_cells_overwrites(box, over, data):
    # a second coloring loaded over part of the first, as a window check
    # loads each candidate's slot over the last, scans as the merged cells
    h, w, coloring, _ = box
    oh, ow, other, _ = over
    keep = data.draw(st.sets(st.sampled_from(sorted(other))))
    top = {(r, c): a for (r, c), a in other.items() if (r, c) in keep and r < h and c < w}
    merged = {**coloring, **top}
    bbox = (0, 0, h - 1, w - 1)
    for kernel in (RED_BLACK_KERNEL, _capped_generic(min(h, w))):
        state = kernel.state(bbox)
        state.load(coloring)
        state.load(top)
        fresh = kernel.state(bbox)
        fresh.load(merged)
        assert state.cells == fresh.cells == merged
        assert state.scan() == fresh.scan() == contains_forbidden(Pattern(BWR, merged), RB_SPEC)


def test_run_mask_window_compat_matches_generic_exhaustive():
    # the red-black kernel's sparse-square plan against the listed squares;
    # both read the same letters at each ring cell, so their 2^6 * 3^2
    # coloring classes are numbered alike
    ring = annulus(1, 1, 1)
    classes = [_annulus_classes(spec, 1, 1, ring) for spec in (RB_SPEC, _capped_spec(3))]
    (count, least, _), (other_count, other_least, _) = classes
    assert count == other_count == 2**6 * 3**2
    assert list(map(least, range(count))) == list(map(other_least, range(count)))
    candidates = [make_pattern([a], BWR) for a in BWR.letters]
    fast = _annulus_compat(RB_SPEC, 1, 1, ring, candidates, 0, count)
    slow = _annulus_compat(_capped_spec(3), 1, 1, ring, candidates, 0, count)
    assert fast == slow
    assert len(fast) == 3 and all(row >> count == 0 for row in fast)
    assert 0 < sum(row.bit_count() for row in fast) < 3 * count
    # a block is the same columns of the whole matrix
    for spec in (RB_SPEC, _capped_spec(3)):
        block = _annulus_compat(spec, 1, 1, ring, candidates, 100, 500)
        assert block == [row >> 100 & (1 << 400) - 1 for row in fast]


# ---------------------------------------------------------------------------
# Placement masks against the per-pair window check
# ---------------------------------------------------------------------------


def _ring_reads(spec, n, margin):
    """Per annulus cell, the letters that some placement of the kernel's
    window plan inside the window of margin ``margin`` reads there, found by
    placing each plan pattern at every anchor and keeping those inside."""
    side = n + 2 * margin
    reads = collections.defaultdict(set)
    for fcells in kernel_of(spec).window_plan(side):
        for ar, ac in itertools.product(range(-side, side), repeat=2):
            placed = [((ar + dr, ac + dc), a) for (dr, dc), a in fcells]
            if all(0 <= r < side and 0 <= c < side for (r, c), _ in placed):
                for cell, a in placed:
                    reads[cell].add(a)
    return {cell: reads[cell] for cell in annulus(n, n, margin)}


def _ring_classes(spec, n, margin):
    """Per annulus cell, the class digit of each letter in alphabet order,
    from ``_ring_reads``: each read letter is a class, the unread letters
    one more, and classes are numbered in order of their least letter."""
    digits = []
    for letters in _ring_reads(spec, n, margin).values():
        heads: dict = {}  # a read letter, or None for the unread ones -> digit
        for a in spec.alphabet.letters:
            heads.setdefault(a if a in letters else None, len(heads))
        digits.append([heads[a if a in letters else None] for a in spec.alphabet.letters])
    return digits


def _class_of(digits, base, coloring):
    """The class number of a coloring (digit t in base ``base`` is the
    letter at ring cell t): the class at cell t is digit t in mixed radix."""
    k, run = 0, 1
    for t, row in enumerate(digits):
        k += row[coloring // base**t % base] * run
        run *= max(row) + 1
    return k


def _least_coloring(digits, base, k):
    """The least coloring of class k: at each cell, its class's least letter."""
    i, run = 0, 1
    for t, row in enumerate(digits):
        radix = max(row) + 1
        i += row.index(k // run % radix) * base**t
        run *= radix
    return i


def _class_block(spec, n, margin, lo, hi):
    """The classes of colorings lo..hi - 1, one per coloring, and the block
    k0..k1 - 1 of classes they span."""
    digits = _ring_classes(spec, n, margin)
    ks = [_class_of(digits, len(spec.alphabet), i) for i in range(lo, hi)]
    return ks, min(ks), max(ks) + 1


def _per_pair_window_compat(spec, n, margin, annulus, candidates, colorings):
    """``_window_compat`` by its definition: one kernel state per coloring
    (digit t in base |alphabet| is the letter at ``annulus[t]``), loaded
    with each candidate in turn and scanned; bit i is ``colorings[i]``."""
    letters = spec.alphabet.letters
    base = len(letters)
    side = n + 2 * margin
    compat = [0] * len(candidates)
    slots = [{(r + margin, c + margin): a for (r, c), a in q.items()} for q in candidates]
    for i, coloring in enumerate(colorings):
        state = kernel_of(spec).state((0, 0, side - 1, side - 1))
        state.load({cell: letters[coloring // base**t % base] for t, cell in enumerate(annulus)})
        for j, slot in enumerate(slots):
            state.load(slot)
            compat[j] |= (state.scan() is None) << i
            for cell in slot:
                state.retract(cell)
    return compat


def _assert_matches_per_pair(spec, n, margin, lo, hi):
    """The placement pass over the classes of colorings lo..hi - 1 against
    a per-pair scan of each class's least coloring, numbered as the
    ``_ring_reads`` oracle numbers classes, and of every coloring lo..hi - 1,
    which must scan as its class does."""
    ring = annulus(n, n, margin)
    base = len(spec.alphabet)
    candidates = list(iter_rect_patterns(spec, n, n))
    digits = _ring_classes(spec, n, margin)
    count, least, _ = _annulus_classes(spec, n, margin, ring)
    assert count == math.prod(max(row) + 1 for row in digits)
    ks, k0, k1 = _class_block(spec, n, margin, lo, hi)
    leasts = [_least_coloring(digits, base, k) for k in range(k0, k1)]
    assert leasts == [least(k) for k in range(k0, k1)]
    got = _annulus_compat(spec, n, margin, ring, candidates, k0, k1)
    assert len(got) == len(candidates)
    assert all(0 <= row < 1 << (k1 - k0) for row in got)
    assert got == _per_pair_window_compat(spec, n, margin, ring, candidates, leasts)
    each = _per_pair_window_compat(spec, n, margin, ring, candidates, range(lo, hi))
    assert each == [sum((row >> (k - k0) & 1) << i for i, k in enumerate(ks)) for row in got]


@pytest.mark.parametrize(
    "spec, n, margin, lo, hi",
    [
        (hard_square_spec(), 1, 1, 0, 2**8),
        (hard_square_spec(), 2, 1, 0, 2**12),
        (hard_square_spec(), 2, 0, 0, 1),
        (hard_square_spec(), 3, 1, 2**15 - 1000, 2**15 + 1000),
        (hard_square_spec(), 2, 2, 2**19, 2**19 + 3000),
        (mirror_spec(), 1, 1, 0, 3**8),
        (mirror_spec(), 2, 0, 0, 1),
        (mirror_spec(), 2, 1, 3**11, 3**11 + 2000),
        (_capped_spec(3), 2, 1, 7 * 3**9, 7 * 3**9 + 100),
        (RB_SPEC, 1, 1, 0, 3**8),
        (RB_SPEC, 2, 0, 0, 1),
        (RB_SPEC, 2, 1, 3**11, 3**11 + 2000),
        (RB_SPEC, 1, 2, 5 * 3**19, 5 * 3**19 + 2000),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_placement_masks_match_per_pair_scans(spec, n, margin, lo, hi):
    _assert_matches_per_pair(spec, n, margin, lo, hi)


@st.composite
def plan_specs_and_blocks(draw):
    """A spec of ``user_specs_and_sizes``, a block size n <= 2, a margin
    <= 1 and a block lo < hi of at most 100 of its annulus colorings."""
    spec, _ = draw(user_specs_and_sizes())
    n = draw(st.integers(min_value=1, max_value=2))
    margin = draw(st.integers(min_value=0, max_value=1))
    combos = len(spec.alphabet) ** len(annulus(n, n, margin))
    lo = draw(st.integers(min_value=0, max_value=combos - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=min(combos, lo + 100)))
    return spec, n, margin, lo, hi


@settings(max_examples=100, deadline=None)
@given(plan_specs_and_blocks())
def test_placement_masks_match_per_pair_scans_on_random_specs(case):
    _assert_matches_per_pair(*case)


@settings(max_examples=50, deadline=None)
@given(plan_specs_and_blocks())
def test_swapping_rows_and_columns_transposes_the_bits(case):
    # over the block of classes that colorings lo..hi - 1 span
    spec, n, margin, lo, hi = case
    _, k0, k1 = _class_block(spec, n, margin, lo, hi)
    side = n + 2 * margin
    plan = kernel_of(spec).window_plan(side)
    box = (0, 0, side - 1, side - 1)
    index = _slot_index(q.translate(margin, margin).cells for q in iter_rect_patterns(spec, n, n))
    colorings = _coloring_index(spec, plan, box, annulus(n, n, margin))[2](k0, k1)
    rows = _window_compat(plan, box, index, colorings)
    cols = _window_compat(plan, box, colorings, index)
    assert len(cols) == k1 - k0
    assert cols == [sum((row >> i & 1) << j for j, row in enumerate(rows)) for i in range(k1 - k0)]


@st.composite
def sparse_windows(draw):
    """A spec of ``user_specs_and_sizes``, an n x n slot at the origin with
    n <= 2, and one to four windows around it in the box of margin 2, each
    holding its own cells of the ring, the rest holes."""
    spec, n = draw(user_specs_and_sizes())
    n = min(n, 2)
    box = [(r, c) for r in range(-2, n + 2) for c in range(-2, n + 2)]
    ring = [(r, c) for r, c in box if not (0 <= r < n and 0 <= c < n)]
    window = st.dictionaries(st.sampled_from(ring), st.sampled_from(spec.alphabet.letters))
    return spec, n, draw(st.lists(window, min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(sparse_windows())
def test_window_check_on_sparse_windows_matches_per_candidate_scans(case):
    # with the forbidden list as the plan, a placement over a hole matches
    # nothing, as a scan of the window with its holes finds nothing there;
    # each window's holes are its own
    spec, n, windows = case
    candidates = list(iter_rect_patterns(spec, n, n))
    plan = [tuple(f.items()) for f in spec.enumerator(n + 4)]
    fillings = _slot_index(q.cells for q in candidates)
    rows = _window_compat(plan, (-2, -2, n + 1, n + 1), _slot_index(windows), fillings)
    assert len(rows) == len(windows)
    for window, row in zip(windows, rows):
        for i, q in enumerate(candidates):
            filled = Pattern(spec.alphabet, {**window, **q.cells})
            assert (row >> i & 1) == (contains_forbidden(filled, spec) is None)


def test_digit_masks_match_their_definition():
    # uniform and mixed radices, radix 1 included; blocks at 0, inside one
    # period, across a run's end, and across a period's end while the period
    # is longer than the block
    for radices in ((2,) * 5, (3,) * 5, (2, 3, 1, 3, 2), (3, 1, 2, 2, 3), (1, 1, 3, 2, 2)):
        run = 1
        for radix in radices:
            for x in range(radix):
                for lo, hi in ((0, 1), (0, 200), (5, 40), (26, 30), (70, 100), (100, 250)):
                    want = sum(((lo + i) // run % radix == x) << i for i in range(hi - lo))
                    assert _digit_mask(run, radix, x, lo, hi) == want, (run, radix, x, lo, hi)
            run *= radix


@pytest.mark.parametrize("lo", [5 * 3**12, 5 * 3**19])
def test_digit_masks_stay_within_the_block(lo):
    # red-black n = 1, margin 2 has 3^24 colorings in 2^10 * 3^14 classes
    # (ten ring cells are read as R only or as B only, 14 as both); a block
    # of classes from that of coloring lo, far from 0, must cost bits for
    # its own width, not for every class below it
    ring = annulus(1, 1, 2)
    candidates = list(iter_rect_patterns(RB_SPEC, 1, 1))
    _, k, _ = _class_block(RB_SPEC, 1, 2, lo, lo + 1)
    assert k > 2**18
    tracemalloc.start()
    try:
        rows = _annulus_compat(RB_SPEC, 1, 2, ring, candidates, k, k + 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert any(rows)
