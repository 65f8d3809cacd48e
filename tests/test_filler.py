"""Filler letters and the routes that use them.

A filler f of a kernel at extent e is a letter such that in every forbidden
pattern of extent <= e the cells not labelled f are nonempty and span the
pattern's bounding box.  With one, every locally admissible block extends by
an all-f ring and every admissible partial assignment of a nearest-neighbour
square completes, so margin ring searches and completability probes are
skipped.  Here the filler route is checked against the same code with the
filler hidden, which runs every search.
"""

import random

import pytest

from shiftlab.admissibility import count_admissible
from shiftlab.core import (
    BINARY,
    BWR,
    RED_BLACK_KERNEL,
    GenericKernel,
    Pattern,
    ShiftSpec,
    _red_black_enumerator,
    completable,
    contains_forbidden,
    hard_square_spec,
    iter_rect_patterns,
    kernel_of,
    lex_assignments,
    make_pattern,
    mirror_spec,
    spec_from_patterns,
)
from shiftlab.deepshift import two_part_code
from shiftlab.lowcfg import (
    NNSpec,
    _interior_cells,
    build_Pk,
    choose_border,
    ring_cells,
    side_of_level,
    standard_square,
)

HS = hard_square_spec()


class _HiddenFiller:
    """Delegates to the generic kernel of a spec but reports no filler."""

    def __init__(self, spec):
        self._inner = GenericKernel(spec.alphabet, spec.enumerator)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def filler(self, max_extent):
        return None


def _hidden(spec):
    return ShiftSpec(spec.name, spec.alphabet, spec.enumerator, _HiddenFiller(spec))


def _domino(orient, a, b, alphabet=BINARY):
    return Pattern(alphabet, {(0, 0): a, ((0, 1) if orient == "h" else (1, 0)): b})


NO_00_ROW = spec_from_patterns("no-00-row", BINARY, [_domino("h", "0", "0")])
# 0 may stand only in column 0 (no 0 right of a letter) and never above a 0:
# both letters occur in a forbidden domino, so there is no filler
ZERO_LEFT = spec_from_patterns(
    "zero-left",
    BINARY,
    [_domino("h", "0", "0"), _domino("v", "0", "0"), _domino("h", "1", "0")],
)


# ---------------------------------------------------------------------------
# The filler predicate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e", [2, 3, 4])
def test_generic_red_black_filler_is_the_run_mask_kernels(e):
    generic = GenericKernel(BWR, _red_black_enumerator)
    assert generic.filler(e) == RED_BLACK_KERNEL.filler(e) == "W"


def test_empty_forbidden_list_takes_the_first_letter():
    # below extent 2 the red-black list is empty: every letter qualifies
    generic = GenericKernel(BWR, _red_black_enumerator)
    assert generic.filler(0) == generic.filler(1) == "B"


def test_builtin_fillers():
    assert [kernel_of(HS).filler(e) for e in range(2, 7)] == ["0"] * 5
    assert [kernel_of(mirror_spec()).filler(e) for e in range(2, 7)] == [None] * 5


def test_all_filler_pattern_rules_out_its_letter():
    only_00 = spec_from_patterns("x", BINARY, [make_pattern(["00"])])
    assert kernel_of(only_00).filler(2) == "1"
    both = spec_from_patterns("x", BINARY, [make_pattern(["00"]), make_pattern(["11"])])
    assert kernel_of(both).filler(2) is None


def test_filler_cell_outside_the_other_cells_box_rules_out_its_letter():
    # mirror's W/R/B column: the W and B ends each lie outside the box of
    # the other cells, while R's complement W, B spans the column
    wrb = make_pattern(["W", "R", "B"])
    assert kernel_of(spec_from_patterns("x", BWR, [wrb])).filler(3) == "R"
    rwb = make_pattern(["R", "W", "B"])
    assert kernel_of(spec_from_patterns("x", BWR, [wrb, rwb])).filler(3) is None


def test_sparse_pattern_spans_through_its_gap():
    gap = Pattern(BINARY, {(0, 0): "1", (0, 2): "1"})
    assert kernel_of(spec_from_patterns("x", BINARY, [gap])).filler(3) == "0"


# ---------------------------------------------------------------------------
# Margin searches: filler route against hidden filler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("margin", [0, 1, 2])
def test_extendable_blocks_same_with_filler_hidden(n, margin):
    assert kernel_of(HS).filler(n + 2 * margin) == "0"
    hidden = _hidden(HS)
    got = [q.rows() for q in iter_rect_patterns(HS, n, n, margin)]
    want = [q.rows() for q in iter_rect_patterns(hidden, n, n, margin)]
    assert got == want
    assert count_admissible(HS, n, margin) == count_admissible(hidden, n, margin) == len(want)


@pytest.mark.parametrize("margin", [0, 1, 2])
def test_two_part_code_same_with_filler_hidden(margin):
    rng = random.Random(margin)
    for side, k in ((4, 2), (6, 2), (6, 3)):
        p = None
        while p is None or contains_forbidden(p, HS) is not None:
            rows = ["".join(rng.choice("0001") for _ in range(side)) for _ in range(side)]
            p = make_pattern(rows)
        assert two_part_code(p, k, HS, margin) == two_part_code(p, k, _hidden(HS), margin)


# ---------------------------------------------------------------------------
# Completability probes: filler route against hidden filler
# ---------------------------------------------------------------------------


def _random_admissible_border(spec, side, rng, weights):
    """A random locally admissible ring; ``weights`` lists letters with
    repeats so that admissible rings are common."""
    while True:
        border = Pattern(spec.alphabet, {cell: rng.choice(weights) for cell in ring_cells(side)})
        if contains_forbidden(border, spec) is None:
            return border


@pytest.mark.parametrize(
    "spec, weights", [(HS, "0001"), (NO_00_ROW, "0111")], ids=["hard-square", "no-00-row"]
)
def test_standard_squares_same_with_filler_hidden(spec, weights):
    nn, hidden = NNSpec(spec), NNSpec(_hidden(spec))
    assert kernel_of(spec).filler(2) is not None
    for k in (0, 1, 2, 3):
        assert choose_border(nn, k) == choose_border(hidden, k)
        assert build_Pk(nn, k) == build_Pk(hidden, k)
    rng = random.Random(7)
    for m in (1, 2, 3):
        for _ in range(4):
            border = _random_admissible_border(spec, side_of_level(m), rng, weights)
            assert standard_square(nn, border, m) == standard_square(hidden, border, m)


@pytest.mark.parametrize(
    "kernel, box, loaded, letters",
    [
        # 0 then 1s: the only filling; no letter 0 alone fills it
        (kernel_of(ZERO_LEFT), (0, 0, 1, 1), {(0, 0): "0"}, ("0", "1")),
        # R R R over B: W breaks every square; all-B rows complete one
        (
            RED_BLACK_KERNEL,
            (0, 0, 2, 2),
            {(0, 0): "R", (0, 1): "R", (0, 2): "R", (2, 0): "B"},
            BWR.letters,
        ),
    ],
)
def test_completability_probe_leaves_the_state_as_found(kernel, box, loaded, letters):
    state = kernel.state(box)
    state.load(loaded)
    free = [(r, c) for r in range(box[2] + 1) for c in range(box[3] + 1) if (r, c) not in loaded]
    masks = lambda: [list(getattr(state, name, ())) for name in ("red", "black", "filled")]
    before = masks()
    assert completable(state, free, letters)
    assert state.cells == loaded and masks() == before
    assert not completable(state, free, letters[:1])
    assert state.cells == loaded and masks() == before
    if kernel is RED_BLACK_KERNEL:
        assert before[0] == [0b111, 0, 0] and before[2] == [0b111, 0, 0b001]


def test_filler_less_spec_needs_the_completability_probe():
    """The lex-first admissible centerline of the level-2 square puts a 0 at
    (1, 2), which no letter at (1, 1) may precede; only the probe sees it."""
    assert kernel_of(ZERO_LEFT).filler(2) is None
    nn = NNSpec(ZERO_LEFT)
    border = choose_border(nn, 2)
    assert border.to_text() == "5 5 2\n01111\n1...1\n0...1\n1...1\n01111\n"
    state = kernel_of(ZERO_LEFT).state((0, 0, 4, 4))
    state.load(border.cells)
    center = [(2, 1), (2, 2), (2, 3), (1, 2), (3, 2)]
    next(lex_assignments(state, center, ZERO_LEFT.alphabet.letters))
    assert state.cells[1, 2] == "0"
    assert not completable(state, _interior_cells(0, 0, 5, state.cells), ("0", "1"))
    assert build_Pk(nn, 2).rows() == ["01111", "11111", "01111", "11111", "01111"]
    assert build_Pk(nn, 3).rows() == ["011111111", "111111111"] * 4 + ["011111111"]
