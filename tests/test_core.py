"""Patterns, serialization, and the built-in shift specifications."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.admissibility import CompletionRegion
from shiftlab.complexity import StepMeter
from shiftlab.core import (
    BINARY,
    BWR,
    MAX_ROW_WORDS,
    Alphabet,
    InfeasibleError,
    Occurrence,
    Pattern,
    PatternError,
    ShiftSpec,
    _margin_blocks,
    annulus,
    contains_forbidden,
    count_rect_patterns,
    get_spec,
    hard_square_spec,
    invert,
    iter_rect_patterns,
    make_pattern,
    mirror_spec,
    red_black_index_offset,
    red_black_spec,
    red_black_square_count,
    run_mask,
    spec_from_patterns,
    subpattern,
    tile,
    word_square,
)
from shiftlab.deepshift import StandardBlockFamily, schedule_params
from shiftlab.epitomes import Profile, _projector
from shiftlab.lowcfg import NNSpec, build_Pk, describe_subpattern


def bits_pattern(rows):
    return make_pattern(rows, BINARY)


# ---------------------------------------------------------------------------
# Pattern basics
# ---------------------------------------------------------------------------


def test_make_pattern_all_zero():
    p = make_pattern(["00", "00"])
    assert len(p) == 4
    assert p.is_rectangular
    assert all(v == "0" for _, v in p.items())


def test_make_pattern_ragged_rows_rejected():
    with pytest.raises(PatternError):
        make_pattern(["000", "00"])


def _raised(build, *args):
    """The error ``build(*args)`` raises, or None."""
    try:
        build(*args)
    except (PatternError, AttributeError) as e:
        return e
    return None


_FAMILY_PARAMS = schedule_params(2, 3, 1, structural_override=(2, 2))
_BLOCK_SPEC = spec_from_patterns("block", BINARY, [make_pattern(["11", "11"])])

# name -> (what the record does, what it must give)
_RECORD_CASES = {
    "duplicate-letter": (
        lambda: str(_raised(Alphabet, ("0", "0"))),
        "duplicate letters in alphabet ('0', '0')",
    ),
    "profile-entry-above-n": (
        lambda: str(_raised(Profile, (0, 3))),
        "profile entries must lie in 0..2",
    ),
    "profile-entry-not-an-int": (
        lambda: str(_raised(Profile, (1.0, 0))),
        "profile entries must be integers",
    ),
    "profile-from-a-list": (
        lambda: (Profile([1, 0]) == Profile((1, 0)), hash(Profile([1, 0])), Profile([1, 0]).counts),
        (True, hash(((1, 0),)), (1, 0)),
    ),
    "not-nearest-neighbour": (
        lambda: str(_raised(NNSpec, _BLOCK_SPEC)),
        "spec 'block' is not nearest-neighbour: "
        "forbidden support [(0, 0), (0, 1), (1, 0), (1, 1)]",
    ),
    "free-cells-overlap-host": (
        lambda: str(_raised(CompletionRegion, make_pattern(["0"]), ((0, 1), (0, 0)))),
        "free cells overlap the host support",
    ),
    "assignment-refused": (
        lambda: [
            isinstance(_raised(setattr, record, field, None), AttributeError)
            for record, field in [
                (BINARY, "letters"),
                (hard_square_spec(), "kernel"),
                (Profile((1, 0)), "counts"),
                (NNSpec(hard_square_spec()), "spec"),
                (CompletionRegion(make_pattern(["0"]), ((0, 1),)), "free_cells"),
                (Occurrence(0, (1, 2)), "anchor"),
            ]
        ],
        [True] * 6,
    ),
    "alphabet-by-value": (
        lambda: (Alphabet(("0", "1")) == BINARY, hash(Alphabet(("0", "1"))), BINARY == BWR),
        (True, hash((("0", "1"),)), False),
    ),
    "profile-by-value": (
        lambda: (
            Profile((1, 0)) == Profile((1, 0)),
            hash(Profile((1, 0))),
            Profile((1, 0)) == Profile((0, 1)),
        ),
        (True, hash(((1, 0),)), False),
    ),
    "copied-and-pickled-by-value": (
        lambda: [
            f(record) == record
            for f in (copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))
            for record in (BINARY, hard_square_spec(), Profile((1, 0)), Occurrence(0, (1, 2)))
        ],
        [True] * 8,
    ),
    "family-ignores-meters": (
        lambda: StandardBlockFamily(_FAMILY_PARAMS, [], (0, 5))
        == StandardBlockFamily(_FAMILY_PARAMS, [], (0, 5), meters=(StepMeter(steps=5),)),
        True,
    ),
    "spec-repr-without-enumerator": (
        lambda: repr(hard_square_spec()),
        "ShiftSpec(name='hard-square', alphabet=Alphabet(letters=('0', '1')))",
    ),
}


@pytest.mark.parametrize("got, want", _RECORD_CASES.values(), ids=_RECORD_CASES.keys())
def test_record_behaviour(got, want):
    assert got() == want


def test_make_pattern_infers_three_letter_alphabet():
    p = make_pattern(["BW", "RR"])
    assert p.alphabet.letters == BWR.letters


def test_pattern_is_immutable():
    p = make_pattern(["01"])
    with pytest.raises(AttributeError):
        p.alphabet = BWR


def test_rows_requires_rectangular():
    sparse = Pattern(BINARY, {(0, 0): "1", (2, 2): "0"})
    assert not sparse.is_rectangular
    with pytest.raises(PatternError):
        sparse.rows()


def test_adopted_cells_are_checked_and_not_copied():
    cells = {(0, 0): "1"}
    p = Pattern._adopt(BINARY, cells)  # noqa: SLF001
    assert p == Pattern(BINARY, cells) and p._cells is cells  # noqa: SLF001
    with pytest.raises(PatternError, match="not in alphabet"):
        Pattern._adopt(BINARY, {(0, 0): "R"})  # noqa: SLF001


def test_translate_and_reanchor():
    p = make_pattern(["10", "01"])
    q = p.translate(3, -2)
    assert q.bbox == (3, -2, 4, -1)
    assert q.reanchored() == p


def test_union_conflict_raises():
    a = Pattern(BINARY, {(0, 0): "0"})
    b = Pattern(BINARY, {(0, 0): "1"})
    with pytest.raises(PatternError):
        a.union(b)


def test_text_round_trip_rectangular():
    p = make_pattern(["BWR", "RWB"])
    assert Pattern.from_text(p.to_text()) == p


def test_text_round_trip_sparse_reanchors():
    p = Pattern(BINARY, {(5, 7): "1", (6, 8): "0"})
    q = Pattern.from_text(p.to_text())
    assert q == p.reanchored()
    assert "." in p.to_text()


def test_from_text_truncated_body():
    with pytest.raises(PatternError):
        Pattern.from_text("2 2 2\n01\n")


def test_from_text_refuses_text_after_the_grid():
    # an archive reader compares patterns, so a stored file may not carry
    # rows the pattern drops; blank lines at the end are allowed
    with pytest.raises(PatternError, match="text follows the 1 rows"):
        Pattern.from_text("2 1 2\n01\n10\n")
    assert Pattern.from_text("2 1 2\n01\n\n") == make_pattern(["01"])


def test_render_is_body_of_to_text():
    p = make_pattern(["00", "00"])
    assert p.render() == "00\n00\n"


def test_subpattern_identity_and_single_cell():
    p = make_pattern(["00", "00"])
    assert subpattern(p, (0, 0, 2, 2)) == p
    s = subpattern(p, (0, 0, 1, 1))
    assert s.cells == {(0, 0): "0"}


def test_subpattern_outside_support_rejected():
    p = make_pattern(["00", "00"])
    with pytest.raises(PatternError):
        subpattern(p, (1, 1, 2, 2))


# ---------------------------------------------------------------------------
# The two forms of a pattern: rows held, or a cell map
# ---------------------------------------------------------------------------


@st.composite
def _rect_rows(draw):
    alphabet = draw(st.sampled_from([BINARY, BWR]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    letters = st.sampled_from(alphabet.letters)
    rows = ["".join(draw(st.lists(letters, min_size=w, max_size=w))) for _ in range(h)]
    return alphabet, rows


def _both_forms(alphabet, rows):
    """The rectangle built from its rows and from its cells."""
    cells = {(r, c): a for r, line in enumerate(rows) for c, a in enumerate(line)}
    return make_pattern(rows, alphabet), Pattern(alphabet, cells)


_PROBES = [(r, c) for r in range(-1, 7) for c in range(-1, 7)]

_QUERIES = {
    "cells": lambda p: p.cells,
    "support": lambda p: p.support,
    "bbox": lambda p: p.bbox,
    "height": lambda p: p.height,
    "width": lambda p: p.width,
    "is_rectangular": lambda p: p.is_rectangular,
    "rows": lambda p: p.rows(),
    "at": lambda p: [p.at(r, c) for r, c in _PROBES],
    "in": lambda p: [cell in p for cell in _PROBES],
    "items": lambda p: list(p.items()),
    "len": len,
    "lex_key": lambda p: p.lex_key(),
    "to_text": lambda p: p.to_text(),
    "repr": repr,
    "hash": hash,
}


@settings(max_examples=100, deadline=None)
@given(_rect_rows(), _rect_rows())
def test_rows_and_cells_forms_agree(drawn, other):
    alphabet, rows = drawn
    for name, query in _QUERIES.items():
        by_rows, by_cells = _both_forms(alphabet, rows)
        assert query(by_rows) == query(by_cells), name
    by_rows, by_cells = _both_forms(alphabet, rows)
    assert by_rows == by_cells and by_cells == by_rows
    assert by_rows._map is None  # noqa: SLF001 - equality read the rows alone
    assert hash(by_rows) == hash(by_cells)
    # two patterns compare alike in both forms and either order
    same = rows == other[1] and alphabet == other[0]
    for p in _both_forms(alphabet, rows):
        for q in _both_forms(*other):
            assert (p == q) == (q == p) == same
    # a sparse pattern never equals a rectangle
    sparse = by_cells.union(Pattern(alphabet, {(len(rows) + 1, 0): rows[0][0]}))
    assert by_rows != sparse and sparse != by_rows


def _cell_by_cell_cut(p, rect):
    r0, c0, h, w = rect
    cells = {}
    for r in range(h):
        for c in range(w):
            if (r0 + r, c0 + c) not in p.support:
                raise PatternError(f"rectangle {rect} leaves the support at {(r0 + r, c0 + c)}")
            cells[(r, c)] = p.at(r0 + r, c0 + c)
    return Pattern(p.alphabet, cells)


@settings(max_examples=150, deadline=None)
@given(_rect_rows(), st.tuples(*[st.integers(-2, 6)] * 2, *[st.integers(0, 6)] * 2))
def test_subpattern_matches_a_cell_by_cell_cut(drawn, rect):
    alphabet, rows = drawn
    by_rows, by_cells = _both_forms(alphabet, rows)
    sparse = by_cells.union(Pattern(alphabet, {(len(rows) + 1, 0): rows[0][0]}))
    for source in (by_rows, by_cells, sparse):
        try:
            want = _cell_by_cell_cut(source, rect)
        except PatternError as refusal:
            with pytest.raises(PatternError) as got:
                subpattern(source, rect)
            assert str(got.value) == str(refusal)
            continue
        got = subpattern(source, rect)
        assert got == want and want == got
        assert (got.bbox, got.rows(), len(got)) == (want.bbox, want.rows(), len(want))


def test_from_text_without_dots_holds_rows():
    p = Pattern.from_text("3 2 3\nBWR\nRRB\n")
    assert p._map is None and p.rows() == ["BWR", "RRB"]  # noqa: SLF001
    with pytest.raises(PatternError, match=r"letter '0' at \(1, 2\) not in alphabet"):
        Pattern.from_text("3 2 3\nBWR\nRR0\n")


def test_map_held_rows_are_computed_once():
    p = Pattern(BINARY, {(0, 0): "1", (0, 1): "0"})
    assert p.rows() == ["10"] and p.rows() is not p.rows()
    assert p._row_tuple() is p._row_tuple()  # noqa: SLF001


def _true_box(p):
    """The bounding box of ``p``'s support, computed from its cells."""
    return Pattern(p.alphabet, p.cells).bbox


def test_builders_that_pass_a_box_pass_the_true_one():
    hs = hard_square_spec()
    built = list(iter_rect_patterns(hs, 2, 3)) + list(iter_rect_patterns(hs, 0, 3))
    assert len(built) == 18
    # the ring route: a positive margin and no filler
    no01 = spec_from_patterns("no-01", BINARY, [make_pattern(["01"])])
    built += list(iter_rect_patterns(no01, 2, 3, 1))
    # the filler route of standard_square, and the search route
    no00 = NNSpec(spec_from_patterns("no-00-row", BINARY, [make_pattern(["00"])]))
    squares = [build_Pk(NNSpec(hs), 2), build_Pk(no00, 2)]
    built += squares
    built += describe_subpattern(no00, squares[1], 2, (1, 1, 3, 4)).borders
    built.append(_projector({"0": "B", "1": "R"}, BINARY.letters)(squares[1].rows()))
    sparse = squares[1].union(Pattern(BINARY, {(6, 6): "1"}))
    built += [subpattern(sparse, (1, 2, 3, 2)), subpattern(sparse, (1, 2, 0, 2))]
    for p in built:
        assert p.bbox == _true_box(p), p


@pytest.mark.parametrize(
    "h, w", [(1, 1), (1, 3), (3, 1), (2, 5), (4, 2), (0, 3), (3, 0), (-1, 2), (2, -3), (-2, -2)]
)
@pytest.mark.parametrize("width", [0, 1, 2])
def test_annulus_matches_its_definition(h, w, width):
    want = [
        (r, c)
        for r in range(h + 2 * width)
        for c in range(w + 2 * width)
        if h <= 0 or w <= 0 or not (width <= r < width + h and width <= c < width + w)
    ]
    assert annulus(h, w, width) == want


def test_tile_matches_a_cell_by_cell_layout():
    # 2 x 3 blocks on a 3 x 2 grid, one block used twice and one not at all
    blocks = [make_pattern(rows, BWR) for rows in (["BWR", "RRB"], ["WWW", "BRW"], ["RBB", "WBR"])]
    grid = [[0, 2], [2, 2], [1, 0]]
    want = {
        (i * 2 + r, j * 3 + c): blocks[ix].at(r, c)
        for i, line in enumerate(grid)
        for j, ix in enumerate(line)
        for r in range(2)
        for c in range(3)
    }
    assert tile(blocks, grid) == Pattern(BWR, want)
    with pytest.raises(PatternError, match="share a shape"):
        tile([blocks[0], make_pattern(["BW", "RR"], BWR)], grid)


def test_word_square_is_row_major():
    assert word_square("0110", 2) == make_pattern(["01", "10"])
    assert word_square("BWRRWBBBB", 3, BWR).rows() == ["BWR", "RWB", "BBB"]


def test_invert_involution_and_constants():
    p = make_pattern(["000", "000", "000"])
    assert invert(p) == make_pattern(["111", "111", "111"])
    q = make_pattern(["0110", "1001"])
    assert invert(invert(q)) == q


def test_invert_commutes_with_subpattern():
    p = make_pattern(["0110", "1001", "0011"])
    rect = (1, 1, 2, 3)
    assert invert(subpattern(p, rect)) == subpattern(invert(p), rect)


def test_invert_requires_binary():
    with pytest.raises(PatternError):
        invert(make_pattern(["BW"]))


def test_iter_rect_patterns_order_and_count():
    pats = list(iter_rect_patterns(spec_from_patterns("free", BINARY, ()), 1, 2))
    assert [p.rows() for p in pats] == [["00"], ["01"], ["10"], ["11"]]
    assert sum(1 for _ in iter_rect_patterns(spec_from_patterns("free", BWR, ()), 2, 1)) == 9


@pytest.mark.parametrize("margin", [0, 1])
def test_iter_rect_patterns_refuses_before_the_first_next(margin):
    # 5,598,861 patterns; no pattern is requested
    with pytest.raises(InfeasibleError, match="^5598861 admissible 6x6 patterns"):
        iter_rect_patterns(hard_square_spec(), 6, 6, margin)


@pytest.mark.parametrize("h, w", [(-1, -1), (-1, 2), (2, -1)])
def test_iter_rect_patterns_rejects_negative_sizes(h, w):
    with pytest.raises(PatternError):
        iter_rect_patterns(hard_square_spec(), h, w)


def _filtered_product(spec, h, w):
    # every h x w pattern in canonical order, kept when the scan finds nothing
    coords = [(r, c) for r in range(h) for c in range(w)]
    out = []
    for letters in itertools.product(spec.alphabet.letters, repeat=h * w):
        q = Pattern(spec.alphabet, dict(zip(coords, letters)))
        if contains_forbidden(q, spec) is None:
            out.append(q)
    return out


@st.composite
def _user_specs(draw):
    alphabet = draw(st.sampled_from([BINARY, BWR]))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        support = draw(
            st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4)
        )
        cells = {cell: draw(st.sampled_from(alphabet.letters)) for cell in sorted(support)}
        patterns.append(Pattern(alphabet, cells))
    return spec_from_patterns("user", alphabet, patterns)


@settings(max_examples=60, deadline=None)
@given(_user_specs(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_iter_rect_patterns_matches_filtered_product(spec, h, w):
    assert list(iter_rect_patterns(spec, h, w)) == _filtered_product(spec, h, w)


# mirror 3x3: 2^9 without red, 2^6 with the red row on top or at the
# bottom, 2^3 with it in the middle (rows 0 and 2 agree)
@pytest.mark.parametrize("spec, expected", [(red_black_spec(), 18748), (mirror_spec(), 648)])
def test_iter_rect_patterns_exhaustive_3x3(spec, expected):
    got = list(iter_rect_patterns(spec, 3, 3))
    assert got == _filtered_product(spec, 3, 3)
    assert len(got) == expected


def _hard_square_transfer_count(n):
    # rows are bitmasks without adjacent 1s; stacked rows share no 1 bit
    rows = [m for m in range(1 << n) if not m & (m >> 1)]
    ways = dict.fromkeys(rows, 1)
    for _ in range(n - 1):
        ways = {b: sum(k for a, k in ways.items() if not a & b) for b in rows}
    return sum(ways.values())


# OEIS A006506: n x n binary matrices with no two adjacent 1s, n = 0..10
A006506 = (
    1, 2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955, 770548397261707,
    2030049051145980050,
)


def test_hard_square_transfer_matrix_matches_oeis():
    assert tuple(_hard_square_transfer_count(n) for n in range(8)) == A006506[:8]


@pytest.mark.parametrize("n", range(6))
def test_iter_rect_patterns_hard_square_matches_transfer_matrix(n):
    assert sum(1 for _ in iter_rect_patterns(hard_square_spec(), n, n)) == A006506[n]


# ---------------------------------------------------------------------------
# count_rect_patterns: the row transfer against frozen values and an
# enumeration that reads no row transfer (the cell route or a brute force)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(11))
def test_count_rect_patterns_hard_square_matches_oeis(n):
    assert count_rect_patterns(hard_square_spec(), n, n) == A006506[n]


@pytest.mark.parametrize("spec", [hard_square_spec(), red_black_spec(), mirror_spec()],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("h, w", [(h, w) for h in range(4) for w in range(4)])
def test_count_rect_patterns_matches_enumeration(spec, h, w):
    assert count_rect_patterns(spec, h, w) == sum(1 for _ in _margin_blocks(spec, h, w, 0))


# mirror: its three-row columns are tested per state; red-black 4 x 4 takes
# the enumerator most of a minute, so its count is frozen below
@pytest.mark.parametrize("spec, count", [(hard_square_spec(), 1234), (mirror_spec(), 74240)],
                         ids=lambda x: getattr(x, "name", None))
def test_count_rect_patterns_matches_enumeration_at_4(spec, count):
    assert count_rect_patterns(spec, 4, 4) == count
    assert sum(1 for _ in _margin_blocks(spec, 4, 4, 0)) == count


def test_count_rect_patterns_reads_placements_top_down():
    # a two-row and a three-row column, neither the other's mirror image:
    # reading either one bottom up changes the count
    spec = spec_from_patterns(
        "down", BINARY, [make_pattern(["0", "1"]), make_pattern(["1", "1", "0"])]
    )
    for h in range(1, 5):
        for w in range(1, 3):
            assert count_rect_patterns(spec, h, w) == len(_filtered_product(spec, h, w))


def test_red_black_4_frozen():
    # the enumerator's count (47.7 s); 4-row squares need 3-row states
    assert count_rect_patterns(red_black_spec(), 4, 4) == 38559440


def test_count_rect_patterns_refusals():
    with pytest.raises(PatternError):
        count_rect_patterns(hard_square_spec(), -1, 2)
    # too many candidate rows to list
    free = spec_from_patterns("free", BWR, [make_pattern(["RR", "RR"])])
    wide = next(w for w in itertools.count() if 3**w > MAX_ROW_WORDS)
    with pytest.raises(InfeasibleError, match="candidate rows"):
        count_rect_patterns(free, 2, wide)
    # too many transfer steps: 243 rows, 4-row states
    with pytest.raises(InfeasibleError, match="steps"):
        count_rect_patterns(red_black_spec(), 5, 5)


def test_row_bound_counts_admissible_rows():
    # 3^12 words of width 12 but one admissible row: listed, not refused
    only_b = spec_from_patterns("only-B", BWR, [make_pattern(["W"]), make_pattern(["R"])])
    assert count_rect_patterns(only_b, 1, 12) == 1
    assert [q.rows() for q in iter_rect_patterns(only_b, 1, 12)] == [["B" * 12]]


def test_lex_key_row_major():
    p = make_pattern(["BW", "RB"])
    assert p.lex_key() == (0, 1, 2, 0)


# ---------------------------------------------------------------------------
# run_mask
# ---------------------------------------------------------------------------


def test_run_mask_examples():
    # bits 0..5 of 0b0111101 set at 0,2,3,4,5
    mask = 0b111101
    assert run_mask(mask, 1) == mask
    assert run_mask(mask, 2) == 0b011100
    assert run_mask(mask, 4) == 0b000100


@given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.integers(min_value=1, max_value=6))
def test_run_mask_matches_naive(mask, length):
    out = run_mask(mask, length)
    for i in range(16):
        expect = all((mask >> (i + k)) & 1 for k in range(length))
        assert bool((out >> i) & 1) == expect


# ---------------------------------------------------------------------------
# Built-in specs: enumerators
# ---------------------------------------------------------------------------


def test_hard_square_forbidden_is_two_dominoes():
    hs = hard_square_spec()
    for extent in (2, 3, 7):
        forb = hs.enumerator(extent)
        assert len(forb) == 2
        assert forb[0].cells == {(0, 0): "1", (0, 1): "1"}
        assert forb[1].cells == {(0, 0): "1", (1, 0): "1"}


def test_red_black_counts_per_size():
    assert [red_black_square_count(s) for s in (2, 3, 4)] == [1, 27, 6561]
    rb = red_black_spec()
    assert len(rb.enumerator(2)) == 1
    assert len(rb.enumerator(3)) == 28
    assert len(rb.enumerator(4)) == 6589


def test_red_black_size2_square():
    rb = red_black_spec()
    (sq,) = rb.enumerator(2)
    assert sq.rows() == ["RR", "BB"]


def test_red_black_interior_free_all_letters():
    rb = red_black_spec()
    forb = rb.enumerator(3)
    threes = [f for f in forb if f.extent == 3]
    assert len(threes) == 27
    interiors = {f.at(1, 1) for f in threes}
    assert interiors == {"B", "W", "R"}
    for f in threes:
        assert f.rows()[0] == "RRR"
        assert f.rows()[2] == "BBB"


def test_red_black_index_offset_prefix_sums():
    assert red_black_index_offset(2) == 0
    assert red_black_index_offset(3) == 1
    assert red_black_index_offset(4) == 28


def test_enumerators_prefix_closed_and_deterministic():
    # red-black forbidden squares multiply as 3^(s(s-2)) per size, so cap
    # that family at extent 4 (6589 patterns); extent 5 alone would
    # materialize 3^15 of them
    for spec, big_extent in (
        (hard_square_spec(), 5),
        (red_black_spec(), 4),
        (mirror_spec(), 5),
    ):
        small = spec.enumerator(3)
        big = spec.enumerator(big_extent)
        assert list(big[: len(small)]) == list(small)
        assert [f.to_text() for f in spec.enumerator(4)] == [
            f.to_text() for f in spec.enumerator(4)
        ]
        for f in big:
            assert f.extent <= big_extent


def test_mirror_enumerator_counts():
    mi = mirror_spec()
    assert len(mi.enumerator(2)) == 5
    assert len(mi.enumerator(3)) == 12
    # extent 4 adds only the {R, R} column at distance 3
    assert len(mi.enumerator(4)) == 13


# ---------------------------------------------------------------------------
# contains_forbidden
# ---------------------------------------------------------------------------


def test_all_white_red_black_admissible():
    rb = red_black_spec()
    p = make_pattern(["WWW", "WWW", "WWW"])
    assert contains_forbidden(p, rb) is None


def test_red_black_square_found_at_origin():
    rb = red_black_spec()
    p = make_pattern(["RR", "BB"])
    occ = contains_forbidden(p, rb)
    assert occ == Occurrence(0, (0, 0))


def test_hard_square_occurrence_positions():
    hs = hard_square_spec()
    p = make_pattern(["010", "011"])
    occ = contains_forbidden(p, hs)
    # row-major anchors: the vertical pair at (0,1) comes before the
    # horizontal pair at (1,1)
    assert occ == Occurrence(1, (0, 1))


def test_alphabet_mismatch_rejected():
    rb = red_black_spec()
    with pytest.raises(PatternError):
        contains_forbidden(make_pattern(["01"]), rb)


def _independent_embed_scan(p, forbidden):
    """Brute-force double loop, written without the library's scan."""
    hits = []
    support = p.cells
    for idx, f in enumerate(forbidden):
        fc = f.cells
        for ar in range(p.bbox[0] - 5, p.bbox[2] + 6):
            for ac in range(p.bbox[1] - 5, p.bbox[3] + 6):
                if all(
                    support.get((ar + dr, ac + dc)) == letter
                    for (dr, dc), letter in fc.items()
                ):
                    hits.append((ar, ac, idx))
    return hits


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=1))
def test_red_black_finder_agrees_with_independent_scan(seeds):
    # 3x3 BWR patterns indexed by the seed
    v = seeds[0]
    letters = "BWR"
    digits = []
    x = v
    for _ in range(9):
        digits.append(letters[x % 3])
        x //= 3
    p = make_pattern(
    ["".join(digits[0:3]), "".join(digits[3:6]), "".join(digits[6:9])], BWR
    )
    rb = red_black_spec()
    occ = contains_forbidden(p, rb)
    hits = _independent_embed_scan(p, rb.enumerator(3))
    if occ is None:
        assert hits == []
    else:
        assert hits
        first = min(hits, key=lambda h: (h[0], h[1], h[2]))
        assert (occ.anchor[0], occ.anchor[1], occ.forbidden_index) == first


def test_finder_matches_generic_scan_on_window():
    rb = red_black_spec()
    p = make_pattern(["WRRW", "WBBW", "WWWW", "RRRW"])
    occ_fast = contains_forbidden(p, rb)
    occ_slow = contains_forbidden(p, ShiftSpec(rb.name, rb.alphabet, rb.enumerator))
    assert occ_fast == occ_slow


def test_mirror_constraints():
    mi = mirror_spec()
    # red beside non-red
    assert contains_forbidden(make_pattern(["RB"], BWR), mi) is not None
    # two reds in one column
    assert contains_forbidden(make_pattern(["R", "W", "R"], BWR), mi) is not None
    # asymmetric letters around a red centre
    p = make_pattern(["B", "R", "W"], BWR)
    assert contains_forbidden(p, mi) is not None
    q = make_pattern(["B", "R", "B"], BWR)
    assert contains_forbidden(q, mi) is None


# ---------------------------------------------------------------------------
# User-defined specs
# ---------------------------------------------------------------------------


def test_spec_from_patterns_orders_by_extent():
    big = Pattern(BINARY, {(0, 0): "1", (2, 2): "1"})
    small = Pattern(BINARY, {(0, 0): "1", (0, 1): "0"})
    spec = spec_from_patterns("user", BINARY, [big, small])
    assert [f.extent for f in spec.enumerator(3)] == [2, 3]
    assert spec.enumerator(2) == (small,)


def test_spec_from_patterns_reanchors_and_rejects_empty():
    shifted = Pattern(BINARY, {(1, 1): "1", (1, 2): "1"})
    spec = spec_from_patterns("user", BINARY, [shifted])
    assert spec.enumerator(2) == (make_pattern(["11"]),)
    assert contains_forbidden(make_pattern(["11"]), spec) is not None
    with pytest.raises(PatternError):
        spec_from_patterns("user", BINARY, [Pattern(BINARY, {})])


def test_get_spec_names():
    assert get_spec("hard-square").name == "hard-square"
    assert get_spec("red-black").name == "red-black"
    assert get_spec("mirror").name == "mirror"
    with pytest.raises(PatternError):
        get_spec("no-such-spec")


def test_get_spec_from_file(tmp_path):
    f = tmp_path / "pat.txt"
    f.write_text(Pattern(BINARY, {(0, 0): "1", (0, 1): "1"}).to_text())
    spec = get_spec(f"file:{f}")
    assert len(spec.enumerator(2)) == 1


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_generic_scan_none_iff_no_embedding(h, w, data):
    rows = [
        "".join(data.draw(st.sampled_from("01")) for _ in range(w)) for _ in range(h)
    ]
    p = make_pattern(rows, BINARY)
    hs = hard_square_spec()
    occ = contains_forbidden(p, hs)
    brute = any(
        "11" in row for row in rows
    ) or any(
        rows[r][c] == "1" and rows[r + 1][c] == "1"
        for r in range(h - 1)
        for c in range(w)
    )
    assert (occ is not None) == brute
