"""Standard squares for nearest-neighbour specs and their short
sub-rectangle descriptions."""

import dataclasses
import json
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.core import (
    BINARY,
    BWR,
    InfeasibleError,
    Pattern,
    PatternError,
    completable,
    contains_forbidden,
    hard_square_spec,
    kernel_of,
    lex_assignments,
    mirror_spec,
    red_black_spec,
    spec_from_patterns,
    subpattern,
)
from shiftlab import lowcfg
from shiftlab.lowcfg import (
    MAX_LEVEL,
    NNSpec,
    _fill_order,
    _interior_cells,
    build_Pk,
    choose_border,
    describe_subpattern,
    description_bits,
    description_constant,
    load_description,
    lowcfg_roundtrip,
    reconstruct_subpattern,
    ring_cells,
    save_description,
    side_of_level,
    standard_square,
)

NN_HS = NNSpec(hard_square_spec())


def _nn_spec(alphabet, dominoes, name="drawn"):
    """A nearest-neighbour spec from ``(orient, a, b)`` dominoes, orient "h"
    or "v", and ``("c", a)`` single-cell bans."""
    forbidden = []
    for kind, *word in dominoes:
        second = {"h": [(0, 1)], "v": [(1, 0)], "c": []}[kind]
        forbidden.append(Pattern(alphabet, dict(zip([(0, 0), *second], word))))
    return NNSpec(spec_from_patterns(name, alphabet, forbidden))


@pytest.fixture(scope="module")
def nn_no00():
    # forbids "00" horizontally: standard squares are non-constant
    return _nn_spec(BINARY, [("h", "0", "0")], "no-00-row")


@pytest.fixture(scope="module")
def p3(nn_no00):
    return build_Pk(nn_no00, 3)


@pytest.fixture(scope="module")
def p4_hs():
    return build_Pk(NN_HS, 4)


# ---------------------------------------------------------------------------
# NNSpec validation
# ---------------------------------------------------------------------------


def test_nn_accepts_hard_square():
    assert NNSpec(hard_square_spec()).alphabet.letters == ("0", "1")


def test_nn_accepts_single_cell_bans():
    spec = spec_from_patterns("no-zero", BINARY, [Pattern(BINARY, {(0, 0): "0"})])
    assert NNSpec(spec).spec.name == "no-zero"


def test_nn_rejects_red_black():
    with pytest.raises(PatternError):
        NNSpec(red_black_spec())


def test_nn_rejects_mirror():
    # mirror constraints look nearest-neighbour at extent 2 but grow later
    with pytest.raises(PatternError):
        NNSpec(mirror_spec())


def test_nn_rejects_wide_user_pattern():
    spec = spec_from_patterns(
        "gap", BINARY, [Pattern(BINARY, {(0, 0): "1", (0, 2): "1"})]
    )
    with pytest.raises(PatternError):
        NNSpec(spec)


def test_side_and_ring_helpers():
    assert [side_of_level(m) for m in range(4)] == [2, 3, 5, 9]
    ring = ring_cells(3)
    assert len(ring) == 8
    assert (1, 1) not in ring
    assert ring == sorted(ring)


@pytest.mark.parametrize("side", [0, 1, 2, 3, 4, 5, 9, 33])
def test_ring_cells_match_their_definition(side):
    want = [
        (r, c)
        for r in range(side)
        for c in range(side)
        if r in (0, side - 1) or c in (0, side - 1)
    ]
    assert ring_cells(side) == want


# ---------------------------------------------------------------------------
# choose_border
# ---------------------------------------------------------------------------


def test_hard_square_border_all_zero():
    for k in (1, 2):
        border = choose_border(NN_HS, k)
        assert set(border.cells.values()) == {"0"}
        assert set(border.support) == set(ring_cells(side_of_level(k)))


def test_no_zero_spec_border_all_one():
    spec = spec_from_patterns("no-zero", BINARY, [Pattern(BINARY, {(0, 0): "0"})])
    border = choose_border(NNSpec(spec), 1)
    assert set(border.cells.values()) == {"1"}


def test_unsatisfiable_spec_infeasible():
    nn = _nn_spec(BINARY, [("h", a, b) for a in "01" for b in "01"], "no-rows")
    with pytest.raises(InfeasibleError):
        choose_border(nn, 1)


def test_border_certifies_completability(nn_no00):
    # lex-least admissible ring alone would start 0,1,0,1,... — the chosen
    # ring must additionally complete, and it must be admissible
    border = choose_border(nn_no00, 2)
    assert contains_forbidden(border, nn_no00.spec) is None
    assert standard_square(nn_no00, border, 2) is not None


def test_choose_border_negative_level():
    with pytest.raises(PatternError):
        choose_border(NN_HS, -1)


@pytest.mark.parametrize("k", [MAX_LEVEL + 1, 40])
def test_levels_above_the_limit_refused(k):
    # refused before the ring of side 2^k + 1 is listed
    assert MAX_LEVEL == 11
    with pytest.raises(InfeasibleError, match="k <= 11"):
        choose_border(NN_HS, k)
    with pytest.raises(InfeasibleError, match="k <= 11"):
        build_Pk(NN_HS, k)
    border = Pattern(BINARY, {cell: "0" for cell in ring_cells(3)})
    with pytest.raises(InfeasibleError, match="k <= 11"):
        standard_square(NN_HS, border, k)


# ---------------------------------------------------------------------------
# standard_square
# ---------------------------------------------------------------------------


def test_all_zero_border_gives_all_zero_square():
    side = side_of_level(2)
    border = Pattern(BINARY, {cell: "0" for cell in ring_cells(side)})
    sq = standard_square(NN_HS, border, 2)
    assert set(sq.cells.values()) == {"0"}
    assert sq.height == sq.width == side


def test_standard_square_deterministic(nn_no00):
    border = choose_border(nn_no00, 2)
    a = standard_square(nn_no00, border, 2)
    b = standard_square(nn_no00, border, 2)
    assert a.to_text() == b.to_text()


def test_standard_square_border_guards():
    border = Pattern(BINARY, {cell: "0" for cell in ring_cells(5)})
    with pytest.raises(PatternError):
        standard_square(NN_HS, border, 1)  # wrong level for this ring
    bad = Pattern(BINARY, {cell: "1" for cell in ring_cells(3)})
    with pytest.raises(PatternError):
        standard_square(NN_HS, bad, 1)  # adjacent 1s on the ring


def test_level_zero_square_is_its_border():
    border = Pattern(BINARY, {(0, 0): "0", (0, 1): "1", (1, 0): "1", (1, 1): "0"})
    assert standard_square(NN_HS, border, 0) == border


def test_pk_admissible_all_levels(p4_hs):
    for k in (1, 2, 3):
        pk = build_Pk(NN_HS, k)
        assert contains_forbidden(pk, NN_HS.spec) is None
        assert pk.height == side_of_level(k)
    assert contains_forbidden(p4_hs, NN_HS.spec) is None
    assert p4_hs.height == 17


def test_pk_nontrivial_spec_admissible(p3, nn_no00):
    assert contains_forbidden(p3, nn_no00.spec) is None
    # the spec really bites: no row may contain "00"
    for row in p3.rows():
        assert "00" not in row


def test_aligned_subsquares_are_standard(p3, nn_no00):
    # every grid-aligned level-m sub-square must equal the standard square
    # grown from its own border ring
    for m in (1, 2):
        g = 2 ** m
        side = side_of_level(m)
        for r0 in range(0, 9 - side + 1, g):
            for c0 in range(0, 9 - side + 1, g):
                sub = subpattern(p3, (r0, c0, side, side))
                ring = Pattern(
                    nn_no00.alphabet,
                    {cell: sub.at(*cell) for cell in ring_cells(side)},
                )
                assert standard_square(nn_no00, ring, m) == sub


# ---------------------------------------------------------------------------
# standard_square against the recursive fill
# ---------------------------------------------------------------------------


def _reference_square(nn, border, m, visits=None, top_only=False):
    """The standard square by the recursive fill the definition describes:
    the border checked with one scan, then per square the centerline cells
    not yet filled (row, then column), lex-first subject to completability
    unless a filler makes every assignment complete, then the four quadrants.
    ``visits`` collects each square's centerline cells in the order filled;
    ``top_only`` checks completability for the whole square alone."""
    side = side_of_level(m)
    if set(border.support) != set(ring_cells(side)):
        raise PatternError(f"border support is not the level-{m} ring")
    spec = nn.spec
    if border.alphabet.letters != spec.alphabet.letters:
        raise PatternError(f"border alphabet does not match spec {spec.name!r}")
    letters = spec.alphabet.letters
    kernel = kernel_of(spec)
    state = kernel.state((0, 0, side - 1, side - 1))
    state.load(border.cells)
    if state.scan() is not None:
        raise PatternError("border ring is not locally admissible")
    always = kernel.filler(side) is not None

    def fill(r0, c0, size):
        if size < 3:
            return
        mid = (size - 1) // 2
        row_cells = [(r0 + mid, c0 + j) for j in range(size)]
        col_cells = [(r0 + i, c0 + mid) for i in range(size)]
        center = []
        for cell in row_cells + col_cells:
            if cell not in state.cells and cell not in center:
                center.append(cell)
        if visits is not None:
            visits.extend(center)
        for _ in lex_assignments(state, center, letters):
            if (
                always
                or (top_only and size < side)
                or completable(state, _interior_cells(r0, c0, size, state.cells), letters)
            ):
                break
        else:
            raise InfeasibleError(
                f"centerlines of the square at ({r0}, {c0}) size {size} "
                "admit no completable assignment"
            )
        for dr in (0, mid):
            for dc in (0, mid):
                fill(r0 + dr, c0 + dc, mid + 1)

    fill(0, 0, side)
    return Pattern(spec.alphabet, state.cells)


def _outcome(build, *args):
    """The built square, or the type and message of the refusal."""
    try:
        return build(*args)
    except (PatternError, InfeasibleError) as exc:
        return (type(exc), str(exc))


def _random_admissible_ring(nn, side, rng):
    """A locally admissible ring, each cell taking the first letter in a
    shuffled order that fits, or None when some cell fits none."""
    state = kernel_of(nn.spec).state((0, 0, side - 1, side - 1))
    letters = nn.alphabet.letters
    for cell in ring_cells(side):
        if not any(state.assign(cell, a) for a in rng.sample(letters, len(letters))):
            return None
    return Pattern(nn.alphabet, state.cells)


@st.composite
def _nn_cases(draw):
    """A random nearest-neighbour spec, a level and a border for it.  The
    filler is drawn first (any letter, or none) and every other letter is
    made to occur in some forbidden pattern, so the kernel's filler is the
    drawn one.  Levels go to 3 with a filler and to 2 without; borders are
    admissible rings found by a shuffled search, or near-constant rings
    that are often inadmissible."""
    alphabet = draw(st.sampled_from([BINARY, BWR]))
    letters = alphabet.letters
    filler = draw(st.sampled_from(letters + (None,)))
    usable = [a for a in letters if a != filler]
    pool = [(o, a, b) for o in "hv" for a in usable for b in usable] + [("c", a) for a in usable]
    dominoes = draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
    used = {a for _, *word in dominoes for a in word}
    dominoes += [("h", a, a) for a in usable if a not in used]
    nn = _nn_spec(alphabet, dominoes)
    assert kernel_of(nn.spec).filler(2) == filler
    m = draw(st.integers(0, 3 if filler is not None else 2))
    side = side_of_level(m)
    border = None
    if draw(st.booleans()):
        border = _random_admissible_ring(nn, side, draw(st.randoms(use_true_random=False)))
    if border is None:
        ring = ring_cells(side)
        cells = dict.fromkeys(ring, draw(st.sampled_from(letters)))
        for i, a in draw(st.lists(st.tuples(st.integers(0, len(ring) - 1), st.sampled_from(letters)), max_size=6)):
            cells[ring[i]] = a
        border = Pattern(alphabet, cells)
    return nn, m, border


@settings(max_examples=200, deadline=None)
@given(_nn_cases())
def test_standard_square_matches_the_recursive_fill(case):
    nn, m, border = case
    assert _outcome(standard_square, nn, border, m) == _outcome(_reference_square, nn, border, m)
    want = _outcome(lambda: _reference_square(nn, choose_border(nn, m), m))
    assert _outcome(build_Pk, nn, m) == want


# Filler-less level-3 squares whose side-5 quadrants need their own
# completability check: the lex-first admissible centerlines of some quadrant
# do not complete, so the quadrants' order and their runs of the fill order
# show in the square.
_QUADRANTS_CERTIFIED = [
    (
        [("h", "0", "1"), ("v", "1", "0")],
        ["000000000"] + ["1.......1"] * 7 + ["111111111"],
    ),
    (
        [("h", "0", "0"), ("v", "1", "0")],
        ["011011010"] + ["1.......1"] * 7 + ["111111011"],
    ),
    (
        [("h", "1", "0"), ("v", "0", "1")],
        ["111111111", "1.......1"] + ["0.......1"] * 2 + ["0.......0"] * 4 + ["000000000"],
    ),
    (
        [("h", "0", "1"), ("v", "1", "1")],
        [
            "100000000", "0.......0", "1.......0", "0.......0", "0.......0",
            "1.......1", "0.......0", "1.......1", "000000000",
        ],
    ),
]


@pytest.mark.parametrize("dominoes, rows", _QUADRANTS_CERTIFIED)
def test_filler_less_level_3_squares_match_the_recursive_fill(dominoes, rows):
    nn = _nn_spec(BINARY, dominoes)
    assert kernel_of(nn.spec).filler(2) is None
    border = Pattern.from_text("9 9 2\n" + "\n".join(rows) + "\n")
    want = _reference_square(nn, border, 3)
    assert standard_square(nn, border, 3) == want
    # the quadrants' checks matter: a fill certified at the top square alone differs
    assert _outcome(lambda: _reference_square(nn, border, 3, top_only=True)) != want


def test_uncompletable_border_is_refused():
    # 0 1 and 1 over 1 are forbidden; the centre cell fits neither letter
    nn = _nn_spec(BINARY, [("v", "1", "1"), ("h", "0", "1")])
    border = Pattern.from_text("3 3 2\n000\n0.1\n100\n")
    assert contains_forbidden(border, nn.spec) is None
    msg = "centerlines of the square at (0, 0) size 3 admit no completable assignment"
    with pytest.raises(InfeasibleError, match=re.escape(msg)):
        standard_square(nn, border, 1)


@pytest.mark.parametrize("m", range(6))
def test_fill_order_is_the_recursions_visit_order(m):
    side = side_of_level(m)
    border = Pattern(BINARY, dict.fromkeys(ring_cells(side), "0"))
    visits = []
    _reference_square(NN_HS, border, m, visits)
    order = _fill_order(side)
    assert order == visits
    assert len(set(order)) == len(order) == side * side - len(ring_cells(side))


def test_level_8_square_memory():
    # measured at 9.4 MiB on Python 3.11: the state's dict and its copy in
    # the Pattern; a per-cell iterator or a cached fill order shows above
    border = Pattern(BINARY, dict.fromkeys(ring_cells(side_of_level(8)), "0"))
    tracemalloc.start()
    try:
        square = standard_square(NN_HS, border, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(square) == 257 * 257
    assert peak < 11 * 2**20


def test_level_9_square_takes_over_the_state_dict():
    # measured on Python 3.11: 46.3 MiB when the Pattern copied the state's
    # 10.0 MiB dict at the end, 40.9 MiB now; the fill's last dict resize
    # sets the peak
    border = Pattern(BINARY, dict.fromkeys(ring_cells(side_of_level(9)), "0"))
    tracemalloc.start()
    try:
        square = standard_square(NN_HS, border, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(square) == 513 * 513
    assert peak < 43 * 2**20


# ---------------------------------------------------------------------------
# Descriptions
# ---------------------------------------------------------------------------


def test_describe_full_square(p3, nn_no00):
    desc = describe_subpattern(nn_no00, p3, 3, (0, 0, 9, 9))
    assert desc.level == 3
    assert desc.grid == (1, 1)
    assert desc.offset == (0, 0)
    assert len(desc.borders) == 1
    assert reconstruct_subpattern(desc, nn_no00) == p3


def test_describe_straddling_rect(p4_hs):
    desc = describe_subpattern(NN_HS, p4_hs, 4, (5, 5, 7, 7))
    assert desc.level == 3
    assert desc.grid == (2, 2)
    assert len(desc.borders) == 4
    for b in desc.borders:
        assert set(b.support) == set(ring_cells(9))
    assert reconstruct_subpattern(desc, NN_HS) == subpattern(p4_hs, (5, 5, 7, 7))


def test_describe_single_cell(p3, nn_no00):
    desc = describe_subpattern(nn_no00, p3, 3, (4, 7, 1, 1))
    assert desc.level == 0
    assert reconstruct_subpattern(desc, nn_no00) == subpattern(p3, (4, 7, 1, 1))


def test_describe_rejects_out_of_range(p3, nn_no00):
    for rect in ((0, 0, 10, 1), (-1, 0, 2, 2), (8, 8, 2, 2), (0, 0, 0, 1)):
        with pytest.raises(PatternError):
            describe_subpattern(nn_no00, p3, 3, rect)


def test_roundtrip_exhaustive_small(p3, nn_no00):
    # every rectangle inside the level-3 square survives the roundtrip
    for r0 in range(0, 9, 3):
        for c0 in range(0, 9, 3):
            for h in (1, 2, 5):
                for w in (1, 3, 6):
                    if r0 + h > 9 or c0 + w > 9:
                        continue
                    rect = (r0, c0, h, w)
                    desc = describe_subpattern(nn_no00, p3, 3, rect)
                    assert reconstruct_subpattern(desc, nn_no00) == subpattern(p3, rect)


def test_roundtrip_random_rects(p4_hs):
    rng = random.Random(2024)
    rects = []
    for _ in range(12):
        h = rng.randint(1, 17)
        w = rng.randint(1, 17)
        rects.append((rng.randint(0, 17 - h), rng.randint(0, 17 - w), h, w))
    reports = lowcfg_roundtrip(NN_HS, p4_hs, 4, rects)
    assert all(rep["ok"] and rep["within_bound"] for rep in reports)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_roundtrip_rings_match_per_cell_reads(nn_no00, monkeypatch, k):
    # every covering square's ring, read from pk's rows, is the ring read
    # cell by cell with pk.at, rectangles on pk's last row and column included
    pk = build_Pk(nn_no00, k)
    side_k = side_of_level(k)
    rng = random.Random(k)
    rects = [(0, 0, side_k, side_k), (side_k - 1, 0, 1, side_k), (0, side_k - 1, side_k, 1)]
    for _ in range(12):
        h, w = rng.randint(1, side_k), rng.randint(1, side_k)
        rects.append((rng.randint(0, side_k - h), rng.randint(0, side_k - w), h, w))
    described = []

    def recorded(*args):
        described.append(describe_subpattern(*args))
        return described[-1]

    monkeypatch.setattr(lowcfg, "describe_subpattern", recorded)
    assert all(rep["ok"] for rep in lowcfg_roundtrip(nn_no00, pk, k, rects))
    assert len(described) == len(rects)
    for rect, desc in zip(rects, described):
        g = 2**desc.level
        i0, j0 = (rect[0] - desc.offset[0]) // g, (rect[1] - desc.offset[1]) // g
        want = [
            [((r, c), pk.at(i * g + r, j * g + c)) for r, c in ring_cells(g + 1)]
            for i in range(i0, i0 + desc.grid[0])
            for j in range(j0, j0 + desc.grid[1])
        ]
        assert [list(b.items()) for b in desc.borders] == want, rect


def test_describe_refuses_a_square_of_the_wrong_size_or_alphabet(nn_no00, p3):
    wrong = [
        build_Pk(nn_no00, 2),
        build_Pk(nn_no00, 4),
        Pattern(BINARY, {cell: a for cell, a in p3.items() if cell != (8, 8)}),
        Pattern(BWR, {cell: "BW"[int(a)] for cell, a in p3.items()}),
    ]
    for pk in wrong:
        with pytest.raises(PatternError, match="^pk is not a 9x9 square over the no-00-row "):
            describe_subpattern(nn_no00, pk, 3, (0, 0, 1, 1))


def test_description_bits_within_declared_constant(p4_hs):
    assert description_constant(BINARY) == 48
    for rect in ((0, 0, 17, 17), (3, 3, 7, 11), (16, 0, 1, 17), (8, 8, 1, 1)):
        desc = describe_subpattern(NN_HS, p4_hs, 4, rect)
        bits = description_bits(desc, BINARY)
        assert bits <= 48 * max(rect[2], rect[3])


def test_tampered_description_differs(p3, nn_no00):
    rect = (2, 2, 3, 2)
    desc = describe_subpattern(nn_no00, p3, 3, rect)
    skewed = dataclasses.replace(desc, offset=(desc.offset[0], desc.offset[1] + 1))
    assert reconstruct_subpattern(skewed, nn_no00) != subpattern(p3, rect)


@pytest.mark.parametrize(
    "change, named",
    [
        ({"offset": (0, 1)}, "leave the covering block"),
        ({"offset": (-1, 0)}, "leave the covering block"),
        ({"shape": (9, 10)}, "leave the covering block"),
        ({"shape": (0, 3)}, "is empty"),
        ({"shape": (3, -1)}, "is empty"),
        ({"grid": (2, 2)}, "1 borders for a 2x2 grid"),
        ({"grid": (1, 3)}, "is not 1 or 2"),
        ({"grid": (0, 1), "borders": ()}, "is not 1 or 2"),
    ],
    ids=[
        "offset-past-the-block",
        "negative-offset",
        "shape-past-the-block",
        "empty-shape",
        "negative-shape",
        "too-few-borders",
        "grid-of-three",
        "grid-of-none",
    ],
)
def test_malformed_description_refused_before_any_build(
    p3, nn_no00, monkeypatch, change, named
):
    # a full-square description of the level-3 square, made malformed
    desc = dataclasses.replace(describe_subpattern(nn_no00, p3, 3, (0, 0, 9, 9)), **change)

    def no_build(*args):
        raise AssertionError("a malformed description reached standard_square")

    monkeypatch.setattr(lowcfg, "standard_square", no_build)
    with pytest.raises(PatternError, match=re.escape(named)):
        reconstruct_subpattern(desc, nn_no00)


def _level_1_square(cells=None):
    ring = dict.fromkeys(ring_cells(3), "0")
    return Pattern(BINARY, {**ring, **(cells or {})})


def test_covering_squares_disagreeing_on_a_shared_column_refused():
    # the left square's column 2 is all 0, the right square's column 0 has a
    # 1 in the middle; both rings are admissible hard-square borders
    left, right = _level_1_square(), _level_1_square({(1, 0): "1"})
    desc = lowcfg.SquareDescription(1, (1, 2), (0, 0), (3, 5), (left, right))
    with pytest.raises(PatternError, match="covering squares disagree on a shared line"):
        reconstruct_subpattern(desc, NN_HS)
    # agreeing borders rebuild; a border that fails to build is refused
    # before any disagreement is looked for
    ok = dataclasses.replace(desc, borders=(left, left))
    assert reconstruct_subpattern(ok, NN_HS).rows() == ["00000"] * 3
    bad = _level_1_square({(1, 0): "1", (2, 0): "1"})
    with pytest.raises(PatternError, match="border ring is not locally admissible"):
        reconstruct_subpattern(dataclasses.replace(desc, borders=(left, bad)), NN_HS)


def test_reconstruction_memo_builds_each_distinct_square_once(p3, nn_no00, monkeypatch):
    calls = []
    real = lowcfg.standard_square

    def counted(nn, border, m):
        calls.append((m, border))
        return real(nn, border, m)

    monkeypatch.setattr(lowcfg, "standard_square", counted)
    squares: dict = {}
    rects = [(0, 0, 5, 5), (4, 4, 5, 5), (0, 0, 5, 5)]
    descs = [describe_subpattern(nn_no00, p3, 3, rect) for rect in rects]
    for desc, rect in zip(descs, rects):
        assert reconstruct_subpattern(desc, nn_no00, squares) == subpattern(p3, rect)
    keys = {(d.level, b) for d in descs for b in d.borders}
    assert len(calls) == len(squares) == len(keys) and set(squares) == keys
    # a lone call builds every covering square of its own
    calls.clear()
    reconstruct_subpattern(descs[0], nn_no00)
    assert len(calls) == len(descs[0].borders)


def test_reconstruction_memo_is_keyed_by_level():
    # the same border is a level-1 ring only: met again at level 2 it is
    # refused, not served from the memo
    border = _level_1_square()
    squares: dict = {}
    one = lowcfg.SquareDescription(1, (1, 1), (0, 0), (3, 3), (border,))
    assert reconstruct_subpattern(one, NN_HS, squares).rows() == ["000"] * 3
    two = dataclasses.replace(one, level=2)
    with pytest.raises(PatternError, match="border support is not the level-2 ring"):
        reconstruct_subpattern(two, NN_HS, squares)


def test_roundtrip_metrics_count_described_and_built_squares(p4_hs):
    rects = [(0, 0, 17, 17), (5, 5, 7, 7), (3, 3, 7, 7), (16, 0, 1, 17)]
    metrics: dict = {}
    reports = lowcfg_roundtrip(NN_HS, p4_hs, 4, rects, metrics)
    assert all(rep["ok"] for rep in reports)
    # one level-4 square, 4 + 4 level-3 squares over the all-0 ring, and one
    # level-4 square for the bottom row: two distinct (level, border) pairs
    assert metrics == {"squares_described": 10, "squares_built": 2}
    assert lowcfg_roundtrip(NN_HS, p4_hs, 4, rects) == reports


def test_roundtrip_builds_no_cell_map_of_a_rectangle(p3, nn_no00, monkeypatch):
    # the rebuilt and the cut rectangles hold their rows and compare by them
    made = []

    def kept(build):
        def wrapped(*args):
            made.append(build(*args))
            return made[-1]

        return wrapped

    monkeypatch.setattr(lowcfg, "reconstruct_subpattern", kept(lowcfg.reconstruct_subpattern))
    monkeypatch.setattr(lowcfg, "subpattern", kept(lowcfg.subpattern))
    rects = [(0, 0, 9, 9), (1, 3, 4, 5), (4, 0, 5, 2), (2, 2, 1, 1)]
    reports = lowcfg_roundtrip(nn_no00, p3, 3, rects)
    assert all(rep["ok"] for rep in reports) and len(made) == 2 * len(rects)
    assert [p._map for p in made] == [None] * len(made)  # noqa: SLF001
    assert made[0] == p3 and made[1] == p3


def test_description_save_load(p3, nn_no00, tmp_path):
    rect = (1, 3, 4, 5)
    desc = describe_subpattern(nn_no00, p3, 3, rect)
    save_description(desc, str(tmp_path / "d"))
    back = load_description(str(tmp_path / "d"))
    assert back == desc
    assert reconstruct_subpattern(back, nn_no00) == subpattern(p3, rect)


def _loaded_by(module, env):
    """The modules a child interpreter holds after importing ``module``."""
    snippet = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert module in loaded
    return loaded


def test_lowcfg_imports_only_core(child_env):
    # the archive format and the gamma code live in core, so lowcfg loads
    # neither the program search nor the completion search
    loaded = _loaded_by("shiftlab.lowcfg", child_env)
    assert not loaded & {"shiftlab.deepshift", "shiftlab.complexity", "shiftlab.admissibility"}


@pytest.mark.parametrize(
    "module, unused",
    [
        # blocks that extend by a margin are listed by core
        ("epitomes", ["admissibility", "deepshift", "complexity", "lowcfg"]),
        ("deepshift", ["admissibility", "epitomes", "lowcfg"]),
    ],
    ids=["epitomes", "deepshift"],
)
def test_modules_import_only_what_they_run(child_env, module, unused):
    loaded = _loaded_by(f"shiftlab.{module}", child_env)
    assert not loaded & {f"shiftlab.{name}" for name in unused}


_DESCRIPTION = {"level": 1, "grid": [1, 1], "offset": [0, 0], "shape": [1, 1], "border_files": []}


@pytest.mark.parametrize(
    "head, named",
    [({}, "lacks"), ([], "not a JSON object")]
    + [({k: v for k, v in _DESCRIPTION.items() if k != key}, repr(key)) for key in _DESCRIPTION]
    + [
        (dict(_DESCRIPTION, **{key: value}), repr(key))
        for key, value in [
            ("level", "1"),
            ("level", 1.0),
            ("level", True),
            ("level", None),
            ("grid", 5),
            ("grid", [1]),
            ("grid", [1, 1, 1]),
            ("grid", [1, "1"]),
            ("offset", "00"),
            ("offset", [0, 0.5]),
            ("shape", None),
            ("shape", {"h": 1, "w": 1}),
            ("shape", [1, False]),
            ("border_files", "border_0.txt"),
            ("border_files", [3]),
            ("border_files", [None]),
            ("border_files", [""]),
            ("border_files", ["/etc/hostname"]),
            ("border_files", ["../border_0.txt"]),
            ("border_files", ["sub/../../border_0.txt"]),
        ]
    ],
)
def test_load_description_refuses_malformed_heads(tmp_path, head, named):
    (tmp_path / "description.json").write_text(json.dumps(head))
    with pytest.raises(PatternError, match=re.escape(named)):
        load_description(str(tmp_path))
