"""Standard squares for nearest-neighbour specs and their short
sub-rectangle descriptions."""

import json
import random
import re

import pytest

from shiftlab.core import (
    BINARY,
    InfeasibleError,
    Pattern,
    PatternError,
    contains_forbidden,
    hard_square_spec,
    mirror_spec,
    red_black_spec,
    spec_from_patterns,
    subpattern,
)
from shiftlab.lowcfg import (
    MAX_LEVEL,
    NNSpec,
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


def _domino_spec(name, pairs, orient="h"):
    forb = []
    for a, b in pairs:
        second = (0, 1) if orient == "h" else (1, 0)
        forb.append(Pattern(BINARY, {(0, 0): a, second: b}))
    return spec_from_patterns(name, BINARY, forb)


@pytest.fixture(scope="module")
def nn_no00():
    # forbids "00" horizontally: standard squares are non-constant
    return NNSpec(_domino_spec("no-00-row", [("0", "0")]))


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
    spec = _domino_spec("no-rows", [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")])
    with pytest.raises(InfeasibleError):
        choose_border(NNSpec(spec), 1)


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


def test_description_bits_within_declared_constant(p4_hs):
    assert description_constant(BINARY) == 48
    for rect in ((0, 0, 17, 17), (3, 3, 7, 11), (16, 0, 1, 17), (8, 8, 1, 1)):
        desc = describe_subpattern(NN_HS, p4_hs, 4, rect)
        bits = description_bits(desc, BINARY)
        assert bits <= 48 * max(rect[2], rect[3])


def test_tampered_description_differs(p3, nn_no00):
    import dataclasses

    rect = (2, 2, 3, 2)
    desc = describe_subpattern(nn_no00, p3, 3, rect)
    skewed = dataclasses.replace(desc, offset=(desc.offset[0], desc.offset[1] + 1))
    assert reconstruct_subpattern(skewed, nn_no00) != subpattern(p3, rect)


def test_description_save_load(p3, nn_no00, tmp_path):
    rect = (1, 3, 4, 5)
    desc = describe_subpattern(nn_no00, p3, 3, rect)
    save_description(desc, str(tmp_path / "d"))
    back = load_description(str(tmp_path / "d"))
    assert back == desc
    assert reconstruct_subpattern(back, nn_no00) == subpattern(p3, rect)


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
