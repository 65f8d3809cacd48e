"""Margin-bounded extendability, lex-first completions, counting."""

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab.admissibility import (
    CompletionRegion,
    block_count,
    count_admissible,
    extendable,
    lex_first_completion,
)
from shiftlab import core
from shiftlab.core import (
    BINARY,
    BWR,
    InfeasibleError,
    Pattern,
    PatternError,
    _margin_blocks,
    contains_forbidden,
    count_rect_patterns,
    hard_square_spec,
    iter_rect_patterns,
    make_pattern,
    mirror_spec,
    red_black_spec,
    spec_from_patterns,
)

HS = hard_square_spec()
RB = red_black_spec()
MIRROR = mirror_spec()
# no 0 below a 1 and no 1 below a 1: a block with a 1 in its bottom row is
# locally admissible but has no row to extend into
DEAD_END = spec_from_patterns(
    "dead-end", BINARY, [make_pattern(["1", "0"]), make_pattern(["1", "1"])]
)


# ---------------------------------------------------------------------------
# extendable
# ---------------------------------------------------------------------------


def test_single_one_extends_by_all_zero_ring():
    w = extendable(make_pattern(["1"]), HS, 1)
    assert w is not None
    assert w.rows() == ["000", "010", "000"]
    assert contains_forbidden(w, HS) is None


def test_adjacent_ones_never_extend():
    for margin in (0, 1, 2):
        assert extendable(make_pattern(["11"]), HS, margin) is None


def test_margin_zero_is_local_admissibility():
    p = make_pattern(["10", "01"])
    assert extendable(p, HS, 0) == p
    assert extendable(make_pattern(["11"]), HS, 0) is None


def test_witness_contains_centered_input():
    p = make_pattern(["10", "01"])
    w = extendable(p, HS, 2)
    assert w.height == 6 and w.width == 6
    for (r, c), letter in p.items():
        assert w.at(r + 2, c + 2) == letter


def test_success_at_larger_margin_implies_smaller():
    for bits in itertools.product("01", repeat=4):
        p = make_pattern(["".join(bits[:2]), "".join(bits[2:])])
        if extendable(p, HS, 2) is not None:
            assert extendable(p, HS, 1) is not None
            assert extendable(p, HS, 0) is not None


def test_extendable_requires_rectangle():
    sparse = Pattern(BINARY, {(0, 0): "1", (2, 2): "1"})
    with pytest.raises(PatternError):
        extendable(sparse, HS, 1)


def test_red_black_white_square_extends():
    p = make_pattern(["WW", "WW"])
    w = extendable(p, RB, 2)
    assert w is not None
    assert contains_forbidden(w, RB) is None


def test_red_black_forbidden_square_never_extends():
    assert extendable(make_pattern(["RR", "BB"]), RB, 0) is None
    assert extendable(make_pattern(["RR", "BB"]), RB, 1) is None


def test_simple_pattern_in_enforcer_window_is_extendable():
    # a step-profile square placed in the slot of its enforcer window stays
    # admissible, and the window itself grows by one white ring
    from shiftlab.epitomes import Profile, build_enforcer, place_in_slot, simple_pattern

    prof = Profile((4, 3, 8, 5, 4, 2, 4, 6))
    enf = build_enforcer(prof)
    filled = place_in_slot(enf, simple_pattern(prof))
    assert extendable(filled, RB, 0) is not None

    small = Profile((2, 1))
    enf2 = build_enforcer(small)
    filled2 = place_in_slot(enf2, simple_pattern(small))
    assert extendable(filled2, RB, 1) is not None


# ---------------------------------------------------------------------------
# lex_first_completion
# ---------------------------------------------------------------------------


def _ring_host(n, letter):
    cells = {
        (r, c): letter
        for r in range(n)
        for c in range(n)
        if r in (0, n - 1) or c in (0, n - 1)
    }
    return Pattern(BINARY, cells)


def test_empty_free_cells_returns_host():
    host = make_pattern(["010", "000"])
    region = CompletionRegion(host, ())
    assert lex_first_completion(region, HS) == host


def test_zero_border_center_gets_zero():
    host = _ring_host(3, "0")
    region = CompletionRegion(host, ((1, 1),))
    done = lex_first_completion(region, HS)
    assert done.at(1, 1) == "0"


def test_one_border_forces_zero_center():
    host = Pattern(BINARY, {(0, 1): "1", (1, 0): "1"})
    region = CompletionRegion(host, ((1, 1),))
    done = lex_first_completion(region, HS)
    assert done.at(1, 1) == "0"


def test_contradictory_variant_spec_returns_none():
    # forbid both "0 over 0" and "1 over 0": a 0 two rows below a 0 can
    # then never have its middle cell colored
    forb = [
        Pattern(BINARY, {(0, 0): "0", (1, 0): "0"}),
        Pattern(BINARY, {(0, 0): "1", (1, 0): "0"}),
    ]
    variant = spec_from_patterns("no-letter-over-zero", BINARY, forb)
    host = Pattern(BINARY, {(0, 0): "0", (2, 0): "0"})
    assert contains_forbidden(host, variant) is None
    region = CompletionRegion(host, ((1, 0),))
    assert lex_first_completion(region, variant) is None


def test_inadmissible_host_returns_none():
    host = make_pattern(["11"])
    region = CompletionRegion(host, ((1, 0),))
    assert lex_first_completion(region, HS) is None


def test_region_guards():
    host = make_pattern(["0"])
    with pytest.raises(PatternError):
        CompletionRegion(host, ((0, 0),))
    with pytest.raises(PatternError):
        CompletionRegion(host, ((1, 0), (1, 0)))


def test_alphabet_mismatch_rejected():
    region = CompletionRegion(make_pattern(["W"]), ((0, 1),))
    with pytest.raises(PatternError):
        lex_first_completion(region, HS)


def _brute_lex_first(host, free, spec):
    # product over letters in alphabet order enumerates fills in exactly
    # the lexicographic order the library promises, so the first admissible
    # fill is the expected witness
    for fill in itertools.product(spec.alphabet.letters, repeat=len(free)):
        q = Pattern(spec.alphabet, {**host.cells, **dict(zip(sorted(free), fill))})
        if contains_forbidden(q, spec) is None:
            return q
    return None


def test_lex_minimality_exhaustive_2x2():
    # all ways to pin a subset of a 2x2 square, checked against brute force
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for mask in range(3 ** 4):
        pins, m = {}, mask
        for cell in cells:
            d, m = m % 3, m // 3
            if d:
                pins[cell] = "01"[d - 1]
        host = Pattern(BINARY, pins)
        if contains_forbidden(host, HS) is not None:
            continue
        free = tuple(c for c in cells if c not in pins)
        got = lex_first_completion(CompletionRegion(host, free), HS)
        assert got == _brute_lex_first(host, free, HS)


def test_lex_minimality_red_black_border():
    # 3x3 with fixed top row, 6 free cells, against brute force over 3^6
    host = Pattern(BWR, {(0, 0): "R", (0, 1): "R", (0, 2): "R"})
    free = tuple((r, c) for r in (1, 2) for c in range(3))
    got = lex_first_completion(CompletionRegion(host, free), RB)
    assert got == _brute_lex_first(host, free, RB)
    assert got is not None


def test_witness_deterministic():
    host = _ring_host(4, "0")
    free = tuple((r, c) for r in (1, 2) for c in (1, 2))
    a = lex_first_completion(CompletionRegion(host, free), HS)
    b = lex_first_completion(CompletionRegion(host, free), HS)
    assert a.to_text() == b.to_text()


# ---------------------------------------------------------------------------
# count_admissible
# ---------------------------------------------------------------------------


def test_hard_square_counts():
    assert count_admissible(HS, 1, 0) == 2
    assert count_admissible(HS, 2, 0) == 7
    assert count_admissible(HS, 3, 0) == 63
    assert count_admissible(HS, 4, 0) == 1234


def test_hard_square_count_matches_inline_brute_force():
    for n in (1, 2, 3):
        total = 0
        for bits in itertools.product("01", repeat=n * n):
            rows = ["".join(bits[r * n : (r + 1) * n]) for r in range(n)]
            ok = all("11" not in row for row in rows) and all(
                not (rows[r][c] == "1" and rows[r + 1][c] == "1")
                for r in range(n - 1)
                for c in range(n)
            )
            total += ok
        assert count_admissible(HS, n, 0) == total


def test_red_black_counts():
    assert count_admissible(RB, 1, 0) == 3
    # every 2x2 except the one forbidden square survives
    assert count_admissible(RB, 2, 0) == 80


def test_count_nonincreasing_in_margin():
    for n in (1, 2, 3):
        base = count_admissible(HS, n, 0)
        m1 = count_admissible(HS, n, 1)
        m2 = count_admissible(HS, n, 2)
        assert base >= m1 >= m2


def test_hard_square_margin_does_not_drop_counts():
    # every locally admissible hard-square pattern extends by all-0 rings
    assert count_admissible(HS, 2, 1) == 7


def test_negative_margin_is_refused_before_enumerating():
    # no 2 x 2 block of this spec is locally admissible, so the check
    # cannot be left to a per-block search
    both = spec_from_patterns("x", BINARY, [make_pattern(["0"]), make_pattern(["1"])])
    with pytest.raises(PatternError):
        count_admissible(both, 2, -3)


def test_hard_square_5_margin_1_frozen():
    assert count_admissible(HS, 5, 1) == 55447


@pytest.mark.parametrize("n, total", [(1, 3), (2, 80), (3, 18748)])
def test_red_black_margin_never_drops_counts(n, total):
    """An all-W ring extends every locally admissible block: a square that
    meets the ring has a ring cell in its top or bottom row, so that row is
    neither all R nor all B."""
    for margin in (0, 1, 2):
        assert count_admissible(RB, n, margin) == total


def _extendable_oracle(spec, n, margin):
    return [q for q in iter_rect_patterns(spec, n, n) if extendable(q, spec, margin) is not None]


def _assert_matches_oracle(spec, n, margin):
    want = _extendable_oracle(spec, n, margin)
    got = list(iter_rect_patterns(spec, n, n, margin))
    assert got == want
    assert count_admissible(spec, n, margin) == len(want)


def _random_pattern(draw, alphabet):
    box = [(r, c) for r in range(2) for c in range(2)]
    support = draw(st.sets(st.sampled_from(box), min_size=1, max_size=3))
    return Pattern(alphabet, {cell: draw(st.sampled_from(alphabet.letters)) for cell in support})


@st.composite
def user_specs_and_sizes(draw):
    """A spec of one to three forbidden patterns of at most three cells in a
    2 x 2 box, over BINARY or BWR, and a block size n <= 3 (n <= 2 over BWR,
    where the oracle would make 3^9 completion searches).  Patterns that
    reach further let a failed ring search backtrack over whole rows and
    take seconds.  Half the draws
    plant a dead end: a letter ``a`` and a neighbouring offset (diagonals
    included) such that every letter allowed at all is forbidden at that
    offset from ``a`` (over BWR one letter is forbidden outright), so a
    block with ``a`` on the matching edge or corner is locally admissible
    but does not extend."""
    alphabet = draw(st.sampled_from((BINARY, BWR)))
    letters = alphabet.letters
    forbidden = []
    if draw(st.booleans()):
        allowed = letters
        if alphabet is BWR:
            banned = draw(st.sampled_from(letters))
            forbidden.append(Pattern(alphabet, {(0, 0): banned}))
            allowed = tuple(x for x in letters if x != banned)
        a = draw(st.sampled_from(allowed))
        steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]
        step = draw(st.sampled_from(steps))
        forbidden += [Pattern(alphabet, {(0, 0): a, step: b}) for b in allowed]
    while len(forbidden) < 3 and (not forbidden or draw(st.booleans())):
        forbidden.append(_random_pattern(draw, alphabet))
    n = draw(st.integers(min_value=1, max_value=3 if alphabet is BINARY else 2))
    return spec_from_patterns("user", alphabet, forbidden), n


@settings(max_examples=200, deadline=None)
@given(user_specs_and_sizes(), st.integers(min_value=0, max_value=2))
@example((DEAD_END, 2), 1)
def test_extendable_blocks_match_filtered_enumeration(spec_and_n, margin):
    _assert_matches_oracle(*spec_and_n, margin)


def test_dead_end_spec_drops_blocks_at_positive_margin():
    # the differential test above sees blocks that fail to extend
    assert count_admissible(DEAD_END, 2, 1) < count_admissible(DEAD_END, 2, 0)


# red-black at n = 3 and margin >= 1 is left to the margin test above: the
# oracle costs seconds there, and since every block extends, the pinned
# count already fixes the yields
@pytest.mark.parametrize(
    "spec, n, margin",
    [
        (spec, n, m)
        for spec in (HS, RB, MIRROR)
        for n in (1, 2, 3)
        for m in (0, 1, 2)
        if not (spec is RB and n == 3 and m)
    ],
    ids=lambda x: getattr(x, "name", None),
)
def test_builtin_extendable_blocks_match_filtered_enumeration(spec, n, margin):
    _assert_matches_oracle(spec, n, margin)


# ---------------------------------------------------------------------------
# the row-transfer route against enumeration
# ---------------------------------------------------------------------------


@st.composite
def row_spread_specs(draw):
    """A spec of one to three forbidden patterns, each of one to four cells
    in a 3 x 3 box, so patterns cover one to three rows and some leave rows
    between their cells empty; half the draws add a horizontal domino of two
    different letters, whose two cells span its box for neither letter, so
    that often no letter is a filler."""
    alphabet = draw(st.sampled_from((BINARY, BWR)))
    box = [(r, c) for r in range(3) for c in range(3)]
    forbidden = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        support = draw(st.sets(st.sampled_from(box), min_size=1, max_size=4))
        forbidden.append(
            Pattern(alphabet, {cell: draw(st.sampled_from(alphabet.letters)) for cell in support})
        )
    if draw(st.booleans()):
        a, b = draw(st.permutations(alphabet.letters))[:2]
        forbidden.append(make_pattern([a + b], alphabet))
    return spec_from_patterns("user", alphabet, forbidden)


@settings(max_examples=150, deadline=None)
@given(row_spread_specs(), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2))
@example(DEAD_END, 3, 3, 2)  # no filler
@example(HS, 3, 2, 2)  # filler 0
def test_row_transfer_matches_enumeration(spec, h, w, n):
    assert count_rect_patterns(spec, h, w) == sum(1 for _ in _margin_blocks(spec, h, w, 0))
    count, metrics = block_count(spec, n, 1)
    assert metrics["route"] == ("ring-search" if metrics["filler"] is None else "row-transfer")
    blocks = sum(1 for _ in _margin_blocks(spec, n, n, 1))
    assert count == count_admissible(spec, n, 1) == blocks


# derandomized, as the ring searches at positive margins can take seconds
@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_spread_specs(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
@example(DEAD_END, 2, 3, 2)  # no filler
@example(HS, 2, 4, 2)  # filler 0
def test_row_lister_matches_the_cell_route(spec, h, w, margin):
    # at most 2^12 fillings at margin 0, 2^8 with a ring to search per block
    assume(len(spec.alphabet) ** (h * w) <= (2**8 if margin else 2**12))
    want = [Pattern(spec.alphabet, cells) for cells in _margin_blocks(spec, h, w, margin)]
    assert list(iter_rect_patterns(spec, h, w, margin)) == want


# ---------------------------------------------------------------------------
# the margin lister at non-square sizes, and its bound
# ---------------------------------------------------------------------------


# derandomized: a failing ring search backtracks over whole ring rows, and
# some draws take seconds (a 1 x 3 block at margin 2 of a spec banning a 1
# two rows above and two columns left of any letter took 6.6 s for its 8
# blocks), so the run keeps one fixed set of draws
@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_spread_specs(), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2))
@example(DEAD_END, 2, 3, 1)  # no filler, and blocks that do not extend
@example(HS, 3, 4, 2)  # filler 0
def test_margin_lister_matches_filtered_enumeration_off_the_square(spec, h, w, margin):
    # at most 2^12 fillings: all of 3 x 4 over BINARY, up to 7 cells over BWR
    assume(h != w and len(spec.alphabet) ** (h * w) <= 2**12)
    want = [q for q in iter_rect_patterns(spec, h, w) if extendable(q, spec, margin) is not None]
    assert list(iter_rect_patterns(spec, h, w, margin)) == want


NO_01 = spec_from_patterns("no-01", BINARY, [make_pattern(["01"])])  # no filler


def test_lister_refuses_before_building_while_the_ring_count_is_unbounded(monkeypatch):
    def built(*_):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(core, "MAX_CANDIDATES", 5)
    monkeypatch.setattr(Pattern, "_adopt", classmethod(built))
    with pytest.raises(InfeasibleError, match="^9 admissible 2x2 patterns of no-01 exceed the 5 "):
        iter_rect_patterns(NO_01, 2, 2, 1)
    # the ring search counts on the lister's fill loop, building nothing
    assert block_count(NO_01, 2, 1) == (
        9, {"filler": None, "route": "ring-search", "rows": None, "states": None}
    )
