"""Margin-bounded extendability, lex-first completions, counting."""

import itertools

import pytest

from shiftlab.admissibility import (
    CompletionRegion,
    count_admissible,
    extendable,
    lex_first_completion,
)
from shiftlab.core import (
    BINARY,
    BWR,
    Pattern,
    PatternError,
    contains_forbidden,
    hard_square_spec,
    make_pattern,
    red_black_spec,
    spec_from_patterns,
)

HS = hard_square_spec()
RB = red_black_spec()


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
