"""Summary families and whether local windows can enforce them."""

import itertools

import pytest

from shiftlab.core import (
    BWR,
    InfeasibleError,
    Pattern,
    PatternError,
    contains_forbidden,
    hard_square_spec,
    iter_rect_patterns,
    make_pattern,
    mirror_spec,
    red_black_index_offset,
    red_black_spec,
)
from shiftlab.epitomes import (
    EnforcerReport,
    Profile,
    all_profiles,
    border_epitome_consistency,
    build_enforcer,
    constant_family,
    epitome_property_check,
    identity_family,
    interior_popcount_family,
    mirror_epitome,
    mirror_family,
    place_in_slot,
    profile,
    profile_family,
    profile_leq,
    simple_pattern,
    simple_pattern_census,
    verify_enforcer,
    _SIMPLE,
    _mirror_window,
)

RB = red_black_spec()
HS = hard_square_spec()
MI = mirror_spec()

IDENTITY = {"0": "0", "1": "1"}


# ---------------------------------------------------------------------------
# Profiles and simple patterns
# ---------------------------------------------------------------------------


def test_profile_entry_bounds():
    Profile((0, 2, 1))
    with pytest.raises(PatternError):
        Profile((3, 0))


def test_simple_pattern_layout():
    p = simple_pattern(Profile((2, 0, 1)))
    assert p.rows() == ["BBW", "WWW", "BWW"]


def test_profile_round_trip_all_sizes():
    for n in (1, 2, 3):
        for prof in all_profiles(n):
            assert profile(simple_pattern(prof)) == prof


def test_profile_none_for_non_simple():
    assert profile(make_pattern(["WB", "BW"])) is None  # black after white
    assert profile(make_pattern(["BR", "WW"])) is None  # red present
    # outside the domain entirely: errors, not None
    with pytest.raises(PatternError):
        profile(make_pattern(["BW"]))  # not square
    with pytest.raises(PatternError):
        profile(make_pattern(["01", "10"]))  # wrong alphabet
    # the family wrapper turns domain errors into undefined values
    assert profile_family().evaluate(make_pattern(["01", "10"])) is None


def test_all_profiles_count_and_order():
    profs = list(all_profiles(2))
    assert len(profs) == 9
    assert profs[0] == Profile((0, 0))
    assert profs[-1] == Profile((2, 2))


def test_profile_leq_partial_order():
    profs = list(all_profiles(2))
    for a in profs:
        assert profile_leq(a, a)
        for b in profs:
            if profile_leq(a, b) and profile_leq(b, a):
                assert a == b
            assert profile_leq(a, b) == all(
                x <= y for x, y in zip(a.counts, b.counts)
            )
            for c in profs:
                if profile_leq(a, b) and profile_leq(b, c):
                    assert profile_leq(a, c)
    with pytest.raises(PatternError):
        profile_leq(Profile((1,)), Profile((1, 1)))


def test_census_counts_by_enumeration():
    assert simple_pattern_census(1) == 2
    assert simple_pattern_census(2) == 9
    assert simple_pattern_census(3) == 64


def test_census_guards():
    with pytest.raises(PatternError):
        simple_pattern_census(0)
    with pytest.raises(InfeasibleError):
        simple_pattern_census(5)


def test_census_matches_profile_count():
    for n in (1, 2, 3):
        assert simple_pattern_census(n) == sum(1 for _ in all_profiles(n))


def test_census_spec_yields_exactly_the_simple_patterns():
    # profile() is the independent reference: every 3^(n^2) candidate is
    # classified, and the enumerator must yield the simple ones, each once.
    for n in (1, 2, 3):
        got = [tuple(q.rows()) for q in iter_rect_patterns(_SIMPLE, n, n)]
        want = set()
        for letters in itertools.product("BWR", repeat=n * n):
            text = "".join(letters)
            rows = tuple(text[r * n : (r + 1) * n] for r in range(n))
            if profile(make_pattern(rows, BWR)) is not None:
                want.add(rows)
        assert len(got) == len(set(got))
        assert set(got) == want


# ---------------------------------------------------------------------------
# Mirror summary
# ---------------------------------------------------------------------------


def test_mirror_epitome_values():
    assert mirror_epitome(make_pattern(["BW", "WB"])) == "0110"
    assert mirror_epitome(make_pattern(["RR", "BW"])) == ""
    assert mirror_epitome(make_pattern(["W"])) == "1"


def test_mirror_epitome_rejects_binary():
    with pytest.raises(PatternError):
        mirror_epitome(make_pattern(["01"]))


# ---------------------------------------------------------------------------
# Enforcer windows
# ---------------------------------------------------------------------------


def test_enforcer_geometry_n2():
    win = build_enforcer(Profile((1, 1)))
    assert win.window.bbox == (0, 0, 5, 7)
    assert win.slot_origin == (4, 5)
    # slot is free
    for r in range(4, 6):
        for c in range(5, 7):
            assert win.window.at(r, c) is None
    # line 1 (bottom row): black stripe from column k+0 = 1 to 3n-2 = 4
    assert [win.window.at(5, c) for c in range(8)] == list("WBBBB") + [None, None] + ["W"]
    # its red counterpart five rows up, two columns longer
    assert "".join(win.window.at(0, c) for c in range(8)) == "WRRRRRRW"
    assert win.line_row(1) == 5 and win.line_row(6) == 0


def test_enforcer_stripe_lengths_n8():
    prof = Profile((4, 3, 8, 5, 4, 2, 4, 6))
    win = build_enforcer(prof)
    n = 8
    rows = {r: "".join(win.window.at(r, c) or "." for c in range(4 * n)) for r in range(3 * n)}
    # line 1 black stripe + the k slot blacks of a compatible pattern = 23
    k1 = prof.counts[n - 1]
    assert rows[3 * n - 1].count("B") == 3 * n - 1 - k1
    assert rows[3 * n - 1].count("B") + k1 == 23
    # top line's red stripe spans 24 columns
    assert rows[0].count("R") == 3 * n
    # every line's red stripe starts where its black stripe starts
    for i in range(1, n + 1):
        k = prof.counts[n - i]
        start = k + 2 * i - 2
        black_row, red_row = rows[3 * n - i], rows[i - 1]
        assert set(black_row[start : 3 * n - 1]) <= {"B"}
        assert red_row[start] == "R"
        assert red_row.count("R") == 3 * n - 2 * (i - 1)


def test_enforcer_windows_admissible_all_white_slot():
    for n in (1, 2, 3, 4):
        for prof in all_profiles(n):
            win = build_enforcer(prof)
            blank = Pattern(BWR, {(r, c): "W" for r in range(n) for c in range(n)})
            assert contains_forbidden(place_in_slot(win, blank), RB) is None, prof


def test_place_in_slot_shape_guard():
    win = build_enforcer(Profile((1, 1)))
    with pytest.raises(PatternError):
        place_in_slot(win, make_pattern(["W"]))


def test_verify_enforcer_full_sweep_n2():
    for prof in all_profiles(2):
        rep = verify_enforcer(prof)
        assert isinstance(rep, EnforcerReport)
        assert rep.ok and rep.clause1 and rep.clause2 and rep.clause3
        assert rep.converse
        assert len(rep.cases) == 9
        for case in rep.cases:
            assert case.compatible == case.leq
            assert (case.occurrence is None) == case.compatible


def test_violation_square_size_matches_line():
    # raising line i's count by one places a forbidden square of side
    # 3n - 2i + 2 between the stripes
    win = build_enforcer(Profile((1, 1)))
    for bumped, side in ((Profile((2, 1)), 4), (Profile((1, 2)), 6)):
        full = place_in_slot(win, simple_pattern(bumped))
        occ = contains_forbidden(full, RB)
        assert occ is not None
        # recover the square size from the enumeration index arithmetic
        s = 2
        while red_black_index_offset(s + 1) <= occ.forbidden_index:
            s += 1
        assert s == side


# ---------------------------------------------------------------------------
# Property checks per family
# ---------------------------------------------------------------------------


def test_profile_family_enforced_n2():
    rep = epitome_property_check(RB, profile_family(), 2)
    assert rep.ok
    assert rep.spec_name == "red-black"
    assert rep.kind == "ordered"
    assert len(rep.entries) == 9
    assert all(e["pass"] for e in rep.entries)


def test_mirror_family_enforced_n2():
    rep = epitome_property_check(MI, mirror_family(), 2)
    assert rep.ok
    # 16 black/white patterns plus 2*4 with one full red row survive the
    # extendability filter
    assert len(rep.entries) == 24
    assert rep.counterexample is None


def test_identity_family_rejected_with_counterexample():
    rep = epitome_property_check(RB, identity_family(), 2)
    assert not rep.ok
    cx = rep.counterexample
    assert cx is not None
    assert cx["pattern"] != cx["also_compatible"]
    # replay: both patterns really are compatible with the witness annulus
    ann = Pattern.from_text(
        f"{2 + 2 * rep.margin} {2 + 2 * rep.margin} 3\n" + cx["annulus"]
    )
    for rows in (cx["pattern"], cx["also_compatible"]):
        p = make_pattern(rows, BWR).translate(rep.margin, rep.margin)
        assert contains_forbidden(ann.union(p), RB) is None


def test_constant_family_trivially_enforced():
    rep = epitome_property_check(RB, constant_family(), 2)
    assert rep.ok and rep.kind == "plain"


def test_generic_route_feasibility_guard():
    with pytest.raises(InfeasibleError):
        epitome_property_check(RB, identity_family(), 3)  # 3^40 annuli
    with pytest.raises(InfeasibleError):
        epitome_property_check(RB, identity_family(), 2, window_margin=3)


def test_generic_route_hard_square_identity_rejected():
    rep = epitome_property_check(HS, identity_family(), 2)
    assert not rep.ok  # flipping an isolated 1 to 0 stays admissible


def test_mirror_window_shapes():
    bw = make_pattern(["BW", "WB"])
    win = _mirror_window(bw)
    assert win.at(2, 0) == "R" and win.at(2, 1) == "R"
    assert win.at(3, 0) == "W" and win.at(3, 1) == "B"  # reflected row 1
    assert win.at(4, 0) == "B" and win.at(4, 1) == "W"  # reflected row 0
    red = make_pattern(["RR", "BW"])
    win2 = _mirror_window(red)
    assert win2.cells == {(0, -1): "R", (0, 2): "R"}
    with pytest.raises(PatternError):
        _mirror_window(make_pattern(["RR", "RR"]))


def test_mirror_window_pins_reflection():
    # with the window for P in place, a candidate whose rows do not mirror
    # the window's reflected rows is inadmissible
    p = make_pattern(["BW", "WB"])
    win = _mirror_window(p)
    assert contains_forbidden(win.union(p), MI) is None
    other = make_pattern(["BW", "BB"])
    assert contains_forbidden(win.union(other), MI) is not None


# ---------------------------------------------------------------------------
# Border consistency
# ---------------------------------------------------------------------------


def test_border_consistency_hard_square_n3():
    constant = border_epitome_consistency(HS, IDENTITY, constant_family(), 3)
    assert len(constant.groups) == 47
    assert constant.flagged_count == 0
    assert constant.ledger_bits == 8

    pop = border_epitome_consistency(HS, IDENTITY, interior_popcount_family(), 3)
    assert len(pop.groups) == 47
    assert pop.flagged_count == 16
    # exactly the borders leaving the centre cell free are flagged
    for g in pop.groups:
        assert g.flagged == (len(g.values) > 1)


def test_border_consistency_group_sizes():
    rep = border_epitome_consistency(HS, IDENTITY, constant_family(), 2)
    # a 2x2 pattern is all border: every admissible pattern is its own group
    assert len(rep.groups) == 7
    assert all(g.size == 1 for g in rep.groups)
    assert rep.ledger_bits == 4


def test_border_consistency_ordered_kind():
    fam = interior_popcount_family(kind="ordered")
    object.__setattr__(fam, "leq", lambda a, b: a <= b)
    rep = border_epitome_consistency(HS, IDENTITY, fam, 3)
    # total order: every group has a maximum, so nothing is flagged
    assert rep.flagged_count == 0


def test_border_consistency_projection_alphabet_guard():
    with pytest.raises(PatternError):
        border_epitome_consistency(HS, {"0": "x", "1": "y"}, constant_family(), 2)


def test_sizes_below_one_rejected():
    with pytest.raises(PatternError):
        border_epitome_consistency(HS, IDENTITY, constant_family(), 0)
    with pytest.raises(PatternError):
        epitome_property_check(RB, identity_family(), 0)


def test_projection_must_cover_the_alphabet():
    with pytest.raises(PatternError, match="leaves out '1' of the hard-square"):
        border_epitome_consistency(HS, {"0": "B"}, constant_family(), 2)
    with pytest.raises(PatternError, match="leaves out 'B', 'R'"):
        border_epitome_consistency(RB, {"W": "W"}, constant_family(), 1)
