"""Summary families and whether local windows can enforce them."""

import functools
import itertools
import math
import operator
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_kernels import _ring_reads

from shiftlab.core import (
    BINARY,
    BWR,
    InfeasibleError,
    Pattern,
    PatternError,
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
from shiftlab import epitomes
from shiftlab.epitomes import (
    EnforcerCase,
    EnforcerReport,
    EpitomeFamily,
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
    _coloring_index,
    _enforcer_indexes,
    _mirror_window,
    _simple_cells,
    _slot_index,
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
    with pytest.raises(InfeasibleError, match="117649 admissible 6x6 patterns of simple exceed"):
        simple_pattern_census(6)


def test_census_5_lists_every_profile():
    assert simple_pattern_census(5) == 7776 == len(list(all_profiles(5)))


def test_all_profiles_refuses_before_listing():
    # the refusal comes from the call itself, before anything is iterated
    with pytest.raises(InfeasibleError, match="117649 profiles of length 6 exceed the 100000"):
        all_profiles(6)
    assert next(iter(all_profiles(5))) == Profile((0,) * 5)


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


def _placed_window_report(prof, spec):
    """verify_enforcer by its definition: one Pattern of the whole window
    per case, scanned from scratch."""
    win = build_enforcer(prof)
    cases = []
    for cand in all_profiles(len(prof)):
        occ = contains_forbidden(place_in_slot(win, simple_pattern(cand)), spec)
        cases.append(EnforcerCase(cand.counts, occ is None, profile_leq(cand, prof), occ))
    return EnforcerReport(
        prof,
        tuple(cases),
        any(c.counts == prof.counts and c.compatible for c in cases),
        all(c.leq for c in cases if c.compatible),
        all(c.occurrence is not None for c in cases if not c.leq),
        all(c.compatible for c in cases if c.leq),
    )


@pytest.mark.parametrize(
    "spec, n", [(RB, 1), (RB, 2), (RB, 3), (MI, 1), (MI, 2)], ids=lambda x: getattr(x, "name", x)
)
def test_verify_enforcer_matches_placed_window_scans(spec, n):
    # the clauses follow from the cases as EnforcerReport defines them, with
    # the red-black kernel's scan and the mirror spec's generic one
    for prof in all_profiles(n):
        assert verify_enforcer(prof, spec) == _placed_window_report(prof, spec), prof


def _recorded_window_checks(monkeypatch) -> list:
    """The rows of every ``_window_compat`` call the test makes, in order."""
    calls = []
    real = epitomes._window_compat

    def record(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(epitomes, "_window_compat", record)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enforcer_route_bits_match_verify_enforcer(n, monkeypatch):
    # one placement pass for the whole check: row j is profile j's window,
    # and its bit i is verify_enforcer's flag for simple pattern i
    calls = _recorded_window_checks(monkeypatch)
    rep = epitome_property_check(RB, profile_family(), n)
    profs = list(all_profiles(n))
    assert rep.ok and len(calls) == 1
    (rows,) = calls
    assert len(rows) == len(profs)
    for prof, row in zip(profs, rows):
        cases = verify_enforcer(prof).cases
        assert [bool(row >> i & 1) for i in range(len(cases))] == [c.compatible for c in cases]
        assert row >> len(cases) == 0


def test_enforcer_route_needs_the_own_profile(monkeypatch):
    # a window enforcing a lower profile admits only profiles below that one,
    # so every bit it sets is a profile <= P, yet P itself is not admitted
    # (verify_enforcer sees the lowered windows too)
    real = epitomes.build_enforcer
    real_indexes = epitomes._enforcer_indexes

    def lowered(prof):
        return real(Profile(tuple(max(k - 1, 0) for k in prof.counts)))

    def lowered_indexes(n, counts):
        _, fillings, below = real_indexes(n, counts)
        windows = _slot_index(lowered(Profile(ks)).window.cells for ks in counts)
        return windows, fillings, below

    monkeypatch.setattr(epitomes, "build_enforcer", lowered)
    monkeypatch.setattr(epitomes, "_enforcer_indexes", lowered_indexes)
    rep = epitome_property_check(RB, profile_family(), 2)
    reports = [verify_enforcer(prof) for prof in all_profiles(2)]
    assert [e["pass"] for e in rep.entries] == [r.clause1 and r.clause2 for r in reports]
    assert [e["pass"] for e in rep.entries] == [True] + [False] * 8
    assert all(r.clause2 for r in reports)
    assert rep.counterexample == {"detail": "see enforcer sweep"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_profile_bitsets_agree_with_profile_leq(n, monkeypatch):
    # bit i of below[j] is profile_leq(profs[i], profs[j]), so the bitset
    # test of a window row is the all(profile_leq(...)) of its members, on
    # every row of the placement pass
    profs = list(all_profiles(n))
    _, _, below = _enforcer_indexes(n, [p.counts for p in profs])
    for j, b in enumerate(profs):
        assert [bool(below[j] >> i & 1) for i in range(len(profs))] == [
            profile_leq(a, b) for a in profs
        ]
    calls = _recorded_window_checks(monkeypatch)
    epitome_property_check(RB, profile_family(), n)
    (rows,) = calls
    for j, row in enumerate(rows):
        want = all(profile_leq(profs[i], profs[j]) for i in range(len(profs)) if row >> i & 1)
        assert (not row & ~below[j]) == want
        with_top = row | 1 << len(profs) - 1  # the top profile is below only itself
        assert (not with_top & ~below[j]) == (j == len(profs) - 1)


@pytest.mark.parametrize("n, margin", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_mirror_route_matches_per_candidate_scans(n, margin, monkeypatch):
    # the sparse witness windows against the forbidden list, in one
    # placement pass for the whole check (row j is block j's window, bit i
    # candidate i), agree with a scan of each filled window
    calls = _recorded_window_checks(monkeypatch)
    rep = epitome_property_check(MI, mirror_family(), n, margin)
    blocks = list(iter_rect_patterns(MI, n, n, margin))
    candidates = list(iter_rect_patterns(MI, n, n))
    assert len(calls) == 1
    (rows,) = calls
    assert len(rows) == len(blocks) == len(rep.entries)
    for p, row, entry in zip(blocks, rows, rep.entries):
        window = _mirror_window(p)
        want = [contains_forbidden(window.union(q), MI) is None for q in candidates]
        assert [bool(row >> i & 1) for i in range(len(candidates))] == want, p.rows()
        assert row >> len(candidates) == 0
        assert entry["compatible_count"] == sum(want)


def test_mirror_route_n3_frozen():
    rep = epitome_property_check(MI, mirror_family(), 3, 1)
    assert rep.ok and len(rep.entries) == 648
    assert all(e["pass"] for e in rep.entries)
    assert sum(e["compatible_count"] for e in rep.entries) == 8768


def test_enforcer_route_n4_frozen():
    rep = epitome_property_check(RB, profile_family(), 4)
    assert rep.ok and len(rep.entries) == 625
    assert all(e["pass"] for e in rep.entries)


def test_enforcer_route_n5_frozen():
    rep = epitome_property_check(RB, profile_family(), 5)
    assert rep.ok and len(rep.entries) == 7776
    assert all(e["pass"] for e in rep.entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enforcer_indexes_match_the_built_windows(n):
    # the digit-built indexes of the enforcer route are the slot indexes of
    # the windows build_enforcer makes and of the simple slot fillings
    profs = list(all_profiles(n))
    windows, fillings, _ = _enforcer_indexes(n, [p.counts for p in profs])
    assert windows == _slot_index(build_enforcer(p).window.cells for p in profs)
    assert fillings == _slot_index(_simple_cells(p, 2 * n, 3 * n - 1) for p in profs)


def test_verify_enforcer_rejects_a_binary_spec():
    with pytest.raises(PatternError, match="does not match spec 'hard-square'"):
        verify_enforcer(Profile((1, 1)), HS)


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


def _bogus(p):
    return 1 if p.rows() == ["BW", "WW"] else 0


@pytest.mark.parametrize(
    "spec, fam, builtin, margin",
    [
        (RB, EpitomeFamily("bogus", _bogus), None, 1),
        (MI, EpitomeFamily("mirror", mirror_family().evaluate, lambda a, b: False), mirror_family(), 0),
        (RB, profile_family()._replace(name="p"), profile_family(), 1),
    ],
    ids=["bogus", "mirror-with-leq", "profile-copy"],
)
def test_routes_follow_the_family_object(spec, fam, builtin, margin):
    # Only the built-in family objects get a dedicated route.  Those routes
    # never call evaluate or leq, so any other family is swept exhaustively,
    # and here the sweep finds a counterexample.
    rep = epitome_property_check(spec, fam, 2, margin)
    assert set(rep.work) == {"annulus_colorings", "candidates", "window_checks"}
    assert not rep.ok
    assert set(rep.counterexample) == {"pattern", "annulus", "also_compatible", "other_value"}
    if builtin is not None:
        own = epitome_property_check(spec, builtin, 2, margin)
        assert own.ok and set(own.work) == {"window_scans"}


def test_identity_family_rejected_with_counterexample(monkeypatch):
    # the window plan reads the top ring row only as R, the bottom one only
    # as B, and the side cells as R and B: each read letter is a class of
    # its own, the unread letters one more, so the 3^12 colorings fall into
    # 2^8 * 3^4 classes, one block of 2^15; one placement pass sweeps them,
    # and one more builds the counterexample's column, a bit per candidate
    reads = _ring_reads(RB, 2, 1)
    for (r, c), letters in reads.items():
        assert letters == ({"R"} if r == 0 else {"B"} if r == 3 else {"R", "B"}), (r, c)
    classes = math.prod(len(letters) + (len(letters) < 3) for letters in reads.values())
    assert classes == 2**8 * 3**4 == 20_736
    calls = _recorded_window_checks(monkeypatch)
    rep = epitome_property_check(RB, identity_family(), 2)
    assert rep.work["annulus_colorings"] == 3**12
    assert len(calls) == -(-classes // 2**15) + 1 == 2
    assert len(calls[-1]) == 80 and all(row in (0, 1) for row in calls[-1])
    assert not rep.ok
    assert len(rep.entries) == 80 and not any(e["pass"] for e in rep.entries)
    # the first failure: the first candidate, its first compatible annulus
    # coloring, and the first other candidate that coloring admits
    cx = rep.counterexample
    assert cx == {
        "pattern": ["BB", "BB"],
        "annulus": "BBBB\nB..B\nB..B\nBBBB\n",
        "also_compatible": ["BB", "BW"],
        "other_value": "('BB', 'BW')",
    }
    # replay: both patterns really are compatible with the witness annulus
    ann = Pattern.from_text(
        f"{2 + 2 * rep.margin} {2 + 2 * rep.margin} 3\n" + cx["annulus"]
    )
    for rows in (cx["pattern"], cx["also_compatible"]):
        p = make_pattern(rows, BWR).translate(rep.margin, rep.margin)
        assert contains_forbidden(ann.union(p), RB) is None


@functools.lru_cache(maxsize=None)
def _brute_compatible(spec, n, margin):
    """For each annulus coloring i (digit t of i in base |alphabet| is the
    letter at annulus cell t), the candidates compatible with it, found by
    one contains_forbidden scan per (coloring, candidate) pair."""
    cells = annulus(n, n, margin)
    letters = spec.alphabet.letters
    base = len(letters)
    candidates = list(iter_rect_patterns(spec, n, n))
    shifted = [q.translate(margin, margin) for q in candidates]
    rings, compatible = [], []
    for i in range(base ** len(cells)):
        ring = Pattern(
            spec.alphabet, {cell: letters[i // base**t % base] for t, cell in enumerate(cells)}
        )
        rings.append(ring)
        compatible.append(
            [j for j, q in enumerate(shifted) if contains_forbidden(ring.union(q), spec) is None]
        )
    return candidates, rings, compatible


def _brute_generic(spec, fam, n, margin=1):
    """The generic route's entries, ok and counterexample by definition: a
    coloring witnesses P when P is compatible with it and every compatible
    candidate has a defined value equal to P's (plain) or below it
    (ordered)."""
    candidates, rings, compatible = _brute_compatible(spec, n, margin)
    values = [fam.evaluate(q) for q in candidates]

    def conflicts(k, v):
        vk = values[k]
        return vk is None or (vk != v if fam.leq is None else not fam.leq(vk, v))

    entries, counterexample = [], None
    for j, (q, v) in enumerate(zip(candidates, values)):
        rings_j = [i for i, comp in enumerate(compatible) if j in comp]
        if v is None or not rings_j:
            continue
        passed = any(not any(conflicts(k, v) for k in compatible[i]) for i in rings_j)
        entries.append({"pattern": q.rows(), "value": repr(v), "pass": passed})
        if not passed and counterexample is None:
            i = rings_j[0]
            k = next(k for k in compatible[i] if conflicts(k, v))
            counterexample = {
                "pattern": q.rows(),
                "annulus": rings[i].render(),
                "also_compatible": candidates[k].rows(),
                "other_value": repr(values[k]),
            }
    return entries, all(e["pass"] for e in entries), counterexample


def _ones(p):
    return sum(a == "1" for _, a in p.items())


def _ones_unless_corner(p):
    return None if p.at(0, 0) == "1" else _ones(p)


def _positive_ones(p):
    return _ones(p) or None


def _letter_counts(p):
    return (_ones(p), len(p) - _ones(p))


def _coordinatewise(a, b):
    return all(x <= y for x, y in zip(a, b))


_ORACLE_CASES = {
    "popcount-plain": (HS, interior_popcount_family("plain"), 2),
    "popcount-ordered": (HS, interior_popcount_family("ordered"), 2),
    "identity-hard-square": (HS, identity_family(), 2),
    "ones-plain": (HS, EpitomeFamily("ones", _ones), 2),
    "ones-ordered": (HS, EpitomeFamily("ones", _ones, operator.le), 2),
    "ones-reversed": (HS, EpitomeFamily("ones", _ones, operator.ge), 2),
    # undefined whenever the top-left cell is 1
    "ones-partial": (HS, EpitomeFamily("ones", _ones_unless_corner), 2),
    # undefined on the all-0 pattern, which every annulus admits
    "ones-positive": (HS, EpitomeFamily("ones", _positive_ones), 2),
    "ones-positive-ordered": (HS, EpitomeFamily("ones", _positive_ones, operator.le), 2),
    # a partial order under which distinct values are incomparable
    "counts-ordered": (HS, EpitomeFamily("counts", _letter_counts, _coordinatewise), 2),
    "identity-red-black": (RB, identity_family(), 1),
    # the annulus corner and the slot cell are diagonal neighbours, so the
    # coloring after the first compatible one admits a different conflict
    "identity-diagonal": (
        spec_from_patterns("diagonal", BWR, [Pattern(BWR, {(0, 0): "W", (1, 1): "W"})]),
        identity_family(),
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_generic_route_matches_brute_force(case):
    spec, fam, n = _ORACLE_CASES[case]
    rep = epitome_property_check(spec, fam, n)
    entries, ok, counterexample = _brute_generic(spec, fam, n)
    assert list(rep.entries) == entries
    assert (rep.ok, rep.counterexample) == (ok, counterexample)
    candidates, rings, _ = _brute_compatible(spec, n, 1)
    assert rep.work == {
        "annulus_colorings": len(rings),
        "candidates": len(candidates),
        "window_checks": len(rings) * len(candidates),
    }


def _first_letter_count(p):
    return sum(a == p.alphabet.letters[0] for _, a in p.items())


_DRAWN_FAMILIES = {
    "identity": identity_family(),
    "first-letter": EpitomeFamily("first", _first_letter_count),
    "first-letter-ordered": EpitomeFamily("first", _first_letter_count, operator.le),
}


@st.composite
def specs_with_unread_letters(draw):
    """A spec of one to three forbidden patterns, each of one to three cells
    in a 2 x 2 box, for n = 1 and margin 1: over BWR the per-coloring oracle
    makes 3^8 * 3 scans, about 0.6 s.  The generic kernel's window plan is
    the forbidden list, so a ring cell reads a letter only where a pattern
    cell holding it can sit; the draw is kept only if some ring cell leaves
    two or more letters unread, so that they share a class."""
    alphabet = draw(st.sampled_from((BINARY, BWR)))
    n, margin = 1, 1
    box = [(0, 0), (0, 1), (1, 0), (1, 1)]
    forbidden = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        support = draw(st.sets(st.sampled_from(box), min_size=1, max_size=3))
        forbidden.append(
            Pattern(alphabet, {cell: draw(st.sampled_from(alphabet.letters)) for cell in support})
        )
    spec = spec_from_patterns("user", alphabet, forbidden)
    reads = _ring_reads(spec, n, margin)
    assume(any(len(alphabet) - len(letters) >= 2 for letters in reads.values()))
    return spec, n, margin


@settings(max_examples=20, deadline=None)
@given(specs_with_unread_letters(), st.sampled_from(sorted(_DRAWN_FAMILIES)))
def test_generic_route_matches_brute_force_on_random_specs(case, family):
    # the sweep over coloring classes gives the entries, answer and
    # counterexample that the per-coloring definition gives
    spec, n, margin = case
    fam = _DRAWN_FAMILIES[family]
    try:
        entries, ok, counterexample = _brute_generic(spec, fam, n, margin)
        candidates, rings, _ = _brute_compatible(spec, n, margin)
    finally:
        _brute_compatible.cache_clear()
    side = n + 2 * margin
    plan = kernel_of(spec).window_plan(side)
    classes, _, _ = _coloring_index(spec, plan, (0, 0, side - 1, side - 1), annulus(n, n, margin))
    assert classes < len(rings)
    if not entries:
        with pytest.raises(PatternError, match="vacuously"):
            epitome_property_check(spec, fam, n, margin)
        return
    rep = epitome_property_check(spec, fam, n, margin)
    assert list(rep.entries) == entries
    assert (rep.ok, rep.counterexample) == (ok, counterexample)
    assert rep.work["window_checks"] == len(rings) * len(candidates)


def test_ordered_check_compares_values_not_candidate_pairs():
    # whether a coloring witnesses a candidate depends only on its value, so
    # the check compares each pair of distinct values once, plus at most one
    # comparison per candidate for the counterexample
    ordered = interior_popcount_family("ordered")
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return ordered.leq(a, b)

    rep = epitome_property_check(HS, EpitomeFamily(ordered.name, ordered.evaluate, leq), 3)
    values = [ordered.evaluate(q) for q in iter_rect_patterns(HS, 3, 3)]
    assert len(calls) <= len({v for v in values if v is not None}) ** 2 + len(values)
    assert rep == epitome_property_check(HS, ordered, 3)


def test_brute_force_oracle_cases_cover_both_answers():
    # the oracle cases are only as strong as their answers are mixed
    answers = {case: _brute_generic(*args) for case, args in _ORACLE_CASES.items()}
    passes = {case: {e["pass"] for e in entries} for case, (entries, _, _) in answers.items()}
    mixed = ("ones-plain", "ones-reversed", "ones-partial", "counts-ordered", "identity-red-black")
    for case in mixed:
        assert passes[case] == {True, False}, case
    assert passes["popcount-ordered"] == passes["ones-ordered"] == {True}
    # an undefined value alone sinks every witness, in both kinds
    for case in ("ones-positive", "ones-positive-ordered"):
        assert passes[case] == {False}
        assert answers[case][2]["other_value"] == "None"


def _block_cases():
    """(spec, family, n, margin, blocks) for the block-boundary test.  On
    red-black at n = 2, margin 1 (20,736 coloring classes), blocks of 1 and
    7 would mean 20,736 and 2,963 window checks, so that window runs at
    4,099 only.  Interior-popcount reads binary patterns only, so on red-black it
    is undefined everywhere: blocks None marks a check that is refused."""
    families = {
        "identity": identity_family(),
        "constant": constant_family(),
        "popcount-plain": interior_popcount_family("plain"),
        "popcount-ordered": interior_popcount_family("ordered"),
    }
    cases = {}
    for spec in (RB, HS):
        for name, fam in families.items():
            for n, margin in ((1, 1), (2, 0), (2, 1)):
                small = not (spec is RB and (n, margin) == (2, 1))
                blocks = (1, 7, 4099) if small else (4099,)
                if spec is RB and name.startswith("popcount"):
                    blocks = None
                cases[f"{spec.name}-{name}-{n}-{margin}"] = (spec, fam, n, margin, blocks)
    # the test-local families of the oracle cases (the others are above)
    for case, (spec, fam, n) in _ORACLE_CASES.items():
        if fam.name in ("ones", "counts"):
            cases[case] = (spec, fam, n, 1, (1, 7, 4099))
    # every window above admits all candidates at coloring 0 (an all-0 or
    # all-B annulus); with horizontal 00 forbidden, the counterexample's
    # first compatible coloring lies in a later block
    no_00_row = spec_from_patterns("no-00-row", BINARY, [make_pattern(["00"])])
    cases["identity-no-00-row"] = (no_00_row, identity_family(), 2, 1, (1, 7, 4099))
    return cases


_BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_reports_do_not_depend_on_the_block_size(case, monkeypatch):
    # one block holds every coloring when it exceeds the 2,000,000 guard
    spec, fam, n, margin, blocks = _BLOCK_CASES[case]
    if blocks is None:
        with pytest.raises(PatternError, match="undefined on every"):
            epitome_property_check(spec, fam, n, margin)
        return
    monkeypatch.setattr(epitomes, "_BLOCK", 2**21)
    whole = epitome_property_check(spec, fam, n, margin)
    for block in blocks:
        monkeypatch.setattr(epitomes, "_BLOCK", block)
        assert epitome_property_check(spec, fam, n, margin) == whole, block


def test_property_check_memory_is_bounded():
    # the whole (candidates, colorings) matrix of red-black identity at n = 2
    # is 80 x 531,441 bits; the sweep holds one block of 80 ints over its
    # 20,736 coloring classes
    tracemalloc.start()
    try:
        epitome_property_check(RB, identity_family(), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _no_window_check(*args):
    raise AssertionError("a vacuous check reached the window check")


@pytest.mark.parametrize(
    "spec, fam",
    [(RB, interior_popcount_family()), (HS, profile_family()), (HS, mirror_family())],
    ids=["popcount-on-red-black", "profile-on-hard-square", "mirror-on-hard-square"],
)
def test_vacuous_property_check_refused_before_any_window_check(spec, fam, monkeypatch):
    monkeypatch.setattr(epitomes, "_window_compat", _no_window_check)
    with pytest.raises(PatternError, match=f"{fam.name} family is undefined on every 2x2"):
        epitome_property_check(spec, fam, 2)


def test_property_check_refuses_a_sweep_without_entries():
    # a 1 needs a cell below it inside the window, so the one pattern with
    # a defined value is compatible with no annulus of margin 1; at margin 0
    # it shares its window with the undefined 0, so it fails
    spec = spec_from_patterns(
        "no-bottom", BINARY, [make_pattern(["1", "0"]), make_pattern(["1", "1"])]
    )
    fam = EpitomeFamily("top", lambda p: 1 if p.rows() == ["1"] else None)
    assert epitome_property_check(spec, fam, 1, 0).entries == (
        {"pattern": ["1"], "value": "1", "pass": False},
    )
    with pytest.raises(PatternError, match="fits a window of margin 1"):
        epitome_property_check(spec, fam, 1, 1)


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


@pytest.mark.parametrize(
    "spec, projection, bits",
    [(HS, IDENTITY, 1), (RB, {a: a for a in "BWR"}, 2)],
    ids=["hard-square", "red-black"],
)
def test_border_consistency_ledger_at_n_1(spec, projection, bits):
    # at n = 1 the ring grouped by is the one cell, so one border costs one
    # letter: each 1 x 1 pattern is its own group
    rep = border_epitome_consistency(spec, projection, constant_family(), 1)
    letters = [q.rows()[0] for q in iter_rect_patterns(spec, 1, 1)]
    assert [g.border for g in rep.groups] == sorted(letters)
    assert all(g.size == 1 for g in rep.groups)
    assert rep.ledger_bits == bits


def test_border_consistency_ordered_kind():
    fam = interior_popcount_family(kind="ordered")._replace(leq=lambda a, b: a <= b)
    rep = border_epitome_consistency(HS, IDENTITY, fam, 3)
    # total order: every group has a maximum, so nothing is flagged
    assert rep.flagged_count == 0


def test_border_consistency_compares_undefined_by_equality():
    # profile is undefined on a pattern with red or a black right of a
    # white: a group mixing None with a profile is flagged, one of None
    # alone is not, as for a plain family where None is one more value
    rep = border_epitome_consistency(RB, {a: a for a in "BWR"}, profile_family(), 3)
    assert rep.kind == "ordered"
    mixed = [g for g in rep.groups if "None" in g.values and len(g.values) > 1]
    assert mixed and any(g.values == ("None",) for g in rep.groups)
    for g in rep.groups:
        assert g.flagged == (g in mixed)
    assert rep.flagged_count == len(mixed)


def test_vacuous_border_consistency_refused():
    with pytest.raises(PatternError, match="interior-popcount family is undefined on every 2x2"):
        border_epitome_consistency(RB, {a: a for a in "BWR"}, interior_popcount_family(), 2)
    # the summary is of the projected pattern
    with pytest.raises(PatternError, match="undefined on every 3x3 pattern of hard-square"):
        border_epitome_consistency(HS, {"0": "B", "1": "W"}, interior_popcount_family(), 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_border_consistency_groups_projected_patterns_cell_by_cell(n):
    # the identity family's values are the projected rows themselves
    projection = {"0": "W", "1": "R"}
    rep = border_epitome_consistency(HS, projection, identity_family(), n)
    want: dict = {}
    for q in iter_rect_patterns(HS, n, n):
        border = "".join(q.at(r, c) for r, c in annulus(n - 2, n - 2, 1))
        image = tuple("".join(projection[q.at(r, c)] for c in range(n)) for r in range(n))
        want.setdefault(border, set()).add(repr(image))
    assert {g.border: set(g.values) for g in rep.groups} == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interior_popcount_counts_the_inner_cells(n):
    fam = interior_popcount_family()
    for q in iter_rect_patterns(HS, n, n):
        inner = [(r, c) for r in range(1, n - 1) for c in range(1, n - 1)]
        assert fam.evaluate(q) == sum(q.at(r, c) == "1" for r, c in inner)


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
