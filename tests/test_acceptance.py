"""Acceptance gate: one test per shipped guarantee, numbered 01-10.

Each test re-derives its expected answers from first principles inside this
file (or from the independent reference interpreter in test_complexity)
rather than trusting the library under test.
"""

import itertools
import random
import subprocess
import sys

import pytest

from test_complexity import reference_run

from shiftlab.admissibility import count_admissible
from shiftlab.complexity import ctime, lex_first_incompressible
from shiftlab.core import (
    BINARY,
    Pattern,
    contains_forbidden,
    hard_square_spec,
    invert,
    make_pattern,
    mirror_spec,
    red_black_spec,
)
from shiftlab.deepshift import (
    ArchiveReport,
    StandardBlockFamily,
    build_family,
    decode_two_part,
    extract_R,
    member,
    reconstruct_block,
    save_family,
    schedule_params,
    substitute,
    two_part_code,
    verify_archive,
)
from shiftlab.epitomes import (
    all_profiles,
    border_epitome_consistency,
    constant_family,
    epitome_property_check,
    identity_family,
    interior_popcount_family,
    mirror_family,
    profile_family,
    simple_pattern_census,
    verify_enforcer,
)
from shiftlab.lowcfg import NNSpec, build_Pk, description_constant, lowcfg_roundtrip


@pytest.fixture(scope="module")
def structural_family():
    return build_family(schedule_params(2, 3, 3, structural_override=(2, 2, 2, 2)))


def _arrangement_rows(fam, level, ids):
    """2x2 arrangement of level blocks as row strings (independent of
    the library's cached arranger)."""
    rows_of = [blk.rows() for blk in fam.blocks(level)]
    (i00, i01), (i10, i11) = ids
    N = fam.params.N[level]
    return [rows_of[i00][r] + rows_of[i01][r] for r in range(N)] + [
        rows_of[i10][r] + rows_of[i11][r] for r in range(N)
    ]


def _independent_occurrence_scan(fam, p):
    """Brute-force re-implementation of the membership semantics: does the
    probe occur in any 2x2 arrangement at the lowest covering level?"""
    side = max(p.height, p.width)
    level = next(i for i in range(fam.depth + 1) if fam.params.N[i] >= side)
    N = fam.params.N[level]
    p_rows = p.rows()
    for ids in itertools.product(range(2), repeat=4):
        corner = ((ids[0], ids[1]), (ids[2], ids[3]))
        arows = _arrangement_rows(fam, level, corner)
        for a in range(2 * N - p.height + 1):
            for b in range(2 * N - p.width + 1):
                if all(
                    arows[a + i][b : b + p.width] == p_rows[i]
                    for i in range(p.height)
                ):
                    return True
    return False


def test_criterion_01_simple_pattern_census():
    for n, want in [(1, 2), (2, 9), (3, 64), (4, 625)]:
        assert want == (n + 1) ** n
        assert simple_pattern_census(n) == want


def test_criterion_02_enforcer_exhaustive_small_sizes():
    for n in (2, 3):
        profiles = list(all_profiles(n))
        assert len(profiles) == (n + 1) ** n
        counterexamples = 0
        for prof in profiles:
            rep = verify_enforcer(prof)
            assert len(rep.cases) == (n + 1) ** n
            if not (rep.clause1 and rep.clause2 and rep.clause3):
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_03_structural_deep_shift_suite(structural_family):
    fam = structural_family

    # (a) the companion block is the bitwise inverse at every level
    for i in range(fam.depth + 1):
        b0, b1 = fam.blocks(i)
        assert b1 == invert(b0)

    # (b) extract_R inverts substitute at every level: on the stored witness
    # matrix and on every possible 2x2 selector
    for i in range(1, fam.depth + 1):
        b0, b1 = fam.blocks(i - 1)
        stored_R = fam.levels[i].witness_matrix
        assert substitute(stored_R, b0, b1) == fam.blocks(i)[0]
        assert extract_R(fam.blocks(i)[0], fam, i) == stored_R
        for v in range(16):
            R = make_pattern([format(v, "04b")[:2], format(v, "04b")[2:]])
            assert extract_R(substitute(R, b0, b1), fam, i) == R

    # (c) membership agrees with an independent occurrence scan on 200
    # random probes, half cut from genuine arrangements
    rng = random.Random(20260814)
    agreements = 0
    for size in (8, 16):
        level = next(i for i in range(fam.depth + 1) if fam.params.N[i] >= size)
        N = fam.params.N[level]
        for t in range(100):
            if t % 2 == 0:
                ids = tuple(rng.randrange(2) for _ in range(4))
                corner = ((ids[0], ids[1]), (ids[2], ids[3]))
                arows = _arrangement_rows(fam, level, corner)
                a = rng.randrange(2 * N - size + 1)
                b = rng.randrange(2 * N - size + 1)
                p = make_pattern([arows[a + i][b : b + size] for i in range(size)])
            else:
                p = make_pattern(
                    ["".join(rng.choice("01") for _ in range(size)) for _ in range(size)]
                )
            expected = _independent_occurrence_scan(fam, p)
            res = member(p, fam)
            assert res.accepted == expected
            if res.accepted:
                arows = _arrangement_rows(fam, res.level, res.corner_ids)
                a, b = res.offset
                assert [arows[a + i][b : b + size] for i in range(size)] == p.rows()
            agreements += 1
    assert agreements == 200

    # (d) block reconstruction from any window offset, with a harness that
    # turns every stored-block access into an assertion failure
    class _PoisonLevels:
        def __getitem__(self, ix):
            raise AssertionError("reconstruct_block read a stored block")

        def __iter__(self):
            raise AssertionError("reconstruct_block read a stored block")

        def __len__(self):
            raise AssertionError("reconstruct_block read a stored block")

    poisoned = StandardBlockFamily(fam.params, _PoisonLevels(), fam.measured_steps)
    top = fam.depth
    N = fam.params.N[top]
    q0 = fam.blocks(top)[0]
    checked = 0
    for ids in itertools.product(range(2), repeat=4):
        corner = ((ids[0], ids[1]), (ids[2], ids[3]))
        arows = _arrangement_rows(fam, top, corner)
        for a in range(N):
            for b in range(N):
                window = make_pattern([arows[a + i][b : b + N] for i in range(N)])
                assert reconstruct_block(window, (a, b), corner, poisoned, top) == q0
                checked += 1
    assert checked == 16 * N * N


def test_criterion_04_exact_oracle_against_reference_interpreter():
    budget, max_len = 256, 8

    # minimal printing length per output, from the reference interpreter
    shortest = {}
    for L in range(max_len + 1):
        for tup in itertools.product("01", repeat=L):
            halted, out, _ = reference_run("".join(tup), budget)
            if halted and out not in shortest:
                shortest[out] = L

    values = {}
    for n in range(11):
        for tup in itertools.product("01", repeat=n):
            x = "".join(tup)
            res = ctime(x, max_len, budget)
            assert res.value == shortest.get(x)
            if res.value is not None:
                assert len(res.witness) == res.value
                halted, out, _ = reference_run(res.witness, budget)
                assert halted and out == x
                assert res.value <= len(x) + 1  # literal program bound
            if len(x) <= max_len - 1:
                assert res.value is not None
            values[x] = res.value

    for n in range(11):
        compressible = sum(
            1
            for x, v in values.items()
            if len(x) == n and v is not None and v < n
        )
        assert compressible < 2**n

    rng = random.Random(4)
    for _ in range(1000):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(11)))
        small = ctime(x, max_len, 64)
        if small.value is not None:
            assert values[x] is not None and values[x] <= small.value


def test_criterion_05_lex_first_incompressible_double_enumeration():
    programs = [
        "".join(tup) for L in range(4) for tup in itertools.product("01", repeat=L)
    ]
    assert len(programs) == 15
    printable = set()
    for bits in programs:
        halted, out, _ = reference_run(bits, 256)
        if halted:
            printable.add(out)

    expected_first = None
    for v in range(16):
        bits = format(v, "04b")
        if bits not in printable:
            expected_first = bits
            break
        # every matrix before the first incompressible one must be printable,
        # which the loop order enforces

    M = lex_first_incompressible(2, 256, 4)
    assert "".join(M.rows()) == expected_first
    assert M.rows() == ["00", "00"]


def test_criterion_06_standard_square_suite(child_env):
    hs = hard_square_spec()
    nn = NNSpec(hs)
    squares = {}
    for k in range(1, 5):
        pk = build_Pk(nn, k)
        assert pk.height == pk.width == 2**k + 1
        assert contains_forbidden(pk, hs) is None
        squares[k] = pk
    assert squares[4].height == 17

    # bit-identical output from two independent interpreter processes
    snippet = (
        "import sys\n"
        "from shiftlab.core import hard_square_spec\n"
        "from shiftlab.lowcfg import NNSpec, build_Pk\n"
        "sys.stdout.write(build_Pk(NNSpec(hard_square_spec()), 4).to_text())\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout == squares[4].to_text()

    rng = random.Random(17)
    rects = []
    for _ in range(50):
        r0, c0 = rng.randrange(17), rng.randrange(17)
        rects.append((r0, c0, rng.randrange(1, 18 - r0), rng.randrange(1, 18 - c0)))
    entries = lowcfg_roundtrip(nn, squares[4], 4, rects)
    assert len(entries) == 50
    assert description_constant(nn.alphabet) == 48
    for entry, rect in zip(entries, rects):
        assert entry["ok"]
        assert entry["bits"] <= 48 * max(rect[2], rect[3])
        assert entry["within_bound"]


def _random_hard_square_pattern(rng, n):
    cells = {}
    for r in range(n):
        for c in range(n):
            letters = ["0", "1"]
            rng.shuffle(letters)
            for letter in letters:
                if letter == "1" and (
                    cells.get((r - 1, c)) == "1" or cells.get((r, c - 1)) == "1"
                ):
                    continue
                cells[(r, c)] = letter
                break
    return Pattern(BINARY, cells)


def test_criterion_07_two_part_code_exact_size():
    hs = hard_square_spec()
    L2 = count_admissible(hs, 2, margin=0)
    assert L2 == 7
    expected_payload = L2 * 2 * 2 + (8 // 2) ** 2 * (L2 - 1).bit_length()
    assert expected_payload == 76

    rng = random.Random(7)
    for _ in range(20):
        p = _random_hard_square_pattern(rng, 8)
        assert contains_forbidden(p, hs) is None
        code = two_part_code(p, 2, hs)
        assert code.payload_bits == expected_payload
        assert decode_two_part(code.bits) == p


def test_criterion_08_epitome_property_checks():
    RB = red_black_spec()

    for n in (2, 3):
        rep = epitome_property_check(RB, profile_family(), n)
        assert rep.ok
        assert len(rep.entries) == (n + 1) ** n
        assert rep.counterexample is None

    rep = epitome_property_check(mirror_spec(), mirror_family(), 2)
    assert rep.ok
    slot_patterns = [
        e for e in rep.entries if set("".join(e["pattern"])) <= {"B", "W"}
    ]
    assert len(slot_patterns) == 16
    assert all(e["pass"] for e in rep.entries)

    rep = epitome_property_check(RB, identity_family(), 2)
    assert not rep.ok
    cx = rep.counterexample
    assert cx is not None
    assert cx["pattern"] != cx["also_compatible"]
    margin = rep.margin
    annulus = Pattern.from_text(
        f"{2 + 2 * margin} {2 + 2 * margin} 3\n" + cx["annulus"]
    )
    for rows in (cx["pattern"], cx["also_compatible"]):
        filled = annulus.union(make_pattern(rows, annulus.alphabet).translate(margin, margin))
        assert contains_forbidden(filled, RB) is None


def test_criterion_09_border_consistency_mechanism():
    hs = hard_square_spec()
    identity = {"0": "0", "1": "1"}

    rep = border_epitome_consistency(hs, identity, constant_family(), 3)
    assert len(rep.groups) == 47
    assert all(len(g.values) == 1 for g in rep.groups)
    assert rep.flagged_count == 0
    assert rep.ledger_bits == (4 * 3 - 4) * 1 == 8

    rep = border_epitome_consistency(hs, identity, interior_popcount_family(), 3)
    assert len(rep.groups) == 47
    assert rep.flagged_count >= 1
    assert rep.flagged_count == 16
    assert rep.ledger_bits == 8


def test_criterion_10_archive_reproducibility(structural_family, tmp_path):
    root = tmp_path / "fam"
    save_family(structural_family, str(root))
    assert verify_archive(str(root)) == ArchiveReport(True, (), ())

    target = root / "level_1" / "Q_0.txt"
    text = target.read_text()
    ix = text.index("0", text.index("\n"))
    target.write_text(text[:ix] + "1" + text[ix + 1 :])
    rep = verify_archive(str(root))
    assert not rep.ok
    assert rep.mismatches == ("Q_1^0 (level_1/Q_0.txt)",)
