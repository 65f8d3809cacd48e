"""Hierarchical block families: scheduling, construction, membership,
reconstruction, the two-part code, and archives."""

import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.core import (
    BINARY,
    InfeasibleError,
    Pattern,
    PatternError,
    hard_square_spec,
    invert,
    iter_rect_patterns,
    make_pattern,
    red_black_spec,
    subpattern,
    tile,
)
from shiftlab.admissibility import extendable
from shiftlab.deepshift import (
    MULTI_BLOCK,
    TWO_BLOCK,
    ArchiveReport,
    DeepParams,
    LevelBlocks,
    LevelBudget,
    MAX_TWO_PART_SIDE,
    MemberResult,
    StandardBlockFamily,
    arrange,
    build_family,
    decode_two_part,
    extract_R,
    gamma_decode,
    gamma_encode,
    load_family,
    member,
    params_from_dict,
    params_to_dict,
    reconstruct_block,
    save_family,
    schedule_params,
    substitute,
    two_part_code,
    verify_archive,
    witness_bit_length,
)
from shiftlab.lowcfg import NNSpec, build_Pk, choose_border

HS = hard_square_spec()


@pytest.fixture(scope="module")
def structural_fam():
    params = schedule_params(2, 3, 3, structural_override=(2, 2, 2, 2))
    return build_family(params)


@pytest.fixture(scope="module")
def multi_fam():
    params = schedule_params(2, 3, 1, mode=MULTI_BLOCK, structural_override=(2, 2, 2))
    return build_family(params)


@pytest.fixture(scope="module")
def fam_24():
    # `deep-build --n0 2 --depth 1 --override 2,4`
    return build_family(schedule_params(2, 3, 1, structural_override=(2, 4)))


@pytest.fixture(scope="module")
def fam_224():
    # `deep-build --n0 2 --depth 2 --override 2,2,4`
    return build_family(schedule_params(2, 3, 2, structural_override=(2, 2, 4)))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def test_schedule_default_growth():
    params = schedule_params(2, 3, 1)
    assert params.n == (2, 8, 4096)
    assert params.N == (2, 16)
    assert params.thresholds == (0, 64)
    assert not params.structural


def test_schedule_budget_formulas():
    params = schedule_params(2, 3, 1)
    b = params.budgets[1]
    assert b.T == 16 ** 3
    assert b.t_prime == 2 * b.T + 16 ** 3
    assert b.t == 2 * b.t_prime + 16 ** 3
    assert b.t > b.t_prime > b.T


def test_schedule_structural_override():
    params = schedule_params(2, 3, 3, structural_override=(2, 2, 2, 2))
    assert params.N == (2, 4, 8, 16)
    assert params.n == (2, 2, 2, 2, 2)  # last entry repeated to depth+2
    assert params.structural
    assert params.thresholds == (0, 4, 4, 4)


def test_schedule_rejects_small_c_without_override():
    with pytest.raises(PatternError):
        schedule_params(2, 2, 1)
    # but c < 3 is fine when the sides are pinned explicitly
    assert schedule_params(2, 2, 1, structural_override=(2, 2)).structural


def test_schedule_validation_errors():
    with pytest.raises(PatternError):
        schedule_params(1, 3, 1)
    with pytest.raises(PatternError):
        schedule_params(2, 3, 0)
    with pytest.raises(PatternError):
        schedule_params(2, 3, 1, mode="three-block")
    with pytest.raises(PatternError):
        schedule_params(2, 3, 1, structural_override=(3, 2))  # must start with n0
    with pytest.raises(PatternError):
        schedule_params(2, 3, 2, structural_override=(2,))  # wrong length
    with pytest.raises(PatternError):
        schedule_params(2, 3, 1, structural_override=(2, 1))  # side below 2


def test_multi_block_default_base_infeasible():
    # level 0 would need n_1^2 = 64 distinct 2x2 binary blocks; only 16 exist
    with pytest.raises(InfeasibleError):
        schedule_params(2, 3, 1, mode=MULTI_BLOCK)


def test_multi_block_structural_feasible():
    params = schedule_params(2, 3, 1, mode=MULTI_BLOCK, structural_override=(2, 2, 2))
    assert params.block_counts == (4, 4)
    assert params.thresholds == (0, 18)


def test_params_dict_round_trip():
    for params in (
        schedule_params(2, 3, 1),
        schedule_params(2, 3, 2, structural_override=(2, 2, 2)),
        schedule_params(2, 3, 1, mode=MULTI_BLOCK, structural_override=(2, 2, 2)),
    ):
        d = params_to_dict(params)
        assert params_from_dict(json.loads(json.dumps(d))) == params


# ---------------------------------------------------------------------------
# Substitution / arrangement primitives
# ---------------------------------------------------------------------------


def test_substitute_places_blocks():
    R = make_pattern(["01", "10"])
    b0 = make_pattern(["00", "00"])
    b1 = make_pattern(["11", "11"])
    q = substitute(R, b0, b1)
    assert q.rows() == ["0011", "0011", "1100", "1100"]


def test_substitute_then_extract_identity():
    params = schedule_params(2, 3, 1, structural_override=(2, 2))
    b0 = make_pattern(["01", "10"])
    b1 = invert(b0)
    fam = StandardBlockFamily(
        params, [LevelBlocks(0, (b0, b1)), None], (0, 0)
    )
    for v in range(16):
        bits = format(v, "04b")
        R = make_pattern([bits[:2], bits[2:]])
        fam.levels[1] = LevelBlocks(1, (substitute(R, b0, b1), None), witness_matrix=R)
        assert extract_R(fam.levels[1].blocks[0], fam, 1) == R


def test_substitute_guards():
    with pytest.raises(PatternError):
        substitute(make_pattern(["BW"]), make_pattern(["0"]), make_pattern(["1"]))
    with pytest.raises(PatternError):
        substitute(make_pattern(["01"]), make_pattern(["0"]), make_pattern(["11"]))


def test_arrange_uses_each_block_once():
    blocks = tuple(make_pattern([f"{v:02b}", "00"]) for v in range(4))
    q = arrange((3, 1, 4, 2), blocks, 2)
    assert q.rows() == ["1000", "0000", "1101", "0000"]


def test_arrange_rejects_non_permutation():
    blocks = tuple(make_pattern([f"{v:02b}", "00"]) for v in range(4))
    with pytest.raises(PatternError):
        arrange((1, 1, 2, 3), blocks, 2)
    with pytest.raises(PatternError):
        arrange((1, 2, 3), blocks, 2)


# ---------------------------------------------------------------------------
# Building families
# ---------------------------------------------------------------------------


def test_two_block_level_zero_constant(structural_fam):
    q0, q1 = structural_fam.blocks(0)
    assert set(q0.cells.values()) == {"0"}
    assert set(q1.cells.values()) == {"1"}


def test_two_block_invert_invariant(structural_fam):
    for i in range(structural_fam.depth + 1):
        q0, q1 = structural_fam.blocks(i)
        assert q1 == invert(q0)
        assert q0.height == q0.width == structural_fam.params.N[i]


def test_two_block_substitution_invariant(structural_fam):
    for i in range(1, structural_fam.depth + 1):
        R = structural_fam.levels[i].witness_matrix
        prev0, prev1 = structural_fam.blocks(i - 1)
        assert substitute(R, prev0, prev1) == structural_fam.blocks(i)[0]
        assert extract_R(structural_fam.blocks(i)[0], structural_fam, i) == R
        assert extract_R(structural_fam.blocks(i)[1], structural_fam, i) == invert(R)


def test_structural_search_is_degenerate_at_this_scale(structural_fam):
    # the machine cannot print 4 bits with < 4-bit programs, so the lex-first
    # incompressible matrix at every level is all-zero, and the measured
    # enumeration cost is identical per level
    for i in range(1, structural_fam.depth + 1):
        R = structural_fam.levels[i].witness_matrix
        assert set(R.cells.values()) == {"0"}
    assert structural_fam.measured_steps == (0, 17, 17, 17)


def test_extract_R_level_guards(structural_fam):
    with pytest.raises(PatternError):
        extract_R(structural_fam.blocks(0)[0], structural_fam, 0)
    with pytest.raises(PatternError):
        extract_R(make_pattern(["01", "10"]), structural_fam, 1)  # not standard blocks


def test_multi_block_level_zero_lex_first(multi_fam):
    blocks = multi_fam.blocks(0)
    assert len(blocks) == 4
    assert [b.rows() for b in blocks] == [["00", "00"], ["00", "01"], ["00", "10"], ["00", "11"]]


def test_multi_block_each_block_used_once(multi_fam):
    lower = multi_fam.blocks(0)
    n = multi_fam.params.n[1]
    N0 = multi_fam.params.N[0]
    for q in multi_fam.blocks(1):
        seen = []
        for gi in range(n):
            for gj in range(n):
                seen.append(subpattern(q, (gi * N0, gj * N0, N0, N0)))
        assert sorted(s.lex_key() for s in seen) == sorted(b.lex_key() for b in lower)


def test_multi_block_perms_frozen(multi_fam):
    assert multi_fam.levels[1].witness_perms == (
        (1, 2, 3, 4),
        (1, 2, 4, 3),
        (1, 3, 2, 4),
        (1, 3, 4, 2),
    )


def test_search_steps_frozen_at_seed_values(fam_24, multi_fam):
    # the machine steps of the exact searches, as recorded when every
    # program was stepped one instruction at a time; the archived budgets
    # fold them in, so they must never drift
    assert fam_24.measured_steps == (0, 73400181)
    assert multi_fam.measured_steps == (0, 42185051)
    meter = fam_24.meters[0]
    assert (meter.steps, meter.runs) == (73400181, 65535)


@pytest.mark.parametrize("which", ["fam_24", "fam_224"])
def test_benchmark_families_are_constant(which, request):
    # no VM program of <= 18 bits beats the literal program at these budgets
    # (test_no_vm_program_is_first_at_the_benchmark_budgets; level 2 of
    # `2,2,4` is test_benchmark_search_counters_frozen), so every R is the
    # all-zero matrix and Q^j is the constant block of letter j
    fam = request.getfixturevalue(which)
    for i in range(1, fam.depth + 1):
        assert set(fam.levels[i].witness_matrix.cells.values()) == {"0"}
    for i in range(fam.depth + 1):
        for j, q in enumerate(fam.blocks(i)):
            assert set(q.cells.values()) == {str(j)}


@pytest.mark.parametrize("k", range(7))
def test_hard_square_standard_squares_are_constant(k):
    # the benchmark's lowcfg roundtrip is vacuous in the same way: the
    # lex-least completable hard-square border is all 0, and 0 is both the
    # filler and the least letter, so the lex-first fill is all 0 too and
    # every covering square the roundtrip rebuilds is constant
    nn = NNSpec(HS)
    assert set(choose_border(nn, k).cells.values()) == {"0"}
    assert set(build_Pk(nn, k).cells.values()) == {"0"}


@pytest.mark.parametrize(
    "which, exclusions",
    [
        ("fam_24", [{"printable": 0, "passed_over": 0}]),
        ("fam_224", [{"printable": 0, "passed_over": 0}] * 2),
        # the 627 rank tuples before (0, 1, 2, 3) each repeat a rank
        (
            "multi_fam",
            [{"printable": 0, "passed_over_printable": 0, "passed_over_not_distinct": 627}],
        ),
    ],
)
def test_benchmark_searches_exclude_nothing(which, exclusions, request):
    # the printable table at the target length is empty at every level, so
    # the lex-first pick passes over no printable candidate
    fam = request.getfixturevalue(which)
    assert [meter.exclusions for meter in fam.meters] == exclusions


def test_window_count_of_the_2_2_4_family(fam_224):
    # every n x n window of every 2x2 arrangement of the blocks at member's
    # level: with constant blocks there are 10n^2 - 16n + 8 distinct ones
    for n in range(1, 9):
        level = min(i for i, N in enumerate(fam_224.params.N) if N >= n)
        N = fam_224.params.N[level]
        rows = [q.rows() for q in fam_224.blocks(level)]
        windows = set()
        for ids in itertools.product(range(len(rows)), repeat=4):
            grid = [
                rows[ids[2 * (r >= N)]][r % N] + rows[ids[2 * (r >= N) + 1]][r % N]
                for r in range(2 * N)
            ]
            for a in range(2 * N - n + 1):
                for b in range(2 * N - n + 1):
                    windows.add(tuple(row[b : b + n] for row in grid[a : a + n]))
        assert len(windows) == 10 * n * n - 16 * n + 8
        assert member(make_pattern(list(windows.pop())), fam_224).level == level


def test_blocks_pairwise_distinct(structural_fam, multi_fam):
    for fam in (structural_fam, multi_fam):
        for i in range(fam.depth + 1):
            keys = [b.lex_key() for b in fam.blocks(i)]
            assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def test_member_accepts_level_blocks(structural_fam):
    q0 = structural_fam.blocks(1)[0]
    res = member(q0, structural_fam)
    assert res.accepted
    assert res.level == 1
    assert res.offset == (0, 0)
    assert res.corner_ids == ((0, 0), (0, 0))


def test_member_accepts_subpatterns_of_blocks(structural_fam):
    for i in range(1, structural_fam.depth + 1):
        N_prev = structural_fam.params.N[i - 1]
        for q in structural_fam.blocks(i):
            for anchor in ((0, 0), (1, 1), (N_prev, N_prev // 2)):
                probe = subpattern(q, (*anchor, N_prev, N_prev))
                assert member(probe, structural_fam).accepted


def test_member_rejects_checkerboard(structural_fam):
    board = make_pattern(
        ["".join("01"[(r + c) % 2] for c in range(16)) for r in range(16)]
    )
    res = member(board, structural_fam)
    assert res == MemberResult(False, 3, None, None)


def test_member_rejects_checkerboard_multi(multi_fam):
    res = member(make_pattern(["01", "10"]), multi_fam)
    assert not res.accepted and res.level == 0


def test_member_accepts_multi_subpatterns(multi_fam):
    for q in multi_fam.blocks(1):
        probe = subpattern(q, (1, 1, 2, 2))
        assert member(probe, multi_fam).accepted


def test_member_level_selection_uses_max_side(structural_fam):
    probe = Pattern(BINARY, {(r, c): "0" for r in range(2) for c in range(6)})
    res = member(probe, structural_fam)
    assert res.accepted and res.level == 2  # smallest N_i >= 6 is N_2 = 8


def test_member_range_and_type_guards(structural_fam):
    too_big = Pattern(BINARY, {(r, c): "0" for r in range(17) for c in range(1)})
    with pytest.raises(InfeasibleError):
        member(too_big, structural_fam)
    with pytest.raises(PatternError):
        member(Pattern(BINARY, {(0, 0): "0", (2, 2): "0"}), structural_fam)
    with pytest.raises(PatternError):
        member(make_pattern(["BW"]), structural_fam)


def _brute_member(p, fam):
    """(level, corner_ids, offset) of the first window equal to ``p`` in
    scan order -- arrangement, then row, then column -- slicing every window
    of every 2x2 arrangement of the level's blocks."""
    h, w = p.height, p.width
    level = min(i for i in range(fam.depth + 1) if fam.params.N[i] >= max(h, w))
    N = fam.params.N[level]
    rows = [b.rows() for b in fam.blocks(level)]
    want = p.rows()
    for i00, i01, i10, i11 in itertools.product(range(len(rows)), repeat=4):
        grid = [rows[i00][r] + rows[i01][r] for r in range(N)]
        grid += [rows[i10][r] + rows[i11][r] for r in range(N)]
        for a in range(2 * N - h + 1):
            for b in range(2 * N - w + 1):
                if [row[b : b + w] for row in grid[a : a + h]] == want:
                    return level, ((i00, i01), (i10, i11)), (a, b)
    return level, None, None


@pytest.mark.parametrize("which", ["fam_24", "multi_fam"])
def test_member_witness_is_first_in_scan_order(which, request):
    fam = request.getfixturevalue(which)
    rng = random.Random(5)
    seen = set()
    for _ in range(80):
        level = rng.randrange(fam.depth + 1)
        N = fam.params.N[level]
        h, w = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        if rng.random() < 0.5:
            # a window cut from a random arrangement: accepted
            rows = [q.rows() for q in fam.blocks(level)]
            ids = [rng.randrange(len(rows)) for _ in range(4)]
            grid = [
                rows[ids[2 * (r >= N)]][r % N] + rows[ids[2 * (r >= N) + 1]][r % N]
                for r in range(2 * N)
            ]
            a, b = rng.randrange(2 * N - h + 1), rng.randrange(2 * N - w + 1)
            source = [row[b : b + w] for row in grid[a : a + h]]
        else:
            # random bits: mostly rejected
            source = ["".join(rng.choice("01") for _ in range(w)) for _ in range(h)]
        probe = make_pattern(source)
        level_got, ids_got, offset_got = _brute_member(probe, fam)
        res = member(probe, fam)
        assert res == MemberResult(ids_got is not None, level_got, ids_got, offset_got)
        seen.add((res.accepted, h == w))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_member_deterministic_with_cache(structural_fam):
    probe = subpattern(structural_fam.blocks(2)[1], (3, 2, 4, 4))
    assert member(probe, structural_fam) == member(probe, structural_fam)


def test_witness_bit_length(structural_fam):
    res = member(structural_fam.blocks(1)[0], structural_fam)
    # 4 corner bits + gamma(2) + gamma(1) + gamma(1)
    assert witness_bit_length(res, structural_fam) == 4 + 3 + 1 + 1
    board4 = make_pattern(["".join("01"[(r + c) % 2] for c in range(4)) for r in range(4)])
    rejected = member(board4, structural_fam)
    assert not rejected.accepted
    with pytest.raises(PatternError):
        witness_bit_length(rejected, structural_fam)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def _window_of(q0, ids, offset, N):
    """N x N window of the 2x2 arrangement selected by ids, read off
    independently of the library's member machinery."""
    q1 = invert(q0)
    grid = {}
    for I in range(2):
        for J in range(2):
            src = (q0, q1)[ids[I][J]]
            for (u, v), letter in src.items():
                grid[(I * N + u, J * N + v)] = letter
    a, b = offset
    return Pattern(BINARY, {(r, c): grid[(a + r, b + c)] for r in range(N) for c in range(N)})


def test_reconstruct_identity_offset(structural_fam):
    q0 = structural_fam.blocks(2)[0]
    got = reconstruct_block(q0, (0, 0), ((0, 0), (0, 0)), structural_fam, 2)
    assert got == q0


def test_reconstruct_all_offsets_nontrivial_block():
    # synthetic family with a non-degenerate level-1 block: reconstruction
    # must recover it from every window position and every corner labeling
    params = schedule_params(2, 3, 1, structural_override=(2, 2, 2))
    rng = random.Random(7)
    N = params.N[1]
    q0 = Pattern(
        BINARY, {(r, c): str(rng.randrange(2)) for r in range(N) for c in range(N)}
    )
    fam = StandardBlockFamily(params, [None, None], (0, 0))
    for ids_bits in range(16):
        ids = ((ids_bits >> 3 & 1, ids_bits >> 2 & 1), (ids_bits >> 1 & 1, ids_bits & 1))
        for a in range(N + 1):
            for b in range(N + 1):
                window = _window_of(q0, ids, (a, b), N)
                assert reconstruct_block(window, (a, b), ids, fam, 1) == q0


def test_reconstruct_guards(structural_fam, multi_fam):
    q0 = structural_fam.blocks(1)[0]
    ids = ((0, 0), (0, 0))
    with pytest.raises(PatternError):
        reconstruct_block(subpattern(q0, (0, 0, 2, 2)), (0, 0), ids, structural_fam, 1)
    with pytest.raises(PatternError):
        reconstruct_block(q0, (5, 0), ids, structural_fam, 1)
    with pytest.raises(PatternError):
        reconstruct_block(q0, (0, 0), ((0, 2), (0, 0)), structural_fam, 1)
    with pytest.raises(PatternError):
        reconstruct_block(q0, (0, 0), ids, structural_fam, 9)
    with pytest.raises(PatternError):
        reconstruct_block(q0, (0, 0), ids, multi_fam, 1)


def test_gamma_round_trip():
    assert gamma_encode(1) == "1"
    assert gamma_encode(2) == "010"
    stream = "".join(gamma_encode(v) for v in range(1, 101))
    pos = 0
    for v in range(1, 101):
        got, pos = gamma_decode(stream, pos)
        assert got == v
    assert pos == len(stream)
    with pytest.raises(ValueError):
        gamma_encode(0)


# ---------------------------------------------------------------------------
# Two-part code
# ---------------------------------------------------------------------------


def test_two_part_code_sizes_8x8_k2():
    p = make_pattern(["0" * 8] * 8)
    code = two_part_code(p, 2, HS)
    assert code.dictionary_size == 7
    assert code.dictionary_bits == 7 * 4
    assert code.index_bits == 16 * 3
    assert code.payload_bits == 76
    assert len(code.bits) == code.header_bits + 76


def test_two_part_code_round_trip():
    rows = [
        "01010101",
        "00000000",
        "10101010",
        "00000000",
        "01000100",
        "00010001",
        "10001000",
        "00100010",
    ]
    p = make_pattern(rows)
    code = two_part_code(p, 2, HS)
    assert decode_two_part(code.bits) == p


def test_two_part_code_red_black_round_trip():
    p = make_pattern(["WWRW", "WWWW", "BWWB", "WWWW"])
    code = two_part_code(p, 2, red_black_spec())
    assert code.dictionary_size == 80
    assert decode_two_part(code.bits) == p


def test_two_part_code_rejects_inadmissible_block():
    p = make_pattern(["1100", "0000", "0000", "0000"])
    with pytest.raises(InfeasibleError):
        two_part_code(p, 2, HS)


def test_two_part_code_bounds_its_dictionary(monkeypatch):
    def built(*_):
        raise AssertionError("a block was built")

    monkeypatch.setattr(Pattern, "_adopt", classmethod(built))
    with pytest.raises(InfeasibleError, match="5598861 admissible 6x6"):
        two_part_code(make_pattern(["0" * 6] * 6), 6, HS)


def test_two_part_code_shape_guards():
    with pytest.raises(PatternError):
        two_part_code(make_pattern(["010", "000", "000"]), 2, HS)
    with pytest.raises(PatternError):
        two_part_code(make_pattern(["01", "00", "01"]), 1, HS)
    with pytest.raises(PatternError):
        two_part_code(make_pattern(["BW", "WW"]), 1, HS)


def _per_block_code(p, k, spec, margin):
    """The two-part code by one cut and one lex_key per block, over a
    dictionary filtered by the reference completion search."""
    candidates = iter_rect_patterns(spec, k, k)
    dictionary = [q for q in candidates if extendable(q, spec, margin) is not None]
    pos = {q.lex_key(): ix for ix, q in enumerate(dictionary)}
    width = (len(dictionary) - 1).bit_length() if len(dictionary) > 1 else 0
    N = p.height // k
    body = []
    for I in range(N):
        for J in range(N):
            ix = pos.get(subpattern(p, (I * k, J * k, k, k)).lex_key())
            if ix is None:
                raise InfeasibleError(f"block at ({I}, {J}) is not margin-admissible")
            body.append(format(ix, f"0{width}b") if width else "")
    return "".join(body)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_part_code_matches_a_per_block_encoder(data):
    spec = data.draw(st.sampled_from([HS, red_black_spec()]))
    k = data.draw(st.integers(1, 3 if spec is HS else 2))
    margin = data.draw(st.integers(0, 1))
    blocks = list(iter_rect_patterns(spec, k, k, margin))
    N = data.draw(st.integers(1, 4))
    grid = [[data.draw(st.integers(0, len(blocks) - 1)) for _ in range(N)] for _ in range(N)]
    p = tile(blocks, grid)
    if data.draw(st.booleans()):  # one changed cell may leave the dictionary
        r, c = data.draw(st.integers(0, N * k - 1)), data.draw(st.integers(0, N * k - 1))
        rows = p.rows()
        rows[r] = rows[r][:c] + data.draw(st.sampled_from(spec.alphabet.letters)) + rows[r][c + 1 :]
        p = make_pattern(rows, spec.alphabet)
    try:
        want = _per_block_code(p, k, spec, margin)
    except InfeasibleError as refusal:
        with pytest.raises(InfeasibleError) as got:
            two_part_code(p, k, spec, margin)
        assert str(got.value) == str(refusal)
        return
    code = two_part_code(p, k, spec, margin)
    assert code.bits.endswith(want) and code.index_bits == len(want)
    assert decode_two_part(code.bits) == p


def test_decoding_the_largest_code_stays_small(child_env):
    # 27 bits name a 1024 x 1024 all-0 pattern; held as rows it peaks near
    # 33 MB on Python 3.11, against 176 MB when every cell was a dict entry
    snippet = (
        "import json, resource\n"
        "from shiftlab.core import gamma_encode\n"
        "from shiftlab.deepshift import decode_two_part\n"
        "bits = ''.join(map(gamma_encode, (2, 1024, 1, 1))) + '0'\n"
        "p = decode_two_part(bits)\n"
        "ok = len(bits) == 27 and p.rows() == ['0' * 1024] * 1024\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([ok, rss]))\n"
    )
    # a child's ru_maxrss starts at the peak of the process that spawned
    # it, so the decoder runs under a small launcher, not under pytest
    launcher = (
        "import subprocess, sys\n"
        "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, snippet],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    ok, rss_kb = json.loads(proc.stdout)
    assert ok and rss_kb < 80 * 1024


def test_decode_two_part_refuses_malformed_codes():
    p = make_pattern(["0100", "0001", "1000", "0010"])
    bits = two_part_code(p, 2, HS).bits
    assert len(bits) == 54 and decode_two_part(bits) == p
    # every proper prefix, including cuts inside the header and inside the
    # last index field, and a trailing extra bit
    for n in range(len(bits)):
        with pytest.raises(PatternError):
            decode_two_part(bits[:n])
    for bad in ("0101", bits + "0", bits[:-1] + "2"):
        with pytest.raises(PatternError):
            decode_two_part(bad)
    # L = 7 blocks in 3-bit indices: index 7 names no block
    with pytest.raises(PatternError, match="block index 7"):
        decode_two_part(bits[:-3] + "111")
    # a 2-bit letter field of the three-letter alphabet holding 3
    rb = two_part_code(make_pattern(["WWRW", "WWWW", "BWWB", "WWWW"]), 2, red_black_spec())
    h = rb.header_bits
    with pytest.raises(PatternError, match="letter index 3"):
        decode_two_part(rb.bits[:h] + "11" + rb.bits[h + 2 :])


def test_decode_two_part_refuses_sides_above_the_limit():
    # one 1x1 dictionary block leaves the index field empty, so the header
    # alone names the side N*k; the refusal comes before the length check
    def code(N, k):
        return gamma_encode(2) + gamma_encode(N) + gamma_encode(k) + gamma_encode(1) + "0"

    assert decode_two_part(code(4, 1)) == make_pattern(["0000"] * 4)
    for N, k in ((MAX_TWO_PART_SIDE + 1, 1), (1, MAX_TWO_PART_SIDE + 1), (1 << 30, 1)):
        with pytest.raises(InfeasibleError, match=f"side {N * k} exceeds"):
            decode_two_part(code(N, k))


def test_gamma_decode_refuses_truncated_codes():
    for bits in ("", "0", "00", "001", "0001"):
        with pytest.raises(PatternError):
            gamma_decode(bits, 0)
    assert gamma_decode("00101", 0) == (5, 5)


def test_two_part_code_k1_degenerate():
    p = make_pattern(["01", "10"])
    code = two_part_code(p, 1, HS)
    assert code.dictionary_size == 2
    assert decode_two_part(code.bits) == p


# ---------------------------------------------------------------------------
# Archives
# ---------------------------------------------------------------------------


def test_save_load_round_trip(structural_fam, tmp_path):
    d = str(tmp_path / "fam")
    manifest = save_family(structural_fam, d)
    assert manifest["flags"]["structural"]
    back = load_family(d)
    assert back.params == structural_fam.params
    assert back.measured_steps == structural_fam.measured_steps
    for mine, theirs in zip(structural_fam.levels, back.levels):
        assert mine.blocks == theirs.blocks
        assert mine.witness_matrix == theirs.witness_matrix


def test_save_load_multi(multi_fam, tmp_path):
    d = str(tmp_path / "multi")
    save_family(multi_fam, d)
    back = load_family(d)
    assert back.levels[1].witness_perms == multi_fam.levels[1].witness_perms
    assert back.blocks(1) == multi_fam.blocks(1)


def test_verify_archive_fresh(structural_fam, tmp_path):
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    report = verify_archive(d)
    assert report == ArchiveReport(True, (), ())


def test_verify_archive_detects_block_corruption(structural_fam, tmp_path):
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    target = tmp_path / "fam" / "level_1" / "Q_0.txt"
    text = target.read_text()
    ix = text.index("0", text.index("\n"))  # first data bit
    target.write_text(text[:ix] + "1" + text[ix + 1 :])
    report = verify_archive(d)
    assert not report.ok
    assert report.mismatches == ("Q_1^0 (level_1/Q_0.txt)",)


def test_verify_archive_detects_tampered_measurements(structural_fam, tmp_path):
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    mpath = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["measured_steps"][1] += 1
    mpath.write_text(json.dumps(manifest))
    report = verify_archive(d)
    assert "measured_steps" in report.mismatches


@pytest.mark.parametrize(
    "key, named",
    [("witness_matrix", "R_1 (missing)"), ("witness_perms", "permutations at level 1")],
)
def test_verify_archive_detects_a_dropped_witness(structural_fam, multi_fam, tmp_path, key, named):
    fam = structural_fam if key == "witness_matrix" else multi_fam
    d = str(tmp_path / "fam")
    save_family(fam, d)
    mpath = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["levels"][1][key]
    mpath.write_text(json.dumps(manifest))
    report = verify_archive(d)
    assert not report.ok
    assert report.mismatches == (named,)


def test_verify_archive_detects_a_block_the_rebuild_lacks(structural_fam, tmp_path):
    # a two-block manifest that claims three blocks a level loads, but the
    # rebuild makes two
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    mpath = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["params"]["block_counts"] = [3] * len(manifest["levels"])
    for le in manifest["levels"]:
        le["block_files"].append(le["block_files"][0])
    mpath.write_text(json.dumps(manifest))
    assert len(load_family(d).blocks(1)) == 3
    report = verify_archive(d)
    assert not report.ok
    assert [m for m in report.mismatches if m.startswith("block count")] == [
        f"block count at level {i}" for i in range(len(manifest["levels"]))
    ]


def test_verify_archive_params_diff(structural_fam, tmp_path):
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    params = schedule_params(2, 3, 3, structural_override=(2, 2, 2, 2))
    other = params._replace(budgets=(params.budgets[0], LevelBudget(1, 2, 3)) + params.budgets[2:])
    report = verify_archive(d, expected_params=other)
    assert not report.ok
    assert any(diff.startswith("params.budgets") for diff in report.manifest_diff)
    assert report.mismatches == ()  # files themselves still match the manifest


def test_manifest_oracle_key_of_older_archives(structural_fam, tmp_path):
    # older manifests carry params.oracle: "exact" still loads and verifies,
    # anything else is refused by both readers
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    mpath = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["params"]["oracle"] = "exact"
    mpath.write_text(json.dumps(manifest))
    assert load_family(d).levels == structural_fam.levels
    assert verify_archive(d).ok
    manifest["params"]["oracle"] = "proxy"
    mpath.write_text(json.dumps(manifest))
    for reader in (load_family, verify_archive):
        with pytest.raises(PatternError, match="'oracle' is 'proxy'"):
            reader(d)


@pytest.mark.parametrize(
    "drop, named",
    [
        (lambda m: m.pop("measured_steps"), "'measured_steps'"),
        (lambda m: m["params"].pop("N"), "'N'"),
        (lambda m: [m["params"].pop(k) for k in ("c", "budgets")], "'c', 'budgets'"),
        (lambda m: m["levels"][1].pop("block_files"), "'block_files'"),
    ],
)
def test_manifest_missing_key_refused_at_load(structural_fam, tmp_path, drop, named):
    d = str(tmp_path / "fam")
    save_family(structural_fam, d)
    mpath = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    drop(manifest)
    mpath.write_text(json.dumps(manifest))
    for reader in (load_family, verify_archive):
        with pytest.raises(PatternError, match=named):
            reader(d)
