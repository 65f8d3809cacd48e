"""Machine semantics and the exact complexity searches.

``reference_run`` below is a second interpreter for the same machine,
written directly from the opcode table without looking at the library
implementation; the agreement tests treat it as an oracle.
"""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import complexity
from shiftlab.complexity import (
    MAX_OUTPUT_CHARS,
    MAX_PROGRAM_BITS,
    ComplexityResult,
    StepMeter,
    ctime,
    encode_rank_tuple,
    incompressible_permutations,
    iter_programs,
    lex_first_incompressible,
    permutation_from_rank,
    permutation_rank,
    printable_strings,
    rank_width,
    run_program,
    tuple_threshold,
)
from shiftlab.core import InfeasibleError, PatternError, make_pattern


# ---------------------------------------------------------------------------
# Reference interpreter (independent implementation)
# ---------------------------------------------------------------------------

_NAMES = ["OUT0", "OUT1", "INC", "DEC", "WHILE", "ENDW", "SWAP", "HALT"]


def _decode(bits):
    """Opcode name list for a VM-mode program body (trailing bits dropped)."""
    names = []
    i = 0
    while i + 3 <= len(bits):
        names.append(_NAMES[int(bits[i]) * 4 + int(bits[i + 1]) * 2 + int(bits[i + 2])])
        i += 3
    return names


def _brackets_balanced(names):
    depth = 0
    for t in names:
        if t == "WHILE":
            depth += 1
        elif t == "ENDW":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _match_forward(names, i):
    depth = 0
    for j in range(i, len(names)):
        if names[j] == "WHILE":
            depth += 1
        elif names[j] == "ENDW":
            depth -= 1
            if depth == 0:
                return j
    raise AssertionError("unbalanced program reached execution")


def _match_backward(names, i):
    depth = 0
    for j in range(i, -1, -1):
        if names[j] == "ENDW":
            depth += 1
        elif names[j] == "WHILE":
            depth -= 1
            if depth == 0:
                return j
    raise AssertionError("unbalanced program reached execution")


def reference_run(bits, budget):
    """(halted, output, steps) for a program under a step budget; a run cut
    off by the budget reports the output written before the cutoff."""
    if bits == "":
        return (True, "", 0)
    if bits[0] == "1":
        if budget < len(bits):
            # the marker takes the first step, each later step writes a bit
            return (False, bits[1:budget] if budget else "", budget)
        return (True, bits[1:], len(bits))
    names = _decode(bits[1:])
    if not _brackets_balanced(names):
        return (False, "", budget)
    regs = {"A": 0, "B": 0}
    pc, steps, written = 0, 0, []
    while pc < len(names):
        if steps == budget:
            return (False, "".join(written), budget)
        steps += 1
        t = names[pc]
        if t == "HALT":
            return (True, "".join(written), steps)
        if t == "OUT0":
            written.append("0")
        elif t == "OUT1":
            written.append("1")
        elif t == "INC":
            regs["A"] += 1
        elif t == "DEC":
            regs["A"] = max(0, regs["A"] - 1)
        elif t == "SWAP":
            regs["A"], regs["B"] = regs["B"], regs["A"]
        elif t == "WHILE":
            if regs["A"] == 0:
                pc = _match_forward(names, pc) + 1
                continue
        elif t == "ENDW":
            pc = _match_backward(names, pc)
            continue
        pc += 1
    return (True, "".join(written), steps)


def reference_ctime(x, max_len, budget):
    """Minimal producing program length, by enumeration over the reference
    interpreter."""
    best = None
    for length in range(0, max_len + 1):
        for v in range(1 << length) if length else [0]:
            bits = format(v, f"0{length}b") if length else ""
            halted, out, _ = reference_run(bits, budget)
            if halted and out == x:
                return length
    return best


# ---------------------------------------------------------------------------
# Machine semantics
# ---------------------------------------------------------------------------


def test_empty_program():
    out = run_program("", 10)
    assert (out.halted, out.output, out.steps) == (True, "", 0)


def test_literal_mode():
    out = run_program("10110", 100)
    assert (out.halted, out.output, out.steps) == (True, "0110", 5)


def test_literal_mode_budget_exhausted():
    out = run_program("10110", 3)
    assert not out.halted
    assert out.steps == 3


def test_vm_two_out1_then_halt():
    out = run_program("0001001111", 100)
    assert (out.halted, out.output, out.steps) == (True, "11", 3)


def test_vm_trailing_bits_ignored():
    base = run_program("0001001111", 100)
    for tail in ("0", "1", "00", "11"):
        out = run_program("0001001111" + tail, 100)
        assert (out.halted, out.output) == (base.halted, base.output)


def test_vm_implicit_halt_off_end():
    out = run_program("0000", 100)  # single OUT0, no HALT
    assert (out.halted, out.output, out.steps) == (True, "0", 1)


def test_dec_floors_at_zero():
    # DEC DEC INC WHILE OUT1 DEC ENDW: if DEC went negative the loop body
    # would run more than once
    prog = "0" + "011" + "011" + "010" + "100" + "001" + "011" + "101"
    out = run_program(prog, 100)
    assert out.halted
    assert out.output == "1"


def test_swap_exchanges_registers():
    # INC SWAP WHILE OUT1 DEC ENDW -> loop sees A=0, prints nothing
    prog = "0" + "010" + "110" + "100" + "001" + "011" + "101"
    out = run_program(prog, 100)
    assert (out.halted, out.output) == (True, "")
    # SWAP back: INC SWAP SWAP WHILE OUT1 DEC ENDW prints one 1
    prog2 = "0" + "010" + "110" + "110" + "100" + "001" + "011" + "101"
    assert run_program(prog2, 100).output == "1"


def test_while_skips_body_on_zero():
    # WHILE OUT1 ENDW OUT0 -> A=0 jumps past ENDW; output "0"
    prog = "0" + "100" + "001" + "101" + "000"
    out = run_program(prog, 100)
    assert (out.halted, out.output, out.steps) == (True, "0", 2)


def test_unmatched_brackets_non_halting():
    for body in ("100", "101", "100100101", "101100"):
        out = run_program("0" + body, 37)
        assert not out.halted
        assert out.steps == 37


def test_infinite_loop_charged_full_budget():
    # INC WHILE ENDW never terminates
    prog = "0" + "010" + "100" + "101"
    for budget in (0, 1, 5, 64):
        out = run_program(prog, budget)
        assert not out.halted
        assert out.steps == budget


def test_budget_zero_blocks_any_vm_step():
    out = run_program("0111", 0)
    assert not out.halted and out.steps == 0


def test_step_meter_accumulates():
    meter = StepMeter()
    run_program("0001001111", 100, meter)
    run_program("", 100, meter)
    run_program("111", 100, meter)
    assert meter.steps == 3 + 0 + 3


def test_rejects_non_bit_strings():
    with pytest.raises(ValueError):
        run_program("01a", 10)


@pytest.mark.parametrize("program", ["", "10110", "0001001111"])
def test_rejects_negative_budget(program):
    # empty, literal and VM programs alike, and the meter is not charged
    meter = StepMeter()
    with pytest.raises(ValueError, match="nonnegative"):
        run_program(program, -1, meter)
    assert (meter.steps, meter.runs) == (0, 0)


def test_iter_programs_order_and_count():
    progs = list(iter_programs(3))
    assert progs[:4] == ["", "0", "1", "00"]
    assert len(progs) == 1 + 2 + 4 + 8
    assert len(set(progs)) == len(progs)


def test_iter_programs_matches_plain_formatting():
    # lengths up to 18 cover both sides of the 8-bit tail boundary
    expected = [""] + [
        format(v, f"0{n}b") for n in range(1, 19) for v in range(1 << n)
    ]
    for max_len in range(19):
        count = (1 << (max_len + 1)) - 1
        assert list(iter_programs(max_len)) == expected[:count], max_len


def test_iter_programs_negative_length_yields_nothing():
    assert list(iter_programs(0)) == [""]
    assert list(iter_programs(-1)) == []
    meter = StepMeter()
    assert printable_strings(-1, 16, meter=meter) == {}
    assert meter.counters()["runs"] == 0


def _outcome(bits, budget, meter=None, memo=None):
    mine = run_program(bits, budget, meter, memo)
    return (mine.halted, mine.output, mine.steps)


def test_library_agrees_with_reference_interpreter():
    # every program of at most 15 bits, full outcomes including the output
    # written before a cutoff; budget-major order, so each budget's memo is
    # filled and then reused by the trailing-bit variants
    programs = [
        "".join(bits)
        for length in range(16)
        for bits in itertools.product("01", repeat=length)
    ]
    for budget in (0, 1, 2, 3, 17, 64, 448):
        memo = {}
        for bits in programs:
            assert _outcome(bits, budget, memo=memo) == reference_run(bits, budget), (bits, budget)


def _looping_programs():
    """Programs of at most 15 bits with balanced brackets that still run at
    448 steps, by the reference interpreter."""
    return [
        bits
        for bits in iter_programs(15)
        if bits[:1] == "0"
        and _brackets_balanced(_decode(bits[1:]))
        and not reference_run(bits, 448)[0]
    ]


@pytest.mark.parametrize("budget", [28689, 10**6])
def test_looping_programs_agree_at_large_budgets(budget):
    # the loops the cycle cut skips through, cut off mid-period at budgets
    # far beyond the exhaustive test's; the reference runs once per opcode
    # list, since it decodes trailing-bit variants to the same list
    loopers = _looping_programs()
    assert len(loopers) == 119
    meter = StepMeter()
    reference = {}
    for bits in loopers:
        names = tuple(_decode(bits[1:]))
        if names not in reference:
            reference[names] = reference_run(bits, budget)
        assert _outcome(bits, budget, meter) == reference[names], bits
    assert meter.cycle_cutoffs > 0
    assert any(out for _, out, _ in reference.values())


_PLAIN_OPS = ("000", "001", "010", "011", "110", "111")  # no brackets


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="01", min_size=16, max_size=40),
    st.integers(min_value=0, max_value=5000),
)
def test_random_programs_agree_with_reference(bits, budget):
    assert _outcome(bits, budget) == reference_run(bits, budget)


_plain = st.lists(st.sampled_from(_PLAIN_OPS), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    _plain,
    _plain,
    st.none() | _plain,
    _plain,
    _plain,
    st.text(alphabet="01", max_size=2),
    st.integers(min_value=0, max_value=8000),
)
@example([], ["000"], ["011", "110"], ["010", "010"], [], "", 600)
def test_random_loops_agree_with_reference(head, pre, inner, post, tail, trailing, budget):
    # INC WHILE pre [WHILE inner ENDW] post ENDW between plain opcodes:
    # loops that halt, repeat a state (cut by whole periods) or grow their
    # counters.  The example repeats (pc, A) at its outer ENDW with B
    # different, so a cut that ignored B would go wrong.
    loop = "".join(pre)
    if inner is not None:
        loop += "100" + "".join(inner) + "101"
    loop += "".join(post)
    bits = "0" + "".join(head) + "010100" + loop + "101" + "".join(tail) + trailing
    assert _outcome(bits, budget) == reference_run(bits, budget)


def test_memo_is_per_budget_and_shared_by_trailing_bits():
    # INC WHILE OUT1 ENDW: loops forever, printing a 1 every 3 steps
    code = "0" + "010" + "100" + "001" + "101"
    variants = [code + tail for tail in ("", "0", "1", "00", "01", "10", "11")]
    for budget in (1000, 1001, 1000, 1001):
        meter = StepMeter()
        memo = {}
        for bits in variants:
            assert _outcome(bits, budget, meter, memo) == reference_run(bits, budget), (bits, budget)
        assert (meter.runs, meter.memo_reuses, meter.cycle_cutoffs) == (7, 6, 1)
        assert meter.steps == 7 * budget


def test_cycle_cut_finds_periods_of_several_back_jumps():
    # INC INC SWAP INC WHILE SWAP OUT1 ENDW: (A, B) alternates between (2, 1)
    # and (1, 2), so the state repeats every second back-jump
    bits = "0" + "010" + "010" + "110" + "010" + "100" + "110" + "001" + "101"
    meter = StepMeter()
    assert _outcome(bits, 100_003, meter) == reference_run(bits, 100_003)
    assert meter.cycle_cutoffs == 1


def test_cut_off_loops_refuse_outputs_past_the_bound(monkeypatch):
    # INC WHILE OUT0 ENDW prints a 0 every 3 steps: cut off at budget 3001,
    # the skipped laps take the output to 1,000 characters
    loop = "0" + "010" + "100" + "000" + "101"
    assert MAX_OUTPUT_CHARS == 10**8
    assert _outcome(loop, 3001) == (False, "0" * 1000, 3001)
    monkeypatch.setattr(complexity, "MAX_OUTPUT_CHARS", 1000)
    assert _outcome(loop, 3001) == (False, "0" * 1000, 3001)
    monkeypatch.setattr(complexity, "MAX_OUTPUT_CHARS", 999)
    with pytest.raises(InfeasibleError, match="over 999 characters"):
        run_program(loop, 3001)


def test_unbalanced_lists_share_one_outcome():
    a = run_program("0" + "100", 37)
    b = run_program("0" + "101100", 37)
    assert a == b
    assert (a.halted, a.output, a.steps) == (False, "", 37)


# ---------------------------------------------------------------------------
# ctime
# ---------------------------------------------------------------------------


def test_ctime_11():
    res = ctime("11", 8, 64)
    assert res.value == 3
    assert res.witness == "111"


def test_ctime_empty_string():
    assert ctime("", 4, 16).value == 0


def test_ctime_0000_matches_reference_enumeration():
    res = ctime("0000", 5, 64)
    assert res.value == reference_ctime("0000", 5, 64)


def test_ctime_not_found_is_none():
    res = ctime("0" * 40, 3, 16)
    assert res.value is None and res.witness is None


def test_ctime_search_stops_at_a_known_printer():
    # each emitted bit costs a step: refused before any run
    meter = StepMeter()
    assert ctime("0" * 10, 40, 5, meter) == ComplexityResult(None, None, 5, 40)
    assert meter.runs == 0
    # budget |x| + 1: the literal program bounds the search at |x| + 1 bits
    assert ctime("0101010101", 40, 11).witness == "10101010101"
    # budget |x|: only the OUT-only program (3|x| + 1 bits) is known to print x
    res = ctime("01", 40, 2)
    assert (res.value, res.witness) == (7, "0000001")
    meter = StepMeter()
    with pytest.raises(InfeasibleError, match="may need 31"):
        ctime("0101010101", 40, 10, meter)
    assert meter.runs == 0


def test_literal_bound():
    for x in ("", "0", "1", "0110", "111111", "010101"):
        assert ctime(x, len(x) + 1, len(x) + 1).value <= len(x) + 1


def test_budget_monotone():
    xs = ["0110", "0000", "1111", "1010"]
    for x in xs:
        vals = [ctime(x, 6, b).value for b in (1, 4, 16, 64)]
        vals = [v if v is not None else math.inf for v in vals]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_max_len_monotone_and_stable():
    x = "110"
    vals = [ctime(x, m, 64).value for m in (1, 2, 3, 4, 6, 8)]
    clean = [v if v is not None else math.inf for v in vals]
    assert all(a >= b for a, b in zip(clean, clean[1:]))
    assert vals[3] == vals[4] == vals[5]  # stable once max_len >= |x|+1


def test_counting_invariant_small():
    for n in (1, 2, 3, 4):
        short = sum(
            1
            for v in range(1 << n)
            if (ctime(format(v, f"0{n}b"), n, 64).value or n) < n
        )
        assert short < 2 ** n


def test_printable_strings_frozen_at_seed_values():
    # the level-1 search of `deep-build --override 2,4`, frozen from the
    # step-by-step interpreter the machine had before the memo and the cut
    meter = StepMeter()
    assert printable_strings(15, 3584, 16, meter) == {}
    assert meter.steps == 73400181
    meter = StepMeter()
    table = printable_strings(15, 3584, meter=meter)
    assert len(table) == 32767
    digest = hashlib.sha256(json.dumps(sorted(table.items())).encode()).hexdigest()
    assert digest == "77b795d2628cf85d0356bc364878dfeecc5f2e5e2aa6de12a5d8e3e808399bbc"
    assert meter.steps == 73400181 and meter.runs == 65535


@pytest.mark.parametrize(
    "search, counters",
    [
        ((17, 448, 20), (42185051, 262143, 93622, 171)),
        ((15, 3584, 16), (73400181, 65535, 28086, 16)),
        ((15, 28689, 16), (584086091, 65535, 28086, 16)),
    ],
)
def test_benchmark_search_counters_frozen(search, counters):
    # each search starts from an empty memo, so a second run of the same
    # search in this process reports the same counters, memo reuses included
    for _ in range(2):
        meter = StepMeter()
        assert printable_strings(*search, meter=meter) == {}
        assert (meter.steps, meter.runs, meter.memo_reuses, meter.cycle_cutoffs) == counters


@pytest.mark.parametrize("budget", [448, 3584])
def test_no_vm_program_is_first_at_the_benchmark_budgets(budget):
    # 448 is the level-1 budget of `2,2,4` and of multi-block `2,2,2`, 3584
    # that of `2,4`, and their searches stop below 18 bits.  Every output is
    # printed first by the empty or a literal program, so the filter excludes
    # nothing at these levels; a VM-first entry means it has started to.
    table = printable_strings(18, budget)
    assert len(table) == 2 ** 18 - 1
    assert [out for out, prog in table.items() if prog.startswith("0")] == []


def test_ctime_starts_with_an_empty_memo():
    counters = []
    for _ in range(2):
        meter = StepMeter()
        assert ctime("0" * 9, 12, 448, meter).value == 10
        counters.append(meter.counters())
    assert counters[0] == counters[1]
    assert counters[0]["memo_reuses"] > 0


class _InterleavingMeter(StepMeter):
    """Runs an unrelated program at another budget after every 1000th run
    it is charged for."""

    @property
    def runs(self):
        return self._runs

    @runs.setter
    def runs(self, value):
        self._runs = value
        if value and value % 1000 == 0:
            run_program("0" + "010100001101", 999)


def test_search_counters_ignore_runs_made_elsewhere():
    plain, interleaved = StepMeter(), _InterleavingMeter()
    table = printable_strings(12, 448, meter=plain)
    assert printable_strings(12, 448, meter=interleaved) == table
    assert interleaved.counters() == plain.counters()
    assert interleaved.steps == plain.steps
    assert plain.memo_reuses == 3510 and plain.cycle_cutoffs == 1


def test_printable_strings_refuses_searches_above_the_limit():
    # 2^26 - 1 programs: refused before the first run
    assert MAX_PROGRAM_BITS == 24
    meter = StepMeter()
    with pytest.raises(InfeasibleError, match="max_len <= 24"):
        printable_strings(MAX_PROGRAM_BITS + 1, 448, meter=meter)
    assert meter.runs == 0
    with pytest.raises(InfeasibleError, match="max_len <= 24"):
        lex_first_incompressible(6, 10, 37)
    with pytest.raises(InfeasibleError, match="max_len <= 24"):
        incompressible_permutations(6, 5, 10)
    # ctime stops at its first hit, so long programs are no obstacle
    assert ctime("11", 63, 64).value == 3


def test_printable_strings_filter():
    table = printable_strings(4, 64, length=2)
    assert set(len(k) for k in table) <= {2}
    for out, prog in table.items():
        r = run_program(prog, 64)
        assert r.halted and r.output == out


# ---------------------------------------------------------------------------
# Incompressibility searches
# ---------------------------------------------------------------------------


def test_lex_first_incompressible_2x2():
    p = lex_first_incompressible(2, 256, 4)
    assert p.rows() == ["00", "00"]


def test_lex_first_incompressible_threshold_guard():
    with pytest.raises(InfeasibleError):
        lex_first_incompressible(2, 256, 6)
    # the literal bound itself is fine
    lex_first_incompressible(2, 256, 5)
    with pytest.raises(PatternError):
        lex_first_incompressible(2, 10, -3)
    # threshold 0 is vacuous: no program is shorter than 0 bits
    assert lex_first_incompressible(2, 10, 0).rows() == ["00", "00"]


def test_lex_first_incompressible_is_genuine():
    # no program of length < 4 prints the chosen matrix within the budget
    p = lex_first_incompressible(2, 256, 4)
    target = "".join(p.rows())
    for bits in iter_programs(3):
        halted, out, _ = reference_run(bits, 256)
        assert not (halted and out == target)


def test_rank_width_and_threshold():
    assert rank_width(4) == 5
    assert tuple_threshold(4, 4) == 18
    assert tuple_threshold(2, 2) == 2
    assert rank_width(1) == 0


def test_permutation_rank_round_trip():
    for l in (1, 2, 3, 4, 5):
        seen = []
        for rank in range(math.factorial(l)):
            perm = permutation_from_rank(l, rank)
            assert sorted(perm) == list(range(1, l + 1))
            assert permutation_rank(perm) == rank
            seen.append(perm)
        assert seen == sorted(seen)  # rank order is lexicographic


def test_permutation_rank_range_guard():
    with pytest.raises(ValueError):
        permutation_from_rank(3, 6)


def test_encode_rank_tuple_width():
    enc = encode_rank_tuple((0, 1, 2, 3), 4)
    assert enc == "00000" + "00001" + "00010" + "00011"


def test_incompressible_permutations_identity_at_l2():
    assert incompressible_permutations(2, 2, 64) == [(1, 2), (1, 2)]


def test_incompressible_permutations_distinct_l4():
    perms = incompressible_permutations(4, 4, 4096, distinct=True)
    assert perms == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2)]
    assert len(set(perms)) == 4


def test_incompressible_permutations_distinct_guard():
    with pytest.raises(InfeasibleError):
        incompressible_permutations(2, 3, 64, distinct=True)

