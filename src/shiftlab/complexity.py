"""Exact resource-bounded descriptional complexity for a fixed tiny machine.

The machine is normative for every complexity value in the package; nothing
here approximates.

Program format (a bit string):

* empty program: halts immediately with empty output, 0 steps;
* first bit ``1``: literal mode — the remaining bits are the output, and the
  run costs one step per program bit (marker included);
* first bit ``0``: VM mode — the remaining bits are read as 3-bit opcodes
  (1–2 trailing bits are ignored) over two counters A and B, both starting
  at 0:

  ====  =====  ==========================================
  000   OUT0   emit '0'
  001   OUT1   emit '1'
  010   INC    A += 1
  011   DEC    A -= 1, floored at 0
  100   WHILE  if A == 0 jump just past the matching ENDW
  101   ENDW   jump back to the matching WHILE
  110   SWAP   swap A and B
  111   HALT   stop
  ====  =====  ==========================================

Each executed opcode costs one step; running off the end of the opcode list
halts normally; unmatched WHILE/ENDW brackets make the program non-halting by
definition.  A run that exhausts its step budget reports ``halted=False`` and
``steps == budget``.

Enumeration order everywhere: programs by length ascending, then numerically
(which is lexicographic at fixed length).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import BINARY, InfeasibleError, Pattern, PatternError, word_square

OUT0, OUT1, INC, DEC, WHILE, ENDW, SWAP, HALT = range(8)


class RunOutcome(NamedTuple):
    """Result of one bounded run.  ``halted=False`` always reports
    ``steps == budget`` (the run was cut off, or the program was statically
    non-halting and charged its whole budget).  Immutable, so programs with
    the same opcode list can share one."""

    halted: bool
    output: str
    steps: int


@dataclass
class StepMeter:
    """Accumulates machine steps actually executed; used to make the
    higher-level time budgets depend deterministically on measured work.

    It also counts the runs it was charged for, the runs answered by an
    earlier program with the same opcode list (``memo_reuses``), and the
    loops proven periodic and skipped by whole periods (``cycle_cutoffs``).
    None of these counts changes a run's outcome or its steps.

    A lex-first pick charged to the meter records what it excluded in
    ``exclusions``: ``printable``, the size of the printable table at the
    target length, and the candidates passed over before the pick, as
    ``passed_over`` or, for a pick of distinct permutations, split into
    ``passed_over_printable`` and ``passed_over_not_distinct``."""

    steps: int = 0
    runs: int = 0
    memo_reuses: int = 0
    cycle_cutoffs: int = 0
    exclusions: dict[str, int] = field(default_factory=dict)

    def counters(self) -> dict[str, int]:
        return {
            "runs": self.runs,
            "memo_reuses": self.memo_reuses,
            "cycle_cutoffs": self.cycle_cutoffs,
            **self.exclusions,
        }


_EMPTY = RunOutcome(True, "", 0)
_OPCODES = {format(op, "03b"): op for op in range(8)}
_TAILS = tuple(format(v, "08b") for v in range(256))  # every 8-bit tail, in order
# WHILE count minus ENDW count of every list of at most three opcodes
_BRACKET_DELTA = {
    "".join(ops): ops.count("100") - ops.count("101")
    for n in range(4)
    for ops in itertools.product(_OPCODES, repeat=n)
}


def _interpret(code: str, budget: int, meter: StepMeter | None) -> RunOutcome:
    """Run a VM opcode list (a multiple of 3 bits) from A = B = 0.

    The state at every ENDW back-jump is checked for an exact repeat of
    ``(pc, A, B)`` against the state saved at the 1st, 2nd, 4th, 8th, ...
    back-jump (Brent's cycle finding, constant memory).  A repeat proves
    the run periodic from the saved state on: whole periods, with their
    output, are skipped up to the budget and the rest is stepped, so the
    outcome equals plain stepping's.  Loops whose counters grow never
    repeat and are stepped throughout.

    A list whose WHILE and ENDW counts differ is refused before decoding,
    nine bits at a time; an ENDW with no open WHILE is refused while
    decoding.
    """
    depth = 0
    for i in range(0, len(code), 9):
        depth += _BRACKET_DELTA[code[i : i + 9]]
    if depth:
        return tuple.__new__(RunOutcome, (False, "", budget))
    ops = [_OPCODES[code[i : i + 3]] for i in range(0, len(code), 3)]
    match: dict[int, int] = {}
    stack = []
    for i, op in enumerate(ops):
        if op == WHILE:
            stack.append(i)
        elif op == ENDW:
            if not stack:
                return tuple.__new__(RunOutcome, (False, "", budget))
            j = stack.pop()
            match[i] = j
            match[j] = i
    a = b = 0
    pc = 0
    steps = 0
    out: list[str] = []
    n_ops = len(ops)
    watch = True
    jumps = 0
    next_save = 1
    saved_pc = -1  # no state saved yet
    saved_a = saved_b = saved_steps = saved_len = 0
    while pc < n_ops:
        if steps >= budget:
            return RunOutcome(False, "".join(out), budget)
        op = ops[pc]
        steps += 1
        if op == OUT0:
            out.append("0")
            pc += 1
        elif op == OUT1:
            out.append("1")
            pc += 1
        elif op == INC:
            a += 1
            pc += 1
        elif op == DEC:
            if a:
                a -= 1
            pc += 1
        elif op == WHILE:
            pc = match[pc] + 1 if a == 0 else pc + 1
        elif op == ENDW:
            pc = match[pc]
            if watch:
                if a == saved_a and pc == saved_pc and b == saved_b:
                    period = steps - saved_steps
                    laps = (budget - steps) // period
                    out.append("".join(out[saved_len:]) * laps)
                    steps += laps * period
                    watch = False  # under one period is left, and out holds a chunk
                    if meter is not None:
                        meter.cycle_cutoffs += 1
                else:
                    jumps += 1
                    if jumps == next_save:
                        saved_pc, saved_a, saved_b = pc, a, b
                        saved_steps, saved_len = steps, len(out)
                        next_save *= 2
        elif op == SWAP:
            a, b = b, a
            pc += 1
        else:  # HALT
            return RunOutcome(True, "".join(out), steps)
    return RunOutcome(True, "".join(out), steps)


def run_program(
    program: str, budget: int, meter: StepMeter | None = None, memo: dict | None = None
) -> RunOutcome:
    """Run a program for at most ``budget`` steps.  A search passes all its
    runs one ``memo`` (opcode bits -> outcome, at that one budget)."""
    if program.strip("01"):
        raise ValueError(f"program must be a bit string, got {program!r}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not program:
        outcome = _EMPTY
    elif program[0] == "1":
        need = len(program)
        if budget >= need:
            outcome = tuple.__new__(RunOutcome, (True, program[1:], need))
        else:
            outcome = tuple.__new__(RunOutcome, (False, program[1 : max(1, budget)], budget))
    else:
        n = len(program)
        code = program[1 : n - (n - 1) % 3]
        if memo is None:
            memo = {}  # a single run is interpreted directly
        outcome = memo.get(code)
        if outcome is None:
            outcome = memo[code] = _interpret(code, budget, meter)
        elif meter is not None:
            meter.memo_reuses += 1
    if meter is not None:
        meter.runs += 1
        meter.steps += outcome[2]
    return outcome


def iter_programs(max_len: int):
    """All programs of length <= max_len, length ascending then numeric;
    none when max_len is negative.  Past 8 bits each program is its high
    bits followed by one of the 256 8-bit tails, so only the high bits are
    formatted."""
    if max_len < 0:
        return
    yield ""
    for length in range(1, min(max_len, 8) + 1):
        yield from map(f"{{:0{length}b}}".format, range(1 << length))
    for length in range(9, max_len + 1):
        for head in map(f"{{:0{length - 8}b}}".format, range(1 << (length - 8))):
            yield from map(head.__add__, _TAILS)


@dataclass(frozen=True)
class ComplexityResult:
    """Minimal program length for a string under the given resource bounds.

    ``value`` is None when no program of length <= max_len prints the string
    within the budget; ``witness`` is the first minimal program in enumeration
    order."""

    value: int | None
    witness: str | None
    budget: int
    max_len: int


# `printable_strings(20, 448)` takes 5.0 s on a 2-core Xeon, about twice as
# long per bit more.
MAX_PROGRAM_BITS = 24


def ctime(x: str, max_len: int, budget: int, meter: StepMeter | None = None) -> ComplexityResult:
    """Exact time-bounded complexity of ``x`` by exhaustive enumeration.

    Every emitted bit costs a step, so nothing prints ``x`` within a budget
    below |x|.  Otherwise the search stops at a program known to print it:
    the literal one (|x| + 1 bits) when the budget exceeds |x|, else the
    OUT-only VM program (3|x| + 1 bits).  Searches that may run past
    ``MAX_PROGRAM_BITS`` are refused."""
    if max_len < 0:
        raise PatternError("max_len must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if len(x) > budget:
        return ComplexityResult(None, None, budget, max_len)
    bound = min(max_len, len(x) + 1 if budget > len(x) else 3 * len(x) + 1)
    if bound > MAX_PROGRAM_BITS:
        raise InfeasibleError(
            f"program searches are limited to {MAX_PROGRAM_BITS} bits; "
            f"this one may need {bound}"
        )
    memo: dict[str, RunOutcome] = {}
    for bits in iter_programs(bound):
        halted, output, _ = run_program(bits, budget, meter, memo)
        if halted and output == x:
            return ComplexityResult(len(bits), bits, budget, max_len)
    return ComplexityResult(None, None, budget, max_len)


def printable_strings(
    max_len: int,
    budget: int,
    length: int | None = None,
    meter: StepMeter | None = None,
) -> dict[str, str]:
    """Map output -> first producing program, over all programs of length
    <= max_len run within the budget.  ``length`` filters outputs.
    Searches above ``MAX_PROGRAM_BITS`` are refused."""
    if max_len > MAX_PROGRAM_BITS:
        raise InfeasibleError(f"program searches are limited to max_len <= {MAX_PROGRAM_BITS}")
    out: dict[str, str] = {}
    memo: dict[str, RunOutcome] = {}
    for bits in iter_programs(max_len):
        halted, output, _ = run_program(bits, budget, meter, memo)
        if halted and (length is None or len(output) == length) and output not in out:
            out[output] = bits
    return out


def lex_first_incompressible(
    n: int,
    budget: int,
    threshold: int,
    meter: StepMeter | None = None,
) -> Pattern:
    """Lex-first n x n binary matrix no program shorter than ``threshold``
    bits prints (row-major) within the budget.

    ``threshold <= n*n + 1`` is required: the literal program of length
    n*n + 1 prints every matrix, so higher thresholds are unsatisfiable.
    """
    if n < 1:
        raise PatternError("n must be positive")
    if threshold < 0:
        raise PatternError("threshold must be nonnegative")
    if threshold > n * n + 1:
        raise InfeasibleError(
            f"threshold {threshold} exceeds the literal bound {n * n + 1}"
        )
    printable = printable_strings(threshold - 1, budget, length=n * n, meter=meter)
    for v in range(1 << (n * n)):
        bits = format(v, f"0{n * n}b")
        if bits not in printable:
            if meter is not None:
                meter.exclusions.update(printable=len(printable), passed_over=v)
            return word_square(bits, n, BINARY)
    raise InfeasibleError("every matrix is printable below the threshold")  # pragma: no cover


def rank_width(l: int) -> int:
    """Bits per permutation rank: ceil(log2 l!)."""
    return (math.factorial(l) - 1).bit_length()


def tuple_threshold(l: int, count: int) -> int:
    """floor(count * log2 l!), computed exactly."""
    return (math.factorial(l) ** count).bit_length() - 1


def permutation_from_rank(l: int, rank: int) -> tuple[int, ...]:
    """The rank-th permutation of (1..l) in lexicographic order (factorial
    number system / Lehmer code)."""
    if not 0 <= rank < math.factorial(l):
        raise ValueError(f"rank {rank} out of range for l={l}")
    items = list(range(1, l + 1))
    out = []
    for i in range(l, 0, -1):
        f = math.factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(items.pop(idx))
    return tuple(out)


def permutation_rank(perm: tuple[int, ...]) -> int:
    """Lexicographic rank of a permutation of (1..l); inverse of
    permutation_from_rank."""
    l = len(perm)
    items = list(range(1, l + 1))
    rank = 0
    for i, v in enumerate(perm):
        idx = items.index(v)
        rank += idx * math.factorial(l - 1 - i)
        items.pop(idx)
    return rank


def encode_rank_tuple(ranks: tuple[int, ...], l: int) -> str:
    w = rank_width(l)
    return "".join(format(r, f"0{w}b") for r in ranks)


def incompressible_permutations(
    l: int,
    count: int,
    budget: int,
    distinct: bool = False,
    meter: StepMeter | None = None,
) -> list[tuple[int, ...]]:
    """Lex-first tuple of ``count`` permutations of (1..l) whose fixed-width
    rank encoding (ceil(log2 l!) bits per rank) no program shorter than
    floor(count*log2 l!) bits prints within the budget.

    ``distinct=True`` additionally requires pairwise distinct permutations;
    the plain contract does not (at small scales the machine is too weak for
    the threshold alone to rule out repetitions).
    """
    if l < 1 or count < 1:
        raise PatternError("need l >= 1 and count >= 1")
    if distinct and count > math.factorial(l):
        raise InfeasibleError(f"cannot pick {count} distinct permutations of 1..{l}")
    threshold = tuple_threshold(l, count)
    enc_len = count * rank_width(l)
    printable = printable_strings(threshold - 1, budget, length=enc_len, meter=meter) if threshold > 0 else {}
    f = math.factorial(l)
    not_distinct = 0
    for v, ranks in enumerate(itertools.product(range(f), repeat=count)):
        if distinct and len(set(ranks)) != count:
            not_distinct += 1
            continue
        if encode_rank_tuple(ranks, l) not in printable:
            if meter is not None:
                meter.exclusions["printable"] = len(printable)
                if distinct:
                    meter.exclusions.update(
                        passed_over_printable=v - not_distinct,
                        passed_over_not_distinct=not_distinct,
                    )
                else:
                    meter.exclusions["passed_over"] = v
            return [permutation_from_rank(l, r) for r in ranks]
    raise InfeasibleError("every rank tuple is printable below the threshold")

