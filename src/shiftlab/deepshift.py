"""Hierarchical block families with incompressibility-selected structure.

A family is built level by level.  Level 0 holds explicit small blocks; at
each level above, the arrangement of lower-level blocks is selected by an
exact incompressibility search:

* two-block mode: one binary matrix R per level, chosen lex-first among
  matrices whose row-major bits no short program prints; the two level-i
  blocks are the R-substitution of the lower pair and its inversion;
* multi-block mode: a lex-first tuple of permutations of the lower blocks,
  chosen by the same kind of search on its fixed-width rank encoding; each
  level-i block contains every level-(i-1) block exactly once.

Time budgets follow a fixed schedule: T = N^3, t' = 2*T + N^3, and
t = 2*t' + N^3 plus the measured machine steps spent building the lower
levels.  The measurement is deterministic, so archived families rebuild
bit-exactly from their manifests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

from . import __version__
from .complexity import (
    StepMeter,
    incompressible_permutations,
    lex_first_incompressible,
    tuple_threshold,
)
from .core import (
    _ALPHABET_BY_SIZE,
    BINARY,
    InfeasibleError,
    Pattern,
    PatternError,
    ShiftSpec,
    archive_path,
    gamma_decode,
    gamma_encode,
    int_field,
    int_list,
    invert,
    iter_rect_patterns,
    list_field,
    read_head,
    read_pattern,
    require_keys,
    subpattern,
    tile,
    word_square,
    write_head,
    write_pattern,
)

TWO_BLOCK = "two-block"
MULTI_BLOCK = "multi-block"


@dataclass(frozen=True)
class LevelBudget:
    T: int
    t_prime: int
    t: int


@dataclass(frozen=True)
class DeepParams:
    """Fully resolved construction parameters.

    ``n`` has depth+2 entries (the top level's block count in multi-block
    mode needs one extra); ``N[i]`` is the side length of a level-i block;
    ``thresholds[i]`` and ``budgets[i]`` apply to the level-i search
    (index 0 is a placeholder).
    """

    n0: int
    c: int
    depth: int
    mode: str
    structural_override: tuple[int, ...] | None
    n: tuple[int, ...]
    N: tuple[int, ...]
    block_counts: tuple[int, ...]
    thresholds: tuple[int, ...]
    budgets: tuple[LevelBudget, ...]

    @property
    def structural(self) -> bool:
        return self.structural_override is not None


@dataclass(frozen=True)
class LevelBlocks:
    level: int
    blocks: tuple[Pattern, ...]
    witness_matrix: Pattern | None = None
    witness_perms: tuple[tuple[int, ...], ...] | None = None


@dataclass
class StandardBlockFamily:
    params: DeepParams
    levels: list[LevelBlocks]
    measured_steps: tuple[int, ...]
    # the search counters of levels 1..depth; empty for a loaded archive
    meters: tuple[StepMeter, ...] = field(default=(), repr=False, compare=False)
    _array_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return self.params.depth

    def blocks(self, level: int) -> tuple[Pattern, ...]:
        return self.levels[level].blocks


def schedule_params(
    n0: int,
    c: int,
    depth: int,
    mode: str = TWO_BLOCK,
    structural_override: Iterable[int] | None = None,
) -> DeepParams:
    """Resolve sizes, thresholds, and budgets for a family.

    Without ``structural_override`` the side factors follow
    n_{i+1} = (n_0 * ... * n_i)^c with c >= 3.  An override pins the factors
    directly (depth+1 or depth+2 entries, the last repeated if needed) and
    marks the family as running outside the fast-growth regime the
    construction's growth guarantees assume.
    """
    if n0 < 2:
        raise PatternError("n0 must be at least 2")
    if depth < 1:
        raise PatternError("depth must be at least 1")
    if mode not in (TWO_BLOCK, MULTI_BLOCK):
        raise PatternError(f"unknown mode {mode!r}")

    if structural_override is not None:
        ns = tuple(int(v) for v in structural_override)
        if len(ns) not in (depth + 1, depth + 2):
            raise PatternError(
                f"structural override needs depth+1 or depth+2 entries, got {len(ns)}"
            )
        if any(v < 2 for v in ns):
            raise PatternError("side factors must be at least 2")
        if ns[0] != n0:
            raise PatternError("structural override must start with n0")
        if len(ns) == depth + 1:
            ns = ns + (ns[-1],)
    else:
        if c < 3:
            raise PatternError("c must be at least 3 without a structural override")
        ns_list = [n0]
        running = n0
        for _ in range(depth + 1):
            nxt = running**c
            ns_list.append(nxt)
            running *= nxt
        ns = tuple(ns_list)

    N_list = []
    running = 1
    for i in range(depth + 1):
        running *= ns[i]
        N_list.append(running)
    N = tuple(N_list)

    if mode == TWO_BLOCK:
        counts = tuple(2 for _ in range(depth + 1))
        thresholds = (0,) + tuple(ns[i] ** 2 for i in range(1, depth + 1))
    else:
        counts = tuple(ns[i + 1] ** 2 for i in range(depth + 1))
        if 2 ** (n0 * n0) <= counts[0]:
            raise InfeasibleError(
                f"level 0 needs {counts[0]} distinct {n0}x{n0} binary blocks "
                f"but only {2 ** (n0 * n0)} exist"
            )
        thresholds = (0,) + tuple(
            tuple_threshold(counts[i - 1], counts[i]) for i in range(1, depth + 1)
        )

    budgets = [LevelBudget(0, 0, 0)]
    for i in range(1, depth + 1):
        Ti = N[i] ** 3
        tp = 2 * Ti + N[i] ** 3
        budgets.append(LevelBudget(Ti, tp, 2 * tp + N[i] ** 3))
    return DeepParams(
        n0=n0,
        c=c,
        depth=depth,
        mode=mode,
        structural_override=tuple(structural_override) if structural_override is not None else None,
        n=ns,
        N=N,
        block_counts=counts,
        thresholds=thresholds,
        budgets=tuple(budgets),
    )


def substitute(R: Pattern, block0: Pattern, block1: Pattern) -> Pattern:
    """Replace each 0/1 of the binary matrix R by the corresponding block."""
    if R.alphabet.letters != BINARY.letters or not R.is_rectangular:
        raise PatternError("R must be a rectangular binary pattern")
    return tile((block0, block1), [[int(bit) for bit in row] for row in R.rows()])


def arrange(perm: tuple[int, ...], blocks: tuple[Pattern, ...], n: int) -> Pattern:
    """Lay out ``blocks[perm[p]-1]`` at grid position p (row-major) in an
    n x n arrangement; ``perm`` is a permutation of 1..len(blocks)."""
    if len(perm) != n * n or sorted(perm) != list(range(1, len(blocks) + 1)):
        raise PatternError("perm must be a permutation of 1..l with l = n^2")
    return tile(blocks, [[ix - 1 for ix in perm[i * n : i * n + n]] for i in range(n)])


def build_family(params: DeepParams, budgets_final: bool = False) -> StandardBlockFamily:
    """Build all levels.  With ``budgets_final`` the t budgets are taken
    verbatim from ``params`` (archive rebuilds); otherwise the measured
    machine cost of the lower levels is folded in and recorded."""
    n0 = params.n0
    if params.mode == TWO_BLOCK:
        words = ["0" * n0 * n0, "1" * n0 * n0]
    else:
        words = [format(v, f"0{n0 * n0}b") for v in range(params.block_counts[0])]
    levels = [LevelBlocks(0, tuple(word_square(word, n0, BINARY) for word in words))]
    measured = [0]
    meters = []
    final_budgets = [params.budgets[0]]
    cumulative = 0
    for i in range(1, params.depth + 1):
        lb = params.budgets[i]
        t_final = lb.t if budgets_final else lb.t + cumulative
        meter = StepMeter()
        prev = levels[i - 1].blocks
        if params.mode == TWO_BLOCK:
            R = lex_first_incompressible(params.n[i], t_final, params.thresholds[i], meter)
            q0 = substitute(R, prev[0], prev[1])
            entry = LevelBlocks(i, (q0, invert(q0)), witness_matrix=R)
        else:
            perms = incompressible_permutations(
                len(prev), params.block_counts[i], t_final, distinct=True, meter=meter
            )
            blocks = tuple(arrange(p, prev, params.n[i]) for p in perms)
            entry = LevelBlocks(i, blocks, witness_perms=tuple(perms))
        if len({b.lex_key() for b in entry.blocks}) != len(entry.blocks):
            raise InfeasibleError(f"level {i} blocks are not pairwise distinct")
        levels.append(entry)
        measured.append(meter.steps)
        meters.append(meter)
        cumulative += meter.steps
        final_budgets.append(LevelBudget(lb.T, lb.t_prime, t_final))
    return StandardBlockFamily(
        params=replace(params, budgets=tuple(final_budgets)),
        levels=levels,
        measured_steps=tuple(measured),
        meters=tuple(meters),
    )


# ---------------------------------------------------------------------------
# Membership and reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemberResult:
    accepted: bool
    level: int
    corner_ids: tuple[tuple[int, int], tuple[int, int]] | None
    offset: tuple[int, int] | None


def _level_arrays(fam: StandardBlockFamily, level: int):
    """Row strings of every 2x2 arrangement of level blocks, cached."""
    cached = fam._array_cache.get(level)
    if cached is not None:
        return cached
    blocks = fam.blocks(level)
    rows_of = [b.rows() for b in blocks]
    N = fam.params.N[level]
    arrays = []
    for i00 in range(len(blocks)):
        for i01 in range(len(blocks)):
            top = [rows_of[i00][r] + rows_of[i01][r] for r in range(N)]
            for i10 in range(len(blocks)):
                for i11 in range(len(blocks)):
                    bottom = [rows_of[i10][r] + rows_of[i11][r] for r in range(N)]
                    arrays.append((((i00, i01), (i10, i11)), top + bottom))
    fam._array_cache[level] = arrays
    return arrays


def member(p: Pattern, fam: StandardBlockFamily) -> MemberResult:
    """Decide whether ``p`` occurs in some 2x2 arrangement of same-level
    blocks, at the lowest level whose block side covers the probe.

    The witness records the four corner block identities and the offset of
    the probe inside the 2N x 2N arrangement.
    """
    if not p.is_rectangular:
        raise PatternError("member requires a rectangular probe")
    if p.alphabet.letters != BINARY.letters:
        raise PatternError("probes are binary")
    side = p.extent
    level = None
    for i in range(fam.depth + 1):
        if fam.params.N[i] >= side:
            level = i
            break
    if level is None:
        raise InfeasibleError(
            f"probe side {side} exceeds N_depth={fam.params.N[fam.depth]}; "
            "outside the decidable range for the built depth"
        )
    N = fam.params.N[level]
    first, *rest = p.rows()
    # scan order: arrangement, then row, then column, so the witness is the
    # first window in that order; str.find jumps to the columns where the
    # probe's first row matches
    for ids, arows in _level_arrays(fam, level):
        for a in range(2 * N - p.height + 1):
            row = arows[a]
            b = row.find(first)
            while b >= 0:
                if all(arows[a + i].startswith(r, b) for i, r in enumerate(rest, 1)):
                    return MemberResult(True, level, ids, (a, b))
                b = row.find(first, b + 1)
    return MemberResult(False, level, None, None)


def reconstruct_block(
    p: Pattern,
    offset: tuple[int, int],
    corner_ids: tuple[tuple[int, int], tuple[int, int]],
    fam: StandardBlockFamily,
    level: int,
) -> Pattern:
    """Recover the standard block Q_level^0 from a single N x N window of a
    2x2 arrangement, its offset, and the four corner identity bits.

    Two-block mode only.  Deliberately reads nothing from the stored blocks:
    each window cell lands in exactly one corner copy, and XOR with that
    corner's identity bit maps it back to its position in Q^0.
    """
    if fam.params.mode != TWO_BLOCK:
        raise PatternError("reconstruct_block is defined for two-block families")
    if not 0 <= level <= fam.depth:
        raise PatternError(f"level {level} out of range")
    N = fam.params.N[level]
    if not (p.is_rectangular and p.height == N and p.width == N):
        raise PatternError(f"window must be exactly {N}x{N}")
    a, b = offset
    if not (0 <= a <= N and 0 <= b <= N):
        raise PatternError(f"offset {offset} outside [0, N]^2")
    ids = corner_ids
    if any(bit not in (0, 1) for row in ids for bit in row):
        raise PatternError("corner identities must be bits")
    cells: dict[tuple[int, int], str] = {}
    for (i, j), letter in p.items():
        r, c = a + i, b + j
        I, J = r // N, c // N
        u, v = r % N, c % N
        cells[(u, v)] = str(int(letter) ^ ids[I][J])
    if len(cells) != N * N:  # pragma: no cover - arithmetic guarantees coverage
        raise PatternError("window does not tile the block")
    return Pattern(BINARY, cells)


def extract_R(q: Pattern, fam: StandardBlockFamily, level: int) -> Pattern:
    """Classify each lower-level sub-block of ``q`` as Q^0 or Q^1 and return
    the binary selector matrix (inverse of ``substitute``)."""
    if fam.params.mode != TWO_BLOCK:
        raise PatternError("extract_R is defined for two-block families")
    if level < 1 or level > fam.depth:
        raise PatternError("extract_R needs a level >= 1 within the family")
    n_i = fam.params.n[level]
    N_prev = fam.params.N[level - 1]
    b0, b1 = fam.blocks(level - 1)
    cells: dict[tuple[int, int], str] = {}
    for I in range(n_i):
        for J in range(n_i):
            sub = subpattern(q, (I * N_prev, J * N_prev, N_prev, N_prev))
            if sub == b0:
                cells[(I, J)] = "0"
            elif sub == b1:
                cells[(I, J)] = "1"
            else:
                raise PatternError(f"sub-block at ({I}, {J}) is not a standard block")
    return Pattern(BINARY, cells)


def witness_bit_length(res: MemberResult, fam: StandardBlockFamily) -> int:
    """Encoded size of an accepting witness: four corner identities plus
    gamma codes of level and offset — O(log N) + 4 bits in two-block mode."""
    if not res.accepted:
        raise PatternError("only accepting results carry a witness")
    id_width = max(1, (len(fam.blocks(res.level)) - 1).bit_length())
    a, b = res.offset
    return (
        4 * id_width
        + len(gamma_encode(res.level + 1))
        + len(gamma_encode(a + 1))
        + len(gamma_encode(b + 1))
    )


# ---------------------------------------------------------------------------
# Two-part codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPartCode:
    bits: str
    N: int
    k: int
    dictionary_size: int
    header_bits: int
    dictionary_bits: int
    index_bits: int

    @property
    def payload_bits(self) -> int:
        return self.dictionary_bits + self.index_bits


def two_part_code(p: Pattern, k: int, spec: ShiftSpec, margin: int = 0) -> TwoPartCode:
    """Encode an (N*k) x (N*k) pattern as an admissible-block dictionary plus
    per-block indices.

    The dictionary holds every margin-admissible k x k pattern in canonical
    order (L_k of them, k^2*ceil(log2 |alphabet|) bits each); the body lists
    the dictionary rank of each of the N^2 blocks (ceil(log2 L_k) bits each).
    A self-delimiting gamma-coded header (alphabet size, N, k, L_k) makes the
    code decodable on its own.
    """
    if not p.is_rectangular or p.height != p.width:
        raise PatternError("two_part_code expects a square pattern")
    if p.alphabet.letters != spec.alphabet.letters:
        raise PatternError("pattern alphabet does not match spec")
    if k < 1 or p.height % k:
        raise PatternError(f"side {p.height} is not a multiple of k={k}")
    N = p.height // k
    dictionary = list(iter_rect_patterns(spec, k, k, margin))
    L = len(dictionary)
    if L == 0:
        raise InfeasibleError("no admissible blocks at this size")
    dict_rows = [tuple(q.rows()) for q in dictionary]
    pos = {rows: ix for ix, rows in enumerate(dict_rows)}
    letter_width = spec.alphabet.letter_bits
    index_width = (L - 1).bit_length() if L > 1 else 0
    header = (
        gamma_encode(len(spec.alphabet)) + gamma_encode(N) + gamma_encode(k) + gamma_encode(L)
    )
    dict_bits = "".join(
        format(spec.alphabet.index(letter), f"0{letter_width}b")
        for rows in dict_rows
        for letter in "".join(rows)
    )
    codes = [format(ix, f"0{index_width}b") if index_width else "" for ix in range(L)]
    # each block is keyed by its row slices, read from the pattern's rows once
    rows = p.rows()
    starts = range(0, N * k, k)
    body = []
    for I in range(N):
        pieces = [[row[c : c + k] for c in starts] for row in rows[I * k : I * k + k]]
        for J, key in enumerate(zip(*pieces)):
            ix = pos.get(key)
            if ix is None:
                raise InfeasibleError(f"block at ({I}, {J}) is not margin-admissible")
            body.append(codes[ix])
    index_bits = "".join(body)
    return TwoPartCode(
        bits=header + dict_bits + index_bits,
        N=N,
        k=k,
        dictionary_size=L,
        header_bits=len(header),
        dictionary_bits=len(dict_bits),
        index_bits=len(index_bits),
    )


# The largest side N*k a code may name.  With one dictionary block the index
# field is empty, so a 27-bit code names a 1024 x 1024 pattern; a process
# that decodes it takes about 0.2 s and peaks at 33 MB on a 2-core Xeon (the
# pattern holds its rows), and each doubling of the side takes about four
# times as long.
MAX_TWO_PART_SIDE = 1024


def decode_two_part(bits: str) -> Pattern:
    """Inverse of ``two_part_code`` (header is self-delimiting).  A code
    whose length is not the one its header implies, or that names a letter
    or block index out of range, is refused with ``PatternError``; one whose
    header names a side above ``MAX_TWO_PART_SIDE`` with ``InfeasibleError``."""
    if bits.strip("01"):
        raise PatternError("a two-part code is a bit string")
    size, pos = gamma_decode(bits, 0)
    alphabet = _ALPHABET_BY_SIZE.get(size)
    if alphabet is None:
        raise PatternError(f"unsupported alphabet size {size}")
    N, pos = gamma_decode(bits, pos)
    k, pos = gamma_decode(bits, pos)
    if N * k > MAX_TWO_PART_SIDE:
        raise InfeasibleError(f"side {N * k} exceeds the decoding limit {MAX_TWO_PART_SIDE}")
    L, pos = gamma_decode(bits, pos)
    letter_width = alphabet.letter_bits
    index_width = (L - 1).bit_length() if L > 1 else 0
    end = pos + L * k * k * letter_width  # where the dictionary ends and the body starts
    need = end + N * N * index_width
    if len(bits) != need:
        raise PatternError(f"the header implies a {need}-bit code, got {len(bits)} bits")
    letters = [int(bits[i : i + letter_width], 2) for i in range(pos, end, letter_width)]
    if max(letters) >= size:
        raise PatternError(f"letter index {max(letters)} is out of range")
    word = "".join(alphabet.letters[ix] for ix in letters)
    dictionary = [word_square(word[e * k * k : (e + 1) * k * k], k, alphabet) for e in range(L)]
    if index_width:
        body = [int(bits[i : i + index_width], 2) for i in range(end, need, index_width)]
    else:
        body = [0] * (N * N)
    bad = next((ix for ix in body if ix >= L), None)
    if bad is not None:
        raise PatternError(f"block index {bad} is not below L={L}")
    return tile(dictionary, [body[I * N : I * N + N] for I in range(N)])


# ---------------------------------------------------------------------------
# Archives
# ---------------------------------------------------------------------------


def params_to_dict(params: DeepParams) -> dict:
    return {
        "n0": params.n0,
        "c": params.c,
        "depth": params.depth,
        "mode": params.mode,
        "structural_override": list(params.structural_override)
        if params.structural_override is not None
        else None,
        "n": list(params.n),
        "N": list(params.N),
        "block_counts": list(params.block_counts),
        "thresholds": list(params.thresholds),
        "budgets": [[b.T, b.t_prime, b.t] for b in params.budgets],
    }


def params_from_dict(d: dict) -> DeepParams:
    """A manifest's ``params``, with the type of every field and the length
    of every per-level list checked."""
    require_keys(d, [f.name for f in fields(DeepParams)], "params")
    # older manifests name the search that picked each level; a non-exact
    # one would be rebuilt with a different search, so it is refused
    if d.get("oracle", "exact") != "exact":
        raise PatternError(f"params 'oracle' is {d['oracle']!r}; only exact searches rebuild")
    depth = int_field(d["depth"], "params 'depth'")
    if depth < 1:
        raise PatternError(f"params 'depth' is {depth}, below 1")
    if d["mode"] not in (TWO_BLOCK, MULTI_BLOCK):
        raise PatternError(f"params 'mode' {d['mode']!r} is unknown")
    override = d["structural_override"]
    if override is not None:
        override = int_list(override, "params 'structural_override'")
    sizes = {"n": depth + 2, "N": depth + 1, "block_counts": depth + 1, "thresholds": depth + 1}
    return DeepParams(
        n0=int_field(d["n0"], "params 'n0'"),
        c=int_field(d["c"], "params 'c'"),
        depth=depth,
        mode=d["mode"],
        structural_override=override,
        budgets=tuple(
            LevelBudget(*int_list(b, "params 'budgets' entry", 3))
            for b in list_field(d["budgets"], "params 'budgets'", depth + 1)
        ),
        **{key: int_list(d[key], f"params {key!r}", size) for key, size in sizes.items()},
    )


def save_family(fam: StandardBlockFamily, dirpath: str) -> dict:
    """Write the archive: a JSON manifest plus one pattern file per block and
    per selector matrix.  Everything needed for a bit-exact rebuild is in the
    manifest."""
    manifest: dict = {
        "format_version": 1,
        "package_version": __version__,
        "params": params_to_dict(fam.params),
        "measured_steps": list(fam.measured_steps),
        "flags": {"structural": fam.params.structural},
        "levels": [],
    }
    for entry in fam.levels:
        files = [f"level_{entry.level}/Q_{j}.txt" for j in range(len(entry.blocks))]
        for rel, block in zip(files, entry.blocks):
            write_pattern(block, os.path.join(dirpath, rel))
        level_entry: dict = {"level": entry.level, "block_files": files}
        if entry.witness_matrix is not None:
            rel = f"level_{entry.level}/R.txt"
            write_pattern(entry.witness_matrix, os.path.join(dirpath, rel))
            level_entry["witness_matrix"] = rel
        if entry.witness_perms is not None:
            level_entry["witness_perms"] = [list(p) for p in entry.witness_perms]
        manifest["levels"].append(level_entry)
    write_head(manifest, os.path.join(dirpath, "manifest.json"))
    return manifest


def _level_files(dirpath: str, i: int, le, params: DeepParams):
    """The checked entry of level i: its number, its block files (as many as
    ``block_counts[i]``), its matrix file and its permutations."""
    what = f"manifest level {i}"
    require_keys(le, ("level", "block_files"), what)
    if int_field(le["level"], f"{what} 'level'") != i:
        raise PatternError(f"{what} is numbered {le['level']}; levels run 0..depth in order")
    rels = list_field(le["block_files"], f"{what} 'block_files'", params.block_counts[i])
    files = [archive_path(dirpath, rel, f"{what} block file") for rel in rels]
    wm = wp = None
    if "witness_matrix" in le:
        wm = archive_path(dirpath, le["witness_matrix"], f"{what} 'witness_matrix'")
    if "witness_perms" in le:
        perms = list_field(le["witness_perms"], f"{what} 'witness_perms'")
        wp = tuple(int_list(p, f"{what} permutation") for p in perms)
    return files, wm, wp


def _read_archive(dirpath: str) -> tuple[StandardBlockFamily, list]:
    """The archive's family and its manifest's level entries.  Every key,
    type, count and path of the manifest is checked before a file it names
    is opened; then each block must be an N_i x N_i binary square."""
    manifest = read_head(os.path.join(dirpath, "manifest.json"))
    require_keys(manifest, ("params", "measured_steps", "levels"), "manifest")
    params = params_from_dict(manifest["params"])
    steps = int_list(manifest["measured_steps"], "manifest 'measured_steps'", params.depth + 1)
    entries = list_field(manifest["levels"], "manifest 'levels'", params.depth + 1)
    checked = [_level_files(dirpath, i, le, params) for i, le in enumerate(entries)]
    levels = []
    for i, (files, wm, wp) in enumerate(checked):
        blocks = tuple(map(read_pattern, files))
        side = params.N[i]
        if not all(b.is_rectangular and b.height == b.width == side and b.alphabet == BINARY
                   for b in blocks):
            raise PatternError(f"manifest level {i} lists a block that is not {side}x{side} binary")
        levels.append(LevelBlocks(i, blocks, None if wm is None else read_pattern(wm), wp))
    return StandardBlockFamily(params, levels, steps), entries


def load_family(dirpath: str) -> StandardBlockFamily:
    """Read an archive back without rebuilding (no searches re-run)."""
    return _read_archive(dirpath)[0]


@dataclass(frozen=True)
class ArchiveReport:
    ok: bool
    manifest_diff: tuple[str, ...]
    mismatches: tuple[str, ...]


def verify_archive(dirpath: str, expected_params: DeepParams | None = None) -> ArchiveReport:
    """Rebuild the family from the manifest alone (budgets taken verbatim)
    and compare every stored block, matrix and permutation; optionally first
    diff the manifest's parameters against an expected configuration."""
    fam, entries = _read_archive(dirpath)
    diffs: list[str] = []
    if expected_params is not None:
        got = params_to_dict(fam.params)
        want = params_to_dict(expected_params)
        for key in sorted(want):
            if got[key] != want[key]:
                diffs.append(f"params.{key}: manifest={got[key]!r} expected={want[key]!r}")
    rebuilt = build_family(fam.params, budgets_final=True)
    mismatches: list[str] = []
    for le, mine, theirs in zip(entries, fam.levels, rebuilt.levels):
        i = mine.level
        if len(mine.blocks) != len(theirs.blocks):
            mismatches.append(f"block count at level {i}")
        for j, (rel, a, b) in enumerate(zip(le["block_files"], mine.blocks, theirs.blocks)):
            if a != b:
                mismatches.append(f"Q_{i}^{j} ({rel})")
        if mine.witness_matrix != theirs.witness_matrix:
            mismatches.append(f"R_{i} ({le.get('witness_matrix', 'missing')})")
        if mine.witness_perms != theirs.witness_perms:
            mismatches.append(f"permutations at level {i}")
    if fam.measured_steps != rebuilt.measured_steps:
        mismatches.append("measured_steps")
    return ArchiveReport(not diffs and not mismatches, tuple(diffs), tuple(mismatches))
