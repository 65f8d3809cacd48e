"""Mutation check for shiftlab's fast paths.

Each mutant is a named source substitution plus the tests that should fail
under it.  For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the substitution
there, runs the mutant's tests with pytest and reports the mutant killed
(a test failed) or survived (every test passed).  A survivor is a finding:
add a test that kills it, or say why the mutant is equivalent.  The tests
first run on an unmutated copy, so that a kill means the mutant did it.

Standard library only (pytest and hypothesis run the tests); not part of
the tier-1 suite, since each mutant costs a partial test run.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named ones

Prints one JSON object and exits 0 when every mutant run was killed, 1 when
one survived, 2 when the unmutated tests fail or a substitution no longer
matches its source exactly once.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
EPITOMES = "src/shiftlab/epitomes.py"
CORE = "src/shiftlab/core.py"
SPARSE = "tests/test_kernels.py::test_window_check_on_sparse_windows_matches_per_candidate_scans"
PER_PAIR = "tests/test_kernels.py::test_placement_masks_match_per_pair_scans"
RUN_MASK = "tests/test_kernels.py::test_run_mask_window_compat_matches_generic_exhaustive"
BRUTE = "tests/test_epitomes.py::test_generic_route_matches_brute_force"
DIGITS = "tests/test_kernels.py::test_digit_masks_match_their_definition"
LOWCFG = "src/shiftlab/lowcfg.py"
COMPLEXITY = "src/shiftlab/complexity.py"
DEEPSHIFT = "src/shiftlab/deepshift.py"
RECURSIVE_FILL = "tests/test_lowcfg.py::test_standard_square_matches_the_recursive_fill"
VISIT_ORDER = "tests/test_lowcfg.py::test_fill_order_is_the_recursions_visit_order"
RED_BLACK_4 = "tests/test_core.py::test_red_black_4_frozen"
OEIS = "tests/test_core.py::test_count_rect_patterns_hard_square_matches_oeis"
AT_4 = "tests/test_core.py::test_count_rect_patterns_matches_enumeration_at_4"
TRANSFER_DIFF = "tests/test_admissibility.py::test_row_transfer_matches_enumeration"
TOP_DOWN = "tests/test_core.py::test_count_rect_patterns_reads_placements_top_down"
ENFORCER_BITS = "tests/test_epitomes.py::test_enforcer_route_bits_match_verify_enforcer"
MIRROR_BITS = "tests/test_epitomes.py::test_mirror_route_matches_per_candidate_scans"
VACUOUS = "tests/test_epitomes.py::test_vacuous_property_check_refused_before_any_window_check"
ROUNDTRIP = "tests/test_lowcfg.py::test_roundtrip_random_rects"
REFERENCE_VM = "tests/test_complexity.py::test_library_agrees_with_reference_interpreter"
BAD_MANIFEST = "tests/test_cli.py::test_malformed_manifest_exits_1_with_one_line"
BAD_DESCRIPTION = "tests/test_lowcfg.py::test_load_description_refuses_malformed_heads"
MARGIN_ORACLE = "tests/test_admissibility.py::test_extendable_blocks_match_filtered_enumeration"
MARGIN_OFF_SQUARE = (
    "tests/test_admissibility.py::test_margin_lister_matches_filtered_enumeration_off_the_square"
)

# name -> (file, text, replacement, tests that should kill it)
MUTANTS = {
    # the window check
    "holes-match": (
        # a row that lacks a cell (a hole in its window) matches any letter there
        EPITOMES,
        "hit_rows &= row_index[cell].get(a, 0)",
        "hit_rows &= row_index[cell].get(a, 0) | every & ~sum(row_index[cell].values())",
        [SPARSE, MIRROR_BITS],
    ),
    "unheld-cell-skipped": (
        EPITOMES,
        "else:\n                        break\n                    if not (hit_rows",
        "else:\n                        continue\n                    if not (hit_rows",
        [SPARSE, MIRROR_BITS],
    ),
    "index-from-first-filling": (
        EPITOMES,
        "for count, cells in enumerate(fillings, 1):",
        "for count, cells in enumerate(itertools.islice(fillings, 1), 1):",
        [SPARSE, ENFORCER_BITS],
    ),
    "no-whole-row-clearing": (
        EPITOMES, "everywhere |= hit_cols", "everywhere |= 0", [PER_PAIR],
    ),
    "window-plan-without-largest-square": (
        CORE, "for s in range(2, side + 1)", "for s in range(2, side)", [RUN_MASK, PER_PAIR],
    ),
    "plan-square-bottom-row-short": (
        CORE,
        'tuple(((s - 1, c), "B") for c in range(s))',
        'tuple(((s - 1, c), "B") for c in range(s - 1))',
        [RUN_MASK, PER_PAIR, ENFORCER_BITS],
    ),
    # digit masks of the annulus colorings
    "digit-mask-from-coloring-0": (
        EPITOMES,
        "return (mask >> (lo % period)) & ((1 << width) - 1)",
        "return mask & ((1 << width) - 1)",
        [DIGITS, RUN_MASK, PER_PAIR],
    ),
    "digit-mask-one-run": (
        EPITOMES,
        "for a in (start, start + period):",
        "for a in (start,):",
        [DIGITS, PER_PAIR],
    ),
    "coloring-letter-left-out": (
        # the letter of the plan's first cell gets no digit mask
        EPITOMES,
        "if (cell, a) in reads",
        "if (cell, a) in reads and a != plan[0][0][1]",
        [PER_PAIR, BRUTE],
    ),
    "coloring-reads-one-row-short": (
        EPITOMES, "r1 - fr1 + dr + 1)", "r1 - fr1 + dr)", [PER_PAIR, BRUTE],
    ),
    # the routes
    "enforcer-own-bit-dropped": (
        EPITOMES,
        "passed = bool(row >> j & 1) and not row & ~below[j]",
        "passed = not row & ~below[j]",
        ["tests/test_epitomes.py::test_enforcer_route_needs_the_own_profile"],
    ),
    "profile-bitset-strict": (
        EPITOMES,
        "if x <= k)",
        "if x < k)",
        ["tests/test_epitomes.py::test_profile_bitsets_agree_with_profile_leq", ENFORCER_BITS],
    ),
    "enforcer-rows-and-columns-swapped": (
        EPITOMES,
        "4 * n - 1), windows, fillings)",
        "4 * n - 1), fillings, windows)",
        [ENFORCER_BITS],
    ),
    "mirror-plan-at-2n": (
        EPITOMES,
        "spec.enumerator(2 * n + 1)",
        "spec.enumerator(2 * n)",
        ["tests/test_epitomes.py::test_mirror_route_matches_per_candidate_scans"],
    ),
    "generic-no-twice": (EPITOMES, "twice |= once & hits", "twice |= 0", [BRUTE]),
    "generic-highest-bit-first": (
        EPITOMES,
        "first[j] = lo + (row & -row).bit_length() - 1",
        "first[j] = lo + row.bit_length() - 1",
        [BRUTE],
    ),
    "counterexample-column-at-next-coloring": (
        EPITOMES, "colorings(i, i + 1))", "colorings(i + 1, i + 2))", [BRUTE],
    ),
    # the refusals of checks that would hold vacuously
    "generic-vacuity-refusal-removed": (
        EPITOMES, "if all(v is None for v in values):", "if False:", [VACUOUS],
    ),
    "no-entries-refusal-removed": (
        EPITOMES,
        "if not entries:",
        "if False:",
        ["tests/test_epitomes.py::test_property_check_refuses_a_sweep_without_entries"],
    ),
    "border-vacuity-refusal-removed": (
        EPITOMES,
        "if all(v is None for vals in groups.values() for v in vals):",
        "if False:",
        ["tests/test_epitomes.py::test_vacuous_border_consistency_refused"],
    ),
    # the filler letter
    "filler-without-span-test": (
        CORE,
        "return bool(rest) and _bbox_of(rest) == _bbox_of([cell for cell, _ in fcells])",
        "return bool(rest)",
        [
            "tests/test_filler.py::test_builtin_fillers",
            "tests/test_filler.py::test_filler_cell_outside_the_other_cells_box_rules_out_its_letter",
        ],
    ),
    # standard squares
    "fill-order-quadrants-swapped": (
        LOWCFG,
        "+ [(r, c + mid) for r, c in quad]\n        + [(r + mid, c) for r, c in quad]",
        "+ [(r + mid, c) for r, c in quad]\n        + [(r, c + mid) for r, c in quad]",
        [VISIT_ORDER, "tests/test_lowcfg.py::test_filler_less_level_3_squares_match_the_recursive_fill"],
    ),
    "one-pass-without-filler": (
        LOWCFG,
        "if kernel.filler(side) is not None:",
        "if True:",
        [RECURSIVE_FILL, "tests/test_lowcfg.py::test_uncompletable_border_is_refused"],
    ),
    "border-assign-ignored": (
        LOWCFG,
        "if not state.assign(cell, letter):",
        "if not state.assign(cell, letter) and False:",
        [RECURSIVE_FILL, "tests/test_lowcfg.py::test_standard_square_border_guards"],
    ),
    "column-below-centre-dropped": (
        LOWCFG,
        "[(r, mid) for r in inner if r != mid]",
        "[(r, mid) for r in inner if r < mid]",
        [VISIT_ORDER, RECURSIVE_FILL],
    ),
    # reconstruction from covering squares
    "shared-line-check-dropped": (
        LOWCFG,
        'raise PatternError("covering squares disagree on a shared line")',
        "pass",
        ["tests/test_lowcfg.py::test_covering_squares_disagreeing_on_a_shared_column_refused"],
    ),
    "memo-key-without-level": (
        LOWCFG,
        "key = (desc.level, border)",
        "key = border",
        ["tests/test_lowcfg.py::test_reconstruction_memo_is_keyed_by_level"],
    ),
    "cut-without-far-line": (
        # the last covering square along an axis no longer holds its far line
        LOWCFG,
        "hi = min(x0 + n, i * g + g + (i == parts - 1))",
        "hi = min(x0 + n, i * g + g)",
        ["tests/test_lowcfg.py::test_describe_full_square", ROUNDTRIP],
    ),
    # the archive readers
    "archive-dotdot-allowed": (CORE, 'or ".." in parts', "or False", [BAD_MANIFEST, BAD_DESCRIPTION]),
    "archive-absolute-allowed": (
        CORE, "or os.path.isabs(rel)", "or False", [BAD_MANIFEST, BAD_DESCRIPTION],
    ),
    "level-count-unchecked": (
        DEEPSHIFT,
        'list_field(manifest["levels"], "manifest \'levels\'", params.depth + 1)',
        'list_field(manifest["levels"], "manifest \'levels\'")',
        [BAD_MANIFEST],
    ),
    # rectangle geometry
    "annulus-centre-one-column-short": (
        CORE,
        "range(width + w, len(cols))",
        "range(width + w - 1, len(cols))",
        [
            "tests/test_core.py::test_annulus_matches_its_definition",
            "tests/test_lowcfg.py::test_ring_cells_match_their_definition",
        ],
    ),
    "tile-grid-transposed": (
        CORE,
        "for line in grid for r in range(h)",
        "for line in zip(*grid) for r in range(h)",
        [
            "tests/test_core.py::test_tile_matches_a_cell_by_cell_layout",
            "tests/test_deepshift.py::test_arrange_uses_each_block_once",
        ],
    ),
    # the two forms of a pattern
    "adopted-box-one-row-short": (
        CORE,
        "box = (0, 0, h - 1, w - 1) if h and w else None",
        "box = (0, 0, h - 2, w - 1) if h and w else None",
        ["tests/test_core.py::test_builders_that_pass_a_box_pass_the_true_one"],
    ),
    "subpattern-row-cut-one-column-short": (
        CORE,
        "[row[c0 : c0 + w] for row in rows]",
        "[row[c0 : c0 + w - 1] for row in rows]",
        ["tests/test_core.py::test_subpattern_matches_a_cell_by_cell_cut"],
    ),
    "rows-held-len-is-row-count": (
        CORE,
        "return len(self._rows) * len(self._rows[0])",
        "return len(self._rows)",
        ["tests/test_core.py::test_rows_and_cells_forms_agree"],
    ),
    # the bound on listed candidates
    "candidate-bound-removed": (
        CORE,
        "if count > MAX_CANDIDATES:",
        "if False:",
        [
            "tests/test_cli.py::test_candidate_enumerations_are_bounded",
            "tests/test_deepshift.py::test_two_part_code_bounds_its_dictionary",
            "tests/test_admissibility.py::"
            "test_lister_refuses_before_building_while_the_ring_count_is_unbounded",
        ],
    ),
    # the margin lister
    "margin-filler-shortcut-without-filler": (
        CORE,
        "if margin and kernel.filler(max(h, w) + 2 * margin) is not None:",
        "if margin:",
        [MARGIN_ORACLE, MARGIN_OFF_SQUARE],
    ),
    "margin-ring-filter-dropped": (
        CORE,
        "if completable(state, ring, letters):",
        "if True:",
        [MARGIN_ORACLE, MARGIN_OFF_SQUARE],
    ),
    # the row transfer of count_rect_patterns
    "transfer-state-one-row-short": (
        CORE,
        "t = t[max(len(t) + 1 - depth, 0):]",
        "t = t[max(len(t) + 2 - depth, 0):]",
        [RED_BLACK_4],
    ),
    "transfer-last-column-offset-dropped": (
        CORE, "for x in range(w - cspan + 1):", "for x in range(w - cspan):", [OEIS],
    ),
    "transfer-multi-row-placements-ignored": (
        CORE, "multi[k][a].append((rest, banned))", "pass", [AT_4, TRANSFER_DIFF],
    ),
    "transfer-two-row-folded-on-bottom-row": (
        CORE,
        "for a in _members(top):\n                    bad[k][a] |= banned",
        "for a in _members(banned):\n                    bad[k][a] |= top",
        [TOP_DOWN],
    ),
    # the description machine
    "bracket-precheck-off-by-one": (
        COMPLEXITY,
        "if depth:",
        "if depth > 1:",
        [REFERENCE_VM, "tests/test_complexity.py::test_random_loops_agree_with_reference"],
    ),
    "memo-keyed-by-program": (
        COMPLEXITY,
        "outcome = memo.get(code)\n        if outcome is None:\n            outcome = memo[code] =",
        "outcome = memo.get(program)\n        if outcome is None:\n            outcome = memo[program] =",
        ["tests/test_complexity.py::test_memo_is_per_budget_and_shared_by_trailing_bits"],
    ),
    "memo-keyed-by-shorter-list": (
        COMPLEXITY, "outcome = memo.get(code)", "outcome = memo.get(code[3:])", [REFERENCE_VM],
    ),
    "brent-repeat-ignores-b": (
        COMPLEXITY,
        "if a == saved_a and pc == saved_pc and b == saved_b:",
        "if a == saved_a and pc == saved_pc:",
        ["tests/test_complexity.py::test_random_loops_agree_with_reference"],
    ),
}


def _copy_tree(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: pathlib.Path, tests: list[str]) -> tuple[bool, float]:
    """Whether every test passed in ``tree``, and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=1800,
    )
    return proc.returncode == 0, round(time.perf_counter() - t0, 1)


def _apply(tree: pathlib.Path, path: str, text: str, replacement: str) -> None:
    source = (tree / path).read_text()
    if source.count(text) != 1:
        raise ValueError(f"{text!r} occurs {source.count(text)} times in {path}, not once")
    (tree / path).write_text(source.replace(text, replacement))


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = names or list(MUTANTS)
    report: dict = {"mutants": [], "survived": []}
    with tempfile.TemporaryDirectory(prefix="shiftlab-mutants-") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        _copy_tree(clean)
        tests = sorted({test for name in chosen for test in MUTANTS[name][3]})
        passed, seconds = _run_tests(clean, tests)
        report["baseline"] = {"passed": passed, "seconds": seconds}
        if not passed:
            print(json.dumps(report, indent=2))
            return 2
        for name in chosen:
            path, text, replacement, tests = MUTANTS[name]
            tree = pathlib.Path(tmp) / name
            _copy_tree(tree)
            try:
                _apply(tree, path, text, replacement)
            except ValueError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            passed, seconds = _run_tests(tree, tests)
            status = "survived" if passed else "killed"
            report["mutants"].append(
                {"name": name, "file": path, "tests": tests, "status": status, "seconds": seconds}
            )
            if passed:
                report["survived"].append(name)
            shutil.rmtree(tree)
    print(json.dumps(report, indent=2))
    return 1 if report["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
