"""Seeded membership probes, and an oracle for them that uses no library code.

Archives are read straight from their block files (``level_<i>/Q_<j>.txt``),
not through ``shiftlab.deepshift`` and not through ``manifest.json``, so the
probes and the answers they are checked against do not depend on the code
under test.

Half the probes are square windows cut from a stored block: the level is
drawn at random, then a side that only that level covers (greater than the
side of the level below), then a block and an offset.  ``member`` must accept
every one of them.  The other half are uniform random binary squares of any
side up to the top level's; most of the larger ones are rejected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


def read_archive(path) -> list[list[tuple[str, ...]]]:
    """Blocks of every level, as row strings: ``levels[i][j]`` is Q_i^j."""
    levels = []
    path = Path(path)
    for i in itertools.count():
        level_dir = path / f"level_{i}"
        if not level_dir.is_dir():
            break
        blocks = []
        for j in itertools.count():
            f = level_dir / f"Q_{j}.txt"
            if not f.is_file():
                break
            blocks.append(tuple(f.read_text(encoding="ascii").splitlines()[1:]))
        levels.append(blocks)
    return levels


@dataclass(frozen=True)
class Probe:
    archive: int
    kind: str  # "window" | "uniform"
    rows: tuple[str, ...]


def make_probes(families: list[list[list[tuple[str, ...]]]], seed: int, count: int) -> list[Probe]:
    rng = random.Random(seed)
    probes = []
    for k in range(count):
        a = rng.randrange(len(families))
        levels = families[a]
        sides = [len(blocks[0]) for blocks in levels]
        if k % 2 == 0:
            lv = rng.randrange(len(levels))
            s = rng.randint(sides[lv - 1] + 1 if lv else 1, sides[lv])
            block = rng.choice(levels[lv])
            r = rng.randint(0, sides[lv] - s)
            c = rng.randint(0, sides[lv] - s)
            rows = tuple(row[c : c + s] for row in block[r : r + s])
            probes.append(Probe(a, "window", rows))
        else:
            s = rng.randint(1, sides[-1])
            rows = tuple(
                "".join(rng.choice("01") for _ in range(s)) for _ in range(s)
            )
            probes.append(Probe(a, "uniform", rows))
    return probes


class Oracle:
    """Checks ``member`` answers against the block files."""

    def __init__(self, families):
        self.families = families

    def level_for(self, a: int, side: int) -> int | None:
        for i, blocks in enumerate(self.families[a]):
            if len(blocks[0]) >= side:
                return i
        return None

    def _arrangement(self, a: int, level: int, ids) -> list[str]:
        blocks = self.families[a][level]
        (i00, i01), (i10, i11) = ids
        top = [x + y for x, y in zip(blocks[i00], blocks[i01])]
        bottom = [x + y for x, y in zip(blocks[i10], blocks[i11])]
        return top + bottom

    def _all_windows(self, a: int, level: int, s: int) -> set[tuple[str, ...]]:
        n_blocks = len(self.families[a][level])
        out = set()
        for i00, i01, i10, i11 in itertools.product(range(n_blocks), repeat=4):
            arr = self._arrangement(a, level, ((i00, i01), (i10, i11)))
            span = len(arr) - s + 1
            for r in range(span):
                band = arr[r : r + s]
                for c in range(span):
                    out.add(tuple(row[c : c + s] for row in band))
        return out

    def check(self, probes: list[Probe], answers: list[dict]) -> list[str]:
        """One message per probe whose answer is wrong."""
        if len(answers) != len(probes):
            return [f"{len(answers)} answers for {len(probes)} probes"] * len(probes)
        failures = []
        rejected: dict[tuple[int, int, int], list[int]] = {}
        for k, (p, ans) in enumerate(zip(probes, answers)):
            s = len(p.rows)
            level = self.level_for(p.archive, s)
            if ans["level"] != level:
                failures.append(f"probe {k}: level {ans['level']}, expected {level}")
            elif ans["accepted"]:
                ids, (r, c) = ans["corner_ids"], ans["offset"]
                n_blocks = len(self.families[p.archive][level])
                if not all(0 <= i < n_blocks for row in ids for i in row):
                    failures.append(f"probe {k}: corner ids {ids} out of range")
                    continue
                arr = self._arrangement(p.archive, level, ids)
                window = tuple(row[c : c + s] for row in arr[r : r + s])
                if min(r, c) < 0 or window != p.rows:
                    failures.append(f"probe {k}: witness window differs from the probe")
            elif p.kind == "window":
                failures.append(f"probe {k}: window cut from a stored block was rejected")
            else:
                rejected.setdefault((p.archive, level, s), []).append(k)
        # one window set at a time keeps memory at a single (archive, level, side)
        for (a, level, s), ks in rejected.items():
            windows = self._all_windows(a, level, s)
            failures.extend(
                f"probe {k}: rejected but occurs in level {level}"
                for k in ks
                if probes[k].rows in windows
            )
        return failures
