#!/usr/bin/env python3
"""Regenerate every dataset defined under configs/.

Each config is executed through the CLI entry point, so the outputs are
byte-identical to what `optomech <config>` produces.  Results land under
results/<config-stem>/ next to the repository root unless --output-root
points elsewhere.

With --compare OTHER_ROOT, every CSV and .meta.json sidecar under the output
root is then checked against the file at the same relative path under
OTHER_ROOT (for instance the outputs of another checkout) and reported as
identical, differing (with the largest absolute difference between numeric
CSV cells, that difference relative to the largest magnitude in the columns
that moved, and the number of cells whose text differs, so that a -0 against
a 0 or a change of formatting still shows) or missing on either side; the exit
code is 4 if any file is not identical.  Sidecars are compared without their
"output_dir" entry, which names the root they were written to; a differing
sidecar is reported with the dotted path of each key whose value differs or
that only one side has.

The script runs the optomech package of its own checkout (its src/), not an
installed copy, so two checkouts can be compared with each other.
"""

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))  # this checkout's optomech, before any other copy

from optomech.cli import main as run_config  # noqa: E402


def _cell_differences(ours: bytes, theirs: bytes) -> str:
    """Largest |a - b| over CSV cells and the count of cells whose text differs.

    A nonzero largest difference is also given relative to the largest |cell|,
    on either side, of the columns that hold a numerically differing cell.
    Or why the files cannot be compared cellwise.
    """
    rows_a, rows_b = ours.decode().splitlines(), theirs.decode().splitlines()
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return f"{len(rows_a)} vs {len(rows_b)} lines, or different headers"
    body_a = [row.split(",") for row in rows_a[1:]]
    body_b = [row.split(",") for row in rows_b[1:]]
    worst, differing, cells, moved = 0.0, 0, 0, set()
    for cells_a, cells_b in zip(body_a, body_b):
        if len(cells_a) != len(cells_b):
            return "rows of different lengths"
        cells += len(cells_a)
        for column, (text_a, text_b) in enumerate(zip(cells_a, cells_b)):
            if text_a == text_b:
                continue
            differing += 1
            a, b = float(text_a), float(text_b)
            if a != b and not (math.isnan(a) and math.isnan(b)):
                worst = max(worst, abs(a - b))
                moved.add(column)
    relative = ""
    if worst:
        largest = max(abs(float(row[c])) for row in body_a + body_b for c in moved)
        relative = f", relative {worst / largest:.3e}"
    return (
        f"max abs difference {worst:.3e}{relative}, "
        f"{differing} of {cells} cells differ as text"
    )


def _without_output_dir(sidecar: Path) -> dict:
    data = json.loads(sidecar.read_text())
    data.pop("output_dir", None)
    return data


_MISSING = object()  # stands in for a key that only the other sidecar has


def _differing_keys(ours, theirs, prefix: str = "") -> list[str]:
    """Dotted paths at which two JSON values differ, descending into objects."""
    if not (isinstance(ours, dict) and isinstance(theirs, dict)):
        return [] if ours == theirs else [prefix]
    return [
        path
        for key in sorted(ours.keys() | theirs.keys())
        for path in _differing_keys(ours.get(key, _MISSING), theirs.get(key, _MISSING),
                                    f"{prefix}.{key}" if prefix else key)
    ]


def compare_roots(ours: Path, theirs: Path) -> int:
    """Print one line per output file; return the number not identical."""
    suffixes = (".csv", ".json")
    files = sorted(
        {p.relative_to(root) for root in (ours, theirs) for p in root.rglob("*")
         if p.is_file() and p.suffix in suffixes}
    )
    differing = 0
    for rel in files:
        a, b = ours / rel, theirs / rel
        if not (a.is_file() and b.is_file()):
            status = f"missing under {theirs if a.is_file() else ours}"
        elif a.read_bytes() == b.read_bytes() or (
            rel.suffix == ".json" and _without_output_dir(a) == _without_output_dir(b)
        ):
            print(f"identical  {rel}")
            continue
        elif rel.suffix == ".csv":
            status = _cell_differences(a.read_bytes(), b.read_bytes())
        else:
            keys = _differing_keys(_without_output_dir(a), _without_output_dir(b))
            status = f"sidecars differ at {', '.join(keys)}"
        print(f"DIFFERS    {rel}: {status}")
        differing += 1
    print(f"{len(files) - differing}/{len(files)} files identical")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config-dir",
        type=Path,
        default=REPO_ROOT / "configs",
        help="directory holding the JSON run configs",
    )
    parser.add_argument(
        "--output-root",
        type=Path,
        default=REPO_ROOT / "results",
        help="directory that receives one subdirectory per config",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        metavar="OTHER_ROOT",
        help="after the run, compare every CSV and sidecar with those under OTHER_ROOT",
    )
    args = parser.parse_args(argv)

    configs = sorted(args.config_dir.glob("*.json"))
    if not configs:
        print(f"no configs found under {args.config_dir}", file=sys.stderr)
        return 1

    failures = 0
    for config in configs:
        out_dir = args.output_root / config.stem
        print(f"== {config.name} -> {out_dir}")
        code = run_config([str(config), "--output-dir", str(out_dir)])
        if code != 0:
            print(f"   exited with code {code}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures}/{len(configs)} configs failed", file=sys.stderr)
        return 2
    print(f"all {len(configs)} configs completed")
    if args.compare is not None and compare_roots(args.output_root, args.compare):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
