"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Two records are comparable only when they ran the same workload at the same
size and run length on byte-identical inputs (same sha256 for every input
file). Otherwise this prints "not comparable" with the reasons and exits 1.
Comparable records print each metric's value before and after and the
relative change; end-to-end metrics also show the bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def not_comparable(a: dict, b: dict) -> list[str]:
    reasons = [f"{key} differs: {a[key]!r} vs {b[key]!r}"
               for key in ("workload", "seed", "seconds", "tiny") if a[key] != b[key]]
    if a["inputs"] != b["inputs"]:
        reasons.append("input files differ (sha256)")
    return reasons


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    reasons = not_comparable(before, after)
    if reasons:
        print("not comparable: " + "; ".join(reasons))
        return 1
    bounds = {}
    bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
    for side, record in (("before", before), ("after", after)):
        env = record["environment"]
        print(f"{side}: commit {env['git_commit']} src {env['src_sha256'][:12]} python {env['python']} "
              f"numpy {env['numpy']} nproc {env['nproc']} cpu {env['cpu']}")
    print(f"{'metric':<28} {'before':>12} {'after':>12} {'change':>8}  bound")
    for name in ("build_rel", "build_s", "ref_s", "setup_s", "setup_raw_s", "peak_rss_mb", "failed_frac"):
        x = before[name]["median"] if isinstance(before[name], dict) else before[name]
        y = after[name]["median"] if isinstance(after[name], dict) else after[name]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        bound = f"{bounds[name]:.0%}" if name in bounds else ""
        print(f"{name:<28} {x:>12.6g} {y:>12.6g} {change:>8}  {bound}")
    for name in sorted(set(before.get("layers", {})) & set(after.get("layers", {}))):
        (x, unit), (y, _) = before["layers"][name], after["layers"][name]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{name:<28} {x:>12.6g} {y:>12.6g} {change:>8}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
