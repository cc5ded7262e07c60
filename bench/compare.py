"""Compare two benchmark results files, metric by metric.

Usage, from the repository root::

    python3 bench/compare.py BASE.json CHANGE.json

For each workload and end-to-end metric it prints both sides' median,
quartiles and sample count, the change in the median, and a verdict:

``worse``
    the change's median is worse than the base's by more than the metric's
    bound in ``BENCHMARK.json``;
``better``
    the change wins at least nine tenths of the (base, change) pairs and the
    medians differ by more than the base's interquartile range;
``unresolved``
    the base's own spread (IQR over median) is wider than the bound, so no
    regression can be ruled out -- unless every change run beats every base
    run, which counts as ``better``;
``unchanged``
    otherwise.

Runs of the same seed must also agree on every output fingerprint and
modelled metric.  Exits 1 when any metric is ``worse`` or ``unresolved`` or
any output differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from bench.run import summarize  # noqa: E402

#: Share of pairs the change must win for ``better``.
WIN_SHARE = 0.9


def verdict(base: List[float], change: List[float], bound: float, better: str) -> str:
    """The verdict for one metric; ``better`` is ``"higher"`` or ``"lower"``."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = summarize(base), summarize(change)
    scale = abs(b["median"])
    iqr = b["q3"] - b["q1"]
    if sign > 0:
        beats_all = min(change) > max(base)
    else:
        beats_all = max(change) < min(base)
    if iqr / scale > bound:
        return "better" if beats_all else "unresolved"
    gain = sign * (c["median"] - b["median"]) / scale
    if gain < -bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if gain > 0 and wins >= WIN_SHARE * len(pairs) and abs(c["median"] - b["median"]) > iqr:
        return "better"
    return "unchanged"


def _cell(values: List[float]) -> str:
    s = summarize(values)
    return f"{s['median']:.6g} [{s['q1']:.6g}..{s['q3']:.6g}] n={s['n']}"


def compare(base: dict, change: dict, spec: dict) -> List[str]:
    """Rows of the comparison; the last element of each row is its verdict."""
    same_inputs = base["seed"] == change["seed"] and base["quick"] == change["quick"]
    rows = []
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        old, new = base["workloads"][name], change["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            xs, ys = old["samples"][key], new["samples"][key]
            if not xs or not ys:
                rows.append([name, key, "-", "-", "-", "unresolved"])
                continue
            delta = summarize(ys)["median"] / summarize(xs)["median"] - 1.0
            rows.append(
                [name, key, _cell(xs), _cell(ys), f"{delta:+.1%}",
                 verdict(xs, ys, metric["bound"], metric["better"])]
            )
        if same_inputs and (old["fingerprint"] != new["fingerprint"] or old["model"] != new["model"]):
            rows.append([name, "output", old["fingerprint"], new["fingerprint"], "", "differs"])
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 bench/compare.py BASE.json CHANGE.json", file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, change, spec)
    header = ["workload", "metric", "base median [q1..q3]", "change median [q1..q3]",
              "change", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    bad = [row for row in rows if row[-1] in ("worse", "unresolved", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
