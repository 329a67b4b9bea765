"""Compare two sets of saved benchmark results metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [NEW.json ...]

Each file is a document ``run.py`` wrote under ``perfbench/out/``.  Each
side should hold several runs of one workload with different seeds;
every metric is compared by its median over each side, as the bounds in
``BENCHMARK.json`` are meant.  Results whose codec tiers differ
(``fastpath_enabled()`` or any ``REPRO_*`` setting) are refused with
exit code 2: they ran different code, so their numbers do not compare.
So are sides that mix workloads or trace modes.  Otherwise each metric
prints with its change against the base; for end-to-end metrics a
worsening beyond the bound is marked and makes the exit code 1.  One
run a side is only a first look: the machine's speed drifts, so a
claimed change needs several runs a side, best taken alternately.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _kind(docs: Sequence[dict]) -> tuple:
    """The one ``(tier, workload, trace)`` all ``docs`` share, or None."""
    kinds = {
        (json.dumps(doc["stamp"]["tier"], sort_keys=True), doc["workload"],
         doc["trace"])
        for doc in docs
    }
    return kinds.pop() if len(kinds) == 1 else None


def compare(base: Sequence[dict], new: Sequence[dict], spec: dict) -> tuple:
    """``(lines, status)``; status 2 refuses, 1 marks a regression."""
    base_kind, new_kind = _kind(base), _kind(new)
    if base_kind is None or new_kind is None:
        return ["refused: one side mixes tiers, workloads or trace modes"], 2
    if base_kind[0] != new_kind[0]:
        return [
            "refused: codec tiers differ",
            f"  base {base_kind[0]}",
            f"  new  {new_kind[0]}",
        ], 2
    if base_kind[1:] != new_kind[1:]:
        return ["refused: different workloads or trace modes"], 2
    rules = {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    lines: List[str] = [f"medians of {len(base)} base and {len(new)} new runs"]
    status = 0
    for name, cell in base[0]["metrics"].items():
        old = statistics.median(doc["metrics"][name]["value"] for doc in base)
        values = [doc["metrics"].get(name, {}).get("value") for doc in new]
        if None in values:
            lines.append(f"{name}: missing from a new result")
            status = 1
            continue
        value = statistics.median(values)
        change = (value - old) / old if old else 0.0
        rule = rules.get(name, {})
        worse = change if rule.get("better") == "lower" else -change
        mark = ""
        if "bound" in rule and worse > rule["bound"]:
            mark = f"  WORSE than bound {rule['bound']:.0%}"
            status = 1
        lines.append(
            f"{name}: {old:.6g} -> {value:.6g} {cell['unit']} "
            f"({change:+.1%}){mark}"
        )
    return lines, status


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, new = argv[:split], argv[split + 1:]
    if not base or not new:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    lines, status = compare([load(p) for p in base], [load(p) for p in new],
                            spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
