"""Compare two sets of benchmark results, metric by metric and workload by workload.

Usage: python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records ``run.py`` writes (``--results DIR``),
one per workload and seed.  For every workload and end-to-end metric in
BENCHMARK.json this prints both medians and quartiles, the pair wins (runs
with the same seed on both sides, where the change is better), and a verdict:

- ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
- ``improved``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the base's own quartile spread;
- ``unresolved``: the base's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every base run;
- ``within bound`` otherwise.

It also lists every command whose stdout sha256 (or the fitted model file's)
differs between the sides for the same seed, since a change to output bytes
must be declared.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, seed): record} for the untraced runs in ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["workload_seed"])] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, pairs, wins, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    if sign * (change_median - base_median) > bound * abs(base_median):
        return "worse"
    q1, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and sign * (base_median - change_median) > q3 - q1:
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if (q3 - q1) > bound * abs(base_median) and not all_better:
        return "unresolved"
    return "within bound"


def compare(base_runs, change_runs, metrics):
    lines = []
    workloads = sorted({w for w, _ in base_runs} & {w for w, _ in change_runs})
    header = f"{'workload':18} {'metric':14} {'base median [q1, q3]':32} {'change median [q1, q3]':32} {'wins':>7}  verdict"
    lines.append(header)
    for workload in workloads:
        base_side = {s: r for (w, s), r in base_runs.items() if w == workload}
        change_side = {s: r for (w, s), r in change_runs.items() if w == workload}
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_side.values() if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in change_side.values() if name in r["metrics"]]
            if not base or not change:
                continue
            pairs = [
                (base_side[s]["metrics"][name]["value"], change_side[s]["metrics"][name]["value"])
                for s in sorted(set(base_side) & set(change_side))
            ]
            lower = metric["better"] == "lower"
            wins = sum((c < b) if lower else (c > b) for b, c in pairs)
            cells = []
            for values in (base, change):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]")
            lines.append(
                f"{workload:18} {name:14} {cells[0]:32} {cells[1]:32} {wins:>3}/{len(pairs):<3}  "
                f"{verdict(base, change, pairs, wins, metric['bound'], lower)}"
            )
        for label, side in (("base", base_side), ("change", change_side)):
            bad = [s for s, r in side.items() if not r["correct"]]
            if bad:
                lines.append(f"{workload:18} {label} runs not correct for seeds {sorted(bad)}")
        for seed in sorted(set(base_side) & set(change_side)):
            before, after = (
                {"fit (model file)": side[seed]["model_sha256"]}
                | {c["label"]: c["stdout_sha256"] for c in side[seed]["commands"]}
                for side in (base_side, change_side)
            )
            changed = sorted(label for label in before if before[label] != after.get(label))
            if changed:
                lines.append(f"{workload:18} seed {seed}: stdout bytes changed for {', '.join(changed)}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    base_runs, change_runs = load(argv[0]), load(argv[1])
    if not base_runs or not change_runs:
        print("compare: each directory needs at least one *-trace0.json record", file=sys.stderr)
        return 1
    print("\n".join(compare(base_runs, change_runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
