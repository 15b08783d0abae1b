"""A/B of the benchmark: a base revision against this checkout, in alternating pairs.

    python tools/ab.py --base HEAD~1 --workload logreg-exact --pairs 10 --seed 1093 --seconds 30

The base revision is checked out with ``git worktree add`` into a temporary
directory (removed at the end), and both sides are byte-compiled with
``python -m compileall -q src`` before any run, so neither side's set-up
pays for compiling.  "change" is this checkout's working tree, committed or
not.  Each pair runs ``bench/run.py`` once on each side, the two sides
taking turns to go first, with the same workload, seed and seconds.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the median change, whether that change exceeds the base's
interquartile range, and in how many pairs the change was lower; then every
run's value, pair by pair.  It exits
with 1 if a run failed or if the counts (metrics in unit "count") differ
between any two runs, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def pair_order(pair: int) -> tuple[str, str]:
    """The order the two sides run in, in pair number ``pair`` (from 0)."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), the quartiles inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(results: dict[str, list[dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """The report's lines and whether both sides' runs agree, from each side's
    result lines (``bench/run.py``'s last line of output), pair by pair."""
    pairs = len(results["base"])
    lines, agree = [], True
    for side in SIDES:
        failed = [k for k, r in enumerate(results[side]) if not r["correct"]]
        if failed:
            agree = False
            lines.append(f"FAILED: {side} runs {failed} were not correct")
    lines.append(f"{'metric':<16}{'base median [q1, q3]':>36}{'change median [q1, q3]':>36}"
                 f"{'change':>9}  beyond base IQR  change lower")
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        if metric["unit"] == "count":
            distinct = sorted(set(values["base"] + values["change"]))
            if len(distinct) > 1:
                agree = False
                lines.append(f"FAILED: {name} differs between runs: {distinct}")
        q = {side: quartiles(values[side]) for side in SIDES}
        shift = q["change"][1] - q["base"][1]
        lower = sum(c < b for b, c in zip(values["base"], values["change"]))
        cells = [f"{m:.6g} [{lo:.6g}, {hi:.6g}]" for lo, m, hi in (q["base"], q["change"])]
        relative = f"{shift / q['base'][1]:+.1%}" if q["base"][1] else "n/a"
        beyond = "yes" if abs(shift) > q["base"][2] - q["base"][0] else "no"
        lines.append(f"{name:<16}{cells[0]:>36}{cells[1]:>36}{relative:>9}  {beyond:<15}  "
                     f"{lower} of {pairs}")
    lines.append("each pair, base/change:")
    for metric in end_to_end:
        name = metric["name"]
        runs = zip(*(results[side] for side in SIDES))
        lines.append(f"  {name:<15}" + " ".join(
            "/".join(f"{r['metrics'][name]['value']:.6g}" for r in pair) for pair in runs))
    return lines, agree


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in the checkout at root; its result line."""
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="vrcubic-ab-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base), args.base],
                       cwd=ROOT, check=True)
        try:
            roots = {"base": base, "change": ROOT}
            for root in roots.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                               cwd=root, check=True)
            results: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in pair_order(pair):
                    results[side].append(run_side(roots[side], args.workload, args.seed,
                                                  args.seconds))
                print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT,
                           check=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs, "
          f"base {args.base}")
    lines, agree = summarize(results, end_to_end)
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
