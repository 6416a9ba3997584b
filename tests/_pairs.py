"""Alternating `perfbench` pairs: a git revision against the working tree.

    python tests/_pairs.py <revision> [--pairs 10] [--seconds 20] [--seed 1]
                           [--workload refine-random ...]

extracts `<revision>` with `git archive` into a temporary directory, then runs
`perfbench/run.py --trace 0` once on each side per pair and workload, each in its
own process, the revision first in even pairs and the working tree first in odd
ones.  Every run prints one line.  At the end, for each workload and each
end-to-end metric of `BENCHMARK.json`, it prints each side's median and
quartiles and the pairs that the working tree won (ties count for neither
side), and the failed jobs of each side.  A line is flagged `WORSE` when the
working tree's median is worse than the revision's by more than the metric's
`bound` in `BENCHMARK.json`, and `UNRESOLVED` when the revision's own quartiles
span more than that bound of its median, so that the pairs cannot tell a change
within the bound from noise, unless every run of the working tree reads better
than every run of the revision; failed jobs are flagged `WORSE` when the working
tree fails a larger share.  The last line counts the flags.  It needs only the
standard library and git, and it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(revision: str, into: Path) -> None:
    """The files of `revision` under `into`, as `git archive` writes them."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced `perfbench` run of the checkout at `root`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def spread(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}–{q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    sides = ("before", "after")
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.revision, Path(tmp))
        roots = {"before": Path(tmp), "after": ROOT}
        results = {(w, side): [] for w in workloads for side in sides}
        for i in range(args.pairs):
            for w in workloads:
                for side in sides if i % 2 == 0 else sides[::-1]:
                    result = run(roots[side], w, args.seed, args.seconds)
                    results[w, side].append(result)
                    shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                     for m in metrics)
                    print(f"pair {i} {w} {side}: {shown} failed={result['failed']}/"
                          f"{result['attempted']}", flush=True)
    print(f"\n{args.revision} (before) against the working tree (after), seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds:g} s; median [quartiles]")
    worse = unresolved = 0
    for w in workloads:
        before, after = results[w, "before"], results[w, "after"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            old = [r["metrics"][name]["value"] for r in before]
            new = [r["metrics"][name]["value"] for r in after]
            sign = 1 if m["better"] == "higher" else -1
            won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            change = statistics.median(new) / statistics.median(old) - 1
            q1, q2, q3 = quartiles(old)
            flags = ""
            if sign * change < -bound:
                worse += 1
                flags += f"  WORSE than the {bound:.0%} bound"
            if q3 - q1 > bound * abs(q2) and not all(sign * (b - a) > 0 for a in old for b in new):
                unresolved += 1
                flags += f"  UNRESOLVED: before's quartiles span more than {bound:.0%}"
            print(f"{w:14} {name:14} {spread(old):34} {spread(new):34} {change:+7.1%} "
                  f"won {won} of {len(old)}{flags}")
        failed = [sum(r["failed"] for r in side) for side in (before, after)]
        attempted = [sum(r["attempted"] for r in side) for side in (before, after)]
        more_failed = failed[1] * attempted[0] > failed[0] * attempted[1]
        worse += more_failed
        print(f"{w:14} failed jobs    {failed[0]}/{attempted[0]} before, {failed[1]}/{attempted[1]} after"
              + ("  WORSE" if more_failed else ""))
    print(f"{worse} lines worse than their bound, {unresolved} unresolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
