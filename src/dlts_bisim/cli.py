"""Command-line front end and the DFA-minimization application.

Subcommands:
  bisim         coarsest bisimulation of a dlts file, canonical partition out
  minimize-dfa  minimal deterministic automaton (quotient after removing
                useless states), report on stderr
  gen           seeded random instance in dlts/dfa format
  check         cross-check the engine against the set-based fixpoint
  bench         scan-counter and timing table over a size ladder

Artifacts go to stdout, reports and diagnostics to stderr.  Exit codes:
0 ok, 1 parse/validation failure, 2 nondeterministic input, 3 check mismatch.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import and_
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .bisim import ScanStats, dbisim, init_refine
from .lts import (
    Dfa,
    LtsError,
    NondeterminismError,
    NormalizedDlts,
    format_dfa,
    format_dlts,
    format_partition,
    normalize,
    parse_dfa,
    parse_lts,
    parse_partition,
)
from .gen import GenConfig, gen_random_dfa, gen_random_dlts, instance_stream
from .oracle import canonical_view, is_bisimulation, naive_fixpoint
from .partition import PartitionError, RefinablePartition

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONDET = 2
EXIT_MISMATCH = 3


def _scans_per_transition(n: int) -> int:
    # floor(log2 n) + 1, the most scans of one transition; n.bit_length() is exact.
    return max(n.bit_length(), 1)


@dataclass
class MinimizeReport:
    """Sizes and work counters for one minimization run."""

    n: int
    k: int
    m: int
    useless_removed: int
    final_blocks: int
    transitions_scanned: int
    split_calls: int
    wall_time_s: float

    def summary_lines(self) -> list[str]:
        return [
            f"input: n={self.n} k={self.k} m={self.m}",
            f"useless states removed: {self.useless_removed}",
            f"final blocks: {self.final_blocks}",
            f"transitions scanned: {self.transitions_scanned}"
            f" (split calls: {self.split_calls})",
            f"wall time: {self.wall_time_s:.6f}s",
        ]


def _closure(n: int, roots: Iterable[int], step: Callable[[int], Iterable[int]]) -> list[bool]:
    """Marks the states reachable from `roots` through `step(q)`."""
    marked = [False] * n
    stack = list(roots)
    for q in stack:
        marked[q] = True
    while stack:
        for r in step(stack.pop()):
            if not marked[r]:
                marked[r] = True
                stack.append(r)
    return marked


def _empty_dfa() -> Dfa:
    return Dfa(dlts=NormalizedDlts.from_columns(0, [], [], [], [], []), initial=None, finals=set())


def minimize_dfa(dfa: Dfa, stats: ScanStats | None = None) -> tuple[Dfa, MinimizeReport]:
    """Minimal automaton for the same language, plus a work report.

    Useless states (unreachable from the initial state, or unable to reach a
    final state) are removed first; the remaining states are then merged by
    the coarsest bisimulation refining the finals/non-finals partition.  An
    empty language yields the canonical empty automaton.  Every step works
    on state indices; each block of the result is named after its lowest
    useful state.
    """
    started = time.perf_counter()
    T = dfa.dlts
    if stats is None:
        stats = ScanStats()

    def report(final_blocks: int, useful_count: int) -> MinimizeReport:
        return MinimizeReport(
            n=T.n,
            k=T.k,
            m=T.m,
            useless_removed=T.n - useful_count,
            final_blocks=final_blocks,
            transitions_scanned=stats.transitions_scanned,
            split_calls=stats.split_calls,
            wall_time_s=time.perf_counter() - started,
        )

    if dfa.initial is None:
        return _empty_dfa(), report(0, 0)

    in_src, in_off = T.in_src, T.in_offsets
    dst = T.destinations()
    successors: list[list[int]] = [[] for _ in range(T.n)]
    for src, d in zip(in_src, dst):
        successors[src].append(d)
    reachable = _closure(T.n, [dfa.initial], successors.__getitem__)
    del successors
    coreachable = _closure(T.n, dfa.finals, lambda q: in_src[in_off[q] : in_off[q + 1]])
    useful = list(map(and_, reachable, coreachable))
    if not useful[dfa.initial]:
        return _empty_dfa(), report(0, sum(useful))

    # Renumbering the useful states in their original order is monotone, so
    # the kept transitions stay sorted by destination.
    renumber = list(accumulate(useful, initial=0))  # useful states before each state
    keep = list(map(and_, map(useful.__getitem__, in_src), map(useful.__getitem__, dst)))
    sub = NormalizedDlts.from_columns(
        renumber[-1],
        list(map(renumber.__getitem__, compress(in_src, keep))),
        list(compress(T.in_letter, keep)),
        list(map(renumber.__getitem__, compress(dst, keep))),
        list(compress(T.state_names, useful)),
        T.letter_names,
    )
    del dst, keep
    finals_sub = {renumber[q] for q in dfa.finals if useful[q]}
    blocks = [block for block in (finals_sub, set(range(sub.n)) - finals_sub) if block]
    canonical = dbisim(sub, RefinablePartition.from_initial(sub.n, blocks), stats).to_canonical()

    block_of = [0] * sub.n
    is_first = [False] * sub.n
    for i, members in enumerate(canonical):
        is_first[members[0]] = True
        for q in members:
            block_of[q] = i
    # Each block moves like its first member.  The quotient's transitions go
    # in (destination, source, letter) order, which the stable destination
    # sort keeps.
    rep = list(map(is_first.__getitem__, sub.in_src))
    q_src = list(map(block_of.__getitem__, compress(sub.in_src, rep)))
    q_letter = list(compress(sub.in_letter, rep))
    q_dst = list(map(block_of.__getitem__, compress(sub.destinations(), rep)))
    nb, k = len(canonical), sub.k
    rank = [(d * nb + s) * k + a for s, a, d in zip(q_src, q_letter, q_dst)]
    order = sorted(range(len(rank)), key=rank.__getitem__)
    result = Dfa(
        dlts=NormalizedDlts.from_columns(
            nb,
            list(map(q_src.__getitem__, order)),
            list(map(q_letter.__getitem__, order)),
            list(map(q_dst.__getitem__, order)),
            [sub.state_names[members[0]] for members in canonical],
            sub.letter_names,
        ),
        initial=block_of[renumber[dfa.initial]],
        finals={i for i, members in enumerate(canonical) if members[0] in finals_sub},
    )
    return result, report(len(canonical), renumber[-1])


def bench_rows(
    sizes: Sequence[int],
    seed: int,
    k: int = 2,
    density: float = 1.0,
) -> list[dict[str, float | int]]:
    """One measurement row per size: work counters next to the scan bound.

    Each instance starts from a random two-block partition (the shape DFA
    minimization produces); with the one-block partition a complete instance
    is trivially its own coarsest bisimulation and nothing gets scanned.
    """
    rows: list[dict[str, float | int]] = []
    for n in sizes:
        cfg = GenConfig(n=n, k=k, density=density, seed=seed + n, max_blocks=1)
        T, _trivial = gen_random_dlts(cfg)
        rng = random.Random(cfg.seed + 1)
        half = {q for q in range(T.n) if rng.random() < 0.5}
        blocks = [b for b in (half, set(range(T.n)) - half) if b]
        p_init = RefinablePartition.from_initial(T.n, blocks)
        stats = ScanStats()
        started = time.perf_counter()
        dbisim(T, p_init, stats)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "n": T.n,
                "m": T.m,
                "transitions_scanned": stats.transitions_scanned,
                "scan_bound": T.m * _scans_per_transition(T.n),
                "seconds": round(elapsed, 6),
            }
        )
    return rows


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LtsError(f"cannot read {path}: {exc}") from exc


def cmd_bisim(args: argparse.Namespace) -> int:
    T = normalize(parse_lts(_read(args.file)))
    if args.partition:
        blocks = parse_partition(_read(args.partition), T.state_names)
    else:
        blocks = [set(range(T.n))] if T.n else []
    p_init = RefinablePartition.from_initial(T.n, blocks)
    stats = ScanStats()
    result = dbisim(T, p_init, stats)
    sys.stdout.write(format_partition(result.to_canonical(), T.state_names))
    if stats.per_transition_counts is not None:  # allocated by debug runs only
        print(
            f"blocks: {stats.blocks_final}  transitions scanned: {stats.transitions_scanned}"
            f"  bound: {T.m * _scans_per_transition(T.n)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_minimize_dfa(args: argparse.Namespace) -> int:
    dfa = parse_dfa(_read(args.file))
    # under the debug env var, dbisim itself allocates per-transition counters
    minimal, report = minimize_dfa(dfa)
    sys.stdout.write(format_dfa(minimal))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(n=args.n, k=args.k, density=args.density, seed=args.seed)
    if args.dfa:
        sys.stdout.write(format_dfa(gen_random_dfa(cfg)))
    else:
        T, _p = gen_random_dlts(cfg)
        sys.stdout.write(format_dlts(T))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    checked = 0
    for cfg, T, p_view in instance_stream(args.count, args.n, args.k, args.density, args.seed):
        stats = ScanStats.detailed(T.m)
        p_init = RefinablePartition.from_initial(T.n, p_view)
        result = dbisim(T, p_init, stats)
        got = result.to_canonical()
        want = canonical_view(naive_fixpoint(T, p_view))

        failure = None
        if got != want:
            failure = "partition differs from the set-based fixpoint"
        elif not is_bisimulation([set(b) for b in got], T):
            failure = "result is not a bisimulation"
        elif not _refines(got, [set(b) for b in init_refine(T, p_init).to_canonical()]):
            failure = "result does not refine the letter-signature pre-refinement"
        elif not _refines(got, p_view):
            failure = "result does not refine the initial partition"
        if failure is None:
            bound = _scans_per_transition(T.n)
            worst = max(stats.per_transition_counts, default=0)
            if worst > bound:
                failure = f"a transition was scanned {worst} times (bound {bound})"
        if failure is not None:
            print(
                f"mismatch on instance seed={cfg.seed} n={cfg.n} k={cfg.k}"
                f" density={cfg.density} max_blocks={cfg.max_blocks}: {failure}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        checked += 1
    print(f"checked {checked} instances: ok", file=sys.stderr)
    return EXIT_OK


def _refines(fine: list[list[int]], coarse: list[set[int]]) -> bool:
    container = {}
    for i, block in enumerate(coarse):
        for q in block:
            container[q] = i
    return all(len({container[q] for q in block}) == 1 for block in fine)


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    rows = bench_rows(sizes, args.seed, k=args.k, density=args.density)
    columns = ["n", "m", "transitions_scanned", "scan_bound", "seconds"]
    if args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    else:
        print("  ".join(f"{c:>20}" for c in columns))
        for row in rows:
            print("  ".join(f"{row[c]:>20}" for c in columns))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # nondeterministic input here, so route usage problems to exit 1.
    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dlts-bisim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bisim = sub.add_parser("bisim", help="coarsest bisimulation of a dlts file")
    p_bisim.add_argument("file")
    p_bisim.add_argument("--partition", help="initial partition file (default: one block)")
    p_bisim.set_defaults(func=cmd_bisim)

    p_min = sub.add_parser("minimize-dfa", help="minimize a deterministic automaton")
    p_min.add_argument("file")
    p_min.set_defaults(func=cmd_minimize_dfa)

    p_gen = sub.add_parser("gen", help="emit a seeded random instance")
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--dfa", action="store_true", help="emit a dfa instead of a dlts")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="cross-check against the set-based fixpoint")
    p_check.add_argument("--count", type=int, default=1000)
    p_check.add_argument("--n", type=int, default=50, help="max state count")
    p_check.add_argument("--k", type=int, default=4, help="max alphabet size")
    p_check.add_argument("--density", type=float, default=None,
                         help="transition density (default: draw from 0.2/0.5/0.9)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="work counters and timings over a size ladder")
    p_bench.add_argument("--sizes", required=True, help="comma-separated state counts")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--k", type=int, default=2)
    p_bench.add_argument("--density", type=float, default=1.0)
    p_bench.add_argument("--csv", action="store_true", help="CSV instead of a table")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NondeterminismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONDET
    except (LtsError, PartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
