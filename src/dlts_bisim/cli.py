"""Command-line front end and the DFA-minimization application.

Subcommands:
  bisim         coarsest bisimulation of a dlts file, canonical partition out
  minimize-dfa  minimal deterministic automaton (quotient after removing
                useless states), report on stderr
  gen           seeded random instance in dlts/dfa format
  check         cross-check the engine against the set-based fixpoint
  bench         scan-counter and timing table over a size ladder, and a
                JSON file with the worst-case families added

Artifacts go to stdout, reports and diagnostics to stderr.  Exit codes:
0 ok, 1 parse/validation failure, 2 nondeterministic input, 3 check mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import add, and_, floordiv, mod, mul, not_, sub
from pathlib import Path
from typing import Sequence

from .bisim import ScanStats, _refine, _scans_per_transition, dbisim, debug_enabled
from .lts import (
    Dfa,
    LtsError,
    NondeterminismError,
    NormalizedDlts,
    RawLts,
    format_dfa,
    format_dlts,
    format_partition,
    normalize,
    parse_dfa,
    parse_lts,
    parse_partition,
)
from .gen import (
    GenConfig,
    cyclic_automaton,
    de_bruijn_word,
    fibonacci_word,
    gen_random_dfa,
    gen_random_dlts,
    instance_stream,
)
from .partition import PartitionError, RefinablePartition

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONDET = 2
EXIT_MISMATCH = 3


@dataclass
class MinimizeReport:
    """Sizes and work counters for one minimization run.

    `transitions_scanned` and `split_calls` are the `ScanStats` counters of
    the refinement: "split calls" counts the letter buckets that the loop
    splits by, which leave out sources already in a one-state block.
    """

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


def _empty_dfa() -> Dfa:
    return Dfa(dlts=normalize(RawLts([], [], [])), initial=None, finals=set())


def minimize_dfa(dfa: Dfa, stats: ScanStats | None = None) -> tuple[Dfa, MinimizeReport]:
    """Minimal automaton for the same language, plus a work report.

    Useless states (unreachable from the initial state, or unable to reach a
    final state) are removed first; the remaining states are then merged by
    the coarsest bisimulation refining the finals/non-finals partition.  An
    empty language yields the canonical empty automaton.  Every step works
    on flat index arrays: each block of the result is named after its lowest
    useful state, blocks are numbered in the order of those states, and the
    result's transitions are those of each block's lowest state.  At its
    peak the run holds the trimmed system, the refinement's partition, one
    block number per state and the result's columns; no list per block.
    Per-transition counters in `stats` are indexed like the transitions of
    `dfa.dlts`; removed transitions are never scanned.
    """
    started = time.perf_counter()
    T = dfa.dlts
    if stats is None:
        stats = ScanStats()
    counts = stats.per_transition_counts
    if counts is not None and len(counts) != T.m:
        raise ValueError(f"{len(counts)} per-transition counters for a DFA with {T.m} transitions")

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

    # Forward from the initial state, then backward from the reachable finals
    # through reachable states only: a state that reaches a final one from a
    # reachable state is itself reachable, so the second walk finds exactly
    # the useful states.  Each walk's list grows while it is walked.
    in_src, in_off = T.in_src, T.in_offsets
    dst = T.destinations()
    successors: list[list[int]] = [[] for _ in range(T.n)]
    deque(map(list.append, map(successors.__getitem__, in_src), dst), 0)
    reachable = [False] * T.n
    reachable[dfa.initial] = True
    found = [dfa.initial]
    for q in found:
        for r in successors[q]:
            if not reachable[r]:
                reachable[r] = True
                found.append(r)
    del successors
    useful = [False] * T.n
    found = [q for q in dfa.finals if reachable[q]]
    for q in found:
        useful[q] = True
    for q in found:
        for r in in_src[in_off[q] : in_off[q + 1]]:
            if reachable[r] and not useful[r]:
                useful[r] = True
                found.append(r)
    del reachable, found
    if not useful[dfa.initial]:
        return _empty_dfa(), report(0, 0)  # no reachable state reaches a final one

    # Renumbering the useful states in their original order is monotone, so
    # the kept transitions stay sorted by destination: those into useful
    # state q start after the kept ones before in_off[q].
    renumber = list(accumulate(useful, initial=0))  # useful states before each state
    keep = list(map(and_, map(useful.__getitem__, in_src), map(useful.__getitem__, dst)))
    kept_before = list(accumulate(keep, initial=0))  # kept transitions before each transition
    trimmed = NormalizedDlts._from_sorted(
        list(map(renumber.__getitem__, compress(in_src, keep))),
        list(compress(T.in_letter, keep)),
        [*map(kept_before.__getitem__, compress(in_off, useful)), kept_before[-1]],
        list(compress(T.state_names, useful)),
        T.letter_names,
    )
    kept = list(compress(range(T.m), keep)) if counts is not None else None  # trimmed's order
    initial, useful_count = renumber[dfa.initial], renumber[-1]
    finals = sorted(renumber[q] for q in dfa.finals if useful[q])
    del dst, useful, renumber, keep, kept_before
    is_final = [False] * useful_count
    for q in finals:
        is_final[q] = True
    rest = list(compress(range(useful_count), map(not_, is_final)))
    del is_final
    p_init = RefinablePartition.from_initial(useful_count, [b for b in (finals, rest) if b])
    del rest
    if counts is not None:
        stats.per_transition_counts = [0] * trimmed.m
    p = dbisim(trimmed, p_init, stats)
    del p_init
    if counts is not None:
        for t, c in zip(kept, stats.per_transition_counts):
            counts[t] += c
        stats.per_transition_counts = counts
        del kept

    # The quotient: blocks are numbered in the order of their lowest states,
    # which name them, and each block moves like its lowest state.
    lowest: dict[int, int] = {}  # block id -> its lowest state, in ascending order
    deque(map(lowest.setdefault, p.block_of, count()), 0)
    nb, k = len(lowest), trimmed.k
    number = [0] * nb  # block id -> block number; ids run over 0..nb-1
    deque(map(number.__setitem__, lowest, count()), 0)
    block_no = list(map(number.__getitem__, p.block_of))
    del p, number
    is_lowest = [False] * useful_count
    for q in lowest.values():
        is_lowest[q] = True
    names = list(map(trimmed.state_names.__getitem__, lowest.values()))
    del lowest
    # The rows of the lowest states, as int keys d * stride + s * k + a in
    # block numbers: one sort puts them in (destination, source, letter) order.
    stride = nb * k
    rows = list(map(is_lowest.__getitem__, trimmed.in_src))
    high = map(mul, block_no, repeat(stride))  # d * stride for each state's block d
    in_degrees = map(sub, trimmed.in_offsets[1:], trimmed.in_offsets)
    into = list(compress(chain.from_iterable(map(repeat, high, in_degrees)), rows))
    del high, in_degrees
    per_dst = Counter(into)
    offsets = list(accumulate(
        map(per_dst.get, map(mul, range(nb), repeat(stride)), repeat(0)), initial=0))
    del per_dst
    low = list(map(mul, block_no, repeat(k)))  # s * k for each state's block s
    keys = map(add, into, map(low.__getitem__, compress(trimmed.in_src, rows)))
    keys = sorted(map(add, keys, compress(trimmed.in_letter, rows)))
    letter_names = trimmed.letter_names
    del trimmed, is_lowest, rows, into, low
    q_src = list(map(mod, map(floordiv, keys, repeat(k)), repeat(nb)))
    q_letter = list(map(mod, keys, repeat(k)))
    del keys
    result = Dfa(
        dlts=NormalizedDlts._from_sorted(q_src, q_letter, offsets, names, letter_names),
        initial=block_no[initial],
        finals=set(map(block_no.__getitem__, finals)),
    )
    return result, report(nb, useful_count)


def _bench_row(family: str, T: NormalizedDlts, blocks: list, density: float,
               seed: int | None) -> dict[str, float | int | str | None]:
    """Refine `T` from `blocks` once: one row of `bench`'s fixed schema, but
    for its µs per scan, which `bench --json` adds."""
    p_init = RefinablePartition.from_initial(T.n, blocks)
    stats = ScanStats()
    started = time.perf_counter()
    dbisim(T, p_init, stats)
    elapsed = time.perf_counter() - started
    return {
        "family": family,
        "n": T.n,
        "m": T.m,
        "k": T.k,
        "density": density,
        "seed": seed,
        "transitions_scanned": stats.transitions_scanned,
        "scan_bound": T.m * _scans_per_transition(T.n),
        "seconds": round(elapsed, 6),
    }


def bench_rows(
    sizes: Sequence[int],
    seed: int,
    k: int = 2,
    density: float = 1.0,
) -> list[dict[str, float | int | str | None]]:
    """One measurement row per size: work counters next to the scan bound.

    Each instance starts from a random two-block partition (the shape DFA
    minimization produces); with the one-block partition a complete instance
    is trivially its own coarsest bisimulation and nothing gets scanned.
    """
    rows = []
    for n in sizes:
        cfg = GenConfig(n=n, k=k, density=density, seed=seed + n, max_blocks=1)
        T, _trivial = gen_random_dlts(cfg)
        rng = random.Random(cfg.seed + 1)
        half = {q for q in range(T.n) if rng.random() < 0.5}
        blocks = [b for b in (half, [q for q in range(T.n) if q not in half]) if b]
        rows.append(_bench_row("random", T, blocks, density, seed))
    return rows


# The worst-case families that `bench --json` adds to its ladder: Fibonacci
# words keep the scans near n log2 n, and de Bruijn words scan one transition
# floor(log2 n) times (see `gen`).
_FAMILY_WORDS = [("fibonacci", fibonacci_word, 28657), ("fibonacci", fibonacci_word, 121393),
                 ("de-bruijn", de_bruijn_word, 14), ("de-bruijn", de_bruijn_word, 17)]


def _family_rows() -> list[dict[str, float | int | str | None]]:
    """One `bench` row per worst-case family word of `_FAMILY_WORDS`, each a
    complete unary cycle refined from its finals and non-finals."""
    return [_bench_row(family, *cyclic_automaton(word(size)), 1.0, None)
            for family, word, size in _FAMILY_WORDS]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LtsError(f"cannot read {path}: {exc}") from exc


def cmd_bisim(args: argparse.Namespace) -> int:
    T = parse_lts(_read(args.file))
    if args.partition:
        blocks = parse_partition(_read(args.partition), T.state_names)
    else:
        blocks = [range(T.n)] if T.n else []
    p_init = RefinablePartition.from_initial(T.n, blocks)
    stats = ScanStats()
    result = dbisim(T, p_init, stats)
    sys.stdout.write(format_partition(result.to_canonical(), T.state_names))
    if debug_enabled():
        print(
            f"blocks: {stats.blocks_final}  transitions scanned: {stats.transitions_scanned}"
            f"  bound: {T.m * _scans_per_transition(T.n)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_minimize_dfa(args: argparse.Namespace) -> int:
    dfa = parse_dfa(_read(args.file))
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
        try:
            # One run, certified with the fixpoint at every n.
            _refine(T, RefinablePartition.from_initial(T.n, p_view), None, T.n)
        except AssertionError as exc:
            print(
                f"mismatch on instance seed={cfg.seed} n={cfg.n} k={cfg.k}"
                f" density={cfg.density} max_blocks={cfg.max_blocks}: {exc}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        checked += 1
    print(f"checked {checked} instances: ok", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    tokens = args.sizes.split(",")
    if not all(tok.isascii() and tok.isdigit() and int(tok) > 0 for tok in tokens):
        raise ValueError(f"--sizes must be comma-separated positive integers, got {args.sizes!r}")
    sizes = list(map(int, tokens))
    rows = bench_rows(sizes, args.seed, k=args.k, density=args.density)
    if args.json:
        written = []
        for row in rows + _family_rows():
            scans = row["transitions_scanned"]
            written.append({**row, "us_per_scan": round(row["seconds"] * 1e6 / scans, 4) if scans else None})
        report = {"python": "%d.%d.%d" % sys.version_info[:3], "rows": written}
        try:
            Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.json}: {exc}") from exc
    columns = ["n", "m", "transitions_scanned", "scan_bound", "seconds"]
    if args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns, extrasaction="ignore")
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
    p_bench.add_argument("--json", metavar="PATH",
                         help="also write the rows and the worst-case family rows to PATH")
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
