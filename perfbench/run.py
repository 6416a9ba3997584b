"""Benchmark of dlts-bisim: seeded, checked workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload refine-random --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One invocation measures one workload in its own process: it imports the
package from `src/`, builds a small seeded pool of inputs (set-up, timed
several times, median reported), warms up, then runs jobs one after another
in a single thread for `--seconds` seconds, cycling over the pool and
collecting garbage between jobs outside the timed region.  Afterwards every
pool instance is checked against an independent answer (never timed), and
every job's output is compared with the checked output.

Times in the end-to-end metrics are calibrated: on a shared host, other
tenants change this process's speed by 20-40 % within minutes, in CPU time
as much as in wall time.  A fixed reference kernel runs between jobs (and
around each set-up), and each time is reported as measured * REFERENCE_S /
(the kernel's time next to it): the seconds it would take at the kernel's
nominal speed.  Raw times are printed on the lines before the result.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` it reports per-layer metrics from spans around the package's
public functions (untraced and traced jobs alternate, so the tracing
overhead is measured too), with allocation peaks from a separate tracemalloc
pass.  Spans are written to perfbench/out/.  `--workload all` runs every
workload in a fresh child process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import checker
import generators as gen
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

POOL_SIZE = 3
SETUP_REPEATS = 5
MIN_JOBS = 3
# Nominal duration of one Reference.run(): the unit that calibrated times
# are expressed in, close to the kernel's time on an unloaded machine.
REFERENCE_S = 0.1


@dataclass
class Input:
    data: object  # what the program receives
    m: int  # input transitions
    nbytes: int  # input text size; 0 when the input is not text


@dataclass
class Job:
    instance: int
    wall_s: float
    cpu_s: float
    digest: str
    traced: bool = False
    ref: tuple[float, float] = (0.0, 0.0)  # reference kernel wall and CPU s around the job


class _Cell:
    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right
        self.marked = 0


class Reference:
    """A fixed pure-Python kernel whose speed tracks the machine's current speed.

    It does what the refinement engine does most: swaps in a permutation
    array kept in step with its inverse, and counter updates on small
    objects.  Timed next to the jobs under changing host load, this mix
    followed the speed of all three workloads' jobs best; a kernel built on
    `str.split` and dict interning followed it worst, even for the
    parse-heavy jobs.  It keeps nothing alive after it returns and does not
    call the package, so its time depends neither on the package nor on the
    size of the heap.
    """

    SIZE = 20000

    def __init__(self):
        self.order = list(range(self.SIZE))
        random.Random(0).shuffle(self.order)

    def run(self) -> int:
        n = self.SIZE
        perm = list(self.order)
        pos = [0] * n
        for i, q in enumerate(perm):
            pos[q] = i
        cells = [_Cell(i, i + 3) for i in range(0, 3 * n // 2, 3)]
        h = 0
        for r in range(20):
            for x in range(n):
                i = pos[x]
                j = (i * 7 + r) % n
                y = perm[j]
                perm[i], perm[j] = y, x
                pos[x], pos[y] = j, i
                h += i
            for cell in cells:
                cell.marked += 1
                h += cell.right - cell.left + cell.marked
                if cell.marked > 3:
                    cell.marked = 0
        return h

    def measure(self) -> tuple[float, float]:
        gc.collect()
        w0, c0 = perf_counter(), process_time()
        self.run()
        c1, w1 = process_time(), perf_counter()
        return w1 - w0, c1 - c0


def _digest(output) -> str:
    text = output if isinstance(output, str) else repr(output)
    return hashlib.sha1(text.encode()).hexdigest()


def _scan_error(stats, n: int, m: int) -> str | None:
    """Checks the paper's bound: no transition scanned more than floor(log2 n) + 1 times."""
    per_transition = max(n.bit_length(), 1)
    worst = max(stats.per_transition_counts, default=0)
    if worst > per_transition:
        return f"a transition was scanned {worst} times (bound {per_transition})"
    if stats.transitions_scanned > m * per_transition:
        return f"{stats.transitions_scanned} scans exceed the bound {m * per_transition}"
    return None


class RefineRandom:
    """Library path on a complete random DLTS: the engine does all the work, states never merge."""

    name = "refine-random"
    make = staticmethod(gen.refine_random)
    spans = ["partition.from_initial", "bisim.dbisim", "bisim.init_refine", "partition.to_canonical"]

    def prepare(self, pkg, instance) -> Input:
        lts, blocks = instance
        names = [str(q) for q in range(lts.n)]
        raw = pkg.RawLts(
            states=names,
            letters=list(lts.letters),
            transitions=[(names[q], a, names[d]) for q, a, d in lts.triples()],
        )
        return Input((pkg.normalize(raw), blocks), lts.m, 0)

    def job(self, pkg, data, stats=None):
        T, blocks = data
        return pkg.dbisim(T, pkg.RefinablePartition.from_initial(T.n, blocks), stats).to_canonical()

    def scan_shape(self, instance) -> tuple[int, int]:
        lts, _blocks = instance
        return lts.n, lts.m

    def verify(self, instance, out) -> str | None:
        lts, blocks = instance
        return checker.check_partition(lts, blocks, out)


class TextCollapse:
    """The `bisim <file>` path on a replicated product that collapses to its base's classes."""

    name = "text-collapse"
    make = staticmethod(gen.text_collapse)
    spans = [
        "lts.parse_lts", "lts.normalize", "partition.from_initial", "bisim.dbisim",
        "bisim.init_refine", "partition.to_canonical", "lts.format_partition",
    ]

    def prepare(self, pkg, instance) -> Input:
        text = gen.dlts_text(instance.lts)
        return Input(text, instance.lts.m, len(text.encode()))

    def job(self, pkg, text, stats=None):
        T = pkg.normalize(pkg.parse_lts(text))
        p = pkg.RefinablePartition.from_initial(T.n, [set(range(T.n))] if T.n else [])
        return pkg.format_partition(pkg.dbisim(T, p, stats).to_canonical(), T.state_names)

    def scan_shape(self, instance) -> tuple[int, int]:
        return instance.lts.n, instance.lts.m

    def verify(self, instance, out) -> str | None:
        want = collapse_answer(instance)
        if want != checker.coarsest_bisimulation(instance.lts, [list(range(instance.lts.n))]):
            return "signature refinement disagrees with the construction's answer"
        if [line.split() for line in out.splitlines()] != [[str(q) for q in b] for b in want]:
            return "output partition differs from the construction's answer"
        return None


def collapse_answer(instance: gen.Collapse) -> list[list[int]]:
    """The base's classes lifted to every replica, in canonical form."""
    base_classes = checker.coarsest_bisimulation(instance.base, [list(range(instance.base.n))])
    r = instance.replicas
    return sorted(
        sorted(instance.ids[i * r + j] for i in members for j in range(r))
        for members in base_classes
    )


class MinimizeDfa:
    """The `minimize-dfa <file>` path on a random partial DFA with useless states."""

    name = "minimize-dfa"
    make = staticmethod(gen.minimize_input)
    spans = [
        "lts.parse_dfa", "cli.minimize_dfa", "lts.normalize", "partition.from_initial",
        "bisim.dbisim", "bisim.init_refine", "partition.to_canonical", "lts.format_dfa",
    ]

    def prepare(self, pkg, instance) -> Input:
        text = gen.dfa_text(instance)
        return Input(text, instance.lts.m, len(text.encode()))

    def job(self, pkg, text, stats=None):
        minimal, _report = pkg.minimize_dfa(pkg.parse_dfa(text), stats)
        return pkg.format_dfa(minimal)

    def scan_shape(self, instance) -> tuple[int, int]:
        """States and transitions of the trimmed automaton, the one dbisim refines."""
        kept = set(checker.useful_states(instance))
        return len(kept), sum(q in kept and d in kept for q, _a, d in instance.lts.triples())

    def verify(self, instance, out) -> str | None:
        try:
            got = checker.parse_dfa_text(out)
        except (ValueError, KeyError, IndexError) as exc:
            return f"output does not parse: {exc}"
        want = checker.minimal_automaton(instance)
        if got.lts.n != want.lts.n:
            return f"{got.lts.n} states where the minimal automaton has {want.lts.n}"
        if checker.canonical_form(got) != checker.canonical_form(want):
            return "output is not isomorphic to the minimal automaton"
        if not checker.same_language(got, instance):
            return "output accepts another language than the input"
        return None


WORKLOADS = {w.name: w for w in (RefineRandom(), TextCollapse(), MinimizeDfa())}


def import_package():
    """Import dlts_bisim afresh from this checkout's src/ (never from an installed copy)."""
    for name in [m for m in sys.modules if m == "dlts_bisim" or m.startswith("dlts_bisim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dlts_bisim")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported dlts_bisim from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload, seed: int, reference: Reference):
    """Import the package and build the input pool, several times; returns the median calibrated time."""
    times = []
    pkg = pool = None
    before = reference.measure()[0]
    for _ in range(SETUP_REPEATS):
        pkg = pool = None
        gc.collect()
        started = perf_counter()
        pkg = import_package()
        pool = [workload.prepare(pkg, generate(workload, seed, i)) for i in range(POOL_SIZE)]
        elapsed = perf_counter() - started
        after = reference.measure()[0]
        times.append(elapsed * REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(times), pkg, pool


def run_jobs(workload, pkg, pool, seconds: float, reference: Reference) -> list[Job]:
    """Closed loop, one job at a time, the reference kernel timed between jobs."""
    workload.job(pkg, pool[0].data)  # warm-up, not recorded
    jobs: list[Job] = []
    before = reference.measure()
    deadline = perf_counter() + seconds
    while len(jobs) < MIN_JOBS or perf_counter() < deadline:
        index = len(jobs) % len(pool)
        gc.collect()
        wall, cpu, out = _timed(workload, pkg, pool[index].data)
        digest = _digest(out)
        del out
        after = reference.measure()
        ref = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
        jobs.append(Job(index, wall, cpu, digest, ref=ref))
        before = after
    return jobs


def run_traced(workload, pkg, pool, seconds: float, recorder: tracing.SpanRecorder) -> list[Job]:
    """Untraced and traced jobs alternate on the same instance, so their difference is the tracing overhead."""
    workload.job(pkg, pool[0].data)  # warm-up, not recorded
    jobs: list[Job] = []
    deadline = perf_counter() + seconds
    while len(jobs) < 2 * MIN_JOBS or perf_counter() < deadline:
        index = len(jobs) // 2 % len(pool)
        for traced in (False, True):
            gc.collect()
            if traced:
                recorder.job = len(jobs)
                with tracing.Patched(recorder.wrapper):
                    wall, cpu, out = _timed(workload, pkg, pool[index].data)
            else:
                wall, cpu, out = _timed(workload, pkg, pool[index].data)
            jobs.append(Job(index, wall, cpu, _digest(out), traced))
            del out
    return jobs


def _timed(workload, pkg, data):
    w0, c0 = perf_counter(), process_time()
    out = workload.job(pkg, data)
    c1, w1 = process_time(), perf_counter()
    return w1 - w0, c1 - c0, out


def generate(workload, seed: int, index: int):
    return workload.make(gen.instance_rng(workload.name, seed, index))


def check_pool(workload, pkg, pool: list[Input], seed: int) -> list[tuple[str, str | None]]:
    """Per pool instance: the digest of the package's output, and what is wrong with it or None.

    The output comes from one more untimed job, with per-transition scan
    counters on; the instance is generated again from its seed.
    """
    checked = []
    for i, inp in enumerate(pool):
        instance = generate(workload, seed, i)
        stats = pkg.ScanStats.detailed(inp.m)
        out = workload.job(pkg, inp.data, stats)
        n, m = workload.scan_shape(instance)
        checked.append((_digest(out), _scan_error(stats, n, m) or workload.verify(instance, out)))
    return checked


def end_to_end(jobs: list[Job], pool: list[Input], setup_s: float, peak_rss_mb: float) -> dict:
    walls = [j.wall_s * REFERENCE_S / j.ref[0] for j in jobs]
    return {
        "trans_per_s": (sum(pool[j.instance].m for j in jobs) / sum(walls), "1/s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_cpu_s.p50": (statistics.median(j.cpu_s * REFERENCE_S / j.ref[1] for j in jobs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def raw_figures(jobs: list[Job], pool: list[Input]) -> dict:
    walls = [j.wall_s for j in jobs]
    return {
        "raw.trans_per_s": (sum(pool[j.instance].m for j in jobs) / sum(walls), "1/s"),
        "raw.job_s.p50": (statistics.median(walls), "s"),
        "raw.job_cpu_s.p50": (statistics.median(j.cpu_s for j in jobs), "s"),
        "raw.reference_s.p50": (statistics.median(j.ref[0] for j in jobs), "s"),
    }


LAYER_UNITS = {
    "lts.parse_lts.self_s": "s",
    "lts.parse_dfa.self_s": "s",
    "lts.parse.mb_per_s": "MB/s",
    "lts.normalize.self_s": "s",
    "lts.normalize.calls": "count",
    "lts.format_partition.self_s": "s",
    "lts.format_dfa.self_s": "s",
    "partition.from_initial.self_s": "s",
    "partition.to_canonical.self_s": "s",
    "bisim.init_refine.self_s": "s",
    "bisim.dbisim.self_s": "s",
    "bisim.transitions_scanned": "count",
    "bisim.scan_bound": "count",
    "bisim.scan_ratio": "ratio",
    "bisim.split_calls": "count",
    "bisim.blocks_final": "count",
    "bisim.ns_per_scan": "ns",
    "cli.minimize_dfa.self_s": "s",
    "cli.minimize_dfa.over_dbisim": "ratio",
    "cli.minimize_dfa.useless_removed": "count",
    "cli.minimize_dfa.final_blocks": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _job_layers(spans: dict[str, list[float]], counters: dict[str, float], nbytes: int) -> dict:
    """One traced job's layer figures; spans maps a name to [self s, total s, calls]."""

    def self_s(name: str) -> float:
        return spans.get(name, [0.0])[0]

    def total_s(name: str) -> float:
        return spans.get(name, [0.0, 0.0])[1]

    scanned = counters.get("transitions_scanned", 0)
    return {
        "lts.parse_lts.self_s": self_s("lts.parse_lts"),
        "lts.parse_dfa.self_s": self_s("lts.parse_dfa"),
        "lts.parse.mb_per_s": _ratio(nbytes / 1e6, self_s("lts.parse_lts") + self_s("lts.parse_dfa")),
        "lts.normalize.self_s": self_s("lts.normalize"),
        "lts.normalize.calls": spans.get("lts.normalize", [0, 0, 0])[2],
        "lts.format_partition.self_s": self_s("lts.format_partition"),
        "lts.format_dfa.self_s": self_s("lts.format_dfa"),
        "partition.from_initial.self_s": self_s("partition.from_initial"),
        "partition.to_canonical.self_s": self_s("partition.to_canonical"),
        "bisim.init_refine.self_s": self_s("bisim.init_refine"),
        "bisim.dbisim.self_s": self_s("bisim.dbisim"),
        "bisim.transitions_scanned": scanned,
        "bisim.scan_bound": counters.get("scan_bound", 0),
        "bisim.scan_ratio": _ratio(scanned, counters.get("scan_bound", 0)),
        "bisim.split_calls": counters.get("split_calls", 0),
        "bisim.blocks_final": counters.get("blocks_final", 0),
        "bisim.ns_per_scan": 1e9 * _ratio(self_s("bisim.dbisim"), scanned),
        "cli.minimize_dfa.self_s": self_s("cli.minimize_dfa"),
        "cli.minimize_dfa.over_dbisim": _ratio(total_s("cli.minimize_dfa"), total_s("bisim.dbisim")),
        "cli.minimize_dfa.useless_removed": counters.get("useless_removed", 0),
        "cli.minimize_dfa.final_blocks": counters.get("final_blocks", 0),
    }


def per_layer(jobs: list[Job], pool: list[Input], recorder: tracing.SpanRecorder,
              peaks: dict[str, int]) -> dict:
    """Medians over traced jobs of each job's figures; a span that never ran counts as zero."""
    self_s = tracing.self_times(recorder.spans)
    spans: dict[int, dict[str, list[float]]] = {i: {} for i, j in enumerate(jobs) if j.traced}
    counters: dict[int, dict[str, float]] = {i: {} for i in spans}
    for i, (name, start, end, _parent, job) in enumerate(recorder.spans):
        row = spans[job].setdefault(name, [0.0, 0.0, 0])
        row[0] += self_s[i]
        row[1] += end - start
        row[2] += 1
        for key, value in recorder.counters.get(i, {}).items():
            # Sizes of the last call; work counts add up over calls.
            summed = key in ("transitions_scanned", "split_calls", "scan_bound")
            counters[job][key] = counters[job].get(key, 0) + value if summed else value
    rows = [_job_layers(spans[i], counters[i], pool[jobs[i].instance].nbytes) for i in spans]
    metrics = {name: (statistics.median(r[name] for r in rows), unit) for name, unit in LAYER_UNITS.items()}
    mb = 1024 * 1024
    metrics["lts.parse.peak_alloc_mb"] = (
        max(peaks.get("lts.parse_lts", 0), peaks.get("lts.parse_dfa", 0)) / mb, "MB")
    metrics["lts.normalize.peak_alloc_mb"] = (peaks.get("lts.normalize", 0) / mb, "MB")
    metrics["bisim.dbisim.peak_alloc_mb"] = (peaks.get("bisim.dbisim", 0) / mb, "MB")
    untraced = statistics.median(j.wall_s for j in jobs if not j.traced)
    traced = statistics.median(j.wall_s for j in jobs if j.traced)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    reference = Reference()
    setup_s, pkg, pool = set_up(workload, args.seed, reference)
    recorder = tracing.SpanRecorder(pkg.ScanStats) if args.trace else None
    if recorder is None:
        jobs = run_jobs(workload, pkg, pool, args.seconds, reference)
    else:
        jobs = run_traced(workload, pkg, pool, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    peaks: dict[str, int] = {}
    missing: list[str] = []
    if recorder is not None:
        alloc = tracing.AllocPeaks()
        gc.collect()
        tracemalloc.start()
        try:
            with tracing.Patched(alloc.wrapper) as patched:
                workload.job(pkg, pool[0].data)
        finally:
            tracemalloc.stop()
        peaks = alloc.peaks
        seen = {span[0] for span in recorder.spans}
        missing = patched.missing + [s for s in workload.spans if s not in seen]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps(recorder.to_json()) + "\n"
        )

    checked = check_pool(workload, pkg, pool, args.seed)
    failed = 0
    for j in jobs:
        want, error = checked[j.instance]
        failed += error is not None or j.digest != want
    for i, (_want, error) in enumerate(checked):
        if error is not None:
            print(f"{workload.name}: pool instance {i}: {error}", file=sys.stderr)
    for name in missing:
        print(f"{workload.name}: span missing: {name}", file=sys.stderr)

    if recorder is None:
        metrics = end_to_end(jobs, pool, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(jobs, pool, recorder, peaks)
    sampled = f"({len(jobs)} jobs)" if recorder is None else f"({sum(j.traced for j in jobs)} traced jobs)"
    shown = metrics if recorder is not None else {**metrics, **raw_figures(jobs, pool)}
    for name, (value, unit) in shown.items():
        print(f"{workload.name}  {name:34} {value:>16.6g} {unit:6} {sampled if name.endswith('.p50') else ''}")
    print(f"{workload.name}  {'error_rate':34} {failed / len(jobs):>16.6g} ratio  ({failed}/{len(jobs)} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, so its peak memory is its own."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *lines, last = child.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dlts_bisim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dlts_bisim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
