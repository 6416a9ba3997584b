"""Seeded instance generators for the benchmark workloads.

Only the standard library's `random` is used and nothing is imported from
the package under test, so a change to the package cannot change a
workload.  Every generator draws from the `random.Random` it is given:
equal seeds give equal instances.  Instance sizes are exact (transition and
final-state counts are sampled without replacement), so two seeds give
instances of the same shape and comparable cost.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass
class Lts:
    """A deterministic LTS: delta[q] maps a letter name to the successor of q."""

    n: int
    letters: list[str]
    delta: list[dict[str, int]]

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.delta)

    def triples(self):
        """(src, letter, dst) in source order, letters ascending."""
        for q, row in enumerate(self.delta):
            for a in sorted(row):
                yield q, a, row[a]


@dataclass
class Automaton:
    """A deterministic automaton over an Lts; `initial` is None only when n = 0."""

    lts: Lts
    initial: int | None
    finals: list[int]


@dataclass
class Collapse:
    """The text-collapse product and what it was built from.

    State (i, j) of the product, base state i in replica j, has the id
    ids[i * replicas + j].
    """

    lts: Lts
    base: Lts
    replicas: int
    ids: list[int]


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator of pool instance `index` (string seeds hash the same in every process)."""
    return random.Random(f"{workload}/{seed}/{index}")


def letter_names(k: int) -> list[str]:
    if k <= len(string.ascii_lowercase):
        return list(string.ascii_lowercase[:k])
    return [f"l{a}" for a in range(k)]


def random_lts(rng: random.Random, n: int, k: int, density: float) -> Lts:
    """round(density * n * k) transitions on distinct (state, letter) cells, uniform targets."""
    letters = letter_names(k)
    delta: list[dict[str, int]] = [{} for _ in range(n)]
    for cell in sorted(rng.sample(range(n * k), round(density * n * k))):
        q, a = divmod(cell, k)
        delta[q][letters[a]] = rng.randrange(n)
    return Lts(n, letters, delta)


def refine_random(rng: random.Random, n: int = 32768, k: int = 2) -> tuple[Lts, list[list[int]]]:
    """A complete DLTS and a random two-block initial partition of equal halves."""
    lts = random_lts(rng, n, k, 1.0)
    first = sorted(rng.sample(range(n), n // 2))
    chosen = set(first)
    return lts, [first, [q for q in range(n) if q not in chosen]]


def text_collapse(
    rng: random.Random,
    base_n: int = 64,
    k: int = 16,
    density: float = 0.3,
    replicas: int = 256,
) -> Collapse:
    """A random partial base replicated `replicas` times under shuffled ids.

    Base state i in replica j steps on letter a to base state delta(i, a) in
    replica sigma_a(j), for a random permutation sigma_a per letter.  Since
    every sigma_a is a bijection, (i, j) and (i', j') are bisimilar exactly
    when i and i' are bisimilar in the base: the product collapses to the
    base's classes.
    """
    base = random_lts(rng, base_n, k, density)
    sigma = {a: rng.sample(range(replicas), replicas) for a in base.letters}
    n = base_n * replicas
    ids = rng.sample(range(n), n)
    delta: list[dict[str, int]] = [{} for _ in range(n)]
    for i, row in enumerate(base.delta):
        for a, d in row.items():
            perm = sigma[a]
            for j in range(replicas):
                delta[ids[i * replicas + j]][a] = ids[d * replicas + perm[j]]
    return Collapse(Lts(n, base.letters, delta), base, replicas, ids)


def minimize_input(
    rng: random.Random,
    n: int = 16384,
    k: int = 4,
    density: float = 0.6,
    final_density: float = 0.02,
) -> Automaton:
    """A random partial DFA; a share of its states is unreachable or cannot reach a final."""
    lts = random_lts(rng, n, k, density)
    initial = rng.randrange(n)
    finals = sorted(rng.sample(range(n), round(final_density * n)))
    return Automaton(lts, initial, finals)


def dlts_text(lts: Lts) -> str:
    """The `dlts` format without the optional headers: default state names, letters interned on use."""
    lines = [f"dlts {lts.n}"]
    lines.extend(f"{q} {a} {d}" for q, a, d in lts.triples())
    return "\n".join(lines) + "\n"


def dfa_text(aut: Automaton) -> str:
    """The `dfa` format with default state names and no `letters:` header."""
    lines = [f"dfa {aut.lts.n}", f"initial: {aut.initial}"]
    if aut.finals:
        lines.append("finals: " + " ".join(map(str, aut.finals)))
    lines.extend(f"{q} {a} {d}" for q, a, d in aut.lts.triples())
    return "\n".join(lines) + "\n"
