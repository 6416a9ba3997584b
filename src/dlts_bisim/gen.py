"""Seeded random instances for tests, `gen`, `check` and `bench`.

Each instance is drawn from a `random.Random` seeded by its `GenConfig`,
so identical configurations give identical instances.  Like the reference
code in `oracle`, this module builds on `lts` alone and shares no code with
the engine.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterator

from .lts import Dfa, NormalizedDlts, RawLts, normalize


@dataclass
class GenConfig:
    """Shape of a random deterministic instance; identical seeds give
    identical instances."""

    n: int
    k: int
    density: float
    seed: int
    max_blocks: int = 4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")


def _letter_name(a: int) -> str:
    if a < len(string.ascii_lowercase):
        return string.ascii_lowercase[a]
    return f"l{a}"


def _gen_raw(cfg: GenConfig, rng: random.Random) -> RawLts:
    states = [f"q{i}" for i in range(cfg.n)]
    letters = [_letter_name(a) for a in range(cfg.k)]
    transitions = []
    for q in range(cfg.n):
        for a in range(cfg.k):
            # One Bernoulli draw per (state, letter) keeps the result
            # deterministic by construction, no rejection needed.
            if rng.random() < cfg.density:
                dst = rng.randrange(cfg.n)
                transitions.append((states[q], letters[a], states[dst]))
    return RawLts(states=states, letters=letters, transitions=transitions)


def _gen_partition(n: int, max_blocks: int, rng: random.Random) -> list[set[int]]:
    want = rng.randint(1, min(max_blocks, n))
    assignment = [rng.randrange(want) for _ in range(n)]
    groups: dict[int, set[int]] = {}
    for q, g in enumerate(assignment):
        groups.setdefault(g, set()).add(q)
    return [groups[g] for g in sorted(groups)]


def gen_random_dlts(cfg: GenConfig) -> tuple[NormalizedDlts, list[set[int]]]:
    """A seeded random deterministic LTS plus a random initial partition."""
    rng = random.Random(cfg.seed)
    T = normalize(_gen_raw(cfg, rng))
    return T, _gen_partition(cfg.n, cfg.max_blocks, rng)


def gen_random_dfa(cfg: GenConfig, final_density: float = 0.5) -> Dfa:
    """A seeded random deterministic automaton (possibly partial)."""
    rng = random.Random(cfg.seed)
    T = normalize(_gen_raw(cfg, rng))
    initial = rng.randrange(cfg.n)
    finals = {q for q in range(cfg.n) if rng.random() < final_density}
    return Dfa(dlts=T, initial=initial, finals=finals)


def instance_stream(
    count: int,
    n_max: int,
    k_max: int,
    density: float | None,
    seed: int,
) -> Iterator[tuple[GenConfig, NormalizedDlts, list[set[int]]]]:
    """Reproducible stream of random instances below the given size bounds.

    With `density=None` each instance draws from {0.2, 0.5, 0.9}.  The
    per-instance GenConfig is yielded so a failure can be reproduced from its
    own seed alone.  Bounds below 1 raise ValueError before anything is drawn.
    """
    if n_max < 1:
        raise ValueError("n must be >= 1")
    if k_max < 1:
        raise ValueError("k must be >= 1")
    master = random.Random(seed)
    for _ in range(count):
        cfg = GenConfig(
            n=master.randint(1, n_max),
            k=master.randint(1, k_max),
            density=density if density is not None else master.choice([0.2, 0.5, 0.9]),
            seed=master.randrange(2**63),
            max_blocks=master.randint(1, 4),
        )
        T, p_init = gen_random_dlts(cfg)
        yield cfg, T, p_init
