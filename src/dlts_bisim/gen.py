"""Seeded random instances for tests, `gen`, `check` and `bench`, and the
worst-case families of the scan bound.

Each random instance is drawn from a `random.Random` seeded by its
`GenConfig`, so identical configurations give identical instances.  Like the
reference code in `oracle`, this module builds on `lts` alone and shares no
code with the engine.

Each worst-case family is a unary cyclic automaton: state i steps on the one
letter to state i + 1 (mod n), and the final states are the positions of `b`
in a word of length n.  Refining finals against non-finals separates every
state when the word is primitive, and the words below are chosen so that the
refinement does close to the most work the O(m log n) bound allows:

* Fibonacci words keep the total scan count near n log2 n (Castiglione,
  Restivo & Sciortino, "Hopcroft's algorithm and cyclic automata", 2008);
* de Bruijn words make one transition reach floor(log2 n) scans (Berstel &
  Carton, "On the complexity of Hopcroft's state minimization algorithm",
  2004).
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


def gen_random_dfa(cfg: GenConfig) -> Dfa:
    """A seeded random deterministic automaton (possibly partial), each state final at odds 1/2."""
    rng = random.Random(cfg.seed)
    T = normalize(_gen_raw(cfg, rng))
    initial = rng.randrange(cfg.n)
    finals = {q for q in range(cfg.n) if rng.random() < 0.5}
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
    own seed alone.  A negative count, or bounds that `GenConfig` rejects,
    raise ValueError before anything is drawn.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    GenConfig(n=n_max, k=k_max, density=0.5 if density is None else density, seed=seed)
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


def fibonacci_word(length: int) -> str:
    """The Fibonacci word of the given length: `a`, `ab`, `aba`, `abaab`, ...

    Raises ValueError unless `length` is a Fibonacci number (1, 2, 3, 5, ...).
    """
    shorter, word = "", "a"
    while len(word) < length:
        shorter, word = word, word + (shorter or "b")
    if len(word) != length:
        raise ValueError(f"no Fibonacci word has length {length}")
    return word


def de_bruijn_word(order: int) -> str:
    """The binary de Bruijn word B(2, order), of length 2**order, over `a` < `b`.

    The concatenation, in lexicographic order, of the Lyndon words whose
    length divides `order`: read cyclically, it holds every word of length
    `order` exactly once.
    """
    pieces: list[str] = []
    w = [-1]
    while w:  # each Lyndon word of length <= order, in lexicographic order
        w[-1] += 1
        size = len(w)
        if order % size == 0:
            pieces.extend("ab"[x] for x in w)
        while len(w) < order:
            w.append(w[len(w) - size])
        while w and w[-1] == 1:
            w.pop()
    return "".join(pieces)


def cyclic_automaton(word: str) -> tuple[NormalizedDlts, list[list[int]]]:
    """The unary cycle over `word`, and its start partition: finals, then non-finals."""
    n = len(word)
    names = list(map(str, range(n)))
    cycle = [(names[i], "a", names[(i + 1) % n]) for i in range(n)]
    dlts = normalize(RawLts(names, ["a"], cycle))
    finals = [i for i, c in enumerate(word) if c == "b"]
    others = [i for i, c in enumerate(word) if c != "b"]
    return dlts, [block for block in (finals, others) if block]
