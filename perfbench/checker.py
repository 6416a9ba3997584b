"""Independent answers for the benchmark's outputs.

Shares no code with the package under test.  Partitions are checked against
Moore-style signature refinement: each round keys every state by its block
and the blocks of its successors, O(m) per round, until the block count stops
growing.  Automata are checked by trimming, refining finals/non-finals the
same way and comparing canonical forms, plus a product walk for language
equality against the input.
"""

from __future__ import annotations

from generators import Automaton, Lts


def canonical(block_of: list[int]) -> list[list[int]]:
    """Blocks as ascending index lists, ordered by their least state."""
    groups: dict[int, list[int]] = {}
    for q, b in enumerate(block_of):
        groups.setdefault(b, []).append(q)
    return sorted(groups.values())


def coarsest_bisimulation(lts: Lts, blocks: list[list[int]]) -> list[list[int]]:
    """Coarsest bisimulation refining `blocks`, in canonical form."""
    block_of = [0] * lts.n
    for b, members in enumerate(blocks):
        for q in members:
            block_of[q] = b
    rows = [sorted(row.items()) for row in lts.delta]
    count = len(blocks)
    while True:
        keys: dict[tuple, int] = {}
        refined = [0] * lts.n
        for q, row in enumerate(rows):
            key = (block_of[q], tuple([(a, block_of[d]) for a, d in row]))
            refined[q] = keys.setdefault(key, len(keys))
        # Keys include the old block, so the new partition refines the old
        # one; an equal block count means they are equal: a fixpoint.
        if len(keys) == count:
            return canonical(refined)
        block_of, count = refined, len(keys)


def check_partition(lts: Lts, blocks: list[list[int]], got: list[list[int]]) -> str | None:
    """None if `got` is the canonical coarsest bisimulation refining `blocks`, else why not."""
    want = coarsest_bisimulation(lts, blocks)
    if got == want:
        return None
    want_of = [0] * lts.n
    for b, members in enumerate(want):
        for q in members:
            want_of[q] = b
    for members in got:
        if len({want_of[q] for q in members}) > 1:
            return f"block of state {members[0]} merges states that are not bisimilar"
    if len(got) > len(want):
        return f"{len(got)} blocks where the coarsest bisimulation has {len(want)}"
    return "not a partition in canonical form"


def useful_states(aut: Automaton) -> list[int]:
    """States reachable from the initial state that can reach a final state, ascending."""
    if aut.initial is None:
        return []
    delta = aut.lts.delta
    reach = {aut.initial}
    stack = [aut.initial]
    while stack:
        for d in delta[stack.pop()].values():
            if d not in reach:
                reach.add(d)
                stack.append(d)
    pred: list[list[int]] = [[] for _ in range(aut.lts.n)]
    for q, row in enumerate(delta):
        for d in row.values():
            pred[d].append(q)
    coreach = set(aut.finals)
    stack = list(coreach)
    while stack:
        for s in pred[stack.pop()]:
            if s not in coreach:
                coreach.add(s)
                stack.append(s)
    return sorted(reach & coreach)


def minimal_automaton(aut: Automaton) -> Automaton:
    """The trim minimal automaton of the same language, by Moore refinement."""
    useful = useful_states(aut)
    if aut.initial not in useful:
        return Automaton(Lts(0, [], []), None, [])
    index = {q: i for i, q in enumerate(useful)}
    sub = Lts(
        len(useful),
        aut.lts.letters,
        [{a: index[d] for a, d in aut.lts.delta[q].items() if d in index} for q in useful],
    )
    finals = {index[q] for q in aut.finals if q in index}
    start = [b for b in (sorted(finals), [i for i in range(sub.n) if i not in finals]) if b]
    blocks = coarsest_bisimulation(sub, start)
    block_of = [0] * sub.n
    for b, members in enumerate(blocks):
        for q in members:
            block_of[q] = b
    delta = [{a: block_of[d] for a, d in sub.delta[members[0]].items()} for members in blocks]
    return Automaton(
        Lts(len(blocks), sub.letters, delta),
        block_of[index[aut.initial]],
        sorted({block_of[q] for q in finals}),
    )


def canonical_form(aut: Automaton) -> tuple:
    """Numbering by breadth-first search from the initial state, letters ascending.

    Two trim deterministic automata with the same state count are isomorphic
    exactly when their forms are equal.
    """
    if aut.initial is None:
        return (aut.lts.n,)
    finals = set(aut.finals)
    number = {aut.initial: 0}
    order = [aut.initial]
    rows = []
    for q in order:  # `order` grows while it is walked
        row = []
        delta = aut.lts.delta[q]
        for a in sorted(delta):
            d = delta[a]
            if d not in number:
                number[d] = len(order)
                order.append(d)
            row.append((a, number[d]))
        rows.append((q in finals, tuple(row)))
    return (aut.lts.n, tuple(rows))


def same_language(a1: Automaton, a2: Automaton) -> bool:
    """Synchronized walk over state pairs; a missing move goes to a dead non-final sink (None)."""

    def step(aut: Automaton, q: int | None, a: str) -> int | None:
        return None if q is None else aut.lts.delta[q].get(a)

    f1, f2 = set(a1.finals), set(a2.finals)
    start = (a1.initial, a2.initial)
    seen = {start}
    stack = [start]
    while stack:
        p, q = stack.pop()
        if (p in f1) != (q in f2):
            return False
        letters = set(a1.lts.delta[p] if p is not None else ())
        letters.update(a2.lts.delta[q] if q is not None else ())
        for a in letters:
            pair = (step(a1, p, a), step(a2, q, a))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def parse_dfa_text(text: str) -> Automaton:
    """Read the `dfa` text format; raises ValueError on anything malformed."""
    lines = [toks for toks in (line.split("#", 1)[0].split() for line in text.splitlines()) if toks]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "dfa":
        raise ValueError("missing `dfa <n>` header")
    n = int(lines[0][1])
    names = [str(q) for q in range(n)]
    initial: str | None = None
    finals: list[str] = []
    triples = []
    for toks in lines[1:]:
        head = toks[0]
        if head == "states:":
            names = toks[1:]
        elif head == "initial:":
            initial = toks[1]
        elif head == "finals:":
            finals = toks[1:]
        elif head != "letters:":
            if len(toks) != 3:
                raise ValueError(f"bad transition line {' '.join(toks)!r}")
            triples.append(toks)
    index = {name: q for q, name in enumerate(names)}
    if len(index) != n:
        raise ValueError("state names do not match the header")
    delta: list[dict[str, int]] = [{} for _ in range(n)]
    letters: set[str] = set()
    for s, a, d in triples:
        if a in delta[index[s]]:
            raise ValueError(f"two moves from {s} on {a}")
        delta[index[s]][a] = index[d]
        letters.add(a)
    return Automaton(
        Lts(n, sorted(letters), delta),
        None if initial is None else index[initial],
        sorted(index[f] for f in finals),
    )
