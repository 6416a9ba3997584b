"""Worst-case instance families for the scan bound.

Each family is a unary cyclic automaton: state i steps on the one letter to
state i + 1 (mod n), and the final states are the positions of `b` in a
word of length n.  Refining finals against non-finals separates every
state when the word is primitive, and the words below are chosen so that
the refinement does close to the most work the O(m log n) bound allows:

* Fibonacci words keep the total scan count near n log2 n (Castiglione,
  Restivo & Sciortino, "Hopcroft's algorithm and cyclic automata", 2008);
* de Bruijn words make one transition reach floor(log2 n) scans (Berstel &
  Carton, "On the complexity of Hopcroft's state minimization algorithm",
  2004).
"""

from __future__ import annotations

from dlts_bisim import NormalizedDlts


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
    successor = [(i + 1) % n for i in range(n)]
    names = list(map(str, range(n)))
    dlts = NormalizedDlts.from_columns(n, range(n), [0] * n, successor, names, ["a"])
    finals = [i for i, c in enumerate(word) if c == "b"]
    others = [i for i, c in enumerate(word) if c != "b"]
    return dlts, [block for block in (finals, others) if block]
