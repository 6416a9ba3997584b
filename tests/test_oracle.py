"""The set-based reference machinery and the instance generators themselves."""

import ast
import random
from pathlib import Path

import pytest

import dlts_bisim
from dlts_bisim import (
    Dfa,
    GenConfig,
    RawLts,
    canonical_view,
    gen_random_dfa,
    gen_random_dlts,
    is_bisimulation,
    naive_fixpoint,
    normalize,
)

from _canon import assert_coarsest, dfa_language_equivalent, letter_signature_blocks, refines


def _cycle2():
    return normalize(RawLts(["q0", "q1"], ["a"], [("q0", "a", "q1"), ("q1", "a", "q0")]))


def test_is_bisimulation_singletons():
    T = _cycle2()
    assert is_bisimulation([{0}, {1}], T)


def test_is_bisimulation_cycle_single_block():
    assert is_bisimulation([{0, 1}], _cycle2())


def test_is_bisimulation_rejects_missing_move():
    T = normalize(RawLts(["q0", "q1", "q2"], ["a"], [("q0", "a", "q2"), ("q2", "a", "q2")]))
    assert not is_bisimulation([{0, 1}, {2}], T)


def test_naive_fixpoint_singletons_unchanged():
    T = _cycle2()
    assert canonical_view(naive_fixpoint(T, [{0}, {1}])) == [[0], [1]]


def test_naive_fixpoint_cycle_stays_one_block():
    assert canonical_view(naive_fixpoint(_cycle2(), [{0, 1}])) == [[0, 1]]


def test_naive_fixpoint_output_is_bisimulation_and_coarsest():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        cfg = GenConfig(n=n, k=rng.randint(1, 3), density=rng.choice([0.3, 0.7]),
                        seed=rng.randrange(2**32))
        T, p_init = gen_random_dlts(cfg)
        result = naive_fixpoint(T, p_init)
        assert is_bisimulation(result, T)
        assert refines(result, p_init)
        assert_coarsest(T, result, p_init)


def test_naive_fixpoint_refines_letter_signatures():
    rng = random.Random(17)
    for _ in range(25):
        cfg = GenConfig(n=rng.randint(1, 15), k=rng.randint(1, 3), density=0.5,
                        seed=rng.randrange(2**32))
        T, p_init = gen_random_dlts(cfg)
        result = naive_fixpoint(T, p_init)
        assert refines(result, letter_signature_blocks(T, p_init))


def test_gen_density_extremes():
    T0, _ = gen_random_dlts(GenConfig(n=6, k=3, density=0.0, seed=1))
    assert T0.m == 0 and T0.k == 0
    T1, _ = gen_random_dlts(GenConfig(n=6, k=3, density=1.0, seed=1))
    assert T1.m == 6 * 3


def test_gen_same_seed_same_instance():
    a = gen_random_dlts(GenConfig(n=20, k=3, density=0.4, seed=321))
    b = gen_random_dlts(GenConfig(n=20, k=3, density=0.4, seed=321))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_gen_partition_is_valid_and_bounded():
    for seed in range(20):
        cfg = GenConfig(n=9, k=2, density=0.5, seed=seed, max_blocks=3)
        _t, blocks = gen_random_dlts(cfg)
        assert 1 <= len(blocks) <= 3
        assert sorted(q for b in blocks for q in b) == list(range(9))


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0, k=1, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GenConfig(n=1, k=0, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GenConfig(n=1, k=1, density=1.5, seed=0)


def _dfa(text_states, initial, finals, transitions, letters):
    T = normalize(RawLts(text_states, letters, transitions))
    return Dfa(dlts=T, initial=initial, finals=set(finals))


def test_language_equivalence_reflexive():
    d = gen_random_dfa(GenConfig(n=10, k=2, density=0.7, seed=9))
    assert dfa_language_equivalent(d, d)


def test_language_equivalence_empty_vs_epsilon():
    d_empty = _dfa(["x"], 0, [], [], [])
    d_eps = _dfa(["x"], 0, [0], [], [])
    assert not dfa_language_equivalent(d_empty, d_eps)
    assert dfa_language_equivalent(d_empty, d_empty)


def test_language_equivalence_handles_missing_letters():
    # One automaton never uses 'b'; the other moves on 'b' into a dead state.
    d1 = _dfa(["s", "f"], 0, [1], [("s", "a", "f")], ["a"])
    d2 = _dfa(["s", "f", "d"], 0, [1], [("s", "a", "f"), ("s", "b", "d")], ["a", "b"])
    assert dfa_language_equivalent(d1, d2)
    d3 = _dfa(["s", "f"], 0, [1], [("s", "a", "f"), ("f", "b", "f")], ["a", "b"])
    assert not dfa_language_equivalent(d1, d3)


def test_language_equivalence_none_initial():
    empty = Dfa(dlts=normalize(RawLts([], [], [])), initial=None, finals=set())
    dead = _dfa(["x"], 0, [], [("x", "a", "x")], ["a"])
    eps = _dfa(["x"], 0, [0], [], [])
    assert dfa_language_equivalent(empty, dead)
    assert not dfa_language_equivalent(empty, eps)


def test_language_equivalence_symmetric_spot_checks():
    rng = random.Random(23)
    for _ in range(15):
        d1 = gen_random_dfa(GenConfig(n=rng.randint(1, 8), k=2, density=0.6,
                                      seed=rng.randrange(2**32)))
        d2 = gen_random_dfa(GenConfig(n=rng.randint(1, 8), k=2, density=0.6,
                                      seed=rng.randrange(2**32)))
        assert dfa_language_equivalent(d1, d2) == dfa_language_equivalent(d2, d1)


_TYPE_CHECKING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _runtime_package_imports(tree: ast.AST) -> set[str]:
    """Package modules a module imports outside `if TYPE_CHECKING:` blocks.

    `from . import x` and `from .x import y` name x; an import of the
    package root itself is reported as "dlts_bisim".
    """
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and ast.unparse(node.test) in _TYPE_CHECKING:
            for child in node.orelse:
                visit(child)
            return
        absolute: list[str] = []
        if isinstance(node, ast.Import):
            absolute = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            absolute = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for parts in (name.split(".") for name in absolute):
            if parts[0] == "dlts_bisim":
                found.add(parts[1] if len(parts) > 1 else "dlts_bisim")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


@pytest.mark.parametrize("module", ["oracle.py", "gen.py"])
def test_reference_modules_import_only_lts(module):
    # The ground truth and the generators must stay independent of the engine.
    source = (Path(dlts_bisim.__file__).parent / module).read_text()
    assert _runtime_package_imports(ast.parse(source)) == {"lts"}
