"""A key-free oracle for the solvers on the paper's instances.

The engine merges states by their key text, and a key that two different
states share gives a wrong verdict without any error.  The oracle here is a
plain minimax memoised on the states themselves (a Permutation or a Graph,
equal by value) and the mover, so no key string is involved.  It moves by
the reference rules: the pairs of alternating pointer occurrences with
``_reference_apply_cds``, and the edge sets with ``_reference_apply_gcds2``.
Every principal variation the engine reports is replayed under those rules
to a terminal of the reported winner, with the oracle agreeing on the
winner at every position along it.
"""

import pytest

from cdsgame.families import gen_chain, gen_favorable, tight_instance
from cdsgame.games import (
    ONE,
    TWO,
    CdsState,
    GcdsState,
    SolveCache,
    cache_load,
    cache_save,
    opponent,
    solve_cds,
    solve_gcds,
)
from cdsgame.graphs import Position, label_key
from cdsgame.permutations import pointer_occurrences

from test_graphs import _reference_apply_gcds2
from test_permutations import _reference_apply_cds


class _CdsRules:
    """CDS(alpha, A) by the pairwise reference."""

    def __init__(self, favorable):
        self.favorable = favorable

    @staticmethod
    def moves(perm):
        """The pairs whose occurrences alternate, as ``interlocks`` tests
        them, from each pointer's occurrences found once."""
        occ = [None] + [pointer_occurrences(perm, p) for p in range(1, perm.n)]
        return [(p, q) for p in range(1, perm.n) for q in range(p + 1, perm.n)
                if occ[p][0] < occ[q][0] < occ[p][1] < occ[q][1]
                or occ[q][0] < occ[p][0] < occ[q][1] < occ[p][1]]

    @staticmethod
    def apply(perm, move):
        return _reference_apply_cds(perm, *move)

    def terminal(self, perm):
        # The identity has e[0] - 1 = 0, never a favorable code.
        return ONE if perm.entries[0] - 1 in self.favorable else TWO


class _GcdsRules:
    """GCDS(G, A) by the master-list reference pivot."""

    def __init__(self, favorable):
        self.favorable = favorable

    @staticmethod
    def moves(graph):
        return sorted(tuple(sorted(edge, key=label_key)) for edge in graph.edges)

    @staticmethod
    def apply(graph, move):
        return _reference_apply_gcds2(graph, move)

    def terminal(self, graph):
        alive = graph.vertices
        return ONE if alive and alive <= self.favorable else TWO


class _Oracle:
    """Minimax over one game's rules, memoised on (state, mover)."""

    def __init__(self, rules):
        self.rules = rules
        self.memo = {}

    def value(self, state, mover):
        found = self.memo.get((state, mover))
        if found is None:
            moves = self.rules.moves(state)
            found = opponent(mover) if moves else self.rules.terminal(state)
            for move in moves:
                if self.value(self.rules.apply(state, move), opponent(mover)) == mover:
                    found = mover
                    break
            self.memo[state, mover] = found
        return found

    def replay(self, root, mover, report):
        """The report's winner is the oracle's, and its principal variation
        is a line of legal moves that keeps that winner and ends at a
        terminal the winner wins."""
        state = root
        for move in report.principal_variation:
            assert self.value(state, mover) == report.winner, (state, mover)
            assert move in self.rules.moves(state), (state, move)
            state, mover = self.rules.apply(state, move), opponent(mover)
        assert not self.rules.moves(state) and self.rules.terminal(state) == report.winner, state


def _tight(n):
    alpha, favorable = tight_instance(n)
    return "cds", alpha, favorable


def _chain(m):
    return "gcds", gen_chain(m), gen_favorable(m)


def _games(instances):
    """Each instance with A and with A - {min A}, for both movers."""
    for kind, root, favorable in instances:
        for fav in (favorable, favorable - {min(favorable)}):
            for mover in (ONE, TWO):
                yield kind, root, frozenset(fav), mover


def _solve(kind, root, favorable, mover, cache):
    if kind == "cds":
        return solve_cds(CdsState(root, favorable, mover), cache=cache, max_n=root.n)
    return solve_gcds(GcdsState(Position(root, favorable), mover), cache=cache,
                      max_vertices=root.n_vertices())


def _oracle(kind, favorable):
    return _Oracle(_CdsRules(favorable) if kind == "cds" else _GcdsRules(favorable))


def _assert_engine_agrees(instances, tmp_path):
    """Every game solved alone and into one shared cache, then again from
    that cache after a save/load round trip; the oracle checks each report."""
    games = list(_games(instances))
    oracles = {}
    shared = SolveCache()
    for kind, root, fav, mover in games:
        oracle = oracles.setdefault((kind, root, fav), _oracle(kind, fav))
        oracle.replay(root, mover, _solve(kind, root, fav, mover, SolveCache()))
        oracle.replay(root, mover, _solve(kind, root, fav, mover, shared))
    path = tmp_path / "shared.tsv"
    cache_save(shared, path)
    loaded = cache_load(path)
    assert sorted(loaded.items()) == sorted(shared.items())
    for kind, root, fav, mover in games:
        oracles[kind, root, fav].replay(root, mover, _solve(kind, root, fav, mover, loaded))


def test_engine_agrees_with_the_key_free_oracle(tmp_path):
    instances = [_tight(12), _tight(16)] + [_chain(m) for m in range(1, 7)]
    _assert_engine_agrees(instances, tmp_path)


@pytest.mark.slow
def test_engine_agrees_with_the_key_free_oracle_on_the_large_instances(tmp_path):
    alpha, favorable = tight_instance(16)
    instances = [_tight(20), _chain(7), _chain(8)]
    instances += [("cds", alpha, favorable - {c}) for c in sorted(favorable)]
    _assert_engine_agrees(instances, tmp_path)
