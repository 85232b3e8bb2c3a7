"""Tests for the cds rewrite on permutations."""

import copy
import pickle
import random
from itertools import permutations as all_words

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsgame.permutations import (
    HEAD_RIGHT,
    TAIL_LEFT,
    NotApplicableError,
    ParseError,
    Permutation,
    _PAIRS,
    _move_list,
    _overlap_rows,
    _swap,
    apply_cds,
    fixed_point_code,
    identity,
    interlocks,
    is_fixed_point,
    legal_moves,
    parse_decimal,
    parse_permutation,
    pointer_occurrences,
)


def test_parse_round_trip():
    perm = parse_permutation("3 6 5 2 4 8 1 7")
    assert list(perm) == [3, 6, 5, 2, 4, 8, 1, 7]
    assert perm.n == 8


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError, match="'x'"):
        parse_permutation("1 2 x")
    with pytest.raises(ParseError, match="'9'"):
        parse_permutation("1 2 9")
    with pytest.raises(ParseError, match="'2'"):
        parse_permutation("1 2 2")
    with pytest.raises(ParseError):
        parse_permutation("   ")


def _read(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("0123456789+- \t\n\x1c_x"), max_size=5))
def test_parse_decimal_reads_ascii_as_int_does_without_underscores(text):
    expected = None if "_" in text else _read(int, text)
    assert _read(parse_decimal, text) == expected


def test_parse_decimal_refuses_other_digits():
    for text in ("２", "٢", "1\u00a0", "\u00a02"):
        assert _read(int, text) is not None
        with pytest.raises(ValueError, match="not an ASCII decimal integer"):
            parse_decimal(text)


def test_constructor_validates():
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([1, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([1, "2"])


def test_permutation_is_immutable_and_hashable():
    perm = Permutation([2, 1])
    with pytest.raises(AttributeError):
        perm.entries = (1, 2)
    assert perm == Permutation((2, 1))
    assert hash(perm) == hash(Permutation([2, 1]))
    assert perm.position_of(2) == 1


def test_permutation_pickles_and_copies_through_its_constructor():
    perm = Permutation([3, 1, 2])
    assert perm.word() == "3 1 2"
    for clone in (pickle.loads(pickle.dumps(perm)), copy.copy(perm), copy.deepcopy(perm)):
        assert clone == perm and hash(clone) == hash(perm)
        assert clone._word is None and clone.word() == "3 1 2"
    assert Permutation.__reduce__(perm) == (Permutation, ((3, 1, 2),))


def test_pointer_occurrence_positions_and_sides():
    perm = Permutation([3, 1, 4, 2, 5])
    occ = pointer_occurrences(perm, 1)
    assert [(o.position, o.side) for o in occ] == [(2, HEAD_RIGHT), (4, TAIL_LEFT)]
    # Linear order holds for every pointer of every small permutation.
    for word in all_words(range(1, 6)):
        p5 = Permutation(word)
        for p in range(1, 5):
            a, b = pointer_occurrences(p5, p)
            assert a < b


def test_interlocks_examples():
    beta = Permutation([3, 6, 5, 2, 4, 8, 1, 7])
    assert interlocks(beta, 3, 6)
    gamma = Permutation([3, 1, 4, 2, 5])
    assert not interlocks(gamma, 1, 2)
    assert interlocks(gamma, 1, 3)
    with pytest.raises(ValueError):
        interlocks(gamma, 2, 2)
    with pytest.raises(ValueError):
        interlocks(gamma, 0, 3)
    with pytest.raises(ValueError):
        interlocks(gamma, 1, 5)


def test_interlocks_is_symmetric():
    for word in all_words(range(1, 6)):
        perm = Permutation(word)
        for p in range(1, 5):
            for q in range(p + 1, 5):
                assert interlocks(perm, p, q) == interlocks(perm, q, p)


def test_legal_moves_examples():
    assert legal_moves(Permutation([2, 4, 1, 3])) == {(1, 2), (1, 3), (2, 3)}
    assert legal_moves(Permutation([4, 1, 2, 3])) == set()
    assert legal_moves(identity(6)) == set()


def test_apply_cds_worked_example():
    beta = Permutation([3, 6, 5, 2, 4, 8, 1, 7])
    assert list(apply_cds(beta, 3, 6)) == [3, 4, 8, 1, 5, 2, 6, 7]
    # The unordered move can be given in either order.
    assert apply_cds(beta, 6, 3) == apply_cds(beta, 3, 6)


def test_apply_cds_small_examples():
    g = Permutation([2, 4, 1, 3])
    assert list(apply_cds(g, 1, 2)) == [4, 1, 2, 3]
    assert list(apply_cds(g, 1, 3)) == [3, 4, 1, 2]
    assert list(apply_cds(g, 2, 3)) == [2, 3, 4, 1]


def test_apply_cds_requires_interlocking():
    gamma = Permutation([3, 1, 4, 2, 5])
    with pytest.raises(NotApplicableError):
        apply_cds(gamma, 1, 2)
    with pytest.raises(NotApplicableError):
        apply_cds(identity(4), 1, 3)


def test_apply_cds_places_pointer_values_adjacent():
    # After a swap on (p, q), the entries p, p+1 sit adjacent in order, and
    # likewise q, q+1: the move closes both pointers.  Exhaustive for n <= 6.
    for n in range(2, 7):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            for p, q in legal_moves(perm):
                out = apply_cds(perm, p, q)
                entries = list(out)
                assert sorted(entries) == list(range(1, n + 1))
                for k in (p, q):
                    i = entries.index(k)
                    assert entries[i + 1] == k + 1


def test_fixed_points_are_exactly_the_moveless_permutations():
    for n in range(1, 7):
        for word in all_words(range(1, n + 1)):
            perm = Permutation(word)
            assert is_fixed_point(perm) == (not legal_moves(perm))


def test_fixed_point_codes():
    assert is_fixed_point(Permutation([4, 1, 2, 3]))
    assert fixed_point_code(Permutation([4, 1, 2, 3])) == 3
    assert fixed_point_code(Permutation([2, 3, 4, 1])) == 1
    assert fixed_point_code(identity(5)) is None
    with pytest.raises(ValueError):
        fixed_point_code(Permutation([2, 1, 3]))


def test_rotation_forms_are_fixed_points():
    for n in range(2, 8):
        base = list(range(1, n + 1))
        for k in range(1, n):
            rot = Permutation(base[k:] + base[:k])
            assert is_fixed_point(rot)
            assert fixed_point_code(rot) == rot[0] - 1


# ---------------------------------------------------------------------------
# The slot-interval fast path against the pairwise reference.  legal_moves is
# checked against interlocks; apply_cds against the case classification it
# replaced, which merged the four pointer occurrences by sorting.

# The four interleaving cases, keyed by the side pattern of the four
# occurrences in order (the first-opening pointer's sides first and third,
# the other's second and fourth).  Every interlocking pair matches exactly
# one pattern since each pointer contributes one head and one tail.
_CASE_SIDES = {
    (TAIL_LEFT, HEAD_RIGHT, HEAD_RIGHT, TAIL_LEFT): 1,
    (HEAD_RIGHT, HEAD_RIGHT, TAIL_LEFT, TAIL_LEFT): 2,
    (HEAD_RIGHT, TAIL_LEFT, TAIL_LEFT, HEAD_RIGHT): 3,
    (TAIL_LEFT, TAIL_LEFT, HEAD_RIGHT, HEAD_RIGHT): 4,
}


def _reference_apply_cds(perm, p, q):
    occs = sorted([(o, p) for o in pointer_occurrences(perm, p)]
                  + [(o, q) for o in pointer_occurrences(perm, q)])
    owners = [owner for _, owner in occs]
    if not (owners[0] == owners[2] and owners[0] != owners[1]):
        raise NotApplicableError(
            f"pointers {p} and {q} do not interlock in {list(perm.entries)}")
    case = _CASE_SIDES[tuple(o.side for o, _ in occs)]
    i1, i2, i3, i4 = (o.position for o, _ in occs)
    e = perm.entries
    n = len(e)

    def seg(a, b):
        return e[a - 1 : b]

    if case == 1:
        out = seg(1, i1 - 1) + seg(i3 + 1, i4 - 1) + seg(i2 + 1, i3) + seg(i1, i2) + seg(i4, n)
    elif case == 2:
        out = seg(1, i1) + seg(i3, i4 - 1) + seg(i2 + 1, i3 - 1) + seg(i1 + 1, i2) + seg(i4, n)
    elif case == 3:
        out = seg(1, i1) + seg(i3, i4) + seg(i2, i3 - 1) + seg(i1 + 1, i2 - 1) + seg(i4 + 1, n)
    else:
        out = seg(1, i1 - 1) + seg(i3 + 1, i4) + seg(i2, i3) + seg(i1, i2 - 1) + seg(i4 + 1, n)
    return Permutation(out)


def _outcome(move, *args):
    try:
        return move(*args).entries
    except NotApplicableError as exc:
        return str(exc)


def _assert_fast_path_matches_reference(perm, both_orders=True):
    """The overlap rows, the move lists and apply_cds agree with the reference
    on every pointer pair.

    The rows must set bit q-1 of row p-1 exactly when p and q interlock,
    which also makes them symmetric and loop-free.  Without ``both_orders``
    each pair is tried once, as (p, q) with p <= q.
    """
    n = perm.n
    crossing = {(p, q) for p in range(1, n) for q in range(p + 1, n) if interlocks(perm, p, q)}
    assert _overlap_rows(perm.entries) == [
        sum(1 << (q - 1) for q in range(1, n) if (min(p, q), max(p, q)) in crossing)
        for p in range(1, n)
    ]
    assert legal_moves(perm) == crossing
    assert _move_list(perm) == sorted(crossing)
    for p in range(1, n):
        for q in range(1 if both_orders else p, n):
            assert _outcome(apply_cds, perm, p, q) == _outcome(_reference_apply_cds, perm, p, q)


def test_fast_path_matches_reference_on_every_word_up_to_seven():
    for n in range(1, 8):
        for word in all_words(range(1, n + 1)):
            _assert_fast_path_matches_reference(Permutation(word), both_orders=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_fast_path_matches_reference_on_random_words(word):
    _assert_fast_path_matches_reference(Permutation(word))


@pytest.mark.parametrize("n", [20, 40])
def test_fast_path_matches_reference_on_seeded_large_words(n):
    rng = random.Random(n)
    for _ in range(10):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        _assert_fast_path_matches_reference(Permutation(word), both_orders=False)


def test_apply_cds_validates_pointers_before_the_interlock_test():
    perm = Permutation([2, 4, 1, 3])
    with pytest.raises(ValueError, match="pointer code True"):
        apply_cds(perm, True, 2)
    with pytest.raises(ValueError, match="out of range 1..3"):
        apply_cds(perm, 1, 4)
    with pytest.raises(NotApplicableError):
        apply_cds(perm, 2, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 14).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.integers(1, n - 1), st.integers(1, n - 1))))
def test_swap_is_the_block_swap_of_apply_cds(case):
    word, p, q = case
    word = tuple(word)
    perm = Permutation(word)
    if p != q and interlocks(perm, p, q):
        assert _swap(word, p, q) == _swap(word, q, p) == apply_cds(perm, p, q).entries
    else:
        assert _swap(word, p, q) is None
        with pytest.raises(NotApplicableError):
            apply_cds(perm, p, q)


def test_move_lists_share_one_tuple_per_move():
    first = _move_list(Permutation([2, 4, 1, 3]))
    again = _move_list(Permutation([3, 1, 4, 2]))
    assert (first, again) == ([(1, 2), (1, 3), (2, 3)], [(1, 3)])
    assert again[0] is first[1]
    word = list(range(66, 0, -1))
    word[0], word[-1] = word[-1], word[0]
    moves = _move_list(Permutation(word))  # 65 pointers: made fresh, not kept
    assert moves == sorted(legal_moves(Permutation(word))) and 65 not in _PAIRS
