"""Permutations of {1..n} and the context-directed swap (cds) rewrite.

A *pointer* is an adjacent pair of values (k, k+1), identified here by the
integer code ``k`` with 1 <= k <= n-1.  In a permutation written as a word,
the pointer k occurs twice: on the right-hand side of the entry k (its
"head") and on the left-hand side of the entry k+1 (its "tail").  Two
pointers *interlock* when their four occurrences alternate along the word.
A cds move is indexed by an unordered pair of interlocking pointers; it
swaps the two blocks of entries delimited by the pointer occurrences, after
which the two values of each pointer sit adjacent in sorted order.  The
move is undefined (raises :class:`NotApplicableError`) when the pointers do
not interlock.

Occurrences live on *slots*: the entry at 1-based position i has slot 2i on
its left and slot 2i+1 on its right.  Pointer k thus spans the interval
between slot 2·pos(k)+1 (head-right) and slot 2·pos(k+1) (tail-left); a
slot's parity is its side and ``slot >> 1`` its position.  Head slots are
odd and tail slots even, so the 2(n-1) slots are distinct, and their order
is the (position, side) order of :func:`pointer_occurrences`.  Two pointers
interlock exactly when their intervals cross, so the cds moves are the
edges of a circle graph (Gavril 1973), the overlap graph of the word.
One left-to-right sweep over the slots gives that graph as adjacency rows,
one bit mask per pointer; :func:`legal_moves` reads its pairs off the rows,
and overlap.py builds its graphs and checks its squares on them.
A cds move is one block swap (``_swap``, which works on the bare entry
tuple): the four slots of p and q cut the word into five blocks, and the
second and fourth trade places.  :func:`apply_cds` is the validating entry
point: it checks both pointers and that they interlock, and builds the child
through the validating constructor.  The solver, whose moves come off the
overlap rows and so interlock, builds its children from ``_swap`` through
the trusted constructor ``_from_entries``, which skips the per-entry checks
that a block swap of a permutation cannot fail.
:func:`interlocks` and :func:`pointer_occurrences` stay as the pairwise
reference.

Fixed points of cds are the permutations with no interlocking pointer pair:
the identity and the n-1 rotations [k+1, ..., n, 1, ..., k].
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

__all__ = [
    "NotApplicableError",
    "ParseError",
    "SizeBoundError",
    "Occurrence",
    "Permutation",
    "TAIL_LEFT",
    "HEAD_RIGHT",
    "parse_decimal",
    "parse_permutation",
    "pointer_occurrences",
    "interlocks",
    "legal_moves",
    "apply_cds",
    "is_fixed_point",
    "fixed_point_code",
    "identity",
]


class NotApplicableError(Exception):
    """Raised when a cds move is requested for a non-interlocking pair."""


class ParseError(ValueError):
    """Raised when permutation text cannot be parsed."""


class SizeBoundError(Exception):
    """Raised when an exhaustive computation is asked to exceed its size bound."""


# Sides of a pointer occurrence.  Tail-left sorts before head-right when both
# land on the same entry, which happens exactly when the two pointers are
# consecutive codes meeting at a shared value.
TAIL_LEFT = 0
HEAD_RIGHT = 1

_SIDE_NAMES = {TAIL_LEFT: "tail-left", HEAD_RIGHT: "head-right"}


class Occurrence(NamedTuple):
    """One of the two occurrences of a pointer: a 1-based position and a side."""

    position: int
    side: int

    def __repr__(self) -> str:
        return f"Occurrence({self.position}, {_SIDE_NAMES[self.side]})"


class Permutation:
    """An immutable permutation of {1..n}, n >= 1, stored as a tuple of entries."""

    __slots__ = ("entries", "_word")

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        values = tuple(entries)
        n = len(values)
        if n == 0:
            raise ValueError("a permutation needs at least one entry")
        seen = set()
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry {v!r} is not an integer")
            if not 1 <= v <= n:
                raise ValueError(f"entry {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"entry {v} appears more than once")
            seen.add(v)
        object.__setattr__(self, "entries", values)
        object.__setattr__(self, "_word", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # Rebuilt through the validating constructor; the kept word is left behind.
        return Permutation, (self.entries,)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Permutation({list(self.entries)})"

    @property
    def n(self) -> int:
        return len(self.entries)

    def word(self) -> str:
        """The entries separated by single spaces, rendered on first use and kept."""
        text = self._word
        if text is None:
            text = " ".join(map(str, self.entries))
            object.__setattr__(self, "_word", text)
        return text

    def position_of(self, value: int) -> int:
        """1-based position of ``value`` in the word."""
        return self.entries.index(value) + 1


# A tuple already known to be a permutation of 1..n (a block swap of one, or
# a word of ``itertools.permutations``) is made through the slot setters,
# past the checks of __init__, as graphs._fill makes graphs.
_new = object.__new__
_set_entries, _set_word = (Permutation.__dict__[name].__set__ for name in Permutation.__slots__)


def _from_entries(entries: tuple[int, ...]) -> Permutation:
    perm = _new(Permutation)
    _set_entries(perm, entries)
    _set_word(perm, None)
    return perm


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def parse_decimal(text: str) -> int:
    """An integer written in ASCII: an optional sign and decimal digits,
    with whitespace around them.

    Raises ValueError for anything else, including the other scripts'
    digits and the underscores that ``int`` would also read.
    """
    body = text.strip(" \t\n\v\f\r") if text.isascii() else ""
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdigit():
        raise ValueError(f"{text!r} is not an ASCII decimal integer")
    return int(body)


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace-separated entries such as ``"3 6 5 2 4 8 1 7"``."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation text")
    values = []
    for tok in tokens:
        try:
            values.append(parse_decimal(tok))
        except ValueError:
            raise ParseError(f"token {tok!r} is not an integer") from None
    n = len(values)
    seen = set()
    for tok, v in zip(tokens, values):
        if not 1 <= v <= n:
            raise ParseError(f"token {tok!r} out of range 1..{n}")
        if v in seen:
            raise ParseError(f"token {tok!r} duplicates an earlier entry")
        seen.add(v)
    return Permutation(values)


def _check_pointer(perm: Permutation, p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"pointer code {p!r} is not an integer")
    if not 1 <= p <= perm.n - 1:
        raise ValueError(f"pointer code {p} out of range 1..{perm.n - 1}")


def pointer_occurrences(perm: Permutation, p: int) -> tuple[Occurrence, Occurrence]:
    """The two occurrences of pointer ``p``, in linear (left-to-right) order.

    The head-right occurrence sits at the position of entry p, the tail-left
    occurrence at the position of entry p+1.  When the positions coincide
    they cannot: p and p+1 are distinct entries.  Ordering is by position,
    with tail-left before head-right at equal positions (relevant only when
    comparing occurrences of *different* pointers).
    """
    _check_pointer(perm, p)
    head = Occurrence(perm.position_of(p), HEAD_RIGHT)
    tail = Occurrence(perm.position_of(p + 1), TAIL_LEFT)
    return (head, tail) if head < tail else (tail, head)


def _merged_occurrences(
    perm: Permutation, p: int, q: int
) -> list[tuple[Occurrence, int]]:
    """All four occurrences of p and q, tagged by owner, in linear order."""
    occs = [(o, p) for o in pointer_occurrences(perm, p)]
    occs += [(o, q) for o in pointer_occurrences(perm, q)]
    occs.sort()
    return occs


def interlocks(perm: Permutation, p: int, q: int) -> bool:
    """True iff the occurrences of p and q alternate (pattern pqpq or qpqp)."""
    if p == q:
        raise ValueError("interlocking is defined for two distinct pointers")
    _check_pointer(perm, p)
    _check_pointer(perm, q)
    owners = [owner for _, owner in _merged_occurrences(perm, p, q)]
    return owners[0] == owners[2] and owners[0] != owners[1]


def _overlap_rows(entries: tuple[int, ...]) -> list[int]:
    """The overlap graph of the word ``entries`` as adjacency rows: bit q-1
    of ``rows[p-1]`` is set exactly when pointers p and q interlock.

    One sweep: reading the word left to right visits the slots in order, the
    entry v carrying the tail-left slot of pointer v-1, then the head-right
    slot of pointer v.  ``opened`` is the mask of the pointers with one slot
    passed.  A pointer's row is ``opened`` as its first slot found it, XORed
    with ``opened`` as its second slot leaves it: the pointers whose state
    changed in between are those with exactly one slot inside its interval,
    which are the pointers it crosses.
    """
    n = len(entries)
    rows = [0] * (n - 1)
    opened = 0
    for v in entries:
        if v > 1:  # the tail-left slot of pointer v-1
            bit = 1 << (v - 2)
            if opened & bit:
                opened ^= bit
                rows[v - 2] ^= opened
            else:
                rows[v - 2] = opened
                opened |= bit
        if v < n:  # the head-right slot of pointer v
            bit = 1 << (v - 1)
            if opened & bit:
                opened ^= bit
                rows[v - 1] ^= opened
            else:
                rows[v - 1] = opened
                opened |= bit
    return rows


# Per pointer count m <= 64, row p of _PAIRS[m] holds the move (p, p + j) at
# index j: the move lists of words of one length share one tuple per move.
_PAIRS: dict[int, tuple] = {}


def _pairs(m: int) -> tuple:
    rows = _PAIRS.get(m)
    if rows is None:
        rows = tuple(tuple((p, p + j) for j in range(m - p + 1)) for p in range(m + 1))
        if m <= 64:
            _PAIRS[m] = rows
    return rows


def _move_list(entries: tuple[int, ...]) -> list[tuple[int, int]]:
    """The legal moves of the word ``entries`` in sorted order, read off the
    overlap rows.

    The list is allocated at its final size and its moves are the shared
    tuples of ``_pairs``, because the solvers' successor memo keeps one list
    per state.
    """
    rows = _overlap_rows(entries)
    pairs = _pairs(len(rows))
    moves: list = [None] * (sum(map(int.bit_count, rows)) >> 1)
    i = 0
    for p, row in enumerate(rows, 1):
        up = row >> p  # bit j is pointer p + 1 + j
        pair = pairs[p]
        while up:
            low = up & -up
            up ^= low
            moves[i] = pair[low.bit_length()]
            i += 1
    return moves


def legal_moves(perm: Permutation) -> set[tuple[int, int]]:
    """All unordered interlocking pointer pairs, as tuples (p, q) with p < q.

    The pairs are read off the overlap graph's adjacency rows, which one
    left-to-right sweep over the slots gives (see ``_overlap_rows``).
    """
    return set(_move_list(perm.entries))


def _swap(e: tuple[int, ...], p: int, q: int) -> tuple[int, ...] | None:
    """The word ``e`` after the block swap at pointers p and q, or None when
    they do not interlock.

    The four occurrences of p and q, at slots s1 < s2 < s3 < s4, cut the
    word: slot s is the cut just before the entry at 0-based index
    ``(s - 1) >> 1``.  The swap trades the block between the first two cuts
    with the block between the last two, the block between them staying in
    the middle:

        e[:c1] + e[c3:c4] + e[c2:c3] + e[c1:c2] + e[c4:]
    """
    index = e.index
    # Each pointer's slot interval, head-right 2·pos(k)+1 and tail-left
    # 2·pos(k+1), with 1-based positions; the one opening first is (s1, s3).
    head, tail = 2 * index(p) + 3, 2 * index(p + 1) + 2
    first = (head, tail) if head < tail else (tail, head)
    head, tail = 2 * index(q) + 3, 2 * index(q + 1) + 2
    second = (head, tail) if head < tail else (tail, head)
    if second < first:
        first, second = second, first
    (s1, s3), (s2, s4) = first, second
    if not s1 < s2 < s3 < s4:
        return None
    c1, c2, c3, c4 = (s1 - 1) >> 1, (s2 - 1) >> 1, (s3 - 1) >> 1, (s4 - 1) >> 1
    return e[:c1] + e[c3:c4] + e[c2:c3] + e[c1:c2] + e[c4:]


def _checked_swap(perm: Permutation, p: int, q: int) -> tuple[int, ...]:
    """``_swap`` of the entries of ``perm``, after checking both pointers
    (ValueError) and that they interlock (NotApplicableError)."""
    _check_pointer(perm, p)
    _check_pointer(perm, q)
    swapped = _swap(perm.entries, p, q)
    if swapped is None:
        raise NotApplicableError(
            f"pointers {p} and {q} do not interlock in {list(perm.entries)}"
        )
    return swapped


def apply_cds(perm: Permutation, p: int, q: int) -> Permutation:
    """Apply the cds move indexed by the interlocking pair {p, q}: the block
    swap of ``_swap``, after checking both pointers and that they interlock,
    as a validated Permutation.

    After the move each of the two pointers has its values adjacent and in
    order, so neither pointer interlocks with anything again.
    """
    return Permutation(_checked_swap(perm, p, q))


def is_fixed_point(perm: Permutation) -> bool:
    """True iff no cds move applies: perm is the identity or [k+1..n, 1..k]."""
    e = perm.entries
    n = len(e)
    return all(e[i + 1] == e[i] % n + 1 for i in range(n - 1))


def fixed_point_code(perm: Permutation) -> int | None:
    """Code of a cds fixed point: None for the identity, else k for [k+1..n,1..k].

    The code names the pointer whose values wrap around the word boundary.
    Raises ValueError when the permutation still has legal moves.
    """
    if not is_fixed_point(perm):
        raise ValueError(f"{list(perm.entries)} is not a cds fixed point")
    first = perm.entries[0]
    return None if first == 1 else first - 1
