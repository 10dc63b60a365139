"""Exact representations of the four supported spaces.

Points are finite symbolic objects denoting infinite ones:

* Cantor / Baire points are eventually periodic words ``head . cycle^inf``,
  canonicalized (minimal head, primitive cycle) so that equality of the
  denoted sequences is equality of the stored words: bytes on Cantor
  space, one byte per bit, and tuples of ints on Baire space, whose
  symbols need not fit in a byte.
* Unit points are rationals in [0, 1].
* Z points are strictly increasing, divergent sequences of nonnegative
  rationals given by a finite prefix and an affine tail q_n = a*n + b.

Distances are returned exactly (`Dist`): a rational on [0, 1], and a
symbolic power 2^(-e) elsewhere (the Z metric produces irrational values),
so one space's distances are all of one kind.

Basic opens are cylinders N_s (Cantor/Baire) and open rational intervals
clamped to [0, 1] (unit); Z has no good basis here, so it needs none.  A
good basis is a fixed total enumeration of basic opens: all cylinders,
ordered by length (on Baire space, length plus symbol sum) then
lexicographically, or interval blocks of shrinking scale.  Each basis
walks the indices of the basic opens through a point in enumeration
order (`indices_through`), and builds an open only when asked for one
(`at`).  A cylinder keeps its word in the space's word type, as a point
does: bytes on Cantor space, a tuple on Baire space.
The unit interval basis has no canonical order in the literature; the one
fixed here is documented on :class:`UnitGoodBasis` and traces depend on it.

Closed sets (`ClosedSet`) are exact too: finite unions of cylinders and
singletons on a word space, their cylinder words in the space's word
type, and finite unions of closed rational intervals on the unit
interval.  Membership, "does this basic open meet the set",
distance to the set and intersection are all decided exactly, and each
raises SpaceMismatch on a point, open or set of another space.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from . import Record

CANTOR = "cantor"
BAIRE = "baire"
UNIT = "unit"
Z = "z"


class SpaceMismatch(ValueError):
    """Raised when two values from different spaces are combined."""


def _require_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch(f"space mismatch: {a.space} vs {b.space}")


def common_space(items: Iterable) -> str:
    """The one space of some points or sets; SpaceMismatch unless there is one."""
    spaces = {item.space for item in items}
    if len(spaces) != 1:
        raise SpaceMismatch(f"expected one space, got {sorted(spaces)}")
    return spaces.pop()


# ---------------------------------------------------------------------------
# Exact distances
# ---------------------------------------------------------------------------

_RANK = {"zero": 0, "rat": 1, "pow2": 1, "inf": 2}  # 0 < positive < infinity


class Dist(Record):
    """Exact nonnegative distance: 0, a rational, 2^(-e), or +infinity.

    The value is kept as given, an int or a Fraction: a word distance's
    exponent is the int index of the first disagreement, and a Z exponent
    or a unit distance is a Fraction.  An int and an equal Fraction
    compare, hash and print alike, so equal distances are equal whichever
    type holds them.

    The +infinity sentinel exists for the delta gauge (distance to an empty
    union); it compares greater than everything else.  A rational and a
    power come from different spaces: comparing them raises SpaceMismatch.
    """

    _fields = ("kind", "value")

    def __init__(self, kind: str, value: Union[int, Fraction, None] = None):
        self.kind = kind  # "zero" | "rat" | "pow2" | "inf"
        self.value = value  # rational value, or exponent e for pow2

    @staticmethod
    def zero() -> "Dist":
        return Dist("zero")

    @staticmethod
    def rational(q: Union[int, Fraction]) -> "Dist":
        if q < 0:
            raise ValueError("distances are nonnegative")
        return Dist("zero") if q == 0 else Dist("rat", q)

    @staticmethod
    def pow2(e: Union[int, Fraction]) -> "Dist":
        """The value 2^(-e), e an int on word spaces and a Fraction on Z."""
        return Dist("pow2", e)

    @staticmethod
    def infinity() -> "Dist":
        return Dist("inf")

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def as_fraction(self) -> Fraction:
        """Exact value of a unit-interval distance; fails for powers and infinity."""
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "rat":
            return self.value
        raise ValueError(f"not a rational distance: {self}")

    def _cmp(self, other: "Dist") -> int:
        a, b = self.kind, other.kind
        if a == b:
            if a == "pow2":  # 2^(-e) < 2^(-e') iff e > e'
                return (other.value > self.value) - (other.value < self.value)
            if a == "rat":
                return (self.value > other.value) - (self.value < other.value)
            return 0
        if _RANK[a] == _RANK[b]:
            raise SpaceMismatch(f"a rational and a power of two: {self} vs {other}")
        return _RANK[a] - _RANK[b]

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __str__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "rat":
            return str(self.value)
        if self.kind == "pow2":
            return f"2^(-{self.value})"
        return "inf"


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


# int.from_bytes, looked up once: the attribute lookup builds a bound
# method on every call, about half the cost of a short word's conversion
_from_bytes = int.from_bytes

# A word of a point's own space: bytes on Cantor space, a tuple on Baire space.
# Cylinders and closed sets keep their words in this type too.
Word = Union[bytes, Tuple[int, ...]]


def _space_word(space: str, word: Sequence[int]) -> Word:
    """word in the word type of a word space, its symbols checked against
    the space's alphabet: ValueError on a symbol that is no bit on Cantor
    space, or no natural on Baire space.  A Cantor bytes word is kept as
    it is."""
    if type(word) is bytes and space == CANTOR:
        if not word.translate(None, b"\x00\x01"):
            return word
    else:
        word = tuple(word)
        if all(type(a) is int and 0 <= a and (a <= 1 or space == BAIRE) for a in word):
            return bytes(word) if space == CANTOR else word
    raise ValueError(f"cylinder {tuple(word)} has a symbol outside the {space} alphabet")


def _primitive_cycle(cycle: Word) -> Word:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def _canonical_word(head: Word, cycle: Word) -> Tuple[Word, Word]:
    """The minimal head and primitive cycle of head.cycle^inf: the trailing
    head symbols that repeat the cycle backwards move into it."""
    cycle = _primitive_cycle(cycle)
    c, k = len(cycle), 0
    while k < len(head) and head[-1 - k] == cycle[-1 - k % c]:
        k += 1
    if not k:
        return head, cycle
    r = k % c
    return head[:-k], (cycle[-r:] + cycle[:-r] if r else cycle)


class WordPoint(Record):
    """Eventually periodic point of Cantor space (bits) or Baire space (naturals).

    head and cycle may be given as any sequences of ints and are stored in
    the space's word type (`Word`): bytes on Cantor space, tuples on Baire
    space.  `prefix` returns a tuple on both spaces, `word` the space's type.

    `word` keeps the point's expansion in `_expanded`, at least doubling it
    when a longer word is asked for, and `first_difference` reads it when
    it is long enough.  Only path and route steps call `word`, on the
    point x they trace, so list points stay unexpanded.  The cache is an
    instance attribute over a class default of None, not a field, so
    equality, hashing, `repr`, the `_fields` values and the point's text
    ignore it.
    """

    _fields = ("space", "head", "cycle")
    _expanded = None

    def __init__(self, space: str, head: Sequence[int], cycle: Sequence[int]):
        if space == CANTOR:
            try:
                head, cycle = bytes(head), bytes(cycle)
            except ValueError:  # a symbol outside range(256)
                raise ValueError("symbol out of alphabet") from None
            bad = (head + cycle).translate(None, b"\x00\x01")
        elif space == BAIRE:
            head, cycle = tuple(head), tuple(cycle)
            bad = min(head + cycle, default=0) < 0
        else:
            raise ValueError(f"not a word space: {space}")
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if bad:
            raise ValueError("symbol out of alphabet")
        self.space = space
        self.head, self.cycle = _canonical_word(head, cycle)

    # Record's equality and hash, written out: points are compared and
    # hashed in hot loops, where reading the fields through Record's generic
    # key costs more than twice as much per `==`.  The values are Record's.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.head == other.head and self.cycle == other.cycle
                and self.space == other.space)

    def __hash__(self):
        return hash((self.space, self.head, self.cycle))

    def at(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def _symbols(self, n: int) -> Word:
        """At least the first n symbols, in the space's word type: the head
        and enough whole cycles."""
        short = n - len(self.head)
        if short <= 0:
            return self.head
        return self.head + self.cycle * -(-short // len(self.cycle))

    def word(self, n: int) -> Word:
        """The first n symbols in the space's word type: bytes on Cantor."""
        w = self._expanded
        if w is None or len(w) < n:
            w = self._expanded = self._symbols(max(n, 2 * len(w or ())))
        return w[:n]

    def prefix(self, n: int) -> Tuple[int, ...]:
        """The first n symbols as a tuple of ints, on either space."""
        return tuple(self._symbols(n)[:n])

    def starts_with(self, word: Sequence[int]) -> bool:
        n = len(word)
        mine = self._symbols(n)[:n]
        if type(word) is not type(mine):
            try:
                word = type(mine)(word)
            except ValueError:  # a symbol that no byte holds
                return False
        return mine == word

    def first_difference(self, other: "WordPoint", start: int = 0) -> Optional[int]:
        """Index of the first disagreement, or None if the points are equal.
        A caller that knows the points agree on symbols 0..start-1 passes
        start, and the comparison begins there.

        From max(|h1|, |h2|) on, both words are periodic, with periods
        |c1| and |c2|.  If they agree on the next |c1| + |c2| symbols, that
        stretch has both periods and so (Fine-Wilf) their gcd, which
        divides both; both tails then have period gcd and are equal.
        Distinct canonical forms thus disagree before
        n = max(|h1|, |h2|) + |c1| + |c2|.

        On Cantor space symbols start..n-1 of both points are read as
        big-endian ints and XORed: the highest set bit lies in the first
        differing byte, counted from index n - 1 down."""
        _require_same_space(self, other)
        n = max(len(self.head), len(other.head)) + len(self.cycle) + len(other.cycle)
        mine = self._expanded
        if mine is None or len(mine) < n:
            mine = self._symbols(n)
        theirs = other._symbols(n)
        if self.space == CANTOR:
            d = _from_bytes(mine[start:n], "big") ^ _from_bytes(theirs[start:n], "big")
            return n - 1 - ((d.bit_length() - 1) >> 3) if d else None
        d = first_mismatch(mine[start:n], theirs[start:n])
        return None if d is None else start + d

    def __str__(self):
        return format_point(self)


def first_mismatch(a: Word, b: Word) -> Optional[int]:
    """The least i with a[i] != b[i] within the shorter of two words of one
    type, or None if one is a prefix of the other.  Two bytes words are
    read as big-endian ints: the highest set bit of their XOR lies in the
    first differing byte, counted from the end.  Tuples (Baire words) are
    compared in C, then scanned for the difference."""
    n = min(len(a), len(b))
    if type(a) is bytes and type(b) is bytes:
        d = _from_bytes(a[:n], "big") ^ _from_bytes(b[:n], "big")
        return n - 1 - ((d.bit_length() - 1) >> 3) if d else None
    if a[:n] == b[:n]:
        return None
    return next(i for i in range(n) if a[i] != b[i])


def cantor_point(head: str, cycle: str) -> WordPoint:
    """Cantor point from bit strings, e.g. cantor_point("10", "0") = 10 0^inf."""
    return WordPoint(CANTOR, bytes(map(int, head)), bytes(map(int, cycle)))


def baire_point(head: Iterable[int], cycle: Iterable[int]) -> WordPoint:
    return WordPoint(BAIRE, tuple(head), tuple(cycle))


class UnitPoint(Record):
    _fields = ("value",)
    space = UNIT

    def __init__(self, value: Fraction):
        if type(value) is not Fraction:
            value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError("unit point outside [0,1]")
        self.value = value

    def __str__(self):
        return format_point(self)


class ZPoint(Record):
    """Strictly increasing divergent sequence of nonnegative rationals.

    Entries: q_n = prefix[n] for n < len(prefix), else a*n + b.  The affine
    tail (a > 0) forces strict increase and divergence.  The prefix is
    trimmed so that entries already matching the tail rule are not stored,
    making equality of denoted sequences equality of fields.

    A point caches its entries q_0, q_1, ... twice: as Fractions in the
    tuple `_entries`, and as the int pairs (numerator, denominator) of
    those Fractions in the tuple `_pairs`.  The first `first_difference`
    that reads the point builds both: the prefix and at least the first
    two tail entries.  A comparison with a point of longer prefix extends
    both as far as that one's bound.  `entry` and `pair` read a cache when
    it holds entry n, and the fields otherwise.  A Fraction is kept in
    lowest terms with a positive denominator, so two entries are equal iff
    their pairs are, and q_m < q_n iff the integer cross-product
    num_m * den_n < num_n * den_m: comparisons of entries need no Fraction
    arithmetic.  Each cache is an instance attribute over an empty class
    default, not a field, so equality, hashing, `repr`, the `_fields`
    values and the point's text ignore it.
    """

    _fields = ("prefix", "a", "b")
    space = Z
    _entries = ()
    _pairs = ()

    def __init__(self, prefix: Sequence[Fraction], a: Fraction, b: Fraction):
        prefix = tuple(Fraction(q) for q in prefix)
        a, b = Fraction(a), Fraction(b)
        if a <= 0:
            raise ValueError("tail slope must be positive")
        first = prefix[0] if prefix else b
        if first < 0:
            raise ValueError("entries must be nonnegative")
        for i in range(1, len(prefix)):
            if prefix[i - 1] >= prefix[i]:
                raise ValueError("prefix must be strictly increasing")
        if prefix and prefix[-1] >= a * len(prefix) + b:
            raise ValueError("prefix must stay below the affine tail")
        while prefix and prefix[-1] == a * (len(prefix) - 1) + b:
            prefix = prefix[:-1]
        self.prefix, self.a, self.b = prefix, a, b

    def _entries_to(self, n: int) -> Tuple[Tuple[int, int], ...]:
        """The pair cache, with both caches built or extended to hold at
        least q_0..q_{n-1}, and never less than the prefix and the first
        two tail entries."""
        r = self._pairs
        if len(r) < n:
            q = self._entries or self.prefix
            top = max(n, len(self.prefix) + 2)
            q += tuple(self.a * i + self.b for i in range(len(q), top))
            r += tuple((v.numerator, v.denominator) for v in q[len(r):])
            self._entries, self._pairs = q, r
        return r

    def entry(self, n: int) -> Fraction:
        q = self._entries
        if n < len(q):
            return q[n]
        return self.prefix[n] if n < len(self.prefix) else self.a * n + self.b

    def pair(self, n: int) -> Tuple[int, int]:
        """(numerator, denominator) of q_n, in lowest terms with a positive
        denominator, as the Fraction keeps them."""
        r = self._pairs
        if n < len(r):
            return r[n]
        v = self.entry(n)
        return v.numerator, v.denominator

    def first_entry_above(self, e: Fraction) -> int:
        """The least n with q_n > e (it exists: the entries diverge): a
        bisect over the strictly increasing prefix, and past it the least
        n > (e - b) / a, floored in integers."""
        n = bisect_right(self.prefix, e)
        if n < len(self.prefix):
            return n
        a, b = self.a, self.b
        num = (e.numerator * b.denominator - b.numerator * e.denominator) * a.denominator
        den = e.denominator * b.denominator * a.numerator
        return max(n, num // den + 1)

    def first_difference(self, other: "ZPoint", start: int = 0) -> Optional[int]:
        """Index of the first entry where the points differ, or None if they
        are equal.  A caller that knows the points agree on entries
        0..start-1 passes start, and the comparison begins there."""
        _require_same_space(self, other)
        if self is other:
            return None
        # Beyond both prefixes the sequences are affine; two distinct affine
        # rules agree at most once, so the first difference shows up within
        # two steps of the longer prefix, and points that agree that far are
        # equal.
        n = max(len(self.prefix), len(other.prefix)) + 2
        q, r = self._entries_to(n), other._entries_to(n)
        for i in range(start, n):
            if q[i] != r[i]:  # int pairs: equal iff the entries are
                return i
        return None

    def __str__(self):
        return format_point(self)


PointCode = Union[WordPoint, UnitPoint, ZPoint]


def dist(p: PointCode, q: PointCode) -> Dist:
    """Exact distance in the point's space.

    Cantor/Baire: 2^(-n) at the first disagreement index n; unit: |p - q|;
    Z: 2^(-min(q_n0, q'_n0)) at the first disagreement index n0.
    """
    _require_same_space(p, q)
    if isinstance(p, UnitPoint):
        return Dist.rational(abs(p.value - q.value))
    if isinstance(p, WordPoint):
        d = p.first_difference(q)
        return Dist.zero() if d is None else Dist.pow2(d)
    if isinstance(p, ZPoint):
        n0 = p.first_difference(q)
        if n0 is None:
            return Dist.zero()
        return Dist.pow2(min(p.entry(n0), q.entry(n0)))
    raise TypeError(f"unknown point type {type(p)!r}")


# ---------------------------------------------------------------------------
# Basic opens
# ---------------------------------------------------------------------------


class Cylinder(Record):
    """N_s = all points extending the finite word s.

    The word may be given as any sequence of ints and is stored in the
    space's word type (`Word`): bytes on Cantor space, a tuple on Baire
    space.  A word space is required (SpaceMismatch otherwise), and a
    symbol outside its alphabet raises ValueError, as in `ClosedSet`.
    """

    _fields = ("space", "word")

    def __init__(self, space: str, word: Sequence[int]):
        if space != CANTOR and space != BAIRE:
            raise SpaceMismatch(f"cylinders need a word space, not {space}")
        self.space = space
        self.word = _space_word(space, word)

    def member(self, p: PointCode) -> bool:
        _require_same_space(self, p)
        return p.starts_with(self.word)

    def __str__(self):
        sep = "" if self.space == CANTOR else ","
        return f"N({sep.join(str(s) for s in self.word)})"


class RationalInterval(Record):
    """Open rational interval, implicitly intersected with [0,1]."""

    _fields = ("lo", "hi")
    space = UNIT

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi

    def member(self, p: PointCode) -> bool:
        _require_same_space(self, p)
        return self.lo < p.value < self.hi

    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        return f"({self.lo},{self.hi})"


BasicOpen = Union[Cylinder, RationalInterval]


# ---------------------------------------------------------------------------
# Exact closed sets
# ---------------------------------------------------------------------------


class ClosedSet(Record):
    """Exact closed set: union of cylinders/singletons (word spaces) or of
    closed rational intervals (unit).  Degenerate intervals are points.

    The constructor checks each piece against the space: cylinders and
    singletons only on a word space, a cylinder's symbols from its alphabet
    and a singleton a `WordPoint` of it; intervals only on [0,1], with
    0 <= lo <= hi <= 1.  A piece of another space raises SpaceMismatch,
    any other bad piece ValueError.  Cylinder words are stored in the
    space's word type (`Word`), as `Cylinder` stores its word.

    The pruned-tree oracle of a word-space closed set is exact at every
    depth: hits(w) holds iff N_w meets the set.
    """

    _fields = ("space", "cylinders", "singletons", "intervals", "name")

    def __init__(self, space: str, cylinders: Sequence[Sequence[int]] = (),
                 singletons: Sequence[WordPoint] = (),
                 intervals: Sequence[Tuple[Fraction, Fraction]] = (), name: str = ""):
        cylinders, singletons = list(cylinders), tuple(singletons)
        if (cylinders or singletons) and space not in (CANTOR, BAIRE):
            raise SpaceMismatch(f"cylinders and singletons need a word space, not {space}")
        cylinders = [_space_word(space, w) for w in cylinders]
        for p in singletons:
            if not isinstance(p, WordPoint) or p.space != space:
                raise SpaceMismatch(f"singleton {p!s} is no point of {space}")
        ivs = []
        for lo, hi in intervals:
            if space != UNIT:
                raise SpaceMismatch(f"intervals need the unit interval, not {space}")
            lo, hi = Fraction(lo), Fraction(hi)
            if not 0 <= lo <= hi <= 1:
                raise ValueError(f"interval piece [{lo}, {hi}] is empty or leaves [0,1]")
            ivs.append((lo, hi))
        self.space = space
        self.cylinders = tuple(sorted(cylinders))
        self.singletons = tuple(sorted(singletons, key=str))
        self.intervals = tuple(sorted(ivs))
        self.name = name

    # The fields never change, so their hash is taken on first use and
    # kept, not on construction: most sets (complement pieces) are never
    # hashed.  It is an instance attribute over a class default, not a
    # field, so equality and repr ignore it.
    _hash = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key(self))
        return self._hash

    # -- membership / tree oracle ------------------------------------------

    def member(self, p: PointCode) -> bool:
        _require_same_space(self, p)
        if isinstance(p, UnitPoint):
            return any(lo <= p.value <= hi for lo, hi in self.intervals)
        return any(p.starts_with(w) for w in self.cylinders) or any(
            p == s for s in self.singletons
        )

    def hits(self, word: Sequence[int]) -> bool:
        """Exact tree oracle: does N_word meet the set?  A word with a
        symbol outside the space's alphabet names no cylinder and meets
        nothing."""
        try:
            word = _space_word(self.space, word)
        except ValueError:
            return False
        # N_word meets a cylinder N_w iff one word is a prefix of the other
        return any(w[:len(word)] == word[:len(w)] for w in self.cylinders) or any(
            s.starts_with(word) for s in self.singletons
        )

    def meets(self, W: BasicOpen) -> bool:
        """Exact: is W /\\ F nonempty?"""
        _require_same_space(self, W)
        if isinstance(W, Cylinder):
            return self.hits(W.word)
        if isinstance(W, RationalInterval):
            # closed [a,b] meets open (lo,hi) iff b > lo and a < hi
            return any(hi > W.lo and lo < W.hi for lo, hi in self.intervals)
        raise ValueError(f"unsupported basic open {W!r}")

    def is_empty(self) -> bool:
        return not (self.cylinders or self.singletons or self.intervals)

    def dist(self, p: PointCode) -> Dist:
        """Exact distance from a point to the set (infinite if empty).

        On a word space it is 0 on the set and otherwise 2^-n for the
        largest n with hits(p|n): the set is closed, so a point off it has
        a prefix whose cylinder misses the set.  That n is read off each
        piece once: p|n meets a cylinder w iff n <= first_mismatch(p|len(w), w),
        and extends a singleton s iff n <= p.first_difference(s); either
        index is None iff p lies on that piece.
        """
        _require_same_space(self, p)
        if self.is_empty():
            return Dist.infinity()
        if isinstance(p, UnitPoint):
            v = p.value
            return Dist.rational(min(max(0, lo - v, v - hi) for lo, hi in self.intervals))
        agree = [first_mismatch(p._symbols(len(w)), w) for w in self.cylinders]
        agree += [p.first_difference(s) for s in self.singletons]
        return Dist.zero() if None in agree else Dist.pow2(max(agree))

    # -- algebra -------------------------------------------------------------

    def intersect(self, other: "ClosedSet") -> "ClosedSet":
        _require_same_space(self, other)
        cyl, sing, ivs = [], [], []
        for a in self.cylinders:
            for b in other.cylinders:
                if a[:len(b)] == b[:len(a)]:
                    cyl.append(a if len(a) >= len(b) else b)
        for s in self.singletons:
            if other.member(s):
                sing.append(s)
        for s in other.singletons:
            if self.member(s) and s not in sing:
                sing.append(s)
        for lo, hi in self.intervals:
            for lo2, hi2 in other.intervals:
                a, b = max(lo, lo2), min(hi, hi2)
                if a <= b:
                    ivs.append((a, b))
        name = f"{self.name}&{other.name}" if self.name or other.name else ""
        return ClosedSet(self.space, tuple(set(cyl)), tuple(sing), tuple(ivs), name)

    def __str__(self):
        return self.name or f"ClosedSet({self.space})"


def whole_space(space: str) -> ClosedSet:
    if space == UNIT:
        return ClosedSet(UNIT, intervals=((Fraction(0), Fraction(1)),), name="X")
    return ClosedSet(space, cylinders=((),), name="X")


# ---------------------------------------------------------------------------
# Good bases
# ---------------------------------------------------------------------------


class NoGoodBasis(ValueError):
    pass


class CylinderGoodBasis:
    """All cylinders, in one total order.

    Cantor: by length, then lexicographically; the length-l block starts
    at 2^l - 1.  Baire: by key len(t) + sum(t), then lexicographically;
    each key class is finite and an extension has a larger key.  Writing
    each symbol s as 0 1^s and dropping the first 0 maps the words of key
    K >= 1, in order, onto the binary words of length K - 1, so a nonempty
    word's index is 1 + the Cantor index of its binary word.
    """

    def __init__(self, space: str):
        if space not in (CANTOR, BAIRE):
            raise ValueError("cylinder basis needs a word space")
        self.space = space

    def _extend(self, m: int, s: int) -> int:
        """The index of word + (s,), from the index m of word.  Cantor: the
        block start b goes to 2b + 1 and the value v in the block to 2v + s.
        Baire: m = 2^|u| + value(u) for the binary word u, which gains
        0 1^s, or only 1^s after the empty word (m = 0)."""
        if self.space == CANTOR:
            return 2 * m + s + 1
        return ((2 * m + 1) << s) - 1 if m else (2 << s) - 1

    def index_of_word(self, word: Sequence[int]) -> int:
        """The index of N_word; ValueError on a symbol outside the space's
        alphabet."""
        m = 0
        for s in _space_word(self.space, word):
            m = self._extend(m, s)
        return m

    def at(self, m: int) -> Cylinder:
        if self.space == CANTOR:
            return Cylinder(CANTOR, bin(m + 1)[3:].encode().translate(_TEXT_BITS))
        if m == 0:
            return Cylinder(BAIRE, ())
        # the binary word of Cantor index m - 1, with its first 0 put back:
        # each symbol is the run of 1s after a 0
        runs = ("0" + bin(m)[3:]).split("0")[1:]
        return Cylinder(BAIRE, tuple(map(len, runs)))

    def indices_through(self, x: WordPoint, top: Optional[int] = None) -> Iterator[int]:
        """The index m of every basic open W_m containing x, ascending, up
        to top when it is given: the indices of the cylinders of x's
        prefixes, shortest first, each carried from the one before
        (`_extend`).  No cylinder is built; `at(m)` builds one.

        On Baire space a word ending in symbol s has index at least
        2^(s+1) - 1, past top once s >= top.bit_length(), so the walk stops
        at such a symbol without building its index, an s-bit int."""
        if top is not None and top < 0:
            return
        m = 0
        yield m
        far = top.bit_length() if top is not None and self.space == BAIRE else None
        for i in count():
            s = x.at(i)
            if far is not None and s >= far:
                return
            m = self._extend(m, s)
            if top is not None and m > top:
                return
            yield m


class UnitGoodBasis:
    """Open rational intervals in shrinking blocks.

    Block r (r = 0, 1, ...) lists the intervals (k*h, k*h + 2h) with
    h = 2^(-r-1), for k = -1 .. 2^(r+1) - 1, clamped to [0,1].  Each block
    covers [0,1] with intervals of length 2^(-r) stepped by half a length,
    so any two points closer than 2^(-r-1) share a block-r interval.
    """

    space = UNIT

    def _block_start(self, r: int) -> int:
        # sum of block sizes below r: sum(2^(j+1) + 1) = 2^(r+1) - 2 + r
        return 2 ** (r + 1) - 2 + r

    def interval(self, r: int, k: int) -> RationalInterval:
        D = 2 ** (r + 1)
        return RationalInterval(Fraction(k, D), Fraction(k + 2, D))

    def index_of(self, r: int, k: int) -> int:
        return self._block_start(r) + (k + 1)

    def at(self, m: int) -> RationalInterval:
        r = 0
        while self._block_start(r + 1) <= m:
            r += 1
        k = m - self._block_start(r) - 1
        return self.interval(r, k)

    def blocks_containing(self, r: int, v: Fraction) -> Tuple[int, ...]:
        """The k of the one or two block-r intervals containing v, ascending."""
        # k*h < v < (k+2)*h  <=>  k < q < k + 2 with q = v/h = v * 2^(r+1), so
        # k is floor(q) - 1, and floor(q) too unless q is an integer; for v in
        # [0,1] both lie in the block's range -1 .. 2^(r+1) - 1
        top, rem = divmod(v.numerator << (r + 1), v.denominator)
        return (top - 1, top) if rem else (top - 1,)

    def indices_through(self, x: UnitPoint, top: Optional[int] = None) -> Iterator[int]:
        """The index m of every basic open W_m containing x, ascending, up
        to top when it is given: the one or two intervals through x of
        each block, block by block.  No interval is built; `at(m)` builds
        one."""
        for r in count():
            for k in self.blocks_containing(r, x.value):
                m = self.index_of(r, k)
                if top is not None and m > top:
                    return
                yield m


GoodBasis = Union[CylinderGoodBasis, UnitGoodBasis]


def good_basis(space: str) -> GoodBasis:
    """The fixed good-basis enumeration for a space (none is provided for Z)."""
    if space in (CANTOR, BAIRE):
        return CylinderGoodBasis(space)
    if space == UNIT:
        return UnitGoodBasis()
    raise NoGoodBasis("no good basis provided for Z")


# ---------------------------------------------------------------------------
# Textual point syntax
# ---------------------------------------------------------------------------


# the text of a Cantor word's bytes, b"\x00\x01" -> "01"; other bytes stay
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
# and back: the bytes of a bit string's text, b"01" -> b"\x00\x01"
_TEXT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def format_point(p: PointCode) -> str:
    """Canonical textual form; parse_point(format_point(p)) == p."""
    if isinstance(p, WordPoint):
        if p.space == CANTOR:
            return "cantor:" + (p.head + b"|" + p.cycle).translate(_BIT_TEXT).decode()
        head = ",".join(map(str, p.head))
        cycle = ",".join(map(str, p.cycle))
        return f"baire:{head}|{cycle}"
    if isinstance(p, UnitPoint):
        return f"unit:{p.value}"
    if isinstance(p, ZPoint):
        prefix = ",".join(str(q) for q in p.prefix)
        return f"z:[{prefix}];a={p.a};b={p.b}"
    raise TypeError(f"unknown point type {type(p)!r}")


def parse_point(text: str) -> PointCode:
    """Parse the CLI point syntax, e.g. cantor:10|0, unit:1/3, baire:0,2|1,
    z:[1/2,7/4];a=1;b=1/2."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == CANTOR:
        head, _, cycle = rest.partition("|")
        if not cycle:
            raise ValueError(f"bad cantor point {text!r} (need head|cycle)")
        return cantor_point(head.strip(), cycle.strip())
    if kind == BAIRE:
        head, _, cycle = rest.partition("|")
        hd = tuple(int(t) for t in head.split(",") if t.strip() != "")
        cy = tuple(int(t) for t in cycle.split(",") if t.strip() != "")
        if not cy:
            raise ValueError(f"bad baire point {text!r} (need head|cycle)")
        return baire_point(hd, cy)
    if kind == UNIT:
        return UnitPoint(Fraction(rest.strip()))
    if kind == Z:
        parts = rest.split(";")
        if len(parts) != 3 or not parts[0].startswith("[") or not parts[0].endswith("]"):
            raise ValueError(f"bad z point {text!r}")
        body = parts[0][1:-1].strip()
        prefix = tuple(Fraction(t) for t in body.split(",")) if body else ()
        kv = {}
        for part in parts[1:]:
            key, _, val = part.partition("=")
            kv[key.strip()] = Fraction(val.strip())
        return ZPoint(prefix, kv["a"], kv["b"])
    raise ValueError(f"unknown space prefix in {text!r}")
