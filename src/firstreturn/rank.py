"""Separation rank on finite clopen algebras.

The ambient space is Cantor space truncated at depth n: atoms are the 2^n
words of that length and every atom set is (cl)open.  For disjoint atom
sets A and B, a rank chain is an increasing sequence of opens from the
empty set to everything whose successive differences each miss A or miss
B; L(A, B) is the least possible top index.  `rank_LAB` returns a chain of
least top index, whose `beta` is L(A, B).  The finite difference
operator D_xi of an increasing open sequence, the chain built from a
difference form, and the converse construction extracting a separating
difference form from a chain are implemented exactly as finite-index
operations (limit clauses are vacuous here).

Atom sets travel as bit masks; the CLI syntax is a bit string over atoms
in lexicographic word order ("1000" at n=2 is {00}).

L(A, B) has a closed form here: it is 1 when A or B is empty and 2
otherwise, with witness chain 0 < X \\ A < X.  Proof: the one-step chain
(0, X) is valid exactly when X misses A or misses B; otherwise
(0, X \\ A, X) is valid, since its first difference misses A and its second
is inside A, which misses B.  A rank above 2 needs a topology with
accumulation points, which a finite clopen algebra does not have.  The
tests check this closed form against a brute-force enumerator of strictly
increasing chains that shares none of this reasoning (`tests/oracles.py`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from . import Record

MAX_DEPTH = 10


class NotDisjoint(ValueError):
    pass


class FiniteAlgebra(Record):
    _fields = ("n",)

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
        self.n = n

    @property
    def atom_count(self) -> int:
        return 2 ** self.n

    @property
    def full(self) -> int:
        return (1 << self.atom_count) - 1

    def parse_atoms(self, bits: str) -> int:
        if len(bits) != self.atom_count or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {self.atom_count}-character bit string")
        mask = 0
        for i, c in enumerate(bits):
            if c == "1":
                mask |= 1 << i
        return mask

    def format_atoms(self, mask: int) -> str:
        return "".join("1" if mask & (1 << i) else "0" for i in range(self.atom_count))


class RankChain(Record):
    _fields = ("algebra", "sets", "A", "B")

    def __init__(self, algebra: FiniteAlgebra, sets: Tuple[int, ...], A: int, B: int):
        self.algebra = algebra
        self.sets = sets
        self.A = A
        self.B = B

    @property
    def beta(self) -> int:
        """The top index of G_0 < ... < G_beta; L(A, B) for a minimal chain."""
        return len(self.sets) - 1


def chain_violations(chain: RankChain) -> List[str]:
    if chain.A & chain.B:
        raise NotDisjoint("not disjoint")
    g = chain.sets
    full = chain.algebra.full
    problems = []
    if not g:
        return ["empty chain"]
    if g[0] != 0:
        problems.append("G_0 is not empty")
    if g[-1] != full:
        problems.append("G_beta is not the whole space")
    for i in range(len(g) - 1):
        if g[i] & ~g[i + 1]:
            problems.append(f"not increasing at {i}")
        diff = g[i + 1] & ~g[i]
        if diff & chain.A and diff & chain.B:
            problems.append(f"difference {i} meets both A and B")
    return problems


def is_valid_chain(chain: RankChain) -> bool:
    """Exact check of the three chain conditions (limit clause vacuous)."""
    return not chain_violations(chain)


# ---------------------------------------------------------------------------
# L(A, B): closed form
# ---------------------------------------------------------------------------


def rank_LAB(algebra: FiniteAlgebra, A: int, B: int) -> RankChain:
    """A chain of least top index, whose `beta` is L(A, B) (closed form above)."""
    if A & B:
        raise NotDisjoint("not disjoint")
    full = algebra.full
    return RankChain(algebra, (0, full & ~A, full) if A and B else (0, full), A, B)


# ---------------------------------------------------------------------------
# Function ranks
# ---------------------------------------------------------------------------


def sublevel_sets(values: Sequence[Fraction], a: Fraction, b: Fraction) -> Tuple[int, int]:
    A = B = 0
    for i, v in enumerate(values):
        if v <= a:
            A |= 1 << i
        if v >= b:
            B |= 1 << i
    return A, B


def rank_Lfab(algebra: FiniteAlgebra, values: Sequence[Fraction], a, b) -> RankChain:
    """L(f, a, b) = L({f <= a}, {f >= b}) for an atom-valued rational f."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if len(values) != algebra.atom_count:
        raise ValueError("one value per atom required")
    A, B = sublevel_sets(values, a, b)
    return rank_LAB(algebra, A, B)


def rank_Lf(algebra: FiniteAlgebra, values: Sequence[Fraction]) -> dict:
    """L(f): the sup over rational threshold pairs a < b, finite here because
    the range is finite.

    Thresholds outside the range leave a side empty, which gives rank one.
    For a < b inside the range, {f <= a} holds the least value and {f >= b}
    the greatest, so both sides are nonempty and every such pair has the
    same rank; one pair inside the first gap between distinct values
    decides the sup.
    """
    distinct = sorted(set(Fraction(v) for v in values))
    if len(distinct) < 2:
        return {"L": 1}
    lo, hi = distinct[0], distinct[1]
    chain = rank_Lfab(algebra, values, lo + (hi - lo) / 4, lo + 3 * (hi - lo) / 4)
    return {"L": chain.beta}


# ---------------------------------------------------------------------------
# Difference forms
# ---------------------------------------------------------------------------


class DiffForm(Record):
    _fields = ("algebra", "opens")

    def __init__(self, algebra: FiniteAlgebra, opens: Tuple[int, ...]):
        if not opens:
            raise ValueError("xi must be >= 1")
        for i in range(len(opens) - 1):
            if opens[i] & ~opens[i + 1]:
                raise ValueError("opens must be increasing")
        self.algebra = algebra
        self.opens = opens  # increasing U_0 <= ... <= U_{xi-1}

    @property
    def xi(self) -> int:
        return len(self.opens)


def d_xi_eval(form: DiffForm) -> int:
    """Union of the layers U_a \\ (U_0|..|U_{a-1}) at parity opposite to xi."""
    xi = form.xi
    acc, prior = 0, 0
    for a_idx, U in enumerate(form.opens):
        layer = U & ~prior
        if a_idx % 2 != xi % 2:
            acc |= layer
        prior |= U
    return acc


def chain_from_diff(form: DiffForm) -> RankChain:
    """The chain (0, U_0, ..., U_{xi-1}, X) for the pair (complement, D_xi)."""
    D = d_xi_eval(form)
    algebra = form.algebra
    sets = (0,) + form.opens + (algebra.full,)
    chain = RankChain(algebra, sets, algebra.full & ~D, D)
    if not is_valid_chain(chain):  # the construction guarantees validity
        raise RuntimeError("chain_from_diff produced an invalid chain")
    return chain


def diff_from_chain(chain: RankChain) -> DiffForm:
    """Separating difference form from a chain for a complementary pair.

    The chain must belong to R(P, Q) with Q the complement of P; the result
    D_{xi'} (xi' the least odd number at least the chain's top index)
    contains P and misses Q.  Even indices accumulate the G_{theta+1} whose new layer misses Q,
    odd indices those missing P.
    """
    algebra = chain.algebra
    P, Q = chain.A, chain.B
    if (P | Q) != algebra.full or (P & Q) != 0:
        raise ValueError("diff_from_chain needs a complementary pair")
    violations = chain_violations(chain)
    if violations:
        raise ValueError(f"invalid input chain: {violations}")
    top = chain.beta
    xi_prime = top if top % 2 == 1 else top + 1
    G = list(chain.sets) + [algebra.full] * (xi_prime - top)
    opens: List[int] = []
    for a_idx in range(xi_prime):
        acc = opens[-1] if opens else 0
        avoid = Q if a_idx % 2 == 0 else P
        for theta in range(a_idx + 1):
            layer = G[theta + 1] & ~G[theta]
            if not (layer & avoid):
                acc |= G[theta + 1]
        opens.append(acc)
    form = DiffForm(algebra, tuple(opens))
    D = d_xi_eval(form)
    if (P & ~D) or (D & Q):
        raise RuntimeError("diff_from_chain output failed to separate")
    return form
