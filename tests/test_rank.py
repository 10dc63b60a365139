import itertools
import random
from fractions import Fraction as F

import pytest

from firstreturn.rank import (
    DiffForm,
    FiniteAlgebra,
    NotDisjoint,
    RankChain,
    chain_from_diff,
    chain_violations,
    d_xi_eval,
    diff_from_chain,
    is_valid_chain,
    rank_LAB,
    rank_Lf,
    rank_Lfab,
)

from oracles import _supersets, all_min_chains, atom_word, brute_force_min_chain, chains

A1 = FiniteAlgebra(1)
A2 = FiniteAlgebra(2)


def test_atoms_bitstring_round_trip():
    assert A2.parse_atoms("1000") == 1
    assert A2.parse_atoms("0011") == 0b1100
    assert A2.format_atoms(0b1100) == "0011"
    assert atom_word(A2, 2) == (1, 0)


# ---------------------------------------------------------------------------
# chain validity
# ---------------------------------------------------------------------------


def test_empty_A_trivial_chain_valid():
    chain = RankChain(A1, (0, A1.full), 0, 0b01)
    assert is_valid_chain(chain)


def test_singleton_pair_needs_two_steps():
    good = RankChain(A1, (0, 0b01, A1.full), 0b01, 0b10)
    bad = RankChain(A1, (0, A1.full), 0b01, 0b10)
    assert is_valid_chain(good)
    assert not is_valid_chain(bad)


def test_chain_must_start_empty():
    chain = RankChain(A1, (0b01, A1.full), 0, 0b10)
    assert not is_valid_chain(chain)


def test_chain_violations_name_each_broken_condition():
    assert chain_violations(RankChain(A1, (), 0, 0b01)) == ["empty chain"]
    assert chain_violations(RankChain(A1, (0, 0b01), 0, 0b10)) == [
        "G_beta is not the whole space"]
    assert chain_violations(RankChain(A2, (0, 0b0011, 0b0001, A2.full), 0, 0b0100)) == [
        "not increasing at 1"]


def test_not_disjoint_is_an_error():
    with pytest.raises(NotDisjoint):
        is_valid_chain(RankChain(A1, (0, A1.full), 0b01, 0b01))
    with pytest.raises(NotDisjoint):
        rank_LAB(A1, 0b01, 0b01)


# ---------------------------------------------------------------------------
# L(A, B)
# ---------------------------------------------------------------------------


def test_rank_empty_side_is_one():
    assert rank_LAB(A2, 0, 0b0110).beta == 1
    assert rank_LAB(A2, A2.full, 0).beta == 1


def test_rank_opposing_singletons_is_two():
    res = rank_LAB(A1, 0b01, 0b10)
    assert res.beta == 2
    assert is_valid_chain(res)


def test_rank_matches_brute_force_exhaustively_n1():
    for code in range(3 ** 2):
        A = B = 0
        for atom in range(2):
            tag = (code // 3 ** atom) % 3
            if tag == 1:
                A |= 1 << atom
            elif tag == 2:
                B |= 1 << atom
        res = rank_LAB(A1, A, B)
        beta, chain = brute_force_min_chain(A1, A, B)
        assert res.beta == beta
        assert is_valid_chain(chain)


def disjoint_pairs(algebra):
    """Every pair (A, B) of disjoint atom sets."""
    for tags in itertools.product(range(3), repeat=algebra.atom_count):
        yield (sum(1 << i for i, t in enumerate(tags) if t == 1),
               sum(1 << i for i, t in enumerate(tags) if t == 2))


def chains_by_dfs(algebra, A, B, top):
    """The strictly increasing chains of a given top, by the depth-first
    search that all_min_chains ran on its own."""
    full, out = algebra.full, []

    def dfs(prefix, steps_left):
        g = prefix[-1]
        if steps_left == 0:
            if g == full:
                out.append(RankChain(algebra, tuple(prefix), A, B))
            return
        for succ in _supersets(g, full):
            diff = succ & ~g
            if not (diff & A and diff & B):
                dfs(prefix + [succ], steps_left - 1)

    dfs([0], top)
    return out


def min_chain_by_dfs(algebra, A, B):
    """The least chain, by the iterative deepening search that
    brute_force_min_chain ran on its own."""
    full = algebra.full

    def dfs(g, steps_left):
        if steps_left == 1:
            diff = full & ~g
            return [g, full] if not (diff & A and diff & B) else None
        for succ in _supersets(g, full):
            diff = succ & ~g
            if diff & A and diff & B:
                continue
            rest = dfs(succ, steps_left - 1)
            if rest is not None:
                return [g] + rest
        return None

    for beta in itertools.count(1):
        found = dfs(0, beta)
        if found is not None:
            return beta, RankChain(algebra, tuple(found), A, B)


def assert_search_matches_the_two_dfs(algebra, A, B):
    beta, chain = min_chain_by_dfs(algebra, A, B)
    assert brute_force_min_chain(algebra, A, B) == (beta, chain)
    assert all_min_chains(algebra, A, B) == chains_by_dfs(algebra, A, B, beta)


@pytest.mark.parametrize("algebra", [A1, A2])
def test_chain_search_matches_the_two_dfs_exhaustively(algebra):
    # every top, not only the minimal one: a chain that stalls at X before
    # its top would show there
    for A, B in disjoint_pairs(algebra):
        assert_search_matches_the_two_dfs(algebra, A, B)
        for top in range(1, algebra.atom_count + 1):
            found = list(chains(algebra, A, B, top))
            assert found == chains_by_dfs(algebra, A, B, top), (A, B, top)
            assert all(is_valid_chain(c) and len(set(c.sets)) == top + 1 for c in found)


def test_chain_search_matches_the_two_dfs_sampled_n3():
    rng = random.Random(13)
    algebra = FiniteAlgebra(3)
    pairs = list(disjoint_pairs(algebra))
    for A, B in rng.sample(pairs, 30) + [(0, 0), (0b1, 0b10)]:
        assert_search_matches_the_two_dfs(algebra, A, B)


def test_rank_monotone_under_inclusion_n2():
    full = A2.full
    pairs = []
    for code in range(3 ** 4):
        A = B = 0
        for atom in range(4):
            tag = (code // 3 ** atom) % 3
            if tag == 1:
                A |= 1 << atom
            elif tag == 2:
                B |= 1 << atom
        pairs.append((A, B))
    ranks = {(A, B): rank_LAB(A2, A, B).beta for A, B in pairs}
    for A, B in pairs:
        for Ap, Bp in pairs:
            if A & ~Ap or B & ~Bp or Ap & Bp:
                continue
            assert ranks[(A, B)] <= ranks[(Ap, Bp)]


# ---------------------------------------------------------------------------
# function ranks
# ---------------------------------------------------------------------------


def test_constant_function_rank_one():
    values = [F(3, 7)] * 4
    assert rank_Lfab(A2, values, 0, 1).beta == 1
    assert rank_Lf(A2, values)["L"] == 1


def test_single_atom_indicator_rank_two():
    values = [F(0), F(1), F(0), F(0)]
    assert rank_Lfab(A2, values, 0, 1).beta == 2
    assert rank_Lf(A2, values)["L"] == 2


@pytest.mark.parametrize("algebra", [A1, A2])
def test_rank_Lf_matches_brute_force_over_threshold_pairs(algebra):
    # every f: atoms -> {0..3}; thresholds on the half-integer grid from -1/2
    # to 7/2 realize every pair ({f <= a}, {f >= b}) with a < b
    grid = [F(k, 2) for k in range(-1, 8)]
    brute = {}
    for values in itertools.product(range(4), repeat=algebra.atom_count):
        best = 0
        for a, b in itertools.combinations(grid, 2):
            A = sum(1 << i for i, v in enumerate(values) if v <= a)
            B = sum(1 << i for i, v in enumerate(values) if v >= b)
            if (A, B) not in brute:
                brute[(A, B)] = brute_force_min_chain(algebra, A, B)[0]
            best = max(best, brute[(A, B)])
        assert rank_Lf(algebra, values)["L"] == best, values


def test_depth_two_difference_indicator():
    # f = indicator of U_1 \ U_0 with U_0 = {01}, U_1 = {00, 01}
    U0 = A2.parse_atoms("0100")
    U1 = A2.parse_atoms("1100")
    D = d_xi_eval(DiffForm(A2, (U0, U1)))
    values = [F(1) if D & (1 << i) else F(0) for i in range(4)]
    res = rank_Lfab(A2, values, 0, 1)
    beta, _ = brute_force_min_chain(A2, *(
        (A2.full & ~D, D)))
    assert res.beta == beta <= 4
    assert rank_Lfab(A2, values, F(3), F(4)).beta == 1  # empty upper set
    with pytest.raises(ValueError):
        rank_Lfab(A2, values, 1, 0)


def test_rank_Lfab_needs_one_value_per_atom():
    with pytest.raises(ValueError, match="one value per atom required"):
        rank_Lfab(A2, [F(0)] * 3, 0, 1)


# ---------------------------------------------------------------------------
# difference forms
# ---------------------------------------------------------------------------


def test_diff_form_rejects_no_opens_and_decreasing_opens():
    with pytest.raises(ValueError, match="xi must be >= 1"):
        DiffForm(A2, ())
    with pytest.raises(ValueError, match="opens must be increasing"):
        DiffForm(A2, (0b0011, 0b0001))


def test_d1_is_the_open_itself():
    U0 = A2.parse_atoms("1010")
    assert d_xi_eval(DiffForm(A2, (U0,))) == U0


def test_d2_is_the_difference():
    U0, U1 = A2.parse_atoms("0100"), A2.parse_atoms("1100")
    assert d_xi_eval(DiffForm(A2, (U0, U1))) == U1 & ~U0


def test_equal_opens_telescope():
    U = A2.parse_atoms("0110")
    assert d_xi_eval(DiffForm(A2, (U, U))) == 0  # xi even
    assert d_xi_eval(DiffForm(A2, (U, U, U))) == U  # xi odd


def test_chain_from_diff_full_open():
    form = DiffForm(A1, (A1.full,))
    chain = chain_from_diff(form)
    assert chain.sets == (0, A1.full, A1.full)
    assert chain.A == 0 and chain.B == A1.full
    assert is_valid_chain(chain)


def test_chain_from_diff_empty_difference():
    U = A2.parse_atoms("0110")
    form = DiffForm(A2, (U, U))  # D_2 = empty, A = X
    chain = chain_from_diff(form)
    assert chain.B == 0 and chain.A == A2.full
    assert is_valid_chain(chain)


def test_chain_from_diff_exhaustive_depth2_xi2():
    for code in range(3 ** 4):
        U0 = U1 = 0
        for atom in range(4):
            tag = (code // 3 ** atom) % 3
            if tag >= 1:
                U1 |= 1 << atom
            if tag == 2:
                U0 |= 1 << atom
        form = DiffForm(A2, (U0, U1))
        chain = chain_from_diff(form)  # raises internally if invalid
        assert is_valid_chain(chain)
        D = d_xi_eval(form)
        assert rank_LAB(A2, A2.full & ~D, D).beta <= form.xi + 1


def test_diff_from_chain_single_atom():
    A = 0b10  # one atom at depth 1
    beta, chain = brute_force_min_chain(A1, A1.full & ~A, A)
    form = diff_from_chain(chain)
    assert d_xi_eval(form) == A1.full & ~A


def test_diff_from_chain_empty_A_gives_everything():
    chain = RankChain(A1, (0, A1.full), A1.full, 0)
    form = diff_from_chain(chain)
    assert d_xi_eval(form) == A1.full


def test_diff_from_chain_rejects_non_complementary():
    chain = RankChain(A2, (0, 0b0001, A2.full), 0b0001, 0b0010)
    with pytest.raises(ValueError):
        diff_from_chain(chain)


def test_diff_from_chain_rejects_invalid_chain():
    bad = RankChain(A1, (0b01, A1.full), 0b01, 0b10)
    with pytest.raises(ValueError):
        diff_from_chain(bad)


def test_diff_from_chain_separates_on_all_min_chains_n1():
    for A in range(A1.full + 1):
        P = A1.full & ~A
        for chain in all_min_chains(A1, P, A):
            form = diff_from_chain(chain)
            D = d_xi_eval(form)
            assert P & ~D == 0 and D & A == 0


def test_greedy_agreement_sampled_n3():
    rng = random.Random(11)
    algebra = FiniteAlgebra(3)
    for _ in range(100):
        A = B = 0
        for atom in range(8):
            tag = rng.randrange(3)
            if tag == 1:
                A |= 1 << atom
            elif tag == 2:
                B |= 1 << atom
        res = rank_LAB(algebra, A, B)
        assert res.beta == brute_force_min_chain(algebra, A, B)[0]
        assert is_valid_chain(res)
