import math
import random

import pytest

from group_helpers import center_bruteforce
from slow_reference import reference_closure, reference_direct_product, reference_is_associative
from zmcenter import aut, genericgroup as gg
from zmcenter.errors import BoundExceededError
from zmcenter.numtheory import factorize
from zmcenter.zm import iter_valid_triples, validate_triple

# the all-pairs reference closure is O(|S|^2) per call; above this order a
# full subgroup enumeration with it takes minutes
REFERENCE_LATTICE_MAX_ORDER = 60


def dump_table(group: gg.CayleyGroup) -> str:
    """Bit-exact text form: order on the first line, then the rows."""
    lines = [str(group.order)]
    lines.extend(" ".join(str(x) for x in row) for row in group.table)
    return "\n".join(lines) + "\n"


class TestCayleyGroupConstruction:
    def test_cyclic_groups(self):
        for k in (1, 2, 3, 12):
            group = gg.cyclic_group(k)
            assert group.order == k
            assert group.identity_index == 0
            assert group.element_order(0) == 1

    def test_rejects_broken_tables(self):
        with pytest.raises(ValueError):
            gg.CayleyGroup.from_table(((0, 0), (1, 1)))  # not a Latin square
        with pytest.raises(ValueError):
            # Latin square without a two-sided identity
            gg.CayleyGroup.from_table(((0, 1, 2), (2, 0, 1), (1, 2, 0)))
        # Latin square with identity but not associative (order 5 loop)
        loop = (
            (0, 1, 2, 3, 4),
            (1, 0, 3, 4, 2),
            (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1),
            (4, 3, 1, 2, 0),
        )
        with pytest.raises(ValueError):
            gg.CayleyGroup.from_table(loop)

    def test_first_failing_column_is_named(self):
        # every row is a permutation and 0 is a two-sided identity, but
        # column 1 holds 1 twice
        with pytest.raises(ValueError, match="column 1 is not a permutation"):
            gg.CayleyGroup.from_table(((0, 1, 2), (1, 2, 0), (2, 1, 0)))

    def test_rejects_rows_longer_than_the_order(self):
        # each row holds every element but repeats one, so it is no permutation
        with pytest.raises(ValueError, match="row 0 is not a permutation"):
            gg.CayleyGroup.from_table(((0, 1, 1), (1, 0, 0)))

    def test_inverse_and_orders(self):
        group = gg.cyclic_group(6)
        assert group.inverse(2) == 4
        assert group.element_orders == (1, 6, 3, 2, 3, 6)

    def test_dump_format(self):
        assert dump_table(gg.cyclic_group(2)) == "2\n0 1\n1 0\n"


def _accepted(table) -> bool:
    try:
        gg.CayleyGroup.from_table(table)
    except ValueError as exc:
        assert "associativity fails" in str(exc)
        return False
    return True


def _random_latin_square_with_identity(rng: random.Random, n: int):
    """Fill a reduced Latin square (first row and column 0..n-1) cell by
    cell with shuffled candidates, backtracking on dead ends, then relabel
    it by a random permutation so the identity lands anywhere."""
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]

    def fill(cell: int) -> bool:
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        if rows[i][j] >= 0:
            return fill(cell + 1)
        candidates = [v for v in range(n) if v not in rows[i] and all(r[j] != v for r in rows)]
        rng.shuffle(candidates)
        for v in candidates:
            rows[i][j] = v
            if fill(cell + 1):
                return True
        rows[i][j] = -1
        return False

    assert fill(0)
    return _relabel(tuple(map(tuple, rows)), rng)


def _relabel(table, rng: random.Random):
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = pi[table[i][j]]
    return tuple(map(tuple, out))


def _cyclic_with_intercalate_swapped(n: int) -> tuple[tuple[int, ...], ...]:
    """C_n with the 2x2 sub-square at rows 3, 3 + n/2 and columns 7,
    7 + n/2 exchanged (each entry shifted by n/2): still a Latin square
    with identity 0, no longer associative."""
    half = n // 2
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (3, 3 + half):
        for j in (7, 7 + half):
            rows[i][j] = (rows[i][j] + half) % n
    return tuple(map(tuple, rows))


# a loop of order 6 on which Light's test passes for the generator 3 and
# fails only for the second generator 1
LOOP_6 = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 5, 2, 3, 4),
    (2, 3, 0, 4, 5, 1),
    (3, 4, 1, 5, 2, 0),
    (4, 5, 3, 1, 0, 2),
    (5, 2, 4, 0, 1, 3),
)


class TestAssociativityCheck:
    @pytest.mark.parametrize(
        "t", list(iter_valid_triples(REFERENCE_LATTICE_MAX_ORDER)), ids=str
    )
    def test_every_small_zm_table_agrees_with_reference(self, t):
        table = t.cayley().table
        assert reference_is_associative(table)
        assert _accepted(table)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_latin_squares_agree_with_reference(self, n):
        rng = random.Random(0x11647 + n)
        squares = [_random_latin_square_with_identity(rng, n) for _ in range(300)]
        # relabelled group tables, so that both verdicts are exercised
        groups = [gg.cyclic_group(n)] + ([validate_triple(3, 2, 2).cayley()] if n == 6 else [])
        squares += [_relabel(g.table, rng) for g in groups for _ in range(20)]
        verdicts = [reference_is_associative(sq) for sq in squares]
        assert [_accepted(sq) for sq in squares] == verdicts
        assert True in verdicts and False in verdicts

    def test_loop_failing_on_the_second_generator_only(self):
        unchecked = gg.CayleyGroup(6, LOOP_6, tuple("abcdef"), 0)
        assert gg._generating_sequence(unchecked) == [3, 1]

        def light_passes(a: int) -> bool:
            t = LOOP_6
            return all(t[t[x][a]][y] == t[x][t[a][y]] for x in range(6) for y in range(6))

        assert light_passes(3) and not light_passes(1)
        assert not reference_is_associative(LOOP_6)
        assert not _accepted(LOOP_6)

    @pytest.mark.parametrize("n", [600, 1000])
    def test_large_intercalate_swap_rejected(self, n):
        # one swapped 2x2 sub-square breaks few triples: sampling misses it
        assert not _accepted(_cyclic_with_intercalate_swapped(n))


class TestDirectProduct:
    def test_single_factor_is_identity_operation(self):
        group = gg.cyclic_group(5)
        assert gg.direct_product([group]) is group

    def test_empty_product_is_trivial(self):
        assert gg.direct_product([]).order == 1

    def test_coprime_cyclic_product_is_cyclic(self):
        prod = gg.direct_product([gg.cyclic_group(3), gg.cyclic_group(4)])
        assert prod.order == 12
        full = gg.Subgroup(prod, tuple(range(12)))
        assert gg.is_cyclic(full) == (True, 12)

    def test_non_coprime_product_is_not_cyclic(self):
        prod = gg.direct_product([gg.cyclic_group(2), gg.cyclic_group(2)])
        full = gg.Subgroup(prod, tuple(range(4)))
        assert gg.is_cyclic(full) == (False, 4)

    def test_center_of_product_is_product_of_centers(self):
        # ZM(5,16,2) x ZM(7,9,2) has center of order 4*3 = 12 but order 5040,
        # past the table bound; check the rule on an in-bounds coprime pair
        a = validate_triple(5, 16, 2)
        b = validate_triple(7, 9, 2)
        assert a.center()[1] == 4 and b.center()[1] == 3
        small = validate_triple(3, 4, 2)
        prod = gg.direct_product([small.cayley(), b.cayley()])
        assert prod.order == 756
        assert center_bruteforce(prod).order == small.center()[1] * b.center()[1] == 6

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            gg.direct_product([gg.cyclic_group(50), gg.cyclic_group(50)], table_bound=2000)

    @pytest.mark.parametrize(
        "factors",
        [
            [(1, 2, 1), (1, 3, 1)],
            [(3, 4, 2), (1, 5, 1)],
            [(1, 4, 1), (3, 2, 2)],
            [(5, 4, 2), (7, 3, 2)],
            [(1, 2, 1), (3, 2, 2), (1, 3, 1)],
            [(3, 2, 2), (1, 1, 1), (5, 4, 2)],
            [(1, 2, 1), (1, 2, 1), (1, 2, 1)],
        ],
    )
    def test_equals_split_per_entry_reference(self, factors):
        groups = [validate_triple(*mnr).cayley() for mnr in factors]
        prod = gg.direct_product(groups)
        ref = reference_direct_product(groups)
        assert prod.table == ref.table
        assert prod.labels == ref.labels
        assert prod.identity_index == ref.identity_index


class TestSubgroups:
    def test_cyclic_counts_match_divisor_counts(self):
        for k in (1, 2, 6, 12, 30):
            subs = gg.subgroups(gg.cyclic_group(k))
            assert len(subs) == len(factorize(k).divisors())

    def test_c6_has_four_subgroups(self):
        subs = gg.subgroups(gg.cyclic_group(6))
        assert sorted(s.order for s in subs) == [1, 2, 3, 6]

    def test_prime_cyclic_has_exactly_two(self):
        for p in (2, 3, 5, 7):
            assert len(gg.subgroups(gg.cyclic_group(p))) == 2

    def test_frobenius20_has_fourteen(self, zm_5_4_2):
        subs = gg.subgroups(zm_5_4_2.cayley())
        assert len(subs) == 14

    def test_subgroups_are_closed_and_unique(self, zm_5_4_2):
        group = zm_5_4_2.cayley()
        subs = gg.subgroups(group)
        seen = set()
        for s in subs:
            assert s.members not in seen
            seen.add(s.members)
            members = set(s.members)
            assert group.identity_index in members
            for x in s.members:
                assert group.inverse(x) in members
                for y in s.members:
                    assert group.mul(x, y) in members
            assert group.order % s.order == 0  # Lagrange
        assert subs[0].order == 1
        assert subs[-1].order == group.order

    def test_restriction_relabels_consistently(self, zm_5_16_2):
        group = zm_5_16_2.cayley()
        sub = next(s for s in gg.subgroups(group) if s.order == 16)
        as_group = sub.as_group()
        assert as_group.order == 16
        full = gg.Subgroup(as_group, tuple(range(16)))
        assert gg.is_cyclic(full) == (True, 16)

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            gg.subgroups(gg.cyclic_group(12), subgroup_bound=10)


class TestSubgroupsSeedCount:
    @pytest.mark.parametrize(
        "group",
        [
            validate_triple(5, 16, 2).cayley(),
            validate_triple(7, 9, 2).cayley(),
            gg.cyclic_group(30),
            gg.direct_product([validate_triple(3, 4, 2).cayley(), gg.cyclic_group(2)]),
        ],
        ids=["ZM(5,16,2)", "ZM(7,9,2)", "C30", "Dic3xC2"],
    )
    def test_at_most_log2_order_plus_one_seeds(self, group, monkeypatch):
        seed_sizes = []
        real = gg.CayleyGroup.closure

        def closure(self, seed):
            seed_sizes.append(len(set(seed)))
            return real(self, seed)

        monkeypatch.setattr(gg.CayleyGroup, "closure", closure)
        gg.subgroups(group)
        assert max(seed_sizes) <= math.floor(math.log2(group.order)) + 1


def _lattices_with_both_closures(group: gg.CayleyGroup, monkeypatch):
    fast = [s.members for s in gg.subgroups(group)]
    with monkeypatch.context() as patch:
        patch.setattr(gg.CayleyGroup, "closure", reference_closure)
        slow = [s.members for s in gg.subgroups(group)]
    return fast, slow


class TestClosureMatchesReference:
    @pytest.mark.parametrize(
        "t", list(iter_valid_triples(REFERENCE_LATTICE_MAX_ORDER)), ids=str
    )
    def test_subgroup_lattice_of_every_small_triple(self, t, monkeypatch):
        fast, slow = _lattices_with_both_closures(t.cayley(), monkeypatch)
        assert fast == slow

    def test_subgroup_lattice_of_cyclic_groups(self, monkeypatch):
        for k in range(1, 31):
            fast, slow = _lattices_with_both_closures(gg.cyclic_group(k), monkeypatch)
            assert fast == slow, k

    def test_subgroup_lattice_of_coprime_product(self, monkeypatch):
        prod = gg.direct_product([validate_triple(3, 4, 2).cayley(), gg.cyclic_group(5)])
        fast, slow = _lattices_with_both_closures(prod, monkeypatch)
        assert len(fast) == 16  # Dic3 has 8 subgroups, C_5 has 2
        assert fast == slow

    @pytest.mark.parametrize("mnr", [(5, 16, 2), (7, 9, 4)])
    def test_random_seeds(self, mnr):
        group = validate_triple(*mnr).cayley()
        rng = random.Random(0xC105E)
        for _ in range(200):
            seed = {rng.randrange(group.order) for _ in range(rng.randint(0, 3))}
            assert group.closure(seed) == reference_closure(group, seed), seed


class TestAutomorphismsBruteforce:
    def test_tiny_groups(self):
        assert len(gg.automorphisms_bruteforce(gg.cyclic_group(1))) == 1
        assert len(gg.automorphisms_bruteforce(gg.cyclic_group(2))) == 1
        assert len(gg.automorphisms_bruteforce(gg.cyclic_group(3))) == 2

    def test_cyclic_aut_counts_are_phi(self):
        from zmcenter.numtheory import euler_phi

        for k in (4, 6, 8, 12):
            assert len(gg.automorphisms_bruteforce(gg.cyclic_group(k))) == euler_phi(k)

    def test_fixture_matches_parametrized_family(self, zm_5_16_2):
        group = zm_5_16_2.cayley()
        perms = gg.automorphisms_bruteforce(group)
        assert len(perms) == 80
        family = {aut.to_permutation(zm_5_16_2, a) for a in aut.enumerate_family(zm_5_16_2, "all")}
        assert set(perms) == family

    def test_off_regime_fixture_matches_enumeration(self, zm_7_6_2):
        group = zm_7_6_2.cayley()
        perms = gg.automorphisms_bruteforce(group)
        family = {aut.to_permutation(zm_7_6_2, a) for a in aut.enumerate_family(zm_7_6_2, "all")}
        assert set(perms) == family
        assert len(perms) == 42

    def test_permutations_preserve_structure(self):
        group = validate_triple(3, 4, 2).cayley()
        for perm in gg.automorphisms_bruteforce(group):
            assert perm[group.identity_index] == group.identity_index
            for i in range(group.order):
                assert group.element_orders[perm[i]] == group.element_orders[i]
                for j in range(group.order):
                    assert perm[group.mul(i, j)] == group.mul(perm[i], perm[j])

    def test_bound_enforced(self, zm_5_16_2):
        with pytest.raises(BoundExceededError):
            gg.automorphisms_bruteforce(zm_5_16_2.cayley(), aut_bound=10)


class TestAbsoluteCenterBruteforce:
    def test_c2_fixed_entirely(self):
        fixed = gg.absolute_center_bruteforce(gg.cyclic_group(2))
        assert fixed.members == (0, 1)

    def test_c3_only_identity(self):
        fixed = gg.absolute_center_bruteforce(gg.cyclic_group(3))
        assert fixed.members == (0,)

    def test_fixture_agrees_with_parametrized_oracle(self, zm_5_16_2):
        from zmcenter import abscenter

        group = zm_5_16_2.cayley()
        fixed = gg.absolute_center_bruteforce(group)
        oracle = abscenter.absolute_center_oracle(zm_5_16_2)
        assert set(fixed.members) == {zm_5_16_2.index_of(g) for g in oracle}

    def test_coprime_product_rule(self):
        # C_3 x ZM(5,16,2): the product's fixed points factor through the
        # factors' fixed points
        c3 = gg.cyclic_group(3)
        g80 = validate_triple(5, 16, 2).cayley()
        prod = gg.direct_product([c3, g80])
        fixed = gg.absolute_center_bruteforce(prod, aut_bound=240)
        la = gg.absolute_center_bruteforce(c3)
        lb = gg.absolute_center_bruteforce(g80)
        expected = {ia * g80.order + ib for ia in la.members for ib in lb.members}
        assert set(fixed.members) == expected
        assert gg.is_cyclic(fixed) == (True, 4)

    def test_is_cyclic_examples(self, zm_5_16_2):
        group = zm_5_16_2.cayley()
        trivial = gg.Subgroup(group, (group.identity_index,))
        assert gg.is_cyclic(trivial) == (True, 1)
        klein = gg.direct_product([gg.cyclic_group(2), gg.cyclic_group(2)])
        assert gg.is_cyclic(gg.Subgroup(klein, (0, 1, 2, 3))) == (False, 4)
        b4 = zm_5_16_2.element(4, 0)
        members = tuple(sorted(zm_5_16_2.index_of(zm_5_16_2.power(b4, k)) for k in range(4)))
        assert gg.is_cyclic(gg.Subgroup(group, members)) == (True, 4)


class TestNormalSubgroupsAreCharacteristic:
    def test_on_small_fixtures(self):
        # documented structural fact: every normal subgroup of these groups
        # is mapped to itself by every table automorphism
        for m, n, r in [(3, 4, 2), (5, 4, 2), (7, 6, 2)]:
            group = validate_triple(m, n, r).cayley()
            auts = gg.automorphisms_bruteforce(group)
            for sub in gg.subgroups(group):
                members = set(sub.members)
                normal = all(
                    group.mul(group.mul(g, x), group.inverse(g)) in members
                    for g in range(group.order)
                    for x in sub.members
                )
                if normal:
                    for perm in auts:
                        assert {perm[x] for x in sub.members} == members
