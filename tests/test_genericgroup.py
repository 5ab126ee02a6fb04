import hashlib
import random
from itertools import permutations, product

import pytest

from group_helpers import NAMED_GROUPS, center_bruteforce, divisors, power
from slow_reference import (
    reference_as_group,
    reference_automorphisms_bruteforce,
    reference_closure,
    reference_coset_subgroups,
    reference_direct_product,
    reference_element_orders,
    reference_generating_sequence,
    reference_is_associative,
    reference_right_closure,
    reference_subgroups,
)
from zmcenter import abscenter, aut, genericgroup as gg
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
            assert group.element_orders[0] == 1

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
        # column 1 holds 1 twice: the powers of 1 cycle through 2 and
        # back without reaching the identity
        with pytest.raises(ValueError, match="no power of element 1 is the identity"):
            gg.CayleyGroup.from_table(((0, 1, 2), (1, 2, 0), (2, 1, 0)))

    @pytest.mark.parametrize("n, count", [(3, 12), (4, 864)])
    def test_every_small_table_with_permutation_rows(self, n, count):
        # accepted are exactly the associative ones, and their columns
        # are permutations too
        tables = list(_tables_with_permutation_rows(n))
        assert len(tables) == count
        for table in tables:
            try:
                gg.CayleyGroup.from_table(table)
                accepted = True
            except ValueError:
                accepted = False
            columns_permute = all(sorted(c) == list(range(n)) for c in zip(*table))
            assert accepted == (reference_is_associative(table) and columns_permute), table

    def test_rejects_rows_longer_than_the_order(self):
        # each row holds every element but repeats one, so it is no permutation
        with pytest.raises(ValueError, match="row 0 is not a permutation"):
            gg.CayleyGroup.from_table(((0, 1, 1), (1, 0, 0)))

    def test_inverse_and_orders(self):
        group = gg.cyclic_group(6)
        assert group.table[2].index(group.identity_index) == 4
        assert group.element_orders == (1, 6, 3, 2, 3, 6)

    def test_dump_format(self):
        assert dump_table(gg.cyclic_group(2)) == "2\n0 1\n1 0\n"


def _tables_with_permutation_rows(n: int):
    """Every n x n table whose rows are permutations of 0..n-1 and that
    has a two-sided identity e: row e is the identity and row x maps e to x."""
    for e in range(n):
        choices = [[p for p in permutations(range(n)) if p[e] == x] for x in range(n)]
        choices[e] = [tuple(range(n))]
        yield from product(*choices)


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
        unchecked = gg.CayleyGroup(LOOP_6, 0)
        assert unchecked.generating_sequence == (3, 1)

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
        for group in [*_reference_groups(), *(build() for build in NAMED_GROUPS.values())]:
            assert gg.direct_product([group]).table == group.table

    def test_empty_product_is_trivial(self):
        assert gg.direct_product([]).order == 1
        assert gg.direct_product([]).table == gg.cyclic_group(1).table

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
        # a table of 25 million entries; check the rule on a smaller coprime pair
        a = validate_triple(5, 16, 2)
        b = validate_triple(7, 9, 2)
        assert a.center()[1] == 4 and b.center()[1] == 3
        small = validate_triple(3, 4, 2)
        prod = gg.direct_product([small.cayley(), b.cayley()])
        assert prod.order == 756
        assert center_bruteforce(prod).order == small.center()[1] * b.center()[1] == 6

    def test_entries_are_shared_objects(self):
        # order 320, past the small ints the interpreter shares anyway
        groups = [validate_triple(5, 16, 2).cayley(), gg.cyclic_group(4)]
        prod = gg.direct_product(groups)
        assert len({id(x) for row in prod.table for x in row}) == prod.order == 320
        assert prod == reference_direct_product(groups)

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
        assert prod.identity_index == ref.identity_index


class TestSubgroups:
    def test_cyclic_counts_match_divisor_counts(self):
        for k in (1, 2, 6, 12, 30):
            subs = gg.subgroups(gg.cyclic_group(k))
            assert len(subs) == len(divisors(k))

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
                assert group.table[x].index(group.identity_index) in members
                for y in s.members:
                    assert group.table[x][y] in members
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

    def test_as_group_equals_from_table(self):
        groups = [build() for build in NAMED_GROUPS.values()] + _reference_groups()
        for group in groups:
            for sub in gg.subgroups(group):
                table = sub.as_group()
                assert table == gg.CayleyGroup.from_table(table.table), sub.members
                assert table == reference_as_group(sub), sub.members

    def test_whole_group_as_group_is_its_parent(self):
        groups = [gg.cyclic_group(1), gg.cyclic_group(12), validate_triple(5, 16, 2).cayley()]
        for group in [*groups, NAMED_GROUPS["S4"]()]:
            whole = gg.subgroups(group)[-1]
            assert whole.members == tuple(range(group.order))
            assert whole.as_group() is group
            assert whole.as_group() == reference_as_group(whole)


def _lattice(subs: list[gg.Subgroup]) -> list[tuple[tuple[int, ...], int]]:
    return [(s.members, s.conjugacy_class) for s in subs]


class TestSubgroupsMatchClosureWalk:
    """Members and class labels equal those of the same walk with every
    cyclic seed and every extension closed from the identity."""

    def test_every_triple_up_to_order_200(self):
        # every extension up to order 60 is checked one by one in
        # TestClosureMatchesReference; this reaches further by the lattice
        triples = list(iter_valid_triples(200))
        assert len(triples) == 289
        for t in triples:
            group = t.cayley()
            assert _lattice(gg.subgroups(group)) == _lattice(reference_coset_subgroups(group)), t

    def test_cyclic_groups(self):
        for k in range(1, 31):
            group = gg.cyclic_group(k)
            assert _lattice(gg.subgroups(group)) == _lattice(reference_coset_subgroups(group)), k

    @pytest.mark.parametrize("name", list(NAMED_GROUPS))
    def test_named_group_and_its_subgroups(self, name):
        group = NAMED_GROUPS[name]()
        for table in [group, *(s.as_group() for s in gg.subgroups(group))]:
            assert _lattice(gg.subgroups(table)) == _lattice(reference_coset_subgroups(table))

    def test_product_of_two_zm_groups(self):
        factors = [validate_triple(3, 4, 2).cayley(), validate_triple(5, 4, 4).cayley()]
        group = gg.direct_product(factors)
        subs = gg.subgroups(group)
        assert len(subs) == 176
        assert _lattice(subs) == _lattice(reference_coset_subgroups(group))


def _extensions_match_closures(group: gg.CayleyGroup, monkeypatch) -> None:
    """Every cyclic closure({g}), and every extension of s by g in
    `subgroups`, equals the reference's closure under all pairwise
    products; each extension also equals closure(s | {g}).  Each closure
    also equals the right-multiplication search's."""
    for g in range(group.order):
        assert group.closure({g}) == reference_closure(group, {g}), g
        assert group.closure({g}) == reference_right_closure(group, {g}), g
    extensions = []
    real = gg._coset_join

    def coset_join(table, s, pick, g):
        t = real(table, s, pick, g)
        extensions.append((s, g, t))
        return t

    with monkeypatch.context() as patch:
        patch.setattr(gg, "_coset_join", coset_join)
        gg.subgroups(group)
    for s, g, t in extensions:
        seed = s | {g}
        assert t == group.closure(seed) == reference_closure(group, seed), (sorted(s), g)
        assert t == reference_right_closure(group, seed), (sorted(s), g)


class TestClosureMatchesReference:
    @pytest.mark.parametrize(
        "t", list(iter_valid_triples(REFERENCE_LATTICE_MAX_ORDER)), ids=str
    )
    def test_subgroup_lattice_of_every_small_triple(self, t, monkeypatch):
        _extensions_match_closures(t.cayley(), monkeypatch)

    def test_subgroup_lattice_of_cyclic_groups(self, monkeypatch):
        for k in range(1, 31):
            _extensions_match_closures(gg.cyclic_group(k), monkeypatch)

    def test_subgroup_lattice_of_coprime_product(self, monkeypatch):
        prod = gg.direct_product([validate_triple(3, 4, 2).cayley(), gg.cyclic_group(5)])
        assert len(gg.subgroups(prod)) == 16  # Dic3 has 8 subgroups, C_5 has 2
        _extensions_match_closures(prod, monkeypatch)

    @pytest.mark.parametrize("mnr", [(5, 16, 2), (7, 9, 4)])
    def test_random_seeds(self, mnr):
        group = validate_triple(*mnr).cayley()
        rng = random.Random(0xC105E)
        for _ in range(200):
            seed = {rng.randrange(group.order) for _ in range(rng.randint(0, 3))}
            assert group.closure(seed) == reference_closure(group, seed), seed
            assert group.closure(seed) == reference_right_closure(group, seed), seed


def _sequence_or_error(sequence) -> tuple[int, ...] | str:
    try:
        return sequence()
    except ValueError:
        return "ValueError"


class TestGeneratingSequenceMatchesReference:
    """One ordered pass gives the greedy sequence of the `max` re-scan on
    every table, group or not; on a table with an element that no power
    takes to the identity, both raise ValueError."""

    def test_groups_and_non_associative_tables(self):
        tables = [build().table for build in NAMED_GROUPS.values()]
        tables += [t.cayley().table for t in iter_valid_triples(200)]
        tables.append(
            gg.direct_product(
                [validate_triple(3, 4, 2).cayley(), validate_triple(5, 16, 2).cayley()]
            ).table
        )
        tables.append(LOOP_6)
        # every table with permutation rows and a two-sided identity, of
        # orders 3 and 4: some have an element with no power the identity
        tables += [*_tables_with_permutation_rows(3), *_tables_with_permutation_rows(4)]
        # the squares of TestAssociativityCheck: random Latin squares
        # with an identity, then relabelled group tables
        for n in (5, 6):
            rng = random.Random(0x11647 + n)
            tables += [_random_latin_square_with_identity(rng, n) for _ in range(300)]
            groups = [gg.cyclic_group(n)] + ([validate_triple(3, 2, 2).cayley()] if n == 6 else [])
            tables += [_relabel(g.table, rng) for g in groups for _ in range(20)]
        outcomes = {"ValueError": 0, "sequence": 0}
        for table in tables:
            group = gg.CayleyGroup(table, gg._find_identity(table))  # unchecked
            fast = _sequence_or_error(lambda: group.generating_sequence)
            assert fast == _sequence_or_error(lambda: reference_generating_sequence(group)), table
            outcomes["ValueError" if fast == "ValueError" else "sequence"] += 1
        assert len(tables) == 9 + 289 + 1 + 1 + 12 + 864 + 660
        assert min(outcomes.values()) > 0, outcomes


class TestElementOrders:
    def test_equal_to_walking_every_power(self):
        groups = [t.cayley() for t in iter_valid_triples(200)]
        groups += [gg.cyclic_group(k) for k in (*range(1, 61), 1000)]
        for group in groups:
            assert group.element_orders == reference_element_orders(group)


# the lattice and automorphism scans against the ones that extend by
# every outside element and re-close the whole partial map at each node
def _reference_groups() -> list[gg.CayleyGroup]:
    return [
        *(t.cayley() for t in iter_valid_triples(REFERENCE_LATTICE_MAX_ORDER)),
        *(gg.cyclic_group(k) for k in range(1, 31)),
        gg.direct_product([validate_triple(3, 4, 2).cayley(), gg.cyclic_group(5)]),
    ]


class TestScansMatchReference:
    def test_subgroup_lattices(self):
        # the named groups have conjugacy classes of up to 28 subgroups
        for group in [*_reference_groups(), *(build() for build in NAMED_GROUPS.values())]:
            fast = [s.members for s in gg.subgroups(group)]
            assert fast == [s.members for s in reference_subgroups(group)]

    def test_automorphisms_of_groups_and_their_subgroups(self):
        checked = 0
        for group in _reference_groups():
            for table in [group, *(s.as_group() for s in gg.subgroups(group))]:
                fast = gg.automorphisms_bruteforce(table)
                assert fast == reference_automorphisms_bruteforce(table)
                checked += 1
        assert checked > 1000

    def test_one_extension_per_right_coset(self, monkeypatch, zm_5_16_2):
        group = zm_5_16_2.cayley()
        extensions, closures = [], []
        real_join, real_closure = gg._coset_join, gg.CayleyGroup.closure

        def coset_join(table, s, pick, g):
            extensions.append(g)
            return real_join(table, s, pick, g)

        def closure(self, seed):
            closures.append(seed)
            return real_closure(self, seed)

        monkeypatch.setattr(gg, "_coset_join", coset_join)
        monkeypatch.setattr(gg.CayleyGroup, "closure", closure)
        subs = gg.subgroups(group)
        n = group.order
        # one closure per cyclic subgroup, then each nontrivial class
        # representative s extended once per coset other than s
        cyclic = {real_closure(group, {g}) for g in range(n)}
        class_orders = {s.conjugacy_class: s.order for s in subs}
        assert len(cyclic) == 16 and len(class_orders) == 10
        nontrivial_classes = [k for k in class_orders.values() if k > 1]
        assert len(closures) == len(cyclic)
        assert len(extensions) == sum(n // k - 1 for k in nontrivial_classes) == 97
        # the same walk with every extension closed from the identity
        closures.clear()
        reference_coset_subgroups(group)
        assert len(closures) == len(cyclic) + len(extensions) == 113
        closures.clear()
        # the reference that extends by every outside element: every
        # element, then each nontrivial s once per outside element
        reference_subgroups(group)
        nontrivial = [s.order for s in subs[1:]]
        assert len(closures) == n + sum(n - k for k in nontrivial) == 1159

    def test_class_labels_are_conjugacy_classes(self):
        groups = [*_reference_groups(), *(build() for build in NAMED_GROUPS.values())]
        for group in groups:
            table, n = group.table, group.order
            inverse = [row.index(group.identity_index) for row in table]
            subs = gg.subgroups(group)
            for s in subs:
                conjugates = {
                    tuple(sorted(table[table[inverse[y]][x]][y] for x in s.members))
                    for y in range(n)
                }
                same_label = {t.members for t in subs if t.conjugacy_class == s.conjugacy_class}
                assert same_label == conjugates, s.members


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
                    assert perm[group.table[i][j]] == group.table[perm[i]][perm[j]]


class TestAutomorphismGenerators:
    def test_generate_the_parametrised_family(self):
        checked = 0
        for t in iter_valid_triples(60):
            group = t.cayley()
            gens = gg.automorphism_generators(group)
            family = {aut.to_permutation(t, a) for a in aut.enumerate_family(t, "all")}
            # automorphisms_bruteforce is the closure of gens in Sym(n)
            assert set(gg.automorphisms_bruteforce(group)) == family
            assert 2 ** len(gens) <= len(family)
            oracle = abscenter.absolute_center_oracle(t)
            assert set(gg.fixed_subgroup(group, gens).members) == {t.index_of(g) for g in oracle}
            checked += 1
        assert checked == 55

    def test_generator_lists_are_pinned(self):
        # the candidate images of each generator are tried in index order,
        # so the lists themselves, not only the groups they generate, are
        # fixed: the digest of 1707 lists, on every valid triple with
        # mn <= 60, the named groups, and the table of each subgroup
        groups = [t.cayley() for t in iter_valid_triples(60)]
        groups += [build() for build in NAMED_GROUPS.values()]
        tables = [table for g in groups for table in [g, *(s.as_group() for s in gg.subgroups(g))]]
        digest = hashlib.sha256()
        for table in tables:
            digest.update(repr(gg.automorphism_generators(table)).encode())
        assert len(tables) == 1707
        pinned = "81374017eb6b4ea29bbba6460362335a45ba63f2b80efd6f1843372df237f547"
        assert digest.hexdigest() == pinned

    # the first tested tables outside the ZM family, whose automorphism
    # groups have another shape: where a wrong orbit skip would show
    @pytest.mark.parametrize(
        "name, order",
        [("S4", 24), ("A4", 12), ("S3xS3", 36), ("D5", 10), ("A5", 60), ("S5", 120),
         ("SL(2,3)", 24), ("GL(2,3)", 48), ("PSL(2,7)", 168)],
    )
    def test_named_groups_and_their_subgroups(self, name, order):
        group = NAMED_GROUPS[name]()
        assert group.order == order
        for sub in gg.subgroups(group):
            table = sub.as_group()
            reference = reference_automorphisms_bruteforce(table)
            assert gg.automorphisms_bruteforce(table) == reference
            fixed = tuple(i for i in range(table.order) if all(p[i] == i for p in reference))
            assert gg.absolute_center_bruteforce(table).members == fixed


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
        fixed = gg.absolute_center_bruteforce(prod)
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
        members = tuple(sorted(zm_5_16_2.index_of(power(zm_5_16_2, b4, k)) for k in range(4)))
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
                    group.table[group.table[g][x]][group.table[g].index(group.identity_index)] in members
                    for g in range(group.order)
                    for x in sub.members
                )
                if normal:
                    for perm in auts:
                        assert {perm[x] for x in sub.members} == members
