"""Explicit small finite groups: Cayley tables, direct products, subgroup
enumeration, and brute-force automorphism groups.

This is the independent ground truth for every closed formula in the
package, so construction is paranoid: tables are checked to be Latin
squares with identity, and associativity is proved at every order by
Light's test on a generating set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .config import DEFAULT_BOUNDS
from .errors import BoundExceededError


@dataclass(frozen=True)
class CayleyGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    identity_index: int

    @classmethod
    def from_table(
        cls, table: tuple[tuple[int, ...], ...], labels: tuple[str, ...] | None = None
    ) -> "CayleyGroup":
        n = len(table)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        ident = _find_identity(table)
        group = cls(order=n, table=table, labels=labels, identity_index=ident)
        group._validate()
        return group

    def _validate(self) -> None:
        n = self.order
        if len(self.labels) != n:
            raise ValueError("label count does not match order")
        full = frozenset(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or frozenset(row) != full:
                raise ValueError(f"row {i} is not a permutation")
        for j, column in enumerate(zip(*self.table)):
            if frozenset(column) != full:
                raise ValueError(f"column {j} is not a permutation")
        # Light's test.  The set A of elements a with (x*a)*y = x*(a*y) for
        # all x, y contains the identity and is closed under products: for
        # a, b in A, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y))
        # = x*((a*b)*y).  So A holds every product ((e*s1)*s2)*... of
        # elements that pass the check, and when the closure of a set S
        # is the whole table, checking S alone proves associativity.
        # `_generating_sequence` picks such an S (its closure search only
        # right-multiplies, so it is sound on any Latin square): O(n^2 |S|).
        t = self.table
        for a in _generating_sequence(self):
            x_times_a_row = itemgetter(*t[a])  # row x at (a*y) is x*(a*y)
            for x, row in enumerate(t):
                xa_row = t[row[a]]
                if xa_row != x_times_a_row(row):
                    y = next(y for y in range(n) if xa_row[y] != row[t[a][y]])
                    raise ValueError(f"associativity fails at ({x},{a},{y})")

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity_index)

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity_index:
            x = self.table[x][i]
            k += 1
        return k

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(i) for i in range(self.order))

    def closure(self, seed: frozenset[int] | set[int] | tuple[int, ...]) -> frozenset[int]:
        """Subgroup generated by the seed, by a search of its Cayley graph
        from the identity: each newly reached element is multiplied on the
        right by the seed elements only, so the cost is O(|result| * |seed|).

        The search reaches every product of seed elements.  That is the
        whole generated subgroup: the group is finite, so each inverse
        g^-1 = g^(ord g - 1) is itself such a product.
        """
        gens = tuple(set(seed))
        table = self.table
        members = {self.identity_index}
        queue = [self.identity_index]
        while queue:
            row = table[queue.pop()]
            for g in gens:
                z = row[g]
                if z not in members:
                    members.add(z)
                    queue.append(z)
        return frozenset(members)


def _find_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    raise ValueError("table has no two-sided identity")


@dataclass(frozen=True)
class Subgroup:
    parent: CayleyGroup
    members: tuple[int, ...]  # sorted indices

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> CayleyGroup:
        """The subgroup as a standalone group (indices renumbered)."""
        old_to_new = {g: i for i, g in enumerate(self.members)}
        table = tuple(
            tuple(old_to_new[self.parent.table[x][y]] for y in self.members)
            for x in self.members
        )
        labels = tuple(self.parent.labels[g] for g in self.members)
        return CayleyGroup.from_table(table, labels)


def cyclic_group(k: int) -> CayleyGroup:
    """C_k with elements 0..k-1 under addition."""
    if k < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {k}")
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    labels = tuple("e" if i == 0 else f"g^{i}" for i in range(k))
    return CayleyGroup.from_table(table, labels)


def direct_product(
    factors: list[CayleyGroup] | tuple[CayleyGroup, ...],
    table_bound: int = DEFAULT_BOUNDS.table,
) -> CayleyGroup:
    """Componentwise product; index tuples are flattened factor-major."""
    if len(factors) == 0:
        return cyclic_group(1)
    if len(factors) == 1:
        return factors[0]
    order = math.prod(g.order for g in factors)
    if order > table_bound:
        raise BoundExceededError(f"product order {order} > table bound {table_bound}")
    # the parts of every index in index order: factor-major, so the first
    # factor varies slowest
    index_parts = list(product(*(range(g.order) for g in factors)))

    def row(parts: tuple[int, ...]) -> tuple[int, ...]:
        # entry j is the index of the parts z_f = f.table[i_f][j_f], in
        # Horner form (...(z_1*k_2 + z_2)*k_3 + ...); the comprehension
        # visits the j in index order, since they run factor-major too
        out = [0]
        for f, p in zip(factors, parts):
            f_row, k = f.table[p], f.order
            out = [x * k + z for x in out for z in f_row]
        return tuple(out)

    table = tuple(row(parts) for parts in index_parts)
    labels = tuple(
        "(" + ",".join(f.labels[p] for f, p in zip(factors, parts)) + ")"
        for parts in index_parts
    )
    return CayleyGroup.from_table(table, labels)


def subgroups(
    group: CayleyGroup, subgroup_bound: int = DEFAULT_BOUNDS.subgroups
) -> list[Subgroup]:
    """Every subgroup, by breadth-first closure: seed with the cyclic
    subgroups, then repeatedly extend each known subgroup by one outside
    element and close.  Output is sorted by (order, member tuple) so runs
    are reproducible."""
    if group.order > subgroup_bound:
        raise BoundExceededError(
            f"order {group.order} > subgroup enumeration bound {subgroup_bound}"
        )
    # each subgroup keeps the generators it was reached by: extending s
    # by g closes <gens(s), g> = <s, g> from a handful of seeds
    known: dict[frozenset[int], tuple[int, ...]] = {frozenset([group.identity_index]): ()}
    frontier = []
    for g in range(group.order):
        s = group.closure({g})
        if s not in known:
            known[s] = (g,)
            frontier.append(s)
    while frontier:
        fresh = []
        for s in frontier:
            gens = known[s]
            for g in range(group.order):
                if g in s:
                    continue
                t = group.closure(gens + (g,))
                if t not in known:
                    known[t] = gens + (g,)
                    fresh.append(t)
        frontier = fresh
    out = [Subgroup(group, tuple(sorted(s))) for s in known]
    out.sort(key=lambda s: (s.order, s.members))
    return out


def _generating_sequence(group: CayleyGroup) -> list[int]:
    """Greedy: highest-order element first, then keep adding a highest-order
    element outside the closure (smallest index on ties)."""
    gens: list[int] = []
    have = frozenset([group.identity_index])
    orders = group.element_orders
    while len(have) < group.order:
        best = max(
            (i for i in range(group.order) if i not in have),
            key=lambda i: (orders[i], -i),
        )
        gens.append(best)
        have = group.closure(set(gens))
    return gens


def automorphisms_bruteforce(
    group: CayleyGroup, aut_bound: int = DEFAULT_BOUNDS.aut
) -> list[tuple[int, ...]]:
    """All table-preserving bijections, as index permutations (sorted).

    Backtracks on the images of a greedy generating sequence.  A partial
    assignment is propagated breadth-first (phi(x*g) := phi(x)*phi(g));
    any clash of images, or a repeated image, prunes the branch.  Checking
    phi(x*g) = phi(x)phi(g) for every x and every generator g is enough:
    induction over words in the generators extends it to all pairs.
    """
    n = group.order
    if n > aut_bound:
        raise BoundExceededError(f"order {n} > automorphism bound {aut_bound}")
    if n == 1:
        return [(0,)]
    gens = _generating_sequence(group)
    orders = group.element_orders
    table = group.table
    ident = group.identity_index
    found: list[tuple[int, ...]] = []

    def propagate(phi: list[int], used: set[int], assigned: list[int]) -> bool:
        """Close phi under right multiplication by the assigned generators,
        checking consistency on every (element, generator) pair."""
        reached = [i for i in range(n) if phi[i] >= 0]
        queue = list(reached)
        while queue:
            x = queue.pop()
            for g in assigned:
                z = table[x][g]
                w = table[phi[x]][phi[g]]
                if phi[z] < 0:
                    if w in used:
                        return False  # two preimages; not injective
                    phi[z] = w
                    used.add(w)
                    queue.append(z)
                elif phi[z] != w:
                    return False
        return True

    def backtrack(level: int, phi: list[int], used: set[int]) -> None:
        if level == len(gens):
            if all(x >= 0 for x in phi):
                found.append(tuple(phi))
            return
        g = gens[level]
        for img in range(n):
            if img in used or orders[img] != orders[g]:
                continue
            phi2 = phi[:]
            used2 = set(used)
            phi2[g] = img
            used2.add(img)
            if propagate(phi2, used2, gens[: level + 1]):
                backtrack(level + 1, phi2, used2)

    phi0 = [-1] * n
    phi0[ident] = ident
    backtrack(0, phi0, {ident})
    found.sort()
    return found


def absolute_center_bruteforce(
    group: CayleyGroup, aut_bound: int = DEFAULT_BOUNDS.aut
) -> Subgroup:
    """Elements fixed by every automorphism of the table."""
    return fixed_subgroup(group, automorphisms_bruteforce(group, aut_bound))


def fixed_subgroup(group: CayleyGroup, perms: list[tuple[int, ...]]) -> Subgroup:
    """Elements fixed by every permutation in perms, e.g. the automorphisms
    `automorphisms_bruteforce` returned."""
    fixed = [i for i in range(group.order) if all(p[i] == i for p in perms)]
    return Subgroup(group, tuple(fixed))


def is_cyclic(s: Subgroup) -> tuple[bool, int]:
    """(True iff some member generates all of s, |s|)."""
    k = s.order
    return any(s.parent.element_orders[g] == k for g in s.members), k
