"""Explicit small finite groups: Cayley tables, direct products, subgroup
enumeration, and table automorphisms.

This is the independent ground truth for every closed formula in the
package, so `from_table` proves what it accepts: permutation rows, a
two-sided identity, and associativity by Light's test on a generating
set.  Columns need no check: a finite monoid whose rows are permutations
is a group.

The two scans do less work for the same answers.  `subgroups` walks the
lattice up to conjugacy: it adds each subgroup it finds together with its
whole conjugacy class, labels the class, and extends only the first-found
member, by one element per right coset s*g, since <s, h*g> = <s, g> for
every h in s.  `automorphism_generators` is the one
automorphism search: a stabiliser-chain backtrack that returns a
generating set of Aut, pruned by the orbits of the generators it has
found.  An absolute center is the set of points those generators fix;
`automorphisms_bruteforce` closes them in Sym(n) for the callers that
need every automorphism, such as `oracle-check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, product
from operator import itemgetter

from .config import DEFAULT_BOUNDS, TABLE_BOUND
from .errors import BoundExceededError


@dataclass(frozen=True)
class CayleyGroup:
    table: tuple[tuple[int, ...], ...]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.table)

    @classmethod
    def from_table(cls, table: tuple[tuple[int, ...], ...]) -> "CayleyGroup":
        group = cls(table, _find_identity(table))
        group._validate()
        return group

    def _validate(self) -> None:
        n = self.order
        full = frozenset(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or frozenset(row) != full:
                raise ValueError(f"row {i} is not a permutation")
        # Light's test.  The set A of elements a with (x*a)*y = x*(a*y) for
        # all x, y contains the identity and is closed under products: for
        # a, b in A, (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y))
        # = x*((a*b)*y).  So A holds every product ((e*s1)*s2)*... of
        # elements that pass the check, and when the closure of a set S
        # is the whole table, checking S alone proves associativity.
        # `generating_sequence` picks such an S (its closure search only
        # right-multiplies, so it is sound on any table): O(n^2 |S|).
        t = self.table
        for a in self.generating_sequence:
            x_times_a_row = itemgetter(*t[a])  # row x at (a*y) is x*(a*y)
            for x, row in enumerate(t):
                xa_row = t[row[a]]
                if xa_row != x_times_a_row(row):
                    y = next(y for y in range(n) if xa_row[y] != row[t[a][y]])
                    raise ValueError(f"associativity fails at ({x},{a},{y})")

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """Every element's order.  One walk of the powers g, g^2, ... of
        each g whose order is still unknown, which assigns
        ord(g^k) = ord(g) / gcd(k, ord(g)) to every power on the walk.
        `_validate` reads them before associativity is proved; there they
        only rank candidate generators, which Light's test does not need; a
        walk longer than the order, which only a non-group has, raises ValueError."""
        table, ident = self.table, self.identity_index
        orders = [0] * self.order
        orders[ident] = 1
        for g in range(self.order):
            if orders[g]:
                continue
            powers = [g]
            while powers[-1] != ident:
                if len(powers) == self.order:
                    raise ValueError(f"no power of element {g} is the identity")
                powers.append(table[powers[-1]][g])
            k_g = len(powers)
            for k, x in enumerate(powers, 1):
                if not orders[x]:
                    orders[x] = k_g // math.gcd(k, k_g)
        return tuple(orders)

    @cached_property
    def generating_sequence(self) -> tuple[int, ...]:
        """Greedy: highest-order element first, then keep adding a
        highest-order element outside the closure (smallest index on ties).
        Built once per table for Light's test and the automorphism search."""
        gens: list[int] = []
        have = frozenset([self.identity_index])
        orders = self.element_orders
        while len(have) < self.order:
            best = max(
                (i for i in range(self.order) if i not in have),
                key=lambda i: (orders[i], -i),
            )
            gens.append(best)
            have = self.closure(set(gens))
        return tuple(gens)

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
    # `subgroups` numbers the conjugacy classes; two subgroups it returns
    # share a label iff they are conjugate.  -1 elsewhere.
    conjugacy_class: int = field(default=-1, compare=False)

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> CayleyGroup:
        """The subgroup as a standalone group (indices renumbered).  A
        closed subset of a group that holds the identity is a group, so
        its table needs no check.  Each row is the parent row picked at
        the members, renumbered through one list."""
        members, parent = self.members, self.parent
        if len(members) == 1:  # itemgetter of one index returns no tuple
            return CayleyGroup(((0,),), 0)
        new_index = [-1] * parent.order
        for i, g in enumerate(members):
            new_index[g] = i
        pick = itemgetter(*members)
        renumber = new_index.__getitem__
        table = tuple(tuple(map(renumber, pick(parent.table[x]))) for x in members)
        return CayleyGroup(table, new_index[parent.identity_index])


def cyclic_group(k: int) -> CayleyGroup:
    """C_k with elements 0..k-1 under addition."""
    if k < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {k}")
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return CayleyGroup.from_table(table)


def direct_product(factors: list[CayleyGroup] | tuple[CayleyGroup, ...]) -> CayleyGroup:
    """Componentwise product; index tuples are flattened factor-major."""
    if len(factors) == 0:
        return cyclic_group(1)
    if len(factors) == 1:
        return factors[0]
    order = math.prod(g.order for g in factors)
    if order > TABLE_BOUND:
        raise BoundExceededError(f"product order {order} > table bound {TABLE_BOUND}")
    # the parts of every index in index order: factor-major, so the first
    # factor varies slowest
    index_parts = product(*(range(g.order) for g in factors))

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
    return CayleyGroup.from_table(table)


def subgroups(
    group: CayleyGroup, subgroup_bound: int = DEFAULT_BOUNDS.subgroups
) -> list[Subgroup]:
    """Every subgroup, labelled with its conjugacy class, by a
    breadth-first walk over class representatives.  Output is sorted by
    (order, member tuple) so runs are reproducible.

    The seeds are the cyclic subgroups.  After closing <g>, every element
    of <g> of the same order is marked done, since each generates <g>.
    When the walk first finds a subgroup t, it adds t's whole conjugacy
    class to `known`: the orbit of t under conjugation x -> x^y = y^-1 x y
    by each y of `generating_sequence`.  That is its orbit under all of G,
    as (x^y)^z = x^(yz) and the y generate G.  Only that first-found
    member of a class joins the frontier.  A frontier subgroup s is
    extended by one g per right coset s*g and closed: <s, h*g> = <s, g>
    for every h in s, as g = h^-1 * (h*g).  So each class representative
    s costs |G|/|s| - 1 closures, and the rest of its class costs none.

    Completeness, by induction on the number of generators.  The seeds
    give every cyclic subgroup.  Let H = <K, h> with K's class found, and
    let R = K^y be its representative.  Then H^y = <R, h^y>, which the
    walk reaches by extending R by the first element of the coset R*h^y,
    and it adds H^y's whole class, H included.

    Computing the lattice up to conjugacy is the standard approach of
    Holt, Eick and O'Brien, Handbook of Computational Group Theory (2005).
    """
    n = group.order
    if n > subgroup_bound:
        raise BoundExceededError(f"order {n} > subgroup enumeration bound {subgroup_bound}")
    table, orders, ident = group.table, group.element_orders, group.identity_index
    # conjugation by each y of the generating sequence, as the index
    # permutation x -> y^-1 x y
    conjugations = []
    for y in group.generating_sequence:
        y_inverse_row = table[table[y].index(ident)]
        conjugations.append(tuple(table[z][y] for z in y_inverse_row))

    def conjugates(t: frozenset[int]) -> list[frozenset[int]]:
        if len(t) == 1:  # the trivial subgroup is normal
            return [t]
        orbit, seen = [t], {t}
        for s in orbit:  # the loop also visits the conjugates it appends
            pick = itemgetter(*s)
            for conjugation in conjugations:
                u = frozenset(pick(conjugation))
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
        return orbit

    # the class label of every subgroup found, numbered in the order the
    # classes are found; each frontier entry keeps the generators its
    # subgroup was reached by: extending s by g closes <gens(s), g> =
    # <s, g> from a handful of seeds
    known: dict[frozenset[int], int] = {frozenset([ident]): 0}
    labels = count(1)
    frontier: list[tuple[frozenset[int], tuple[int, ...]]] = []

    def visit(t: frozenset[int], gens: tuple[int, ...], queue: list) -> None:
        if t not in known:
            known.update(dict.fromkeys(conjugates(t), next(labels)))
            queue.append((t, gens))

    done = [False] * n
    for g in range(n):
        if done[g]:
            continue
        s = group.closure({g})
        for x in s:
            if orders[x] == orders[g]:
                done[x] = True
        visit(s, (g,), frontier)
    while frontier:
        fresh: list[tuple[frozenset[int], tuple[int, ...]]] = []
        for s, gens in frontier:
            # the cosets s*g already extended by; the first g of a coset
            # is its least element
            seen = set(s)
            for g in range(n):
                if g in seen:
                    continue
                visit(group.closure(gens + (g,)), gens + (g,), fresh)
                seen.update(table[h][g] for h in s)
        frontier = fresh
    out = [Subgroup(group, tuple(sorted(s)), label) for s, label in known.items()]
    out.sort(key=lambda s: (s.order, s.members))
    return out


def automorphism_generators(
    group: CayleyGroup, aut_bound: int = DEFAULT_BOUNDS.aut
) -> list[tuple[int, ...]]:
    """A generating set of the table's automorphism group, as index
    permutations; empty when the group has no automorphism but the identity.

    This is a stabiliser-chain backtrack with orbit pruning, after McKay's
    "Practical graph isomorphism" (1981) and Holt, Eick and O'Brien,
    Handbook of Computational Group Theory (2005), ch. 4.  Let g_1, ...,
    g_s be `generating_sequence`, and let A_k be the automorphisms that fix
    g_1, ..., g_(k-1); an automorphism is fixed by its images of the g_i,
    so Aut = A_1 >= A_2 >= ... >= A_(s+1) = 1.  The levels run from k = s
    down to 1.  At level k, phi is the identity on H = <g_1, ..., g_(k-1)>,
    and each image x of g_k of the same order outside H is tried (an
    automorphism fixing H pointwise maps H onto H, so g_k cannot land in
    it).  x is skipped if it lies in the orbit of g_k, or of an image that
    already failed, under the generators found so far.  Otherwise the
    deeper generators g_(k+1), ..., g_s are searched for one completion,
    and each completion is a new generator.

    1. A point fixed by a generating set is fixed by the whole group: the
       permutations that fix it form a subgroup.
    2. Every generator found by level k lies in A_k.  After level k, the
       A_k-orbit of g_k equals its orbit under them: an x of that orbit is
       skipped only when it is already in the orbit of g_k (it never fails,
       by 3), and otherwise its search succeeds and adds a generator that
       maps g_k to x.  So for alpha in A_k some beta in <found> agrees with
       alpha on g_k, and beta^-1 alpha lies in A_(k+1), which the
       generators of the deeper levels generate, by induction from
       A_(s+1) = 1.  The found set is a strong generating set, and it
       generates A_1 = Aut.
    3. Failed-orbit skip: suppose sigma in <found>, a subgroup of A_k, maps
       x to x', and some tau in A_k maps g_k to x'.  Then sigma^-1 tau in
       A_k maps g_k to x.  So if x fails, x' fails too.
    4. Each new generator maps g_k outside the orbit of g_k under <found>,
       so it strictly enlarges <found> and at least doubles its order.  So
       2^|found| <= |Aut|.

    A completion extends phi one generator at a time.  Invariant on
    entering level k: `reached` is <g_1, ..., g_k-1>, phi is defined
    exactly there, injective, and phi(x*g) = phi(x)*phi(g) for every x in
    `reached` and every assigned g.  Giving g_k an image keeps those pairs
    checked, so only the old elements are checked against g_k, and then
    each newly reached element against every assigned generator: each
    (element, generator) pair is checked once per node.  The new `reached`
    is closed under right multiplication by g_1..g_k, so it is
    <g_1, ..., g_k>.  At the last level it is the whole group, and the
    checked pairs are enough: induction over words in the generators
    extends phi(x*g) = phi(x)phi(g) to all pairs.
    """
    n = group.order
    if n > aut_bound:
        raise BoundExceededError(f"order {n} > automorphism bound {aut_bound}")
    gens = group.generating_sequence
    orders = group.element_orders
    table = group.table
    ident = group.identity_index
    phi = [-1] * n
    phi[ident] = ident
    used = [False] * n  # used[w]: w is already some phi(x)
    used[ident] = True

    def extend(reached: list[int], level: int, fresh: list[int]) -> bool:
        """Close phi under the generators up to gens[level], whose image
        is set and which is the first entry of `fresh`; every element
        given an image is appended to `fresh`, also on a clash."""
        g = gens[level]
        img = phi[g]
        for x in reached:  # old elements: new generator only
            z = table[x][g]
            w = table[phi[x]][img]
            if phi[z] < 0:
                if used[w]:
                    return False  # two preimages; not injective
                phi[z] = w
                used[w] = True
                fresh.append(z)
            elif phi[z] != w:
                return False
        assigned = gens[: level + 1]
        # new elements: every assigned generator; the loop also visits
        # the elements it appends
        for x in fresh:
            row, image_row = table[x], table[phi[x]]
            for h in assigned:
                z = row[h]
                w = image_row[phi[h]]
                if phi[z] < 0:
                    if used[w]:
                        return False
                    phi[z] = w
                    used[w] = True
                    fresh.append(z)
                elif phi[z] != w:
                    return False
        return True

    def undo(assigned: list[int]) -> None:
        for z in assigned:
            used[phi[z]] = False
            phi[z] = -1

    def attempt(level: int, reached: list[int], img: int) -> tuple[int, ...] | None:
        """One automorphism that extends phi by gens[level] -> img, or None."""
        g = gens[level]
        phi[g] = img
        used[img] = True
        fresh = [g]
        tau = None
        if extend(reached, level, fresh):
            tau = complete(level + 1, reached + fresh)
        undo(fresh)
        return tau

    def complete(level: int, reached: list[int]) -> tuple[int, ...] | None:
        if level == len(gens):
            return tuple(phi)
        g = gens[level]
        for img in range(n):
            if not used[img] and orders[img] == orders[g]:
                tau = attempt(level, reached, img)
                if tau is not None:
                    return tau
        return None

    # the identity, one level at a time: layers[k] is what g_k+1 adds to
    # <g_1, ..., g_k>; peeling the layers off from the deepest leaves phi
    # the identity on exactly the prefix each level needs
    layers = []
    reached = [ident]
    for level, g in enumerate(gens):
        phi[g] = g
        used[g] = True
        fresh = [g]
        extend(reached, level, fresh)
        layers.append(fresh)
        reached += fresh

    found: list[tuple[int, ...]] = []
    moves = []  # x -> tau(x) for each tau in found
    for level in reversed(range(len(gens))):
        undo(layers[level])
        reached = [ident, *(x for layer in layers[:level] for x in layer)]
        g = gens[level]
        skip = _reach({g}, moves)
        for img in range(n):
            if img in skip or used[img] or orders[img] != orders[g]:
                continue
            tau = attempt(level, reached, img)
            if tau is None:
                skip |= _reach({img}, moves)
            else:
                found.append(tau)
                moves.append(tau.__getitem__)
                skip = _reach(skip, moves)
    return found


def _reach(start: set, maps: list) -> set:
    """Everything the maps reach from the start, the start included.  When
    the maps are permutations of a finite set, that is the orbit of the
    start under the group they generate: each inverse is a positive power."""
    out = set(start)
    queue = list(out)
    while queue:
        x = queue.pop()
        for f in maps:
            y = f(x)
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


def automorphisms_bruteforce(
    group: CayleyGroup, aut_bound: int = DEFAULT_BOUNDS.aut
) -> list[tuple[int, ...]]:
    """Every table automorphism, as index permutations (sorted): the
    closure of `automorphism_generators` in Sym(n), for callers that need
    the whole list, such as `oracle-check`'s comparison with the
    parametrised family."""
    gens = automorphism_generators(group, aut_bound)
    # itemgetter(*tau) maps p to p after tau
    return sorted(_reach({tuple(range(group.order))}, [itemgetter(*tau) for tau in gens]))


def absolute_center_bruteforce(
    group: CayleyGroup, aut_bound: int = DEFAULT_BOUNDS.aut
) -> Subgroup:
    """Elements fixed by every automorphism of the table, that is, by each
    of `automorphism_generators`."""
    return fixed_subgroup(group, automorphism_generators(group, aut_bound))


def fixed_subgroup(group: CayleyGroup, perms: list[tuple[int, ...]]) -> Subgroup:
    """Elements fixed by every permutation in perms, e.g. the generators
    `automorphism_generators` returned."""
    fixed = [i for i in range(group.order) if all(p[i] == i for p in perms)]
    return Subgroup(group, tuple(fixed))


def is_cyclic(s: Subgroup) -> tuple[bool, int]:
    """(True iff some member generates all of s, |s|)."""
    k = s.order
    return any(s.parent.element_orders[g] == k for g in s.members), k
