"""Bounds for the commands that run the brute-force engines.

`Bounds` is exactly the bounds the command line sets by flag, and
`TABLE_BOUND` caps the Cayley tables that `verify --converse` and
`oracle-check` build.  They gate the commands, not the engines, which
take any order.  Exceeding one raises BoundExceededError
(SearchBudgetError for the prime hunt) or skips a check the report
names; nothing is silently truncated.  The oracle gate,
`abscenter.ORACLE_BOUND`, is not one: `compare` skips the oracle above
it and says so in its record.
"""

from dataclasses import dataclass

TABLE_BOUND = 2000  # max group order for explicit Cayley tables


@dataclass(frozen=True)
class Bounds:
    aut: int = 200           # max order for table-automorphism backtracking
    subgroups: int = 400     # max order for full subgroup enumeration
    prime_budget: int = 10**6  # max t tried in the 1 + t*q^a progression


DEFAULT_BOUNDS = Bounds()
