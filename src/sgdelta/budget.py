"""Explicit resource budgets for the exact engines.

Every size limit lives here, and exceeding any of them raises
BudgetExceeded, which is a distinct outcome from a falsified claim: it means
"unknown at this cost", never "false".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Budget:
    max_element: int


def check_element(x: int, budget: Budget | None) -> None:
    """BudgetExceeded when x exceeds an explicit element budget; with none,
    each engine keeps its own default."""
    if budget is not None and x > budget.max_element:
        raise BudgetExceeded(f"x={x} exceeds element budget {budget.max_element}")


# The max-norm engine walks every element up to its certificate horizon, so
# its default is tighter than the 0-norm scan (a few vector ops per element).
DEFAULT_INF_BUDGET = Budget(max_element=300_000)
DEFAULT_ZERO_BUDGET = Budget(max_element=5_000_000)

# The largest x a length table serves, for the 1-norm and the max-norm
# engines, and the largest x enumerated; past this the tables and the
# sweep's per-x rows reach GB scale.
MAX_ENGINE_HORIZON = 20_000_000

# Residue tables above this size would dominate memory.
MAX_APERY_MODULUS = 50_000_000

# The 0-norm engine builds one span table per nonempty support, 2^k - 1 in all.
MAX_SUBSET_DIM = 24

# The most tuples a factorization set is materialized with.
MAX_FACTORIZATIONS = 10_000_000
