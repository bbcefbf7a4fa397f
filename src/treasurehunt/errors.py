"""Exception types shared across the package."""

from __future__ import annotations


class TreasureHuntError(Exception):
    """Base class for all package-specific errors."""


class InvalidTableError(TreasureHuntError):
    """A stay-probability table cannot drive a legal searcher strategy."""


class ExceedsUnitError(InvalidTableError):
    """Scaling pushed a stay probability above 1 for some diagram."""

    def __init__(self, diagram, value):
        self.diagram = tuple(diagram)
        self.value = value
        super().__init__(f"stay probability {value} > 1 at diagram {self.diagram}")


class MissingDiagramError(InvalidTableError):
    """A reachable diagram has no entry in the table."""

    def __init__(self, diagram):
        self.diagram = tuple(diagram)
        super().__init__(f"no table entry for reachable diagram {self.diagram}")


class TableEntryError(InvalidTableError):
    """A table entry lies outside [0, 1] or is not an exact fraction."""


class DoorBudgetError(InvalidTableError):
    """A reachable branch of the strategy needs more fresh doors than exist."""


class AdversarialRevealError(TreasureHuntError):
    """The requested computation cannot resolve adversarial reveals."""


class BudgetExceededError(TreasureHuntError):
    """A node or LP-column budget was exhausted before the computation finished."""


class InternalError(TreasureHuntError):
    """A self-check failed: the program, not its input, is at fault."""
