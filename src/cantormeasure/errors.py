"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class CantorMeasureError(Exception):
    """Base class for all domain errors."""

    kind = "other"


class PresentationError(CantorMeasureError):
    """A tree presentation violates a construction invariant."""

    kind = "presentation"


class NotANode(CantorMeasureError):
    """The queried word is not a node of the tree."""

    kind = "not-a-node"


class UnsupportedPresentation(CantorMeasureError):
    """The operation needs a finite-state presentation and got something else."""

    kind = "unsupported"


class WitnessNotFound(CantorMeasureError):
    """The escape-window hypothesis failed at a reachable node.

    This is informative output, not a bug: it signals the opposite case of
    the refinement dichotomy.
    """

    kind = "witness-not-found"

    def __init__(self, node, message: str = ""):
        self.node = node
        super().__init__(message or f"no escape window below {node}")


class CapExceeded(CantorMeasureError):
    """A configured growth cap was hit before the computation finished."""

    kind = "cap"


class IntegrityError(CantorMeasureError):
    """Two independent computation paths disagreed; indicates a bug."""

    kind = "integrity"


class ParseError(CantorMeasureError):
    """Script parse failure with a source position."""

    def __init__(self, message: str, line: int, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}: {message}")
