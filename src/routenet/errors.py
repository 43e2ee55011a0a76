"""Exception hierarchy shared across the package."""


class RoutenetError(Exception):
    """Base class for all routenet errors."""


class DomainMismatch(RoutenetError):
    """Label sets of two multirelations do not line up for composition."""


class UnknownLabel(RoutenetError):
    """A label is not present in the expected label set."""


class CycleRisk(RoutenetError):
    """Tracing an input against an output it is already connected to."""


class ParseError(RoutenetError):
    """Malformed textual or JSON input."""

    def __init__(self, reason: str, offset: int = 0):
        super().__init__(f"parse error at offset {offset}: {reason}")
        self.reason = reason
        self.offset = offset


class StaleRedex(RoutenetError):
    """A redex no longer matches the net it was found on."""


class BudgetExhausted(RoutenetError):
    """Reduction ran out of steps; carries the partial result and, from the
    net rewriter, the steps taken per rule (a Counter)."""

    def __init__(self, partial, steps=None):
        super().__init__("reduction budget exhausted")
        self.partial = partial
        self.steps = steps


class HasBoxes(RoutenetError):
    """Path machinery only applies to nets without exponential boxes."""


class CyclicNet(RoutenetError):
    """Path counting requires an acyclic net."""


class UnwiredPort(RoutenetError):
    """A free port or a cell's port has no wire of its own: none ends there,
    the net gives the same port to another free or cell port, or the port is
    two wire ends (of two wires, or both ends of one); or a wire ends at a
    port that no free port or cell owns."""


class BadPayload(RoutenetError):
    """A payload handed to `routing.transit` is not a well-formed net."""


class NotAreaShaped(RoutenetError):
    """A normal routing net failed to decompose as a routing area."""


class NotStratified(RoutenetError):
    """Region context admits no stratification order."""


class TypingError(RoutenetError):
    """Type-and-effect checking failed; names the violated rule."""

    def __init__(self, rule: str, detail: str = ""):
        msg = f"typing rule ({rule}) failed" + (f": {detail}" if detail else "")
        super().__init__(msg)
        self.rule = rule


class DerivationMismatch(RoutenetError):
    """A typing derivation does not match the term being translated."""


class InterfaceMismatch(RoutenetError):
    """Net interface does not expose the expected labelled wires."""
