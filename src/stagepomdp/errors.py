"""Exception types shared across the package."""


class StagePomdpError(Exception):
    """Base class for all errors raised by this package."""


# --- model validation ------------------------------------------------------

class ModelValidationError(StagePomdpError):
    pass


class RowNotStochastic(ModelValidationError):
    def __init__(self, state, action, total):
        self.state = state
        self.action = action
        self.total = total
        super().__init__(
            f"transition row for state {state!r}, action {action!r} sums to "
            f"{total!r} instead of 1"
        )


class NegativeProbability(ModelValidationError):
    def __init__(self, location):
        self.location = location
        super().__init__(f"negative probability at {location}")


class InitNotStochastic(ModelValidationError):
    def __init__(self, total):
        self.total = total
        super().__init__(f"initial distribution sums to {total!r} instead of 1")


class MissingSignal(ModelValidationError):
    def __init__(self, state):
        self.state = state
        super().__init__(f"state {state!r} has no signal assigned")


class BadOrder(StagePomdpError):
    """Stage durations passed in the wrong order (requires h1 < h2)."""


# --- computation guards ----------------------------------------------------

class BudgetExceeded(StagePomdpError):
    def __init__(self, needed, budget, context=""):
        self.needed = needed
        self.budget = budget
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"enumeration needs about {needed} entries, budget is {budget}{suffix}"
        )


class SingularSystem(StagePomdpError):
    """A linear solve broke down numerically (should not happen on valid inputs)."""


class NotConverged(StagePomdpError):
    def __init__(self, steps, residual):
        self.steps = steps
        self.residual = residual
        super().__init__(
            f"policy iteration not stable after {steps} steps "
            f"(Bellman residual {residual:.3e})"
        )


class NotFullyObserved(StagePomdpError):
    """Operation requires an injective signal map."""


# --- epoch / mimic ---------------------------------------------------------

class TruncationDominates(StagePomdpError):
    def __init__(self, mass, bound):
        self.mass = mass
        self.bound = bound
        super().__init__(
            f"conditioning mass {mass:.3e} is below 10x the truncation bound "
            f"{bound:.3e}; the conditional action is unreliable"
        )


class NoAcceptedSamples(StagePomdpError):
    """No simulated trajectory matched the requested filtered history."""


class GapBoundViolated(StagePomdpError):
    def __init__(self, position, gap, bound):
        self.position = position
        self.gap = gap
        self.bound = bound
        super().__init__(
            f"subsequence index gap {gap} at position {position} exceeds bound {bound}"
        )


# --- text format -----------------------------------------------------------

class PomdpFormatError(StagePomdpError):
    """Positioned error in the .pomdp / .fsc text format."""

    label = "parse error"

    def __init__(self, line, column, message, filename="<string>"):
        self.line = line
        self.column = column
        self.message = message
        self.filename = filename
        super().__init__(self.render())

    def render(self):
        return f"{self.filename}:{self.line}:{self.column}: {self.message}"


class ParseError(PomdpFormatError):
    pass


class UnknownName(PomdpFormatError):
    def __init__(self, line, column, name, filename="<string>"):
        self.name = name
        super().__init__(line, column, f"unknown name {name!r}", filename)


class DuplicateEntry(PomdpFormatError):
    def __init__(self, line, column, what, filename="<string>"):
        super().__init__(line, column, f"duplicate entry: {what}", filename)
