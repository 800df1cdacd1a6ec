"""Error taxonomy shared across the package."""


class ParameterError(ValueError):
    """Caller supplied an argument outside an operation's precondition."""


class BudgetError(ValueError):
    """Experiment horizon too small for the requested procedure."""


class CapacityError(RuntimeError):
    """Work refused before it is built: an arm set (or a tree) with more
    (arm, node) cells than `model.ARM_CELL_LIMIT`, or a clique of the sweep's
    min-fill variable elimination, the factor over the kept nodes included,
    spanning more than `inference.FRONTIER_LIMIT` variables."""


class IllPosedObjectiveError(RuntimeError):
    """A ratio term has a zero denominator with a nonzero numerator."""


class InternalConsistencyError(RuntimeError):
    """An invariant that the pipeline guarantees by construction was violated."""


class BifParseError(ValueError):
    """Malformed network file; carries line and column of the offending token."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
