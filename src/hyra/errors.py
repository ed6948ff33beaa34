"""Exception types shared across the package.

Every error raised on a user-facing path derives from HyraError so the CLI
can map failures onto its exit-code table: input/parse problems are
ModelFormatError subclasses (exit 2), engine failures are EngineError
subclasses (exit 3).
"""


class HyraError(Exception):
    """Base class for all package errors."""


class ModelFormatError(HyraError):
    """Problems reading or interpreting model inputs (exit code 2)."""


class ExpressionSyntaxError(ModelFormatError):
    """Malformed expression text; carries the 0-based character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonlinearUnsupported(ModelFormatError):
    """Expression linearizes to something outside constant*variable terms."""


class UnknownIdentifier(ModelFormatError):
    """Expression references a name not declared in the variable table."""


class XmlMalformed(ModelFormatError):
    """Model XML is not well-formed or misses required structure."""


class UnsupportedFeature(ModelFormatError):
    """Model uses a construct outside the supported subset."""


class ConfigError(ModelFormatError):
    """Problems in the key=value configuration text."""


class UnknownKey(ConfigError):
    pass


class MissingKey(ConfigError):
    pass


class SchemaViolation(ModelFormatError):
    """JSON interchange document does not match the shipped schema."""


class BundleDefects(SchemaViolation):
    """JSON bundle whose model or forbidden set ``ir.validate`` rejects; ``defects`` lists why."""

    def __init__(self, defects):
        super().__init__("bundle does not validate: " + "; ".join(map(str, defects)))
        self.defects = tuple(defects)


class UnknownSymbol(ModelFormatError):
    """bind_constant target is neither a constant nor an input."""


class DimensionMismatch(HyraError):
    """Operands of a set operation disagree in dimension."""


class EngineError(HyraError):
    """Failures inside the reachability / simulation kernels (exit code 3)."""


class MatrixOverflow(EngineError):
    """Matrix exponential argument norm too extreme to evaluate."""


class InitOutsideInvariant(EngineError):
    """Flowpipe seeded with a set not contained in the location invariant."""


class StepTooLarge(EngineError):
    """Discretization bloating dwarfs the propagated set; reduce the step."""


class NonFiniteFlowpipe(EngineError):
    """Flowpipe bounds left the floating-point range (diverging dynamics)."""


class MaxEventsExceeded(EngineError):
    """Simulation hit the event cap without Zeno accumulation."""
