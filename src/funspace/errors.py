"""Exception types raised across the package.

Everything derives from :class:`FunspaceError` so callers can catch the
package's failures with a single except clause.  Each concrete class also
derives from the builtin a caller would expect: ``ValueError`` for bad
values, ``KeyError`` for an unknown component name (:class:`UnknownComponent`).
Model-text problems get their own branch (:class:`ModelError`) carrying an
optional line number, because the CLI maps those to a distinct exit code.
"""


class FunspaceError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(FunspaceError, ValueError):
    """A clause family does not describe a valid function shape."""


class NotAntichain(ShapeError):
    """Two clauses are comparable (one contains the other)."""


class NotCover(ShapeError):
    """Some regulator appears in no clause, so it would not be essential."""


class EmptyClauseSet(ShapeError):
    """No clauses given (or an empty clause)."""


class ArityMismatch(FunspaceError, ValueError):
    """Two objects that must share a regulator count do not."""


class ArityTooLarge(FunspaceError, ValueError):
    """The requested regulator count exceeds what the operation supports."""


class ThresholdOutOfRange(FunspaceError, ValueError):
    """Majority-rule threshold outside 1..p."""


class NoActivators(FunspaceError, ValueError):
    """The no-inhibitors construction needs at least one activator."""


class NotAParent(FunspaceError, ValueError):
    """Claimed edge is not a covering step of the function order."""


class NotAChain(FunspaceError, ValueError):
    """A path of shapes is empty or mixes arities."""


class DedekindUnknown(FunspaceError, ValueError):
    """Counting requested beyond the known free-distributive-lattice sizes."""


class StateSpaceTooLarge(FunspaceError, ValueError):
    """Refusing a state space above the configured limit."""


class NotAutoregulated(FunspaceError, ValueError):
    """Operation requires the target among its own regulators."""


class SingleRegulator(FunspaceError, ValueError):
    """Operation requires at least two regulators."""


class NotConsistent(FunspaceError, ValueError):
    """A truth table is degenerate or violates its declared signs."""


class InvalidProbability(FunspaceError, ValueError):
    """Ensemble probabilities must be positive and sum to one."""


class InvalidArgument(FunspaceError, ValueError):
    """An argument outside what the operation accepts: an unknown experiment,
    neighbor mode or sibling route, a count below one, or a sequence without
    one entry per component."""


class UnknownComponent(FunspaceError, KeyError):
    """A component name the network does not declare.

    ``names`` holds the unknown names.  Prints its message unquoted, as
    every other error does (``str`` of a ``KeyError`` adds quotes)."""

    def __init__(self, message: str, names: tuple[str, ...]):
        self.names = names
        super().__init__(message)

    __str__ = Exception.__str__


class ConstantComponent(FunspaceError, ValueError):
    """A constant component was given where a function is needed."""


class MissingMarker(UnknownComponent):
    """Phenotype classification referenced a component the network lacks."""


class ModelError(FunspaceError, ValueError):
    """Base for problems in model/expression text; knows its line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelSyntaxError(ModelError):
    """Tokenization or grammar failure."""


class DualRegulation(ModelError):
    """A variable used both plain and negated in one function."""


class NotDNFAfterNormalization(ModelError):
    """Expression structure is not a disjunction of literal conjunctions."""


class ExpansionTooLarge(ModelError):
    """Normalizing an expression to DNF would form too many clauses."""


class UnknownVariable(ModelError):
    """Expression references a component the model never declares."""


class DuplicateComponent(ModelError):
    """The same component is declared twice."""
