"""Exception types shared across the package."""


class TreextremalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TreextremalError, ValueError):
    """Malformed textual input (degree string, edge list, y-vector)."""


class NotATreeSequence(TreextremalError, ValueError):
    """Degree sequence cannot be realized by any tree."""


class InvalidTree(TreextremalError, ValueError):
    """Edge set does not describe a tree on the stated vertex count."""


class LengthMismatch(TreextremalError, ValueError):
    """Pruefer sequence length is not n - 2."""


class LabelOutOfRange(TreextremalError, ValueError):
    """Pruefer sequence entry outside 0..n-1."""


class VertexOutOfRange(TreextremalError, IndexError):
    """Vertex argument does not name a vertex of the tree."""


class EmptySpine(TreextremalError, ValueError):
    """Caterpillar construction needs at least one spine vertex."""


class NoInternalVertices(TreextremalError, ValueError):
    """Caterpillar enumeration needs k >= 1 internal vertices."""


class TooLarge(TreextremalError, ValueError):
    """Input exceeds the hard guard of the brute-force oracle."""


class BudgetExceeded(TreextremalError, RuntimeError):
    """Enumeration or search cost exceeds the configured budget.

    The message names the count that was over: the predicted free trees or
    caterpillar arrangements, the order past the order cap, or the
    prefixes a caterpillar search had entered when it stopped.
    """


class WrongK(TreextremalError, ValueError):
    """Closed form or trichotomy called with an unsupported internal count."""


class ClosedFormUnavailable(TreextremalError, ValueError):
    """No closed form exists for the requested objective/degree sequence."""


class NotApplicable(TreextremalError, ValueError):
    """Branch-shift preconditions do not hold for the given tree/vertices."""


class InternalInconsistency(TreextremalError, RuntimeError):
    """Two routes to the same answer disagree (a closed form and the search
    it is cross-checked against); a bug in this package, not bad input."""
