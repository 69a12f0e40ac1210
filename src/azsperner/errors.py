"""Exception hierarchy shared by every module."""


class PosetError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLabelError(PosetError, KeyError):
    """No element carries the label; also a KeyError, as for any failed lookup."""

    __str__ = PosetError.__str__  # KeyError's own __str__ would quote the message


class CoverRankError(PosetError):
    """A cover edge does not increase rank by exactly one."""


class NotGradedError(PosetError):
    """Operation requires a graded poset (minimal elements at rank 0, maximal at the top)."""


class RankOutOfRangeError(PosetError):
    """A rank argument lies outside the poset's level range."""


class SizeLimitError(PosetError):
    """Instance exceeds the documented desk-scale cap for this operation."""


class NotPrimePowerError(PosetError):
    """Field order must be a prime power (at most 9 here)."""


class LevelTooLargeError(PosetError):
    """Subset enumeration refused: a level exceeds the enumeration threshold."""


class NotUPosetError(PosetError):
    """Operation needs universal lower and upper bounds (|P_0| = |P_top| = 1)."""


class NotNormalError(PosetError):
    """Poset fails the normalized matching property."""


class NotStrictlyNormalError(PosetError):
    """Poset fails the strict normalized matching property."""


class NotRegularError(PosetError):
    """Poset degrees are not uniform per rank."""


class NotStronglyRegularError(PosetError):
    """Interval level-counts are not uniform over comparable pairs."""


class ChainLimitError(PosetError):
    """Maximal-chain enumeration would exceed the requested cap."""


class NotAntichainError(PosetError):
    """Family contains two comparable elements."""


class NotKSpernerError(PosetError):
    """Family contains a chain longer than k."""


class EmptyFamilyError(PosetError):
    """A nonempty family is required."""


class SkewViolationError(PosetError):
    """Pair system violates the condition a_i <= b_j iff i = j."""


class IntervalOverlapError(PosetError):
    """Two intervals S(a_i, b_i) of a pair system intersect."""


class EmptySliceError(PosetError):
    """A product family has an empty slice A(y)."""

    def __init__(self, y, message=None):
        self.y = y
        super().__init__(message or f"family slice at element {y} is empty")


class NotTwoPartSpernerError(PosetError):
    """Product family violates the 2-part Sperner condition."""


class NotMaximalChainError(PosetError):
    """A chain argument is not a maximal chain of its poset."""
