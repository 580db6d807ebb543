"""RTSJ high-resolution time types.

Faithful functional subset of ``javax.realtime.HighResolutionTime`` and
its concrete subclasses :class:`AbsoluteTime` and :class:`RelativeTime`.
A time value is a (milliseconds, nanoseconds) pair; following the RTSJ,
the canonical form keeps ``0 <= nanos < 1_000_000`` with the sign carried
by the whole value, and all arithmetic is exact integer arithmetic.

The emulated VM works in integer nanoseconds throughout; these classes
are thin, hashable value objects over that representation.
"""

from __future__ import annotations

from functools import total_ordering

__all__ = ["HighResolutionTime", "AbsoluteTime", "RelativeTime", "NANOS_PER_MILLI",
           "NS_PER_UNIT"]

NANOS_PER_MILLI = 1_000_000
#: nanoseconds per trace/metric time unit (1 tu = 1 ms)
NS_PER_UNIT = 1_000_000


@total_ordering
class HighResolutionTime:
    """Base time value: an exact count of nanoseconds."""

    __slots__ = ("_ns",)

    def __init__(self, millis: int = 0, nanos: int = 0) -> None:
        if not isinstance(millis, int) or not isinstance(nanos, int):
            raise TypeError("millis and nanos must be integers")
        self._ns = millis * NANOS_PER_MILLI + nanos

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_nanos(cls, total_nanos: int):
        """Build from a raw nanosecond count."""
        if not isinstance(total_nanos, int):
            raise TypeError(f"total_nanos must be int, got {type(total_nanos).__name__}")
        obj = cls.__new__(cls)
        obj._ns = total_nanos
        return obj

    @classmethod
    def from_units(cls, units: float):
        """Build from fractional *time units* (1 tu = 1 ms), rounding to
        the nearest nanosecond."""
        return cls.from_nanos(round(units * NANOS_PER_MILLI))

    # -- accessors ---------------------------------------------------------------

    @property
    def milliseconds(self) -> int:
        """The milliseconds component (truncated toward negative infinity)."""
        return self._ns // NANOS_PER_MILLI

    @property
    def nanoseconds(self) -> int:
        """The nanoseconds component, ``0 <= n < 1_000_000``."""
        return self._ns % NANOS_PER_MILLI

    @property
    def total_nanos(self) -> int:
        """The exact value as a nanosecond count."""
        return self._ns

    def to_units(self) -> float:
        """The value in fractional time units (1 tu = 1 ms)."""
        return self._ns / NANOS_PER_MILLI

    # -- comparison (same concrete type only, as in the RTSJ) ---------------------

    def _check_comparable(self, other: object) -> "HighResolutionTime":
        if type(other) is not type(self):
            raise TypeError(
                f"cannot compare {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        assert isinstance(other, HighResolutionTime)
        return other

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        assert isinstance(other, HighResolutionTime)
        return self._ns == other._ns

    def __lt__(self, other: object) -> bool:
        return self._ns < self._check_comparable(other)._ns

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._ns))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.milliseconds}, {self.nanoseconds})"


class RelativeTime(HighResolutionTime):
    """A duration (may be negative)."""

    __slots__ = ()

    def add(self, other: "RelativeTime") -> "RelativeTime":
        """Duration + duration -> duration."""
        if not isinstance(other, RelativeTime):
            raise TypeError(f"cannot add {type(other).__name__} to RelativeTime")
        return RelativeTime.from_nanos(self._ns + other._ns)

    def subtract(self, other: "RelativeTime") -> "RelativeTime":
        """Duration - duration -> duration."""
        if not isinstance(other, RelativeTime):
            raise TypeError(
                f"cannot subtract {type(other).__name__} from RelativeTime"
            )
        return RelativeTime.from_nanos(self._ns - other._ns)

    def scale(self, factor: int) -> "RelativeTime":
        """Duration * integer -> duration."""
        if not isinstance(factor, int):
            raise TypeError("scale factor must be an integer")
        return RelativeTime.from_nanos(self._ns * factor)

    def is_negative(self) -> bool:
        """True for durations strictly below zero."""
        return self._ns < 0


class AbsoluteTime(HighResolutionTime):
    """A point on the (virtual) timeline."""

    __slots__ = ()

    def add(self, delta: RelativeTime) -> "AbsoluteTime":
        """Instant + duration -> instant."""
        if not isinstance(delta, RelativeTime):
            raise TypeError(f"cannot add {type(delta).__name__} to AbsoluteTime")
        return AbsoluteTime.from_nanos(self._ns + delta.total_nanos)

    def subtract(self, other):
        """Instant - instant -> duration; instant - duration -> instant."""
        if isinstance(other, AbsoluteTime):
            return RelativeTime.from_nanos(self._ns - other._ns)
        if isinstance(other, RelativeTime):
            return AbsoluteTime.from_nanos(self._ns - other.total_nanos)
        raise TypeError(f"cannot subtract {type(other).__name__} from AbsoluteTime")
