"""Growth-function hierarchy and parameter schedules.

The tower hierarchy: level 1 is plain exponentiation 2^x, and level k+1 at
argument n is the n-fold self-composition of level k started from 1 (tower,
then iterated-tower, and so on).  Values explode immediately, so evaluation
is exact below a configurable magnitude cutoff and returns a symbolic tower
descriptor beyond it.

A schedule bundles the level functions used by the layered constructions:
the part-count function t, its divisor function e, the index maps A_k and
A_k*, the composed depth m_k, and the per-uniformity tolerance
delta(k) = 2^(-8^k).  The full-scale recurrences (t(1) = 2^200,
e(i) = 2^(i+10), A_k(1) = 2^(2^(3k+2))) are never materializable; desk
schedules supply small explicit tables that keep the recurrence shapes and
declare which full-scale identities they violate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import _json_fraction, _json_ints

DEFAULT_CUTOFF_BITS = 1 << 20


@dataclass(frozen=True)
class TowerDescriptor:
    """Symbolic stand-in for a value too large to materialize."""

    expr: str

    def __repr__(self):
        return f"<tower {self.expr}>"


def _exp2(x, cutoff_bits: int):
    if isinstance(x, TowerDescriptor):
        return TowerDescriptor(f"2^({x.expr})")
    if x > cutoff_bits:
        if x.bit_length() > 64:
            return TowerDescriptor(f"2^(an integer of {x.bit_length()} bits)")
        return TowerDescriptor(f"2^{x}")
    return 1 << x


def ackermann(k: int, n: int, cutoff_bits: int = DEFAULT_CUTOFF_BITS):
    """Level-k hierarchy value at n; exact int below the cutoff, a
    TowerDescriptor beyond it."""
    if k < 1 or n < 0:
        raise ValueError("need level >= 1 and argument >= 0")
    if k == 1:
        return _exp2(n, cutoff_bits)
    v = 1
    for step in range(n):
        if isinstance(v, TowerDescriptor):
            return TowerDescriptor(f"ack_{k-1}({v.expr})^(x{n - step})")
        v = ackermann(k - 1, v, cutoff_bits)
    return v


def delta_level(k: int) -> Fraction:
    """Per-uniformity tolerance 2^(-8^k), exact."""
    if k < 1:
        raise ValueError("uniformity starts at 1")
    return Fraction(1, 1 << (8**k))


@dataclass
class DeskSchedule:
    """Small explicit tables preserving the recurrence shapes.

    t_values[i-1] = t(i); a_maps[k][j-1] = A_k(j); a_star_maps likewise.
    ``violations`` declares which full-scale identities the tables break (for
    example "a-star-identity" when A_k*(j) != t(A_k(j))/e(j)).
    """

    t_values: tuple
    a_maps: dict
    a_star_maps: dict
    delta_overrides: dict = field(default_factory=dict)
    violations: tuple = ()

    def __post_init__(self):
        self.t_values = tuple(int(x) for x in self.t_values)
        for i, tv in enumerate(self.t_values):
            if tv < 1 or tv & (tv - 1):
                raise ValueError("part counts must be powers of 2")
            if i and tv < self.t_values[i - 1]:
                raise ValueError("part counts must be monotone")

    def t(self, i: int) -> int:
        return _desk_entry(self.t_values, "t", i)

    def e(self, i: int) -> int:
        """Divisor reproducing t(i+1) = 2^(t(i)/e(i)); needs both levels."""
        num = self.t(i)
        log_next = self.t(i + 1).bit_length() - 1
        if log_next == 0 or num % log_next:
            raise ValueError(f"no integer divisor links levels {i} and {i+1}")
        return num // log_next

    def a(self, k: int, j: int) -> int:
        return _desk_entry(_uniformity(self.a_maps, "A", k), f"A_{k}", j)

    def a_star(self, k: int, j: int) -> int:
        return _desk_entry(_uniformity(self.a_star_maps, "A*", k), f"A_{k}*", j)

    def m(self, k: int, s: int) -> int:
        """Chain depth the recursion actually consumes."""
        if k == 2:
            return s + 1
        return self.m(k - 1, self.a_star(k, s))

    def delta(self, k: int) -> Fraction:
        if k in self.delta_overrides:
            return Fraction(self.delta_overrides[k])
        return delta_level(k)

    def to_json(self) -> dict:
        return {
            "kind": "desk",
            "t_values": list(self.t_values),
            "a_maps": {str(k): list(v) for k, v in self.a_maps.items()},
            "a_star_maps": {str(k): list(v) for k, v in self.a_star_maps.items()},
            "delta_overrides": {str(k): str(v) for k, v in self.delta_overrides.items()},
            "violations": list(self.violations),
        }

    @staticmethod
    def from_json(d: dict) -> "DeskSchedule":
        """The schedule of a JSON object, read by type as a profile is, with
        uniformity keys that are canonical decimals ("3", not "03") and
        violations a list of strings.  Anything else raises ValueError."""
        if type(d) is not dict:
            raise ValueError(f"a schedule is a JSON object, not {d!r}")
        d = {"delta_overrides": {}, "violations": [], **d}
        if type(d["violations"]) is not list or any(type(v) is not str for v in d["violations"]):
            raise ValueError(f"violations must be a list of strings, not {d['violations']!r}")
        return DeskSchedule(
            t_values=tuple(_json_ints(d, "t_values")),
            a_maps={k: tuple(v) for k, v in _by_uniformity(d, "a_maps", _json_ints).items()},
            a_star_maps={k: tuple(v) for k, v in _by_uniformity(d, "a_star_maps", _json_ints).items()},
            delta_overrides=_by_uniformity(d, "delta_overrides", _json_fraction),
            violations=tuple(d["violations"]),
        )


def _by_uniformity(meta: dict, key: str, read) -> dict:
    """meta[key], a JSON object keyed by canonical decimals, as a dict from
    each key's integer to its value as ``read`` reads it, named key[k]."""
    value = meta[key]
    if type(value) is not dict or not all(k.isascii() and k.isdigit() and str(int(k)) == k for k in value):
        raise ValueError(f"{key} must be an object keyed by canonical decimals, not {value!r}")
    return {int(k): read({f"{key}[{k}]": v}, f"{key}[{k}]") for k, v in value.items()}


def _uniformity(maps: dict, name: str, k: int):
    """The desk table of uniformity k, refused when k is not tabulated."""
    if k not in maps:
        raise ValueError(f"{name} is tabulated for uniformities {sorted(maps)}, not {k}")
    return maps[k]


def _desk_entry(table, name: str, j: int) -> int:
    """Entry j of a 1-indexed desk table, refused outside 1..len."""
    if not (1 <= j <= len(table)):
        raise ValueError(f"{name}({j}) outside the desk table")
    return int(table[j - 1])


def desk_schedule_k3(s: int = 2) -> DeskSchedule:
    """The standing small schedule for 3-uniform desk builds at depth 2:
    t = (2, 4, 16), index maps A_3 = A_3* = (1, 2)."""
    if s != 2:
        raise ValueError("the standing desk schedule is tabulated for depth 2")
    return DeskSchedule(
        t_values=(2, 4, 16),
        a_maps={3: (1, 2)},
        a_star_maps={3: (1, 2)},
        violations=("t-base", "e-schedule", "a-base", "a-star-identity"),
    )
