"""Problem instances for the cell formation problem.

An instance describes a shop of ``m`` machines and a set of parts. Each part
has a production volume and a routing, the ordered sequence of machines it
visits. The goal downstream is to group machines into cells of at most ``N``
machines while keeping inter-cell traffic low, optionally honoring
cohabitation pairs (machines that must share a cell) and non-cohabitation
pairs (machines that must be separated).

Instances are stored in a line-oriented text format::

    # comment
    machines 5
    max_cell_size 2
    part 3 : 1 3 5
    part 1/2 : 2 4 2
    cohabit 1 2
    separate 2 4

``#`` starts a comment anywhere on a line. Volumes are exact non-negative
rationals (``3``, ``1/2`` and ``0.5`` are all accepted). Machine indices are
1-based in files and messages; in memory everything is 0-based.

Each instance rule (the machine count, the max cell size, each part's volume
and routing, the volumes' common denominator, each pair with its machine
range, no pair in both SC and SN) has one private checker, and only the
checkers decide a rule. ``Instance`` runs all of them on construction.
``parse_instance`` only parses: it turns each line into numbers and runs
the same checkers on them, so a file is refused at its first bad line with
the message ``Instance`` gives for that item. ``generate_instance`` runs
the count checks on its arguments before it draws.
"""

from __future__ import annotations

import math
import random
import re
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction


class InstanceError(ValueError):
    """Raised for malformed or inconsistent instance data.

    ``line`` holds the 1-based source line when the error is tied to one.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InstanceWarning(UserWarning):
    """Non-fatal instance oddities, e.g. a cohabitation group larger than N."""


# Largest accepted machine count, 8x the widest shop the tests solve
# (m = 130). Checking an instance and building its flow graph cost O(m)
# time and memory, so without a limit a one-line header such as
# "machines 1000000000" would ask for hundreds of gigabytes.
MAX_MACHINES = 1024


# Limits of generate_instance, 10x the largest value any test, demo or README
# asks it for (10 000 parts; routing lengths up to 10). Its cost grows with
# parts x routing length and neither is otherwise bounded. At both limits and
# m = MAX_MACHINES it draws about 5 M routing steps, about 17 s and 0.25 GB
# (extrapolated from 1 M steps measured at 3.4 s and 49 MB peak on one
# x86-64 core); --max-routing-len 1000000000 alone would ask for about 12 GB.
MAX_PARTS = 100_000
MAX_ROUTING_LEN = 100

# Python writes no int of more than 4300 digits as text, so every exact
# number the program prints stays below 10**4300: _check_part holds each
# volume's numerator and denominator below MAX_EXACT, and _check_scale holds
# the volumes' common denominator below MAX_SCALE, so a traffic, whose
# numerator is at most MAX_FLOW < 10**309 times it, stays below MAX_EXACT
MAX_EXACT = 10 ** 4300
MAX_SCALE = 10 ** 3991

# Largest decimal exponent of a volume token's leading nonzero digit, its
# order of magnitude: a cost guard checked before Fraction builds
# 10**exponent (Fraction("1e-10000000") took seconds); up to it the volume
# is built, and _check_part holds it below MAX_EXACT
MAX_VOLUME_EXPONENT = 4300

# Largest total flow (volume x routing steps, summed): roulette weights and
# k-means run in float64
MAX_FLOW = Fraction(sys.float_info.max)


def vertex_groups(n: int, pairs) -> list[list[int]]:
    """Connected groups of vertices 0..n-1 joined by the (a, b) pairs.

    Each group lists its vertices ascending; groups come ordered by their
    lowest vertex.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


@dataclass(frozen=True)
class Part:
    """One part: production volume and machine routing (0-based indices)."""

    volume: Fraction
    routing: tuple[int, ...]


# One checker per instance rule, shared by Instance, parse_instance and
# generate_instance; ``line`` is the source line for parse_instance's messages
def _check_count(name: str, value: int, low: int, high: int | None = None,
                 line: int | None = None):
    if value < low:
        raise InstanceError(f"{name} must be at least {low}, got {value}",
                            line)
    if high is not None and value > high:
        raise InstanceError(f"{name} {value} exceeds the limit of {high}",
                            line)


def _check_part(k: int, part: Part, m: int, line: int | None = None):
    """Part number ``k`` (1-based) of a shop of ``m`` machines."""
    if max(abs(part.volume.numerator), part.volume.denominator) >= MAX_EXACT:
        raise InstanceError(f"part {k} volume has a numerator or denominator "
                            f"of more than 4300 digits", line)
    if part.volume < 0:
        raise InstanceError(f"part {k} has negative volume {part.volume}; "
                            f"volumes must be non-negative", line)
    if not part.routing:
        raise InstanceError(f"part {k} has an empty routing", line)
    for idx in part.routing:
        if not 0 <= idx < m:
            raise InstanceError(f"part {k} routing references machine "
                                f"{idx + 1}, valid range is 1..{m}", line)
    for a, b in zip(part.routing, part.routing[1:]):
        if a == b:
            raise InstanceError(f"routing repeats machine {a + 1} "
                                f"consecutively in part {k}", line)


def _check_scale(scale: int, part: Part, line: int | None = None) -> int:
    """The running lcm ``scale`` of the earlier parts' volume denominators,
    taken on to ``part``'s."""
    scale = math.lcm(scale, part.volume.denominator)
    if scale >= MAX_SCALE:
        raise InstanceError("the volumes' common denominator has more than "
                            "3991 digits", line)
    return scale


def _check_pair(name: str, pair: tuple[int, int], m: int,
                line: int | None = None):
    a, b = pair
    if not (0 <= a < m and 0 <= b < m):
        raise InstanceError(
            f"{name} pair ({a + 1}, {b + 1}) out of range 1..{m}", line)
    if a >= b:
        raise InstanceError(f"{name} pair ({a + 1}, {b + 1}) is not a "
                            f"normalized pair of two distinct machines", line)


def _check_overlap(cohabit, separate, line: int | None = None):
    overlap = cohabit & separate
    if overlap:
        a, b = min(overlap)
        raise InstanceError(f"SC and SN overlap on pair ({a + 1}, {b + 1})",
                            line)


@dataclass(frozen=True)
class Instance:
    """A cell formation problem instance.

    ``cohabit`` and ``separate`` hold normalized (low, high) 0-based machine
    pairs. Invariants are checked on construction; a cohabitation group
    larger than ``max_cell_size`` only warns, since the instance is still
    well-formed (merely infeasible as stated).
    """

    machine_count: int
    max_cell_size: int
    parts: tuple[Part, ...] = ()
    cohabit: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    separate: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        m = self.machine_count
        _check_count("machine count", m, 2, MAX_MACHINES)
        _check_count("max cell size", self.max_cell_size, 1)
        scale = 1
        for k, part in enumerate(self.parts, 1):
            _check_part(k, part, m)
            scale = _check_scale(scale, part)
        for name, pairs in (("cohabit", self.cohabit),
                            ("separate", self.separate)):
            for pair in pairs:
                _check_pair(name, pair, m)
        # total flow in integer units of 1 / scale
        if sum(p.volume.numerator * (scale // p.volume.denominator)
               * (len(p.routing) - 1) for p in self.parts) \
                > MAX_FLOW * scale:
            raise InstanceError("total flow exceeds the float64 range")
        _check_overlap(self.cohabit, self.separate)
        self._warn_large_cohabit_groups()

    def _warn_large_cohabit_groups(self):
        for group in vertex_groups(self.machine_count, self.cohabit):
            if len(group) > self.max_cell_size:
                members = ", ".join(str(v + 1) for v in group)
                warnings.warn(
                    f"cohabitation group {{{members}}} has {len(group)} "
                    f"machines, more than max cell size "
                    f"{self.max_cell_size}; no feasible solution exists",
                    InstanceWarning,
                    stacklevel=3,
                )


def _parse_volume(token: str, lineno: int) -> Fraction:
    # checked before Fraction builds 10**exponent, on the exponent of the
    # leading nonzero digit: the written one plus less than len(token) in
    # magnitude, so a written exponent of more than len(str(len(token))) + 4
    # digits is beyond the limit whatever the mantissa; an a/b token with
    # an exponent is no volume, and Fraction refuses it as such
    mantissa, marker, exponent = text = token.lower().partition("e")
    whole, _, fraction = mantissa.lstrip("+-").replace("_", "").partition(".")
    significant = (whole + fraction).lstrip("0")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal() and "/" not in mantissa:
        if not significant:
            # 0 at any exponent: Fraction reads the token's form with every
            # exponent digit 0
            text = mantissa, marker, re.sub(r"\d", "0", exponent)
        elif len(digits) > len(str(len(token))) + 4 or abs(
                (-int(digits) if exponent.startswith("-") else int(digits))
                + len(significant) - len(fraction) - 1) > MAX_VOLUME_EXPONENT:
            raise InstanceError(
                f"volume {token!r} has an exponent beyond "
                f"{MAX_VOLUME_EXPONENT} in magnitude", lineno)
    try:
        return Fraction("".join(text))
    except (ValueError, ZeroDivisionError):
        # Fraction reads the digits on each side of the point, or of an a/b
        # token's slash, with int(), which Python limits to 4300 digits
        num, _, den = mantissa.lstrip("+-").replace("_", "").partition("/")
        sides, mark = ((num, den), "slash") if num and den and not marker \
            else ((whole, fraction), "point")
        if "".join(sides).isdecimal() and max(map(len, sides)) > 4300:
            raise InstanceError(
                f"volume {token!r} has more than 4300 digits on one side "
                f"of its {mark}", lineno) from None
        raise InstanceError(f"bad volume {token!r}", lineno) from None


def _parse_index(token: str, lineno: int) -> int:
    try:
        return int(token) - 1
    except ValueError:
        raise InstanceError(f"bad machine index {token!r}", lineno) from None


def _parse_header(fields: list[str], seen: int | None, placeholder: str,
                  name: str, lineno: int) -> int:
    """The integer of a ``machines`` or ``max_cell_size`` line (keyword
    ``fields[0]``); ``seen`` is the value of an earlier such line."""
    if seen is not None:
        raise InstanceError(f"duplicate {fields[0]} line", lineno)
    if len(fields) != 2:
        raise InstanceError(f"expected: {fields[0]} <{placeholder}>", lineno)
    try:
        return int(fields[1])
    except ValueError:
        raise InstanceError(f"bad {name} {fields[1]!r}", lineno) from None


def parse_instance(text: str) -> Instance:
    """Parse the text of an instance file.

    The ``machines`` and ``max_cell_size`` lines must precede any ``part``,
    ``cohabit`` or ``separate`` line. The first bad line raises
    :class:`InstanceError` with its line number; a broken instance rule
    gives the message ``Instance`` gives for it. A missing header line and
    the total-flow limit are checked once the whole text is read.
    """
    machine_count: int | None = None
    max_cell_size: int | None = None
    parts: list[Part] = []
    cohabit: set[tuple[int, int]] = set()
    separate: set[tuple[int, int]] = set()
    scale = 1

    def require_header(lineno: int) -> int:
        if machine_count is None or max_cell_size is None:
            raise InstanceError(
                "machines and max_cell_size must be declared first", lineno)
        return machine_count

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "machines":
            machine_count = _parse_header(fields, machine_count, "count",
                                          "machine count", lineno)
            _check_count("machine count", machine_count, 2, MAX_MACHINES,
                         lineno)
        elif kw == "max_cell_size":
            max_cell_size = _parse_header(fields, max_cell_size, "N",
                                          "max cell size", lineno)
            _check_count("max cell size", max_cell_size, 1, line=lineno)
        elif kw == "part":
            m = require_header(lineno)
            if len(fields) < 4 or fields[2] != ":":
                raise InstanceError(
                    "expected: part <volume> : <machine> [<machine> ...]",
                    lineno)
            parts.append(Part(_parse_volume(fields[1], lineno),
                              tuple(_parse_index(t, lineno)
                                    for t in fields[3:])))
            _check_part(len(parts), parts[-1], m, lineno)
            scale = _check_scale(scale, parts[-1], lineno)
        elif kw in ("cohabit", "separate"):
            m = require_header(lineno)
            if len(fields) != 3:
                raise InstanceError(f"expected: {kw} <machine> <machine>",
                                    lineno)
            pair = tuple(sorted(_parse_index(t, lineno) for t in fields[1:]))
            _check_pair(kw, pair, m, lineno)
            other = separate if kw == "cohabit" else cohabit
            _check_overlap({pair}, other, lineno)
            (cohabit if kw == "cohabit" else separate).add(pair)
        else:
            raise InstanceError(f"unknown directive {kw!r}", lineno)

    if machine_count is None:
        raise InstanceError("missing machines line")
    if max_cell_size is None:
        raise InstanceError("missing max_cell_size line")
    return Instance(machine_count, max_cell_size, tuple(parts),
                    frozenset(cohabit), frozenset(separate))


def serialize_instance(inst: Instance) -> str:
    """Render an instance in canonical file form (round-trips exactly).

    Sections appear in fixed order: machines, max_cell_size, parts (in
    instance order), cohabit pairs (sorted), separate pairs (sorted).
    """
    lines = [f"machines {inst.machine_count}",
             f"max_cell_size {inst.max_cell_size}"]
    for part in inst.parts:
        routing = " ".join(str(i + 1) for i in part.routing)
        lines.append(f"part {part.volume} : {routing}")
    for kw, pairs in (("cohabit", inst.cohabit),
                      ("separate", inst.separate)):
        lines += [f"{kw} {a + 1} {b + 1}" for a, b in sorted(pairs)]
    return "\n".join(lines) + "\n"


def generate_instance(machine_count: int, part_count: int,
                      max_cell_size: int, max_routing_len: int = 10,
                      seed: int = 0) -> Instance:
    """Generate a random instance, deterministically for a given seed.

    Draw sequence (one ``random.Random(seed)`` stream, in this order per
    part): routing length uniform in [2, max_routing_len], then each routing
    step (first machine uniform, every later one uniform over the other m-1
    machines so no machine repeats consecutively), then an integer volume
    uniform in [1, 10]. No cohabitation or separation pairs are generated.
    Part counts above MAX_PARTS and routing lengths above MAX_ROUTING_LEN
    raise InstanceError.
    """
    _check_count("machine count", machine_count, 2, MAX_MACHINES)
    _check_count("part count", part_count, 1, MAX_PARTS)
    _check_count("max routing length", max_routing_len, 2, MAX_ROUTING_LEN)
    rng = random.Random(seed)
    parts = []
    for _ in range(part_count):
        length = rng.randint(2, max_routing_len)
        routing = [rng.randrange(machine_count)]
        while len(routing) < length:
            step = rng.randrange(machine_count - 1)
            if step >= routing[-1]:
                step += 1
            routing.append(step)
        volume = Fraction(rng.randint(1, 10))
        parts.append(Part(volume, tuple(routing)))
    return Instance(machine_count, max_cell_size, tuple(parts))
