"""Problem data model: instances, assignments, validation, normalization.

An instance is a complete bipartite cost matrix over two vertex sets A
(rows, size s) and B (columns, size t) plus per-vertex degree bounds.
Row i must be matched with between ``a_demand[i]`` and ``a_capacity[i]``
distinct columns, column j with between ``b_demand[j]`` and
``b_capacity[j]`` distinct rows.  A pair (i, j) can be used at most once.
The objective is the minimum total cost over the chosen pairs.

All quantities are non-negative integers and all arithmetic is exact.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Instance",
    "Assignment",
    "ValidationReport",
    "validate_instance",
    "normalize_instance",
    "InfeasibleInstanceError",
    "assignment_cost",
    "make_assignment",
    "instance_to_json",
    "instance_from_json",
    "instance_digest",
]

_INSTANCE_KEYS = ("s", "t", "cost", "a_demand", "a_capacity", "b_demand", "b_capacity")
# What is left of a canonical document once digits, punctuation and quotes are deleted.
_CANONICAL_KEYS = "".join(sorted(_INSTANCE_KEYS)).encode()


class InfeasibleInstanceError(ValueError):
    """No assignment can satisfy every demand within the capacities.

    ``root`` (when set) is the vertex copy whose demand got stuck, and
    ``reached`` lists the vertices its search could still reach — together
    they certify the bottleneck.
    """

    def __init__(self, message: str, root: tuple[str, int] | None = None, reached: tuple[str, ...] = ()):
        super().__init__(message)
        self.root = root
        self.reached = reached


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    Construction is deliberately permissive: inconsistent shapes or bad
    bounds are representable so that ``validate_instance`` can report on
    them.  Every solver entry point normalizes and validates first.
    ``costs`` is ``cost`` as a read-only int64 array, built once on first read (OverflowError beyond int64).
    ``digest`` is ``instance_digest``'s value, computed once; ``instance_from_json`` fills it from canonical text.
    """

    s: int
    t: int
    cost: tuple[tuple[int, ...], ...]
    a_demand: tuple[int, ...]
    a_capacity: tuple[int, ...]
    b_demand: tuple[int, ...]
    b_capacity: tuple[int, ...]

    @classmethod
    def from_lists(
        cls,
        cost: Sequence[Sequence[int]],
        a_demand: Sequence[int],
        a_capacity: Sequence[int],
        b_demand: Sequence[int],
        b_capacity: Sequence[int],
    ) -> "Instance":
        """Build an instance from integer sequences.  Python, numpy and
        ``IntEnum`` integers pass; a float, string or bool raises
        ``TypeError`` naming its field and index."""
        return cls(
            s=len(cost),
            t=len(cost[0]) if len(cost) else 0,
            cost=tuple(_ints(row, f"cost[{i}]") for i, row in enumerate(cost)),
            a_demand=_ints(a_demand, "a_demand"),
            a_capacity=_ints(a_capacity, "a_capacity"),
            b_demand=_ints(b_demand, "b_demand"),
            b_capacity=_ints(b_capacity, "b_capacity"),
        )

    @cached_property
    def costs(self) -> np.ndarray:
        costs = np.array(self.cost, dtype=np.int64)
        costs.flags.writeable = False
        return costs

    @cached_property
    def digest(self) -> str:
        return _sha12(instance_to_json(self).encode())


@dataclass(frozen=True)
class Assignment:
    """A set of matched (row, column) pairs plus its recomputed total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the necessary-condition screen.

    ``feasible_necessary`` is a screen, not a guarantee: instances that
    pass can still be infeasible (the flow-based check is authoritative).
    """

    feasible_necessary: bool
    violations: tuple[str, ...]

    @property
    def malformed(self) -> bool:
        """Bad shapes or types: the input is malformed, not infeasible."""
        return any(v.startswith(("shape:", "type:")) for v in self.violations)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _ints(seq: Sequence[int], name: str) -> tuple[int, ...]:
    """``seq``'s entries converted by ``operator.index``; bools refused."""
    out = []
    for k, x in enumerate(seq):
        try:
            if isinstance(x, bool):
                raise TypeError
            out.append(operator.index(x))
        except TypeError:
            raise TypeError(f"{name}[{k}] = {x!r} is not an integer") from None
    return tuple(out)


def _screen(seq: Any, n: int, name: str, out: list[str], label: str = "") -> bool:
    """Screen one sequence of n non-negative ints; append its violations to
    ``out``.  The verdict takes one C-speed pass; entries are walked one by
    one only to name the bad ones.  ``label`` (default ``name``) names the
    sequence in shape messages."""
    try:
        if len(seq) != n:
            out.append(f"shape: {label or name} has length {len(seq)}, expected {n}")
            return False
    except TypeError:
        out.append(f"shape: {label or name} is not a sequence")
        return False
    if set(map(type, seq)) <= {int} and min(seq) >= 0:
        return True
    bad = [f"type: {name}[{k}] = {x!r} is not a non-negative integer"
           for k, x in enumerate(seq) if not _is_int(x) or x < 0]
    out.extend(bad)
    return not bad


def validate_instance(inst: Instance) -> ValidationReport:
    """Check necessary feasibility conditions; never raises, not even on
    fields without a length (reported as ``shape:`` violations).

    Checks shapes, integrality, demand <= capacity on both sides,
    per-vertex demand against the opposite side size, and the two
    aggregate conditions sum(a_demand) <= sum(effective b_capacity) and
    sum(b_demand) <= sum(effective a_capacity).  Effective capacities
    are clipped to the opposite side size, since a vertex can never be
    matched more often than there are partners.

    These conditions are necessary but not sufficient; see
    ``bmatch.oracles.feasibility_check`` for the exact test.
    """
    v: list[str] = []
    if not _is_int(inst.s) or not _is_int(inst.t) or inst.s < 1 or inst.t < 1:
        v.append(f"shape: s={inst.s!r}, t={inst.t!r} must be positive integers")
        return ValidationReport(False, tuple(v))

    try:
        shapes_ok = len(inst.cost) == inst.s
        if not shapes_ok:
            v.append(f"shape: cost has {len(inst.cost)} rows, expected {inst.s}")
    except TypeError:
        shapes_ok = False
        v.append("shape: cost is not a sequence")
    if shapes_ok:
        # Walk the rows only to name what fails, or to pass int subclasses and costs beyond int64.
        try:
            fast = set(map(len, inst.cost)) == {inst.t} and set(map(type, chain.from_iterable(inst.cost))) <= {int}
            fast = fast and inst.costs.min() >= 0
        except (TypeError, OverflowError):
            fast = False
        for i, row in enumerate(() if fast else inst.cost):
            shapes_ok &= _screen(row, inst.t, f"cost[{i}]", v, f"cost row {i}")
    for name, n in (("a_demand", inst.s), ("a_capacity", inst.s), ("b_demand", inst.t), ("b_capacity", inst.t)):
        shapes_ok &= _screen(getattr(inst, name), n, name, v)
    if not shapes_ok:
        return ValidationReport(False, tuple(v))

    for x, other, size in (("a", "t", inst.t), ("b", "s", inst.s)):
        for k, (d, c) in enumerate(zip(getattr(inst, f"{x}_demand"), getattr(inst, f"{x}_capacity"))):
            if d > c:
                v.append(f"bounds: {x}_demand[{k}]={d} exceeds {x}_capacity[{k}]={c}")
            if d > size:
                v.append(f"bounds: {x}_demand[{k}]={d} exceeds {other}={size}")

    eff_a_cap = sum(min(c, inst.t) for c in inst.a_capacity)
    eff_b_cap = sum(min(c, inst.s) for c in inst.b_capacity)
    if sum(inst.a_demand) > eff_b_cap:
        v.append(f"aggregate: sum(a_demand)={sum(inst.a_demand)} exceeds total effective b_capacity={eff_b_cap}")
    if sum(inst.b_demand) > eff_a_cap:
        v.append(f"aggregate: sum(b_demand)={sum(inst.b_demand)} exceeds total effective a_capacity={eff_a_cap}")

    return ValidationReport(not v, tuple(v))


def normalize_instance(inst: Instance) -> Instance:
    """The one screen of a solve: one ``validate_instance`` pass.

    Malformed input raises ``ValueError("malformed instance: ...")`` and
    violated bounds ``InfeasibleInstanceError``.  Otherwise returns the
    instance with ``a_capacity[i]`` lowered to ``min(a_capacity[i], t)``
    (a row never uses more than t distinct columns), ``b_capacity`` alike,
    sharing the screen's cost array.  Idempotent.
    """
    report = validate_instance(inst)
    if report.malformed:
        raise ValueError("malformed instance: " + "; ".join(report.violations))
    if not report.feasible_necessary:
        raise InfeasibleInstanceError("instance bounds cannot be satisfied: " + "; ".join(report.violations))
    out = replace(
        inst,
        a_capacity=tuple(min(c, inst.t) for c in inst.a_capacity),
        b_capacity=tuple(min(c, inst.s) for c in inst.b_capacity),
    )
    if "costs" in vars(inst):
        vars(out)["costs"] = inst.costs
    return out


def _pair_indices(p: Any) -> tuple[int, int]:
    """``p``'s two indices by ``operator.index``; anything else, a bool
    included, is a ValueError that names the pair."""
    try:
        i, j = p
        if isinstance(i, bool) or isinstance(j, bool):
            raise TypeError
        return operator.index(i), operator.index(j)
    except (TypeError, ValueError):
        raise ValueError(f"pair {p!r} is not two integer indices") from None


def assignment_cost(inst: Instance, pairs: Iterable[tuple[int, int]] | np.ndarray) -> int:
    """Total cost of a pair set or (n, 2) index array.  Rejects pairs that are
    not two integer indices, out-of-range and duplicate pairs.  An integer
    array is checked in C; anything else is walked one by one, which also
    names the first bad pair as given."""
    s, t = inst.s, inst.t
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i" and pairs.shape[1:] == (2,):
        in_range = ((0 <= pairs) & (pairs < (s, t))).all()
        if in_range and np.diff(np.sort(pairs[:, 0] * t + pairs[:, 1])).all():  # no pair twice
            return _pair_cost(inst, pairs)
    seen: set[tuple[int, int]] = set()
    for p in pairs:
        i, j = _pair_indices(p)
        if not (0 <= i < s and 0 <= j < t):
            raise ValueError(f"pair {p!r} out of range for {s}x{t} instance")
        if (i, j) in seen:
            raise ValueError(f"duplicate pair {p!r}")
        seen.add((i, j))
    return _pair_cost(inst, list(seen))


def make_assignment(inst: Instance, pairs: Iterable[tuple[int, int]]) -> Assignment:
    ps = tuple(sorted(map(_pair_indices, pairs)))
    return Assignment(pairs=ps, total_cost=assignment_cost(inst, ps))


def _pair_cost(inst: Instance, pairs: Sequence[Sequence[int]]) -> int:
    """Exact cost of in-range pairs, repeats included; the rows price them until ``costs`` is built."""
    if "costs" not in vars(inst):
        return sum(inst.cost[i][j] for i, j in pairs)
    return sum(inst.costs[tuple(np.array(pairs, dtype=np.int64).reshape(len(pairs), 2).T)].tolist())


def instance_to_json(inst: Instance) -> str:
    """Canonical single-line JSON encoding (stable key order, no spaces).
    The cost rows and bounds pass through as they are: tuples encode to
    the same bytes as lists."""
    doc = {key: getattr(inst, key) for key in _INSTANCE_KEYS}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_from_json(text: str) -> Instance:
    """Parse an instance document.  Unknown keys are rejected.

    When ``text`` already is the canonical encoding, the instance's digest
    is taken from its bytes, so it is never encoded again.  Once the
    document has passed the checks below (exactly the 7 keys), the bytes
    ``data`` of ``text`` stripped of JSON whitespace are canonical if they
    hold 14 quotes and deleting digits, ``,:[]{}`` and quotes leaves the
    sorted keys run together.  14 quotes means the only strings are the 7
    keys, each once and unescaped; the keys then account for every letter
    left, in text order, and of the 5,040 orders only the sorted one spells
    that string.  So nothing else survives the deletion: no whitespace, no
    ``-``, ``.``, ``+`` or ``\\``, no ``true``, ``null``, ``NaN`` or exponent.
    Every value is built of non-negative integers (JSON bars leading zeros),
    lists and empty objects, and ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))``, which encodes tuples like lists, gives back
    ``data`` exactly.  Any other text, canonical ones with strings, floats
    or negatives among the values included, is encoded when the digest is read.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = sorted(set(doc) - set(_INSTANCE_KEYS))
    if unknown:
        raise ValueError(f"unknown instance keys: {', '.join(unknown)}")
    missing = sorted(set(_INSTANCE_KEYS) - set(doc))
    if missing:
        raise ValueError(f"missing instance keys: {', '.join(missing)}")
    if not _is_int(doc["s"]) or not _is_int(doc["t"]):
        raise ValueError("s and t must be integers")
    cost = doc["cost"]
    if not isinstance(cost, list) or not all(isinstance(r, list) for r in cost):
        raise ValueError("cost must be a list of lists")
    for key in ("a_demand", "a_capacity", "b_demand", "b_capacity"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list")
    data = text.strip(" \t\n\r").encode()
    canonical = data.count(b'"') == 14 and data.translate(None, b'0123456789,:[]{}"') == _CANONICAL_KEYS
    digest = _sha12(data) if canonical else None
    del data  # not alive with the tuples below
    inst = Instance(
        s=doc["s"],
        t=doc["t"],
        cost=tuple(tuple(row) for row in cost),
        a_demand=tuple(doc["a_demand"]),
        a_capacity=tuple(doc["a_capacity"]),
        b_demand=tuple(doc["b_demand"]),
        b_capacity=tuple(doc["b_capacity"]),
    )
    if digest is not None:
        vars(inst)["digest"] = digest
    return inst


def _sha12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def instance_digest(inst: Instance) -> str:
    """First 12 hex digits of the SHA-256 of ``instance_to_json(inst)``.

    It keys differential-test fixtures and every ``solve`` output; the
    value is pinned.  Computed once per instance (``Instance.digest``).
    """
    return inst.digest
