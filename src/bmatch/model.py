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
from dataclasses import dataclass
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

_BOUND_KEYS = ("a_demand", "a_capacity", "b_demand", "b_capacity")
_INSTANCE_KEYS = ("s", "t", "cost", *_BOUND_KEYS)
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


class _RowsOfCosts:
    """``Instance.cost`` of an instance that holds no rows, only ``costs``:
    the tuple rows, built on first read and then held.  An instance built
    with rows holds them itself, and they shadow this descriptor."""

    def __get__(self, inst: "Instance | None", owner: type | None = None) -> tuple[tuple[int, ...], ...]:
        if inst is None:
            raise AttributeError("cost")  # so the dataclass field has no default
        rows = vars(inst)["cost"] = tuple(map(tuple, inst.costs.tolist()))
        return rows


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    Construction is deliberately permissive: inconsistent shapes or bad
    bounds are representable so that ``validate_instance`` can report on
    them.  Every solver entry point normalizes and validates first.
    ``costs`` is ``cost`` as a read-only int64 array, built once on first read (OverflowError beyond int64):
    rows of one width in one ``np.fromiter`` pass over their entries, anything else by ``np.array``,
    so either way the array, or the type of the exception, is ``np.array(cost, dtype=np.int64)``'s.
    ``instance_from_json`` fills ``costs`` from canonical text; ``cost`` is then built on first read.
    ``digest`` is ``instance_digest``'s value, computed once; ``instance_from_json`` fills it from canonical text.
    """

    s: int
    t: int
    cost: tuple[tuple[int, ...], ...] = _RowsOfCosts()  # type: ignore[assignment]
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
        rows = self.cost
        try:
            (t,) = set(map(len, rows))
            costs = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * t).reshape(len(rows), t)
        except (TypeError, ValueError):  # no rows, rows of unequal width or none, or an entry np.array reads otherwise
            costs = np.array(rows, dtype=np.int64)
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


def _screen_rows(inst: Instance, out: list[str]) -> bool:
    """``_screen`` for the cost rows.  The verdict takes C-speed passes over
    the row lengths, the entry types and the minimum of ``costs``; the rows
    are walked one by one only to name what fails, or to pass int
    subclasses and costs beyond int64.  Once every row has length t, the
    s * t entries are all plain ints exactly when ``countOf`` finds s * t
    of them whose type is ``int``."""
    try:
        if len(inst.cost) != inst.s:
            out.append(f"shape: cost has {len(inst.cost)} rows, expected {inst.s}")
            return False
    except TypeError:
        out.append("shape: cost is not a sequence")
        return False
    try:
        fast = set(map(len, inst.cost)) == {inst.t}
        fast = fast and operator.countOf(map(type, chain.from_iterable(inst.cost)), int) == inst.s * inst.t
        fast = fast and inst.costs.min() >= 0
    except (TypeError, OverflowError):
        fast = False
    ok = True
    for i, row in enumerate(() if fast else inst.cost):
        ok &= _screen(row, inst.t, f"cost[{i}]", out, f"cost row {i}")
    return ok


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

    # Read as one array (instance_from_json), the cost holds s rows of t ints in [0, 2**63 - 1) already.
    shapes_ok = "cost" not in vars(inst) or _screen_rows(inst, v)
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
    (a row never uses more than t distinct columns), ``b_capacity`` alike.
    The copy holds what ``inst`` holds but its digest: the same cost rows,
    or none while they are unread, and the screen's cost array.  Idempotent.
    """
    report = validate_instance(inst)
    if report.malformed:
        raise ValueError("malformed instance: " + "; ".join(report.violations))
    if not report.feasible_necessary:
        raise InfeasibleInstanceError("instance bounds cannot be satisfied: " + "; ".join(report.violations))
    held = dict(
        vars(inst),
        a_capacity=tuple(min(c, inst.t) for c in inst.a_capacity),
        b_capacity=tuple(min(c, inst.s) for c in inst.b_capacity),
    )
    held.pop("digest", None)
    return _holding(held)


def _c_max(inst: Instance) -> int:
    """The largest cost: from ``costs`` when ``inst`` holds them, else exactly from the rows."""
    return int(inst.costs.max()) if "costs" in vars(inst) else max(map(max, inst.cost))


def _holding(held: dict[str, Any]) -> Instance:
    """An instance whose ``__dict__`` is ``held``: its fields, less ``cost``
    when only ``costs`` is held, and any of ``costs`` and ``digest``."""
    inst = object.__new__(Instance)
    vars(inst).update(held)
    return inst


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


def assignment_cost(inst: Instance, pairs: Iterable[tuple[int, int]]) -> int:
    """Total cost of a pair set.  Rejects pairs that are not two integer
    indices, out-of-range and duplicate pairs, naming the first bad pair
    as given."""
    s, t = inst.s, inst.t
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

    Canonical text is read by ``_read_canonical``, its cost rows as one
    int64 array, when that can prove the result the same; any other text,
    and canonical text it cannot prove, is read whole by ``json.loads``.
    """
    data = text.strip(" \t\n\r").encode() if text.isascii() else b""  # canonical text is ASCII
    canonical = data.count(b'"') == 14 and data.translate(None, b'0123456789,:[]{}"') == _CANONICAL_KEYS
    digest = _sha12(data) if canonical else None
    inst = _read_canonical(data, digest) if canonical else None
    del data  # not alive with the tuples below
    if inst is not None:
        return inst
    doc = json.loads(text)
    _check_document(doc)
    inst = Instance(
        s=doc["s"],
        t=doc["t"],
        cost=tuple(tuple(row) for row in doc["cost"]),
        **{key: tuple(doc[key]) for key in _BOUND_KEYS},
    )
    if digest is not None:
        vars(inst)["digest"] = digest
    return inst


def _check_document(doc: Any) -> None:
    """Raise ValueError, naming the first fault, unless ``doc`` is an object
    of exactly the 7 keys with integer ``s`` and ``t``, a list of lists for
    ``cost`` and lists for the bounds."""
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
    for key in _BOUND_KEYS:
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list")


def _read_canonical(data: bytes, digest: str) -> Instance | None:
    """The instance that canonical ``data`` encodes, holding its cost as
    one int64 array and ``digest``; None when that array cannot be proven
    to be the cost rows, or the document would fail ``_check_document``.

    The cost value is the segment from ``"cost":`` to ``,"s":``, which the
    sorted keys put between them.  The rest, with the segment cut to
    ``[]``, is read by ``json.loads``: it parses to the 7 keys only if the
    ``[]`` stands where the cost value stood, so once the segment is proven
    to be s rows of t integers, the whole text parses to the same document
    with the rows in place of ``[]``.
    """
    i, j = data.find(b'"cost":') + len(b'"cost":'), data.find(b',"s":')
    if i < len(b'"cost":') or j < i:
        return None
    try:
        doc = json.loads(data[:i] + b"[]" + data[j:])
        _check_document(doc)
    except (ValueError, RecursionError):  # today's path raises it again, with the message for the whole text
        return None
    s, t = doc["s"], doc["t"]
    costs = _cost_matrix(data, i, j, s, t)
    if costs is None:
        return None
    return _holding({"s": s, "t": t, "costs": costs, "digest": digest, **{key: tuple(doc[key]) for key in _BOUND_KEYS}})


def _cost_matrix(data: bytes, i: int, j: int, s: int, t: int) -> np.ndarray | None:
    """The read-only s x t int64 matrix that ``data[i:j]`` spells, or None.

    With its digits deleted, the segment must be the skeleton of s rows of
    t - 1 commas.  Its s * t entry slots are its only gaps that touch no
    bracket's outside, so when no digit sits just before a ``[`` or just
    after a ``]`` and s * t digit runs open, each slot holds one run; none
    may open on a 0 with a digit after it.  ``np.fromstring`` reads the
    segment with its brackets as spaces, which it skips around a comma.  It
    saturates at 2**63 - 1 without a warning, so that value is refused too:
    the rows keep it, and any larger entry, exactly."""
    seg = data[i:j]
    if min(s, t) < 1 or s * t > len(seg):  # each entry takes a byte: no skeleton beyond the segment's size
        return None
    if seg.translate(None, b"0123456789") != b"[[" + b"],[".join([b"," * (t - 1)] * s) + b"]]":
        return None
    b = np.frombuffer(seg, np.uint8)
    digit = b - ord("0") < 10
    opens = digit[1:] & ~digit[:-1]  # at p: a run opens at seg[p + 1]; a digit at seg[0] sits before a [
    if (
        np.count_nonzero(opens) != s * t
        or (digit[:-1] & (b[1:] == ord("["))).any()
        or (digit[1:] & (b[:-1] == ord("]"))).any()
        or (opens[:-1] & (b[1:-1] == ord("0")) & digit[2:]).any()
    ):
        return None
    try:
        costs = np.fromstring(seg.translate(bytes.maketrans(b"[]", b"  ")), dtype=np.int64, sep=",")
    except ValueError:
        return None
    if costs.size != s * t or costs.max() == np.iinfo(np.int64).max:
        return None
    costs = costs.reshape(s, t)
    costs.flags.writeable = False
    return costs


def _sha12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def instance_digest(inst: Instance) -> str:
    """First 12 hex digits of the SHA-256 of ``instance_to_json(inst)``.

    It keys differential-test fixtures and every ``solve`` output; the
    value is pinned.  Computed once per instance (``Instance.digest``).
    """
    return inst.digest
