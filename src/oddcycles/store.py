"""Line-oriented result record files for batch runs.

One JSON object per line, fixed key order, UTF-8.  Records are
self-verifying: ResultRecord.validate runs on every record at append and
at every read (resume, merge and verify alike).  Every read streams the
file, one line at a time, through one validating reader that keeps only
(m, t) -> value for the in-file duplicate check; load keeps the records,
merge one record per distinct (m, t), and verify only their count.  A run
resume reads once, through resolved_keys: it keeps the keys of the
complete lines and cuts off a torn last line once they have all
validated.  Validation checks, in this order, that the integer fields and
certificate entries are ints, the schema version, the reason and
algorithm labels, the value and certificate each reason allows, the
certificate's dimension, that the reason is the one the resolver gives
its (m, t), whichever shard wrote the file, and that the certificate
passes verify_cycle with as many vectors as the value.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence

from .resolver import NONEXISTENT_REASONS, CmResult, Reason, reason_of
from .search import OddCycle, verify_cycle

SCHEMA_VERSION = 1


class StoreError(Exception):
    pass


class RecordValidationError(StoreError):
    def __init__(self, path: Path | str, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = Path(path)
        self.line_no = line_no


class StoreConflictError(StoreError):
    def __init__(self, conflicts: Sequence[str]) -> None:
        super().__init__("conflicting records: " + "; ".join(conflicts))
        self.conflicts = list(conflicts)


@dataclass(frozen=True, kw_only=True)
class ResultRecord:
    """One resolved (m, t); the field order is the JSON key order."""

    schema_version: int = SCHEMA_VERSION
    t: int
    m: int
    value: Optional[int]
    reason: str
    certificate: Optional[tuple[tuple[int, ...], ...]]
    algorithm: str
    elapsed_ms: int
    nodes_examined: int
    shard_id: int
    worker_count: int

    def to_json(self) -> str:
        return _ENCODER.encode({k: getattr(self, k) for k in _KEY_ORDER})

    def validate(self) -> None:
        # type() is int settles almost every value; _is_int and the None
        # allowance decide the rest
        for name in _INT_FIELDS:
            x = getattr(self, name)
            if not (type(x) is int or _is_int(x) or name == "value" and x is None):
                raise ValueError(f"{name} must be an integer, got {x!r}")
        for x in (x for v in self.certificate or () for x in v):
            if not (type(x) is int or _is_int(x)):
                raise ValueError(f"certificate entry must be an integer, got {x!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"schema_version {self.schema_version} unsupported")
        try:
            reason = _REASONS[self.reason]
        except (KeyError, TypeError):  # TypeError: an unhashable reason, e.g. a JSON list
            raise ValueError(f"unknown reason {self.reason!r}") from None
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if reason in NONEXISTENT_REASONS and (self.value, self.certificate) != (0, None):
            raise ValueError(f"reason {self.reason} requires value 0, no certificate")
        if reason is Reason.UNRESOLVED and (self.value, self.certificate) != (None, None):
            raise ValueError("unresolved record must have null value and certificate")
        if any(len(v) != self.m for v in self.certificate or ()):
            raise ValueError(f"certificate vectors are not all in Z^{self.m}")
        expected = reason_of(self.m, self.t)[0]
        if reason is not expected and (expected, reason) != (Reason.SEARCHED, Reason.UNRESOLVED):
            raise ValueError(
                f"reason {self.reason} does not hold at m={self.m}, t={self.t}: "
                f"the resolver gives {expected.value}"
            )
        if reason in NONEXISTENT_REASONS or reason is Reason.UNRESOLVED:
            return
        if self.value is None or self.value < 3 or self.value % 2 == 0:
            raise ValueError(f"value {self.value} is not an odd integer >= 3")
        if self.certificate is None:
            raise ValueError(f"reason {self.reason} requires a certificate")
        diag = verify_cycle(OddCycle.from_vectors(self.t, self.certificate))
        if not diag.valid:
            raise ValueError(f"certificate fails verification: {diag.reason}")
        if len(self.certificate) != self.value:
            raise ValueError(f"certificate length {len(self.certificate)} != value {self.value}")

    @staticmethod
    def from_result(res: CmResult, elapsed_ms: int, shard_id: int) -> "ResultRecord":
        """The schema-v1 record of one compute_C result."""
        cert = None if res.certificate is None else tuple(res.certificate.vectors)
        # "modified+meet-in-middle" is schema v1's label for a value a search
        # settled or left unresolved
        searched = res.reason in (Reason.SEARCHED, Reason.UNRESOLVED)
        algorithm = "modified+meet-in-middle" if searched else "closed-form"
        return ResultRecord(
            t=res.r,
            m=res.m,
            value=res.value,
            reason=res.reason.value,
            certificate=cert,
            algorithm=algorithm,
            elapsed_ms=elapsed_ms,
            nodes_examined=res.nodes_examined,
            shard_id=shard_id,
            worker_count=1,  # schema v1 field; searches run in one thread
        )

    @staticmethod
    def from_json(line: str) -> "ResultRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("record is not a JSON object")
        cert = data.get("certificate")
        if cert is not None:
            cert = tuple(map(tuple, cert))
        values = {k: data[k] for k in _KEY_ORDER if k != "certificate"}
        return ResultRecord(certificate=cert, **values)


_KEY_ORDER = tuple(f.name for f in fields(ResultRecord))
_INT_FIELDS = (
    "schema_version", "t", "m", "value", "elapsed_ms", "nodes_examined", "shard_id",
    "worker_count",
)

_ENCODER = json.JSONEncoder(separators=(",", ":"))

_ALGORITHMS = ("closed-form", "modified+meet-in-middle")  # schema v1's labels
# Reason(x) takes a member or its value; the dict is the same lookup
_REASONS = {x: r for r in Reason for x in (r, r.value)}


def _is_int(x: object) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def append(out: IO[str], record: ResultRecord) -> None:
    """Validate one record and write it to ``out``, a record file open for
    appending, as one line; flushed before returning."""
    record.validate()
    out.write(record.to_json() + "\n")
    out.flush()


def load(path: Path | str) -> list[ResultRecord]:
    """Load and validate every record; any bad line rejects the whole file."""
    with open(path, "rb") as fh:
        return list(_records(path, fh))


def verify(path: Path | str) -> int:
    """Validate every record as load does, holding none; the record count."""
    with open(path, "rb") as fh:
        return sum(1 for _ in _records(path, fh))


def _records(path: Path | str, lines: Iterable[bytes]) -> Iterator[ResultRecord]:
    seen: dict[tuple[int, int], Optional[int]] = {}
    for line_no, raw in enumerate(lines, start=1):
        try:
            # UnicodeDecodeError is a ValueError: a non-UTF-8 line is a bad line
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            rec = ResultRecord.from_json(line)
            rec.validate()
            key = (rec.m, rec.t)
            clash = key in seen and seen[key] != rec.value
        except (ValueError, KeyError, TypeError) as exc:
            # TypeError: a field of the wrong JSON type, e.g. "certificate": 5
            raise RecordValidationError(path, line_no, str(exc)) from None
        if clash:
            raise RecordValidationError(
                path,
                line_no,
                f"duplicate (m={rec.m}, t={rec.t}) with conflicting values "
                f"{seen[key]} vs {rec.value}",
            )
        seen[key] = rec.value
        yield rec


def merge(paths: Sequence[Path | str], out: Path | str) -> list[ResultRecord]:
    """Union record files keyed by (m, t); abort (no output) on any conflict."""
    merged: dict[tuple[int, int], ResultRecord] = {}
    conflicts: list[str] = []
    for path in paths:
        with open(path, "rb") as fh:
            for rec in _records(path, fh):
                kept = merged.setdefault((rec.m, rec.t), rec)
                if kept.value != rec.value:
                    conflicts.append(f"(m={rec.m}, t={rec.t}): {kept.value} vs {rec.value}")
    if conflicts:
        raise StoreConflictError(conflicts)
    records = [merged[k] for k in sorted(merged)]
    # Write beside the output, then rename over it: a merge that fails
    # partway leaves any existing output as it was.
    out = Path(out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return records


def resolved_keys(path: Path | str) -> tuple[set[tuple[int, int]], Optional[str]]:
    """The (m, t) pairs in a record file, none if it is absent, and the text
    of an unterminated last line, as a crash inside append leaves it, or None.

    One pass validates the complete lines; the torn line is set aside
    unvalidated and cut off only after they have all validated, so a bad
    line raises RecordValidationError and leaves the file as it was.  Only
    a file with a torn line to cut is opened for writing.
    """
    if not Path(path).exists():
        return set(), None
    tail = b""

    def complete(lines: Iterable[bytes]) -> Iterator[bytes]:
        nonlocal tail
        for line in lines:
            if line.endswith(b"\n"):
                yield line
            else:  # only the last line can lack its newline
                tail = line

    with open(path, "rb") as fh:
        keys = {(rec.m, rec.t) for rec in _records(path, complete(fh))}
        end = fh.tell() - len(tail)
    if tail:
        os.truncate(path, end)
    return keys, tail.decode("utf-8", errors="replace") if tail else None
