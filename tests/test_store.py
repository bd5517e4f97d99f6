"""Record files: round-trips, self-verification on load, merge semantics."""

import json
import tracemalloc
from dataclasses import replace
from typing import Iterator, Optional

import pytest

from oddcycles import resolver, search, store
from oddcycles.constructions import k4_triangle
from oddcycles.resolver import NONEXISTENT_REASONS, Reason, compute_C
from oddcycles.search import OddCycle
from oddcycles.store import (
    RecordValidationError,
    ResultRecord,
    StoreConflictError,
    append,
    load,
    merge,
    resolved_keys,
)


def append_to(path, record: ResultRecord) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        append(fh, record)


NINE_CYCLE_22 = (
    (-3, -3, 2), (-3, 2, -3), (-3, 2, 3), (-3, 2, 3),
    (2, -3, -3), (2, -3, -3), (2, -3, -3), (3, 3, 2), (3, 3, 2),
)


def record_22(**overrides) -> ResultRecord:
    base = dict(
        t=22,
        m=3,
        value=9,
        reason="Searched",
        certificate=NINE_CYCLE_22,
        algorithm="modified+meet-in-middle",
        elapsed_ms=412,
        nodes_examined=123456,
        shard_id=0,
        worker_count=1,
    )
    base.update(overrides)
    return ResultRecord(**base)


def record_triangle(t: int, cert, **overrides) -> ResultRecord:
    base = dict(
        t=t,
        m=3,
        value=3,
        reason="Triangle",
        certificate=cert,
        algorithm="closed-form",
        elapsed_ms=0,
        nodes_examined=0,
        shard_id=0,
        worker_count=1,
    )
    base.update(overrides)
    return ResultRecord(**base)


TRIANGLE_2 = ((1, 1, 0), (0, -1, -1), (-1, 0, 1))


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        rec = record_22()
        line = rec.to_json()
        assert ResultRecord.from_json(line).to_json() == line

    def test_key_order_is_fixed(self):
        keys = list(json.loads(record_22().to_json()))
        assert keys == [
            "schema_version", "t", "m", "value", "reason", "certificate",
            "algorithm", "elapsed_ms", "nodes_examined", "shard_id",
            "worker_count",
        ]

    def test_append_then_load(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        append_to(path, record_triangle(2, TRIANGLE_2))
        recs = load(path)
        assert recs == [record_22(), record_triangle(2, TRIANGLE_2)]


class TestFromResult:
    @pytest.mark.parametrize("m,r,reason", [
        (3, 9, Reason.ODD_R),
        (1, 4, Reason.DIM1),
        (2, 50, Reason.DIM2),
        (6, 12, Reason.K4_CONSTRUCTION),
        (3, 18, Reason.TRIANGLE),
        (3, 22, Reason.SEARCHED),
        (3, 58, Reason.UNRESOLVED),
    ])
    def test_each_reason_maps_to_a_valid_record(self, m, r, reason, monkeypatch):
        monkeypatch.setattr(search, "N_MAX", 9)  # C_3(58) = 11 is then unresolved
        res = compute_C(m, r)
        assert res.reason is reason
        rec = ResultRecord.from_result(res, elapsed_ms=17, shard_id=2)
        rec.validate()
        assert ResultRecord.from_json(rec.to_json()) == rec
        assert (rec.m, rec.t, rec.value, rec.reason) == (m, r, res.value, reason.value)
        assert (rec.elapsed_ms, rec.shard_id, rec.worker_count) == (17, 2, 1)
        assert rec.nodes_examined == res.nodes_examined
        if res.certificate is None:
            assert rec.certificate is None
        else:
            assert rec.certificate == res.certificate.vectors
        searched = reason in (Reason.SEARCHED, Reason.UNRESOLVED)
        assert rec.algorithm == ("modified+meet-in-middle" if searched else "closed-form")


class TestValidation:
    def test_corrupted_coordinate_fails_at_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_triangle(2, TRIANGLE_2))
        bad = record_22().to_json().replace("[-3,-3,2]", "[-3,-3,3]")
        with open(path, "a") as fh:
            fh.write(bad + "\n")
        with pytest.raises(RecordValidationError) as exc:
            load(path)
        assert exc.value.line_no == 2

    def test_value_certificate_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            record_22(value=7).validate()

    def test_nonexistent_reason_requires_no_certificate(self):
        # OddR needs an odd core of t: 9 has one, 22 does not
        rec = record_22(t=9, value=0, reason="OddR")
        with pytest.raises(ValueError):
            rec.validate()
        record_22(t=9, value=0, reason="OddR", certificate=None).validate()

    @pytest.mark.parametrize("reason,m,t,ok", [
        ("OddR", 3, 9, True), ("OddR", 3, 36, True), ("OddR", 2, 7, True),
        ("OddR", 3, 22, False), ("OddR", 3, 88, False),
        ("Dim1", 1, 22, True), ("Dim1", 2, 22, False), ("Dim1", 3, 9, False),
        ("Dim2", 2, 50, True), ("Dim2", 1, 50, False), ("Dim2", 3, 22, False),
    ])
    def test_zero_reason_must_hold(self, reason, m, t, ok):
        rec = record_22(t=t, m=m, value=0, reason=reason, certificate=None)
        if ok:
            rec.validate()
        else:
            with pytest.raises(ValueError, match="does not hold"):
                rec.validate()

    def test_unresolved_requires_null_value(self):
        record_22(value=None, reason="Unresolved", certificate=None).validate()
        with pytest.raises(ValueError):
            record_22(reason="Unresolved", certificate=None).validate()

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="reason"):
            record_22(reason="vibes").validate()

    @pytest.mark.parametrize("field", [
        "schema_version", "t", "m", "value", "elapsed_ms", "nodes_examined",
        "shard_id", "worker_count",
    ])
    @pytest.mark.parametrize("kind", [float, str, bool])
    def test_integer_fields_must_be_int(self, field, kind):
        rec = record_22()
        bad = replace(rec, **{field: kind(getattr(rec, field))})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            bad.validate()

    @pytest.mark.parametrize("entry", [-3.0, "-3", True, None])
    def test_certificate_entries_must_be_int(self, entry):
        cert = ((entry, -3, 2),) + NINE_CYCLE_22[1:]
        with pytest.raises(ValueError, match="certificate entry must be an integer"):
            record_22(certificate=cert).validate()

    def test_in_file_conflicting_duplicate(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        forged = record_triangle(22, None, value=None, reason="Unresolved")
        append_to(path, forged)
        with pytest.raises(RecordValidationError, match="conflicting"):
            load(path)


class TestReasonGrid:
    """Every reason compute_C does not give an (m, t) is rejected there."""

    @pytest.mark.parametrize("m", [-2, 0, 1, 2, 3, 4, 5, 6])
    def test_only_the_resolvers_reason_validates(self, m):
        for t in [*range(1, 201), 256, 1024, 4096]:
            try:
                res = compute_C(m, t)
            except ValueError:
                res = None  # no C_m(t) at m < 1: every record is false
                accepted = set()
            else:
                ResultRecord.from_result(res, elapsed_ms=0, shard_id=0).validate()
                searched = {Reason.SEARCHED, Reason.UNRESOLVED}
                accepted = searched if res.reason in searched else {res.reason}
            # a cycle that verifies at t: the resolver's own, else a Z^4 triangle
            if res is not None and res.certificate is not None:
                cycle = res.certificate.vectors
            else:
                cycle = k4_triangle(4, t).vectors if t % 2 == 0 else None
            for reason in set(Reason) - accepted:
                if reason is Reason.UNRESOLVED:
                    value, cert = None, None
                elif reason in NONEXISTENT_REASONS:
                    value, cert = 0, None
                elif cycle is not None:
                    value, cert = len(cycle), cycle
                else:
                    continue  # no valid cycle to forge one with
                rec = record_22(t=t, m=m, value=value, reason=reason.value, certificate=cert)
                with pytest.raises(ValueError):
                    rec.validate()

    def test_validation_runs_no_search(self, monkeypatch):
        records = [ResultRecord.from_result(compute_C(3, t), 0, 0) for t in (10, 18, 40, 58)]

        def forbidden(*args):
            raise AssertionError("validate resolved the record again")

        for name in ("triangle_cycle", "min_odd_cycle"):
            monkeypatch.setattr(resolver, name, forbidden)
        for rec in records:
            rec.validate()


KEY_ORDER = (
    "schema_version", "t", "m", "value", "reason", "certificate", "algorithm",
    "elapsed_ms", "nodes_examined", "shard_id", "worker_count",
)
INT_FIELDS = (
    "schema_version", "t", "m", "value", "elapsed_ms", "nodes_examined", "shard_id",
    "worker_count",
)


def verify_cycle_oracle(t: int, vectors) -> Optional[str]:
    """The checks of verify_cycle, one at a time over the sorted vectors, as
    they were written before its single pass: the first failure, or None."""
    vecs = sorted(tuple(v) for v in vectors)
    n = len(vecs)
    if n == 0 or n % 2 == 0:
        return f"length {n} is not odd"
    dims = {len(v) for v in vecs}
    if len(dims) != 1:
        return "mixed vector dimensions"
    for i, v in enumerate(vecs):
        if sum(x * x for x in v) != t:
            return f"vector {i} has squared magnitude {sum(x * x for x in v)} != {t}"
    m = dims.pop()
    total = tuple(sum(v[j] for v in vecs) for j in range(m))
    if any(total):
        return f"sum is {total}, not zero"
    return None


def validate_oracle(rec: ResultRecord) -> None:
    """ResultRecord.validate as it was written before its type() shortcut and
    reason dict: every check, in the same order, with the same messages."""

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    for name in INT_FIELDS:
        x = getattr(rec, name)
        if not is_int(x) and not (name == "value" and x is None):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    for x in (x for v in rec.certificate or () for x in v):
        if not is_int(x):
            raise ValueError(f"certificate entry must be an integer, got {x!r}")
    if rec.schema_version != 1:
        raise ValueError(f"schema_version {rec.schema_version} unsupported")
    try:
        reason = Reason(rec.reason)
    except ValueError:
        raise ValueError(f"unknown reason {rec.reason!r}") from None
    if rec.algorithm not in ("closed-form", "modified+meet-in-middle"):
        raise ValueError(f"unknown algorithm {rec.algorithm!r}")
    if reason in NONEXISTENT_REASONS and (rec.value, rec.certificate) != (0, None):
        raise ValueError(f"reason {rec.reason} requires value 0, no certificate")
    if reason is Reason.UNRESOLVED and (rec.value, rec.certificate) != (None, None):
        raise ValueError("unresolved record must have null value and certificate")
    if any(len(v) != rec.m for v in rec.certificate or ()):
        raise ValueError(f"certificate vectors are not all in Z^{rec.m}")
    expected = resolver.reason_of(rec.m, rec.t)[0]
    if reason is not expected and (expected, reason) != (Reason.SEARCHED, Reason.UNRESOLVED):
        raise ValueError(
            f"reason {rec.reason} does not hold at m={rec.m}, t={rec.t}: "
            f"the resolver gives {expected.value}"
        )
    if reason in NONEXISTENT_REASONS or reason is Reason.UNRESOLVED:
        return
    if rec.value is None or rec.value < 3 or rec.value % 2 == 0:
        raise ValueError(f"value {rec.value} is not an odd integer >= 3")
    if rec.certificate is None:
        raise ValueError(f"reason {rec.reason} requires a certificate")
    failure = verify_cycle_oracle(rec.t, rec.certificate)
    if failure is not None:
        raise ValueError(f"certificate fails verification: {failure}")
    if len(rec.certificate) != rec.value:
        raise ValueError(f"certificate length {len(rec.certificate)} != value {rec.value}")


def from_json_oracle(line: str) -> ResultRecord:
    """ResultRecord.from_json as it was written before its certificate was
    converted with map."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("record is not a JSON object")
    cert = data.get("certificate")
    if cert is not None:
        cert = tuple(tuple(v) for v in cert)
    values = {k: data[k] for k in KEY_ORDER if k != "certificate"}
    return ResultRecord(certificate=cert, **values)


def outcome(check, arg):
    """(exception type, message) of check(arg), or its result."""
    try:
        return check(arg)
    except Exception as exc:
        return type(exc), str(exc)


class IntSubclass(int):
    """An int that is not a bool: accepted wherever an integer is."""


def mutations(rec: ResultRecord) -> Iterator[ResultRecord]:
    """Records one change away from rec, each valid or not."""
    for name in INT_FIELDS:
        x = getattr(rec, name)
        for bad in (float(x or 0), str(x), True, None, IntSubclass(x or 0)):
            yield replace(rec, **{name: bad})
    cert = rec.certificate or ()
    for i, v in enumerate(cert):
        for j in range(len(v)):
            for bad in (float(v[j]), str(v[j]), True, None, IntSubclass(v[j]), v[j] + 1):
                u = v[:j] + (bad,) + v[j + 1:]
                yield replace(rec, certificate=cert[:i] + (u,) + cert[i + 1:])
        yield replace(rec, certificate=cert[:i] + cert[i + 1:])
        yield replace(rec, certificate=cert[:i] + (v + (0,),) + cert[i + 1:])
    for reason in (*Reason, *(r.value for r in Reason), "vibes", ["Searched"], 5):
        yield replace(rec, reason=reason)
    other = {"closed-form": "modified+meet-in-middle"}.get(rec.algorithm, "closed-form")
    yield replace(rec, algorithm=other)
    yield replace(rec, schema_version=2)
    if rec.value is not None:
        yield replace(rec, value=rec.value + 2)
        yield replace(rec, value=rec.value - 2)


@pytest.fixture(scope="module")
def reference_records() -> list[ResultRecord]:
    """The records of `run --range 2..1998`, then compute_C's for m = 4..6
    on TestReasonGrid's t, whose certificates lie in Z^4 to Z^6."""
    ts = [*range(1, 201), 256, 1024, 4096]
    results = [compute_C(3, t) for t in range(2, 1999, 4)]
    results += [compute_C(m, t) for m in (4, 5, 6) for t in ts]
    return [ResultRecord.from_result(res, elapsed_ms=0, shard_id=0) for res in results]


class TestMatchesOracle:
    """validate, from_json and to_json against their earlier forms."""

    def test_validate_accepts_and_rejects_as_oracle(self, reference_records):
        checked = rejected = 0
        for rec in reference_records:
            for bad in (rec, *mutations(rec)):
                want = outcome(validate_oracle, bad)
                assert outcome(ResultRecord.validate, bad) == want, bad
                checked += 1
                rejected += want is not None
        assert 0 < rejected < checked

    def test_verify_cycle_as_oracle(self, reference_records):
        # validate checks the dimension first; here a longer vector can come
        # after a vector of the wrong magnitude
        for rec in reference_records:
            cert = rec.certificate or ()
            cases = [cert]
            for i, v in enumerate(cert):
                bumped = cert[:i] + ((v[0] + 1, *v[1:]),) + cert[i + 1:]
                cases += [bumped, cert[:i] + cert[i + 1:], cert[:i] + (v + (0,),) + cert[i + 1:]]
                if i:
                    cases.append(bumped[:-1] + (bumped[-1] + (0,),))
            for vecs in cases:
                diag = search.verify_cycle(OddCycle.from_vectors(rec.t, vecs))
                want = verify_cycle_oracle(rec.t, vecs)
                assert (diag.valid, diag.reason) == (want is None, want), (rec.t, vecs)

    def test_json_round_trip_as_oracle(self, reference_records):
        for rec in reference_records:
            line = rec.to_json()
            fields = {k: getattr(rec, k) for k in KEY_ORDER}
            assert line == json.dumps(fields, separators=(",", ":"))
            data = json.loads(line)
            variants = [line, json.dumps({**data, "extra": 1}), "[]", "5"]
            variants += [json.dumps({**data, "certificate": c}) for c in (5, [5], "ab")]
            for k in KEY_ORDER:
                variants.append(json.dumps({**data, k: None}))
                variants.append(json.dumps({j: x for j, x in data.items() if j != k}))
            for text in variants:
                want = outcome(from_json_oracle, text)
                got = outcome(ResultRecord.from_json, text)
                assert got == want, text
                if isinstance(want, ResultRecord):
                    assert got.to_json() == want.to_json()


class TestMerge:
    def test_disjoint_union(self, tmp_path):
        a, b, out = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "m.jsonl"))
        append_to(a, record_22())
        append_to(b, record_triangle(2, TRIANGLE_2))
        merged = merge([a, b], out)
        assert {(r.m, r.t) for r in merged} == {(3, 2), (3, 22)}
        assert load(out) == merged

    def test_identical_duplicates_collapse(self, tmp_path):
        a, b, out = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "m.jsonl"))
        append_to(a, record_22())
        append_to(b, record_22(shard_id=1, elapsed_ms=7))
        merged = merge([a, b], out)
        assert len(merged) == 1

    def test_conflict_aborts_without_output(self, tmp_path):
        a, b, out = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "m.jsonl"))
        append_to(a, record_22())
        append_to(b, record_22(value=None, reason="Unresolved", certificate=None))
        with pytest.raises(StoreConflictError):
            merge([a, b], out)
        assert not out.exists()


    def test_failed_write_leaves_output_untouched(self, tmp_path, monkeypatch):
        a, b, out = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "m.jsonl"))
        append_to(a, record_22())
        append_to(b, record_triangle(2, TRIANGLE_2))
        out.write_text("previous merge\n")
        before = out.read_bytes()
        real_to_json = ResultRecord.to_json
        written = []

        def fail_on_second(rec):
            if written:
                raise OSError("disk full")
            written.append(rec)
            return real_to_json(rec)

        monkeypatch.setattr(ResultRecord, "to_json", fail_on_second)
        with pytest.raises(OSError, match="disk full"):
            merge([a, b], out)
        assert written  # the failure came partway through the output
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.jsonl", "b.jsonl", "m.jsonl",
        ]

    def test_replaces_existing_output(self, tmp_path):
        a, out = tmp_path / "a.jsonl", tmp_path / "m.jsonl"
        append_to(a, record_22())
        out.write_text("previous merge\n")
        assert merge([a], out) == load(out) == [record_22()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "m.jsonl"]


class TestResolvedKeys:
    def test_missing_file_is_empty(self, tmp_path):
        assert resolved_keys(tmp_path / "nope.jsonl") == (set(), None)

    def test_keys(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        assert resolved_keys(path) == ({(3, 22)}, None)


class TestDropTornTail:
    """resolved_keys cuts off a torn last line once the rest has validated."""

    TORN = '{"schema_version":1,"t":2'

    def test_only_an_unterminated_last_line_is_cut(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        whole = path.read_text()
        assert resolved_keys(path) == ({(3, 22)}, None) and path.read_text() == whole
        with open(path, "a") as fh:
            fh.write(self.TORN)
        assert resolved_keys(path) == ({(3, 22)}, self.TORN)
        assert path.read_text() == whole

    def test_bad_complete_line_keeps_the_torn_tail(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        text = path.read_text() + '{"schema_version":1}\n' + self.TORN
        path.write_text(text)
        with pytest.raises(RecordValidationError, match="out.jsonl:2"):
            resolved_keys(path)
        assert path.read_text() == text

    def test_lone_torn_line_leaves_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text(self.TORN)
        assert resolved_keys(path) == (set(), self.TORN)
        assert path.read_text() == "" and load(path) == []


def traced_peak(fn, *args) -> int:
    """Peak bytes Python allocated while ``fn(*args)`` ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingReads:
    """Only load holds a record per line; the other reads stream the file."""

    LINES = 5000

    @pytest.fixture(scope="class")
    def repeated(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("streaming") / "repeated.jsonl"
        # a value-0 record: no certificate to verify keeps the traced reads quick
        line = ResultRecord.from_result(compute_C(3, 9), elapsed_ms=0, shard_id=0).to_json()
        path.write_text((line + "\n") * self.LINES)
        return path

    @pytest.fixture(scope="class")
    def load_peak(self, repeated):
        return traced_peak(load, repeated)

    @pytest.mark.parametrize("read", [
        lambda path: store.verify(path),
        lambda path: store.resolved_keys(path),
        lambda path: store.merge([path], path.with_name("merged.jsonl")),
    ], ids=["verify", "resolved_keys", "merge"])
    def test_reads_hold_far_less_than_load(self, repeated, load_peak, read):
        assert traced_peak(read, repeated) < load_peak / 10

    def test_verify_counts_every_line(self, repeated):
        assert store.verify(repeated) == self.LINES
