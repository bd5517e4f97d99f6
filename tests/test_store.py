"""Record files: round-trips, self-verification on load, merge semantics."""

import json
from dataclasses import replace

import pytest

from oddcycles import resolver, search
from oddcycles.constructions import k4_triangle
from oddcycles.resolver import NONEXISTENT_REASONS, Reason, compute_C
from oddcycles.store import (
    RecordValidationError,
    ResultRecord,
    StoreConflictError,
    append,
    drop_torn_tail,
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
        assert resolved_keys(tmp_path / "nope.jsonl") == set()

    def test_keys(self, tmp_path):
        path = tmp_path / "out.jsonl"
        append_to(path, record_22())
        assert resolved_keys(path) == {(3, 22)}


class TestDropTornTail:
    def test_only_an_unterminated_last_line_is_cut(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert drop_torn_tail(path) is None
        append_to(path, record_22())
        whole = path.read_text()
        assert drop_torn_tail(path) is None and path.read_text() == whole
        with open(path, "a") as fh:
            fh.write('{"schema_version":1,"t":2')
        assert drop_torn_tail(path) == '{"schema_version":1,"t":2'
        assert path.read_text() == whole

    def test_lone_torn_line_leaves_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"schema_version":1,"t":2')
        assert drop_torn_tail(path) == '{"schema_version":1,"t":2'
        assert path.read_text() == "" and load(path) == []
