"""End-to-end CLI behavior through main(), including exit codes."""

import hashlib
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from test_arith import LARGE_PAIRS

from oddcycles import arith, constructions, resolver, search, store
from oddcycles.cli import build_parser, main
from oddcycles.constructions import k4_triangle, triangle_cycle
from oddcycles.resolver import Reason, compute_C
from oddcycles.search import OddCycle, SearchOutcome, verify_cycle
from oddcycles.store import ResultRecord, load

# sha256 of the records of run --range 2..1998 with elapsed_ms zeroed
RUN_2_1998_SHA256 = Path(__file__).parent / "data" / "run_2_1998.sha256"

# a 5-cycle of V(18); C_3(18) = 3 all the same
FIVE_CYCLE_18 = ((-4, -1, -1), (-4, -1, -1), (1, 1, 4), (3, 0, -3), (4, 1, 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolve:
    def test_c3_22(self, capsys):
        code, out, _ = run(capsys, "c", "3", "22")
        assert code == 0
        assert "C_3(22) = 9" in out
        assert "certificate:" in out

    def test_c3_9_odd(self, capsys):
        code, out, _ = run(capsys, "c", "3", "9")
        assert code == 0
        assert "C_3(9) = 0" in out

    def test_unresolved_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "N_MAX", 9)  # C_3(58) = 11
        code, out, _ = run(capsys, "c", "3", "58")
        assert code == 3
        assert "unresolved" in out

    def test_invalid_args(self, capsys):
        code, _, err = run(capsys, "c", "0", "5")
        assert code == 2
        assert "error" in err


class TestSearchOverBudget:
    """An engine over its memory budget gives an Unresolved result, exit 3."""

    @pytest.fixture(autouse=True)
    def over_budget(self, monkeypatch):
        def budget_outcome(vs, n):
            return SearchOutcome(n, None, 0, budget_exceeded=True)

        monkeypatch.setattr(search, "meet_in_middle", budget_outcome)

    def test_compute_c_unresolved(self):
        res = compute_C(3, 10)
        assert res.reason is Reason.UNRESOLVED and res.value is None

    def test_c_exit(self, capsys):
        code, out, _ = run(capsys, "c", "3", "10")
        assert code == 3
        assert "C_3(10) = unresolved" in out

    def test_run_records_unresolved(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, _, err = run(capsys, "run", "--range", "6..10", "--out", str(out_path))
        assert code == 3
        assert "unresolved at t=10" in err
        assert [(r.t, r.reason, r.value) for r in load(out_path)] == [
            (6, "Triangle", 3), (10, "Unresolved", None),
        ]

    def test_table_exit(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--max", "20", "--out", str(tmp_path / "c.csv"))
        assert code == 3
        assert "search unresolved at n=10" in err


class TestSmallCommands:
    def test_classify(self, capsys):
        assert run(capsys, "classify", "22")[1].strip() == "T"
        assert run(capsys, "classify", "18")[1].strip() == "S"

    @pytest.mark.parametrize("p,q,expected", LARGE_PAIRS)
    def test_classify_two_large_primes(self, capsys, p, q, expected):
        code, out, _ = run(capsys, "classify", str(2 * p * q))
        assert code == 0
        assert out.strip() == expected

    def test_decompose(self, capsys):
        code, out, err = run(capsys, "decompose", "22")
        assert code == 0
        assert out.splitlines() == ["2,3,3"]
        assert "P(22) = 1" in err

    def test_vectors(self, capsys):
        code, out, _ = run(capsys, "vectors", "1002")
        assert code == 0
        assert "|V(1002)| = 192" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["vectors", "1002"],
            ["decompose", "1002"],
            ["c", "3", "1002"],
            ["run", "--range", "1002..1002", "--out", "{tmp}/r.jsonl"],
        ],
    )
    def test_refused_past_the_row_bound(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(arith, "MAX_ROWS", 12)  # 1002 has rows c = 19..31
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: z=1002 has 13 rows, more than MAX_ROWS = 12\n"

    def test_large_class_t_refused_before_any_triangle_search(self, capsys, monkeypatch):
        # 2000000000002 = 2 * 73 * 137 * 99990001 is class T: the row bound
        # refuses it, and no O(sqrt t) triangle loop runs first
        def no_triangle(s):
            raise AssertionError(f"triangle_cycle ran on the class-T core {s}")

        monkeypatch.setattr(resolver, "triangle_cycle", no_triangle)
        code, out, err = run(capsys, "c", "3", "2000000000002")
        assert code == 2 and out == ""
        assert err == "error: z=2000000000002 has 597717 rows, more than MAX_ROWS = 524288\n"

    def test_k4_certificate_when_half_r_needs_four_squares(self, capsys):
        # r/2 = 80000007 = 8b + 7 is no sum of three squares, so the four-square
        # scan skips its x1 = 0 level
        code, out, _ = run(capsys, "c", "4", "160000014")
        assert code == 0
        cert = "(-1061,8880,8882,-1063) (0,2,-7819,9943) (1061,-8882,-1063,-8880)"
        assert f"certificate: {cert}\n" in out

    @pytest.mark.parametrize("r", [2**61 - 2, 2**63 - 2])  # r/2 = 2^60 - 1, 2^62 - 1
    def test_k4_certificate_at_63_bits_within_seconds(self, capsys, r):
        # each four-square level of r/2 must cost one factorization: an
        # O(sqrt r) scan per level runs for minutes at these r
        def timeout(signum, frame):
            raise TimeoutError(f"c 4 {r} ran past 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            code, out, _ = run(capsys, "c", "4", str(r))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert f"C_4({r}) = 3\n" in out
        cert = re.search(r"^certificate: (.*)$", out, re.M).group(1)
        vectors = [tuple(map(int, v.strip("()").split(","))) for v in cert.split()]
        assert len(vectors) == 3
        assert verify_cycle(OddCycle.from_vectors(r, vectors)).valid

    def test_k4_refuses_a_dimension_past_its_bound_before_building(self, capsys, monkeypatch):
        # padding four points to m coordinates costs time and memory linear in m
        def no_decomposition(x):
            raise AssertionError(f"four_square_decomposition ran for x={x}")

        monkeypatch.setattr(constructions, "four_square_decomposition", no_decomposition)
        code, out, err = run(capsys, "c", "2000000", "2")
        assert code == 2 and out == ""
        assert err == "error: m must be in 4..1048576, got 2000000\n"

    def test_vectors_list(self, capsys):
        _, out, _ = run(capsys, "vectors", "22", "--list")
        body = out.splitlines()[1:]
        assert len(body) == 24
        assert "(2,3,3)" in body


class TestParserReuse:
    """main builds its parser once per process; a parse leaves it unchanged."""

    def test_two_calls_give_the_same_output(self, capsys):
        first = run(capsys, "c", "3", "22")
        assert first[0] == 0 and first[1].startswith("C_3(22) = 9\n")
        assert run(capsys, "c", "3", "22") == first
        assert build_parser() is build_parser()

    def test_failed_parse_does_not_change_the_next_call(self, capsys):
        listed = run(capsys, "vectors", "22", "--list")
        for argv in (["vectors", "22", "--list", "--bogus"], ["search", "22", "--length", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()
        assert run(capsys, "vectors", "22") == (0, "|V(22)| = 24\n", "")
        assert run(capsys, "vectors", "22", "--list") == listed
        code, out, _ = run(capsys, "search", "22", "--algo", "mitm")
        assert code == 0 and "length: 5\n" in out


class TestSearch:
    def test_modified_1002(self, capsys):
        code, out, _ = run(capsys, "search", "1002", "--algo", "modified")
        assert code == 0
        assert "verified: true" in out

    @pytest.mark.parametrize(
        "argv,length,nodes,cycle",
        [
            (
                ["999994", "--algo", "mitm"], 5, 50400,
                "(-999,-43,-12) (-999,12,-43) (315,335,888) (840,137,-525) (843,-441,-308)",
            ),
            (
                ["1002", "--algo", "modified"], 5, 2688,
                "(-25,-11,-16) (-16,-25,11) (5,31,-4) (11,16,25) (25,-11,-16)",
            ),
            (["22", "--algo", "brute", "--length", "5"], 5, 21184, None),
        ],
        ids=["mitm", "modified", "brute"],
    )
    def test_output_lines(self, capsys, argv, length, nodes, cycle):
        code, out, err = run(capsys, "search", *argv)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert re.fullmatch(r"elapsed_s: \d+\.\d{3}", lines.pop(4))
        assert lines[:4] == [
            f"t: {argv[0]}", f"length: {length}",
            f"exhausted: {cycle is None}", f"nodes_examined: {nodes}",
        ]
        tail = ["cycle: none"] if cycle is None else [f"cycle: {cycle}", "verified: true"]
        assert lines[4:] == tail

    def test_mitm_exhausts(self, capsys):
        code, out, _ = run(capsys, "search", "22", "--algo", "mitm", "--length", "5")
        assert code == 0
        assert "exhausted: True" in out and "cycle: none" in out

    def test_brute_refused_over_budget(self, capsys):
        # C(200, 9) ~ 2.5e13 multisets of |V(1002)| = 192 vectors
        code, _, err = run(capsys, "search", "1002", "--algo", "brute", "--length", "9")
        assert code == 2
        assert "refusing brute force" in err

    @pytest.mark.parametrize("algo", ["modified", "mitm"])
    def test_over_memory_budget(self, capsys, monkeypatch, algo):
        # |R| * |V(1002)| = 4 * 192 left keys at length 5
        monkeypatch.setattr(search, "MEMORY_BUDGET", 4 * 192 - 1)
        code, out, err = run(capsys, "search", "1002", "--algo", algo)
        assert code == 2 and out == ""
        assert err == "memory budget exceeded: the left side at length 5 is over 767 keys\n"

    def test_modified_refuses_other_lengths(self, capsys):
        code, out, err = run(capsys, "search", "1002", "--algo", "modified", "--length", "7")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "length 5 only" in err


class TestTableAndDensity:
    def test_table_small(self, capsys, tmp_path):
        out_path = tmp_path / "chart.csv"
        code, _, _ = run(capsys, "table", "--max", "100", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,c3"
        assert lines[1] == "2,3"
        assert "22,9" in lines
        assert len(lines) == 1 + len(range(2, 100, 4))

    def test_table_unresolved_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "N_MAX", 7)  # C_3(22) = 9
        out_path = tmp_path / "chart.csv"
        code, _, err = run(capsys, "table", "--max", "30", "--out", str(out_path))
        assert code == 3
        assert "search unresolved at n=22" in err
        assert not out_path.exists()

    def test_density_stdout(self, capsys):
        code, out, _ = run(capsys, "density", "--checkpoints", "10,2000")
        assert code == 0
        assert "2000,303,303,500,0.6060" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_density_rejects_workers_below_one(self, capsys, workers):
        code, out, err = run(
            capsys, "density", "--checkpoints", "2000,100000", "--workers", workers,
        )
        assert code == 2
        assert out == "" and "workers must be >= 1" in err


class TestVerifyRunMerge:
    def test_run_then_verify(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, _, _ = run(capsys, "run", "--range", "2..100", "--out", str(out_path))
        assert code == 0
        records = load(out_path)
        assert len(records) == len(range(2, 101, 4))
        code, out, _ = run(capsys, "verify", "--in", str(out_path))
        assert code == 0
        assert f"{len(records)} records verified" in out

    def test_verify_counts_identical_duplicates(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..10", "--out", str(out_path))
        out_path.write_text(out_path.read_text() * 2)
        code, out, _ = run(capsys, "verify", "--in", str(out_path))
        assert code == 0
        assert out == "6 records verified\n"

    def test_verify_skips_blank_lines(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..10", "--out", str(out_path))
        out_path.write_text("\n" + out_path.read_text().replace("\n", "\n\n  \n"))
        code, out, _ = run(capsys, "verify", "--in", str(out_path))
        assert code == 0
        assert out == "3 records verified\n"

    @pytest.mark.parametrize("shards", [["--shards", "0"], ["--shards", "2", "--shard-id", "2"]])
    def test_run_rejects_a_shard_id_outside_the_shards(self, capsys, tmp_path, shards):
        out_path = tmp_path / "r.jsonl"
        code, out, err = run(capsys, "run", "--range", "2..10", *shards, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "need 0 <= shard-id < shards\n"
        assert not out_path.exists()

    def test_run_records_match_pinned_digest(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, _, _ = run(capsys, "run", "--range", "2..1998", "--out", str(out_path))
        assert code == 0
        data = re.sub(rb'"elapsed_ms":\d+', b'"elapsed_ms":0', out_path.read_bytes())
        assert hashlib.sha256(data).hexdigest() == RUN_2_1998_SHA256.read_text().strip()

    def test_run_resume_skips_done(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..50", "--out", str(out_path))
        before = out_path.read_text()
        code, _, _ = run(capsys, "run", "--range", "2..50", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == before

    def test_sharded_run_and_merge(self, capsys, tmp_path):
        shard_files = []
        for sid in range(2):
            p = tmp_path / f"s{sid}.jsonl"
            code, _, _ = run(
                capsys, "run", "--range", "2..100",
                "--shards", "2", "--shard-id", str(sid), "--out", str(p),
            )
            assert code == 0
            shard_files.append(str(p))
        merged = tmp_path / "m.jsonl"
        code, out, _ = run(capsys, "merge", *shard_files, "--out", str(merged))
        assert code == 0
        recs = load(merged)
        assert [r.t for r in recs] == list(range(2, 101, 4))

    def test_torn_resume_validates_each_complete_line_once(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..30", "--out", str(out_path))
        complete = out_path.read_text()
        out_path.write_text(complete + '{"schema_version":1,"t":3')
        calls = []
        validate = store.ResultRecord.validate

        def counted(rec):
            calls.append((rec.m, rec.t))
            return validate(rec)

        monkeypatch.setattr(store.ResultRecord, "validate", counted)
        code, _, err = run(capsys, "run", "--range", "2..30", "--out", str(out_path))
        assert code == 0 and "unterminated last line" in err
        assert calls == [(3, t) for t in range(2, 31, 4)]
        assert out_path.read_text() == complete

    def test_resume_with_nothing_to_do_opens_nothing_for_writing(
        self, capsys, tmp_path, monkeypatch,
    ):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..30", "--out", str(out_path))
        out_path.chmod(0o444)
        real_open = open

        def read_only_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                raise PermissionError(f"read-only: {file}")
            return real_open(file, mode, *args, **kwargs)

        def no_truncate(path, length):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr("builtins.open", read_only_open)
        monkeypatch.setattr(os, "truncate", no_truncate)
        assert run(capsys, "run", "--range", "2..30", "--out", str(out_path)) == (0, "", "")

    def test_verify_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema_version":1}\n')
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == 4
        assert "bad.jsonl:1" in err

    def test_run_on_malformed_record_file(self, capsys, tmp_path):
        # a bad line before the last one is not a torn tail: no resume
        bad = tmp_path / "bad.jsonl"
        run(capsys, "run", "--range", "2..10", "--out", str(bad))
        text = '{"schema_version":1,"t":2\n' + bad.read_text() + '{"schema_version"'
        bad.write_text(text)
        code, _, err = run(capsys, "run", "--range", "2..30", "--out", str(bad))
        assert code == 4
        assert "bad.jsonl:1" in err
        assert bad.read_text() == text

    def test_run_resumes_after_torn_last_line(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        run(capsys, "run", "--range", "2..30", "--out", str(out_path))
        whole = load(out_path)
        lines = out_path.read_text().splitlines(keepends=True)
        out_path.write_text("".join(lines[:3]) + lines[3][:20])
        code, _, err = run(capsys, "run", "--range", "2..30", "--out", str(out_path))
        assert code == 0
        assert "warning:" in err and "unterminated last line" in err
        assert out_path.read_text().startswith("".join(lines[:3]))
        # t=14 is resolved again: the same record apart from its timing
        assert [replace(r, elapsed_ms=0) for r in load(out_path)] == [
            replace(r, elapsed_ms=0) for r in whole
        ]

    @pytest.mark.parametrize("line,message", [
        ("[1]", "not a JSON object"),
        ('{"schema_version":1,"t":10,"m":3,"value":5,"reason":"Searched",'
         '"certificate":5,"algorithm":"x","elapsed_ms":0,"nodes_examined":0,'
         '"shard_id":0,"worker_count":1}', "int"),
    ])
    @pytest.mark.parametrize("command", ["verify", "merge", "run"])
    def test_non_object_or_bad_certificate_line(self, capsys, tmp_path, line, message, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        argv = {
            "verify": ["verify", "--in", str(bad)],
            "merge": ["merge", str(bad), "--out", str(tmp_path / "m.jsonl")],
            "run": ["run", "--range", "2..10", "--out", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(f"{bad}:1: ") and message in err

    @pytest.mark.parametrize("fields,message", [
        # C_3(22) = 9: a Z^4 triangle does not make it 3
        (dict(value=3, reason="Triangle", certificate=k4_triangle(4, 22).vectors), "Z^3"),
        (dict(value=0, reason="Dim1"), "does not hold at m=3"),
        (dict(value=0, reason="Dim2"), "does not hold at m=3"),
        (dict(value=0, reason="OddR"), "the resolver gives Searched"),
        # C_4(4) = 3 by the K4 construction, C_2(5) = 0 by odd t, and Z^0 has no C
        (dict(t=4, m=4, value=0, reason="OddR"),
         "does not hold at m=4, t=4: the resolver gives K4Construction"),
        (dict(t=5, m=2, value=0, reason="Dim2"),
         "does not hold at m=2, t=5: the resolver gives OddR"),
        (dict(m=0, value=0, reason="OddR"), "m and r must be positive"),
        # C_3(18) = 3, since 18 is class S, and C_5(18) = 3: a valid 5-cycle
        # does not make either 5
        (dict(t=18, value=5, reason="Searched", certificate=FIVE_CYCLE_18),
         "does not hold at m=3, t=18"),
        (dict(t=18, m=5, value=5, reason="Searched",
              certificate=tuple(v + (0, 0) for v in FIVE_CYCLE_18)),
         "does not hold at m=5, t=18"),
        # 22 is class T: no triangle record can stand there
        (dict(value=3, reason="Triangle", certificate=((1, 1, 0), (0, -1, -1), (-1, 0, 1))),
         "does not hold at m=3, t=22"),
        # a Z^3 triangle at 18 is a triangle, not the m >= 4 construction
        (dict(t=18, value=3, reason="K4Construction", certificate=triangle_cycle(18).vectors),
         "does not hold at m=3, t=18"),
        # an unresolved value has nothing to certify
        (dict(value=None, reason="Unresolved", certificate=((1, 2, 3),)),
         "null value and certificate"),
        # schema v1 knows two labels
        (dict(value=None, reason="Unresolved", algorithm="x"), "unknown algorithm 'x'"),
        # 18 is class S, but a triangle value needs its triangle
        (dict(t=18, value=3, reason="Triangle"), "reason Triangle requires a certificate"),
    ], ids=[
        "z4_certificate", "dim1_at_m3", "dim2_at_m3", "oddr_even_core",
        "oddr_at_c4_4", "dim2_at_odd_t", "oddr_at_m0",
        "searched_class_s", "searched_at_m5", "triangle_class_t", "k4_at_m3",
        "unresolved_with_certificate", "unknown_algorithm", "triangle_without_certificate",
    ])
    @pytest.mark.parametrize("command", ["verify", "merge", "run"])
    def test_forged_record(self, capsys, tmp_path, fields, message, command):
        forged = ResultRecord(**{
            "t": 22, "m": 3, "certificate": None, "algorithm": "closed-form",
            "elapsed_ms": 0, "nodes_examined": 0, "shard_id": 0, "worker_count": 1,
            **fields,
        })
        bad = tmp_path / "bad.jsonl"
        data = forged.to_json() + "\n"
        bad.write_text(data)
        out_path = tmp_path / "m.jsonl"
        argv = {
            "verify": ["verify", "--in", str(bad)],
            "merge": ["merge", str(bad), "--out", str(out_path)],
            "run": ["run", "--range", "2..30", "--out", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(f"{bad}:1: ") and message in err
        assert bad.read_text() == data
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["verify", "merge", "run"])
    def test_non_utf8_line(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.jsonl"
        run(capsys, "run", "--range", "2..10", "--out", str(bad))
        data = bad.read_bytes() + b"\xff\xfe bad\n"
        bad.write_bytes(data)
        out_path = tmp_path / "m.jsonl"
        argv = {
            "verify": ["verify", "--in", str(bad)],
            "merge": ["merge", str(bad), "--out", str(out_path)],
            "run": ["run", "--range", "2..30", "--out", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(f"{bad}:4: ") and "utf-8" in err
        assert bad.read_bytes() == data
        assert not out_path.exists()

    @pytest.mark.parametrize("line_no,old,new", [
        (3, "[-3,-1,0]", '[-3,"-1",0]'),  # a certificate entry as a string
        (3, "[0,1,3]", "[0,1.4,3]"),  # a fractional certificate entry
        (1, '"t":2,', '"t":2.0,'),  # an integer field as a float
        (2, '"worker_count":1', '"worker_count":true'),  # JSON true is no integer
    ], ids=["string_entry", "float_entry", "float_field", "bool_field"])
    @pytest.mark.parametrize("command", ["verify", "merge", "run"])
    def test_non_integer_value(self, capsys, tmp_path, line_no, old, new, command):
        bad = tmp_path / "bad.jsonl"
        run(capsys, "run", "--range", "2..30", "--out", str(bad))
        lines = bad.read_text().splitlines(keepends=True)
        assert old in lines[line_no - 1]
        lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
        data = "".join(lines)
        bad.write_text(data)
        out_path = tmp_path / "m.jsonl"
        argv = {
            "verify": ["verify", "--in", str(bad)],
            "merge": ["merge", str(bad), "--out", str(out_path)],
            "run": ["run", "--range", "2..34", "--out", str(bad)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(f"{bad}:{line_no}: ") and "must be an integer" in err
        assert bad.read_text() == data
        assert not out_path.exists()

    def test_merge_conflict_exit(self, capsys, tmp_path, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run(capsys, "run", "--range", "22..22", "--out", str(a))
        monkeypatch.setattr(search, "N_MAX", 7)  # b holds C_3(22) unresolved
        run(capsys, "run", "--range", "22..22", "--out", str(b))
        out_path = tmp_path / "m.jsonl"
        code, _, err = run(capsys, "merge", str(a), str(b), "--out", str(out_path))
        assert code == 4
        assert "conflict" in err
        assert not out_path.exists()

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.jsonl"))
        assert code == 2
        assert err.startswith("error:") and "missing.jsonl" in err

    def test_merge_missing_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.jsonl"
        code, _, err = run(capsys, "merge", str(tmp_path / "missing.jsonl"),
                           "--out", str(out_path))
        assert code == 2
        assert err.startswith("error:") and "missing.jsonl" in err
        assert not out_path.exists()

    def test_run_unwritable_out(self, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "x.jsonl"
        code, _, err = run(capsys, "run", "--range", "2..10", "--out", str(out_path))
        assert code == 2
        assert err.startswith("error:") and "x.jsonl" in err

    def test_bad_range_usage(self, capsys, tmp_path):
        code, _, err = run(capsys, "run", "--range", "abc", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "expected A..B" in err


def test_runtime_imports_no_sympy():
    # sympy is a test oracle only; importing it would cost every CLI process
    code = (
        "import pkgutil, sys, oddcycles, oddcycles.cli\n"
        "for m in pkgutil.iter_modules(oddcycles.__path__):\n"
        "    __import__('oddcycles.' + m.name)\n"
        "assert 'sympy' not in sys.modules, 'sympy imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
