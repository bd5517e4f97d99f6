"""Command-line surface.

Exit codes: 0 success, 2 invalid arguments (a missing or unwritable file
included), refused work or a search over its memory budget, 3 unresolved
search, 4 verification or merge failure.  Machine-readable output goes
to stdout or --out files; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from typing import IO

from . import arith, search, stats, store, vectors
from .resolver import CmResult, Reason, compute_C

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_VERIFY = 4

BRUTE_BUDGET = 10**9  # largest search space `search --algo brute` takes on


def _fmt_vec(v: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _open_out(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    """The --out file, opened for writing, or stdout when there is none."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _print_result(res: CmResult) -> None:
    value = "unresolved" if res.value is None else str(res.value)
    print(f"C_{res.m}({res.r}) = {value}")
    print(f"reason: {res.reason.value}")
    print(f"reduced_r: {res.reduced_r}")
    if res.certificate is not None:
        print("certificate: " + " ".join(_fmt_vec(v) for v in res.certificate.vectors))


def cmd_c(args: argparse.Namespace) -> int:
    res = compute_C(args.m, args.r)
    _print_result(res)
    return EXIT_UNRESOLVED if res.reason is Reason.UNRESOLVED else EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    triples = arith.enumerate_triples(args.z)
    for tr in triples:
        print(f"{tr.a},{tr.b},{tr.c}")
    print(f"P({args.z}) = {len(triples)}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    print(arith.classify(args.t).value)
    return EXIT_OK


def cmd_vectors(args: argparse.Namespace) -> int:
    vs = vectors.vector_set(args.t)
    print(f"|V({args.t})| = {len(vs)}")
    if args.list:
        for v in vs.coords.tolist():
            print(_fmt_vec(v))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.algo == "modified":
        if args.length != 5:
            raise ValueError(f"--algo modified searches length 5 only, got {args.length}")
        out = search.modified_five_cycle(args.t)
    else:
        vs = vectors.vector_set(args.t)
        if args.algo == "brute":
            size = vectors.search_space_size(max(len(vs), 1), args.length)
            if size > BRUTE_BUDGET:
                print(
                    f"refusing brute force: estimated search space {size} "
                    f"exceeds budget {BRUTE_BUDGET}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            out = search.brute_force(vs, args.length)
        else:
            out = search.meet_in_middle(vs, args.length)
    if out.budget_exceeded:
        print(
            f"memory budget exceeded: the left side at length {out.length_tried} "
            f"is over {search.MEMORY_BUDGET} keys",
            file=sys.stderr,
        )
        return EXIT_USAGE
    print(f"t: {args.t}")
    print(f"length: {out.length_tried}")
    print(f"exhausted: {out.exhausted}")
    print(f"nodes_examined: {out.nodes_examined}")
    print(f"elapsed_s: {time.perf_counter() - t0:.3f}")
    if out.found is not None:
        print("cycle: " + " ".join(_fmt_vec(v) for v in out.found.vectors))
        print("verified: true")
    else:
        print("cycle: none")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    lines = ["n,c3"]
    for n in range(2, args.max, 4):
        res = compute_C(3, n)
        if res.value is None:
            print(f"search unresolved at n={n}", file=sys.stderr)
            return EXIT_UNRESOLVED
        lines.append(f"{n},{res.value}")
    with _open_out(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    checkpoints = [int(x) for x in args.checkpoints.split(",") if x]
    rows = stats.density_table(checkpoints, workers=args.workers)
    with _open_out(args.out) as fh:
        stats.write_density_csv(rows, fh)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    print(f"{store.verify(args.infile)} records verified")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        print(f"bad --range {args.range!r}; expected A..B", file=sys.stderr)
        return EXIT_USAGE
    if args.shards < 1 or not (0 <= args.shard_id < args.shards):
        print("need 0 <= shard-id < shards", file=sys.stderr)
        return EXIT_USAGE

    # normalize both ends onto the t = 2 (mod 4) progression
    first = lo + ((2 - lo) % 4)
    targets = range(first + 4 * args.shard_id, hi + 1, 4 * args.shards)
    done, torn = store.resolved_keys(args.out)
    if torn is not None:
        print(f"warning: {args.out}: dropped unterminated last line {torn!r}", file=sys.stderr)
    unresolved = 0
    # the file opens at the first record, so a run with nothing left to do leaves it alone
    with contextlib.ExitStack() as stack:
        out = None
        for t in targets:
            if (3, t) in done:
                continue
            t0 = time.perf_counter()
            res = compute_C(3, t)
            elapsed_ms = int((time.perf_counter() - t0) * 1000)
            if res.reason is Reason.UNRESOLVED:
                unresolved += 1
                print(f"unresolved at t={t}", file=sys.stderr)
            record = store.ResultRecord.from_result(res, elapsed_ms, args.shard_id)
            if out is None:
                out = stack.enter_context(open(args.out, "a", encoding="utf-8"))
            store.append(out, record)
    return EXIT_UNRESOLVED if unresolved else EXIT_OK


def cmd_merge(args: argparse.Namespace) -> int:
    records = store.merge(args.files, args.out)
    print(f"merged {len(records)} records into {args.out}")
    return EXIT_OK


@functools.cache  # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcycles",
        description="Minimum odd-length zero-sum cycles of equal-magnitude lattice vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("c", help="resolve C_m(r)")
    p.add_argument("m", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_c)

    p = sub.add_parser("decompose", help="triples a<=b<=c with a^2+b^2+c^2 = z")
    p.add_argument("z", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="S or T for t = 2 (mod 4)")
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("vectors", help="size of V(t)")
    p.add_argument("t", type=int)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("search", help="run one engine at one length")
    p.add_argument("t", type=int)
    p.add_argument("--algo", choices=("brute", "mitm", "modified"), required=True)
    p.add_argument("--length", type=int, default=5)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="C_3 chart for n = 2 (mod 4), n < max")
    p.add_argument("--max", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("density", help="class-T density rows")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify", help="validate a record file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="batch resolver with sharding and resume")
    p.add_argument("--range", required=True, help="A..B inclusive")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard-id", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("merge", help="merge record files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except store.StoreError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
