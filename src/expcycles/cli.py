"""Batch front end: censuses, bound sweeps, lemma checks, curve analyses.

Reports are newline-delimited JSON objects (default) or CSV with a
header row, written to stdout or --out FILE row by row as the rows are
produced. Every subcommand checks its arguments before the first row and
then writes through _emit. Exit codes: 0 for success with no violations,
1 when a checked inequality or claim fails on some instance, 2 for
invalid input (nothing is written), 3 for an internal failure after the
arguments were accepted (the rows already written are kept), and 141
(128 + SIGPIPE) with nothing on stderr when the reader of stdout closes
the pipe early, as `... | head -1` does.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

# lemmas, csv and multiprocessing load where a command uses them. bounds and
# ecdynamics stay: perfbench's tracer wraps them after importing this module.
from . import bounds, dynamics, ecdynamics
from .modarith import is_prime, is_primitive_root, primes_in_range

DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


def _parse_g_values(text: str) -> list[int]:
    """Comma list ("2,3,5") or inclusive range ("2..13") of g values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"cannot parse g values from {text!r}")
    return values


def _select_gs(p: int, args) -> list[int]:
    if getattr(args, "g_list", None):
        return [g for g in args.g_list if 1 <= g <= p - 1]
    if getattr(args, "primitive_roots_only", False):
        return [g for g in range(2, p) if is_primitive_root(g, p)]
    return list(range(1, p))


def _emit(args, results, columns: list[str], flatten) -> int:
    """Write each (row, violated) result as it arrives; return the exit code.

    1 if any row is violated, else 0. An --out FILE that cannot be opened
    is invalid input (ValueError, before the first row). A closed stdout
    pipe ends the run quietly with 141. Any other exception raised while
    the results are produced or written is internal: the rows written so
    far stay, the error goes to stderr, and the exit code is 3.
    """
    try:
        stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    code = EXIT_OK
    try:
        writer = None
        if args.csv:
            import csv
            writer = csv.writer(stream)
        if writer:
            writer.writerow(columns)
        for row, violated in results:
            if writer:
                writer.writerow(flatten(row))
            else:
                stream.write(json.dumps(row) + "\n")
            if violated:
                code = EXIT_VIOLATION
        stream.flush()
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so the flush
        # at interpreter exit does not raise again
        if stream is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        code = EXIT_BROKEN_PIPE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    finally:
        if stream is not sys.stdout:
            stream.close()
    return code


def _require_prime(p: int) -> None:
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")


def _require_kmax(k_max: int) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")


# ---------------------------------------------------------------- census

def _census_and_graph(
    m: dynamics.ExpMap, k_max: int, mem_budget: int
) -> tuple[dynamics.CycleCensus, dict | None]:
    """(census, graph dict) from the graph pass, or (naive census, None) over budget."""
    try:
        summary, census = dynamics.census_graph(m, k_max=k_max, mem_budget=mem_budget)
    except dynamics.MemoryBudgetError:
        return dynamics.census_naive(m, k_max), None
    return census, {
        "components": summary.component_count,
        "cyclic_points": summary.cyclic_point_count,
        "cycles": list(summary.cycle_length_multiset),
        "max_tail": summary.max_tail_length,
        "is_permutation": summary.is_permutation,
    }


def _counts(census: dynamics.CycleCensus, k_max: int) -> dict:
    return {
        "k": k_max,
        "n_dividing": list(census.n_dividing[1 : k_max + 1]),
        "n_least_period": list(census.n_least_period[1 : k_max + 1]),
    }


def _count_columns(k_max: int) -> list[str]:
    return [f"n_div_{k}" for k in range(1, k_max + 1)] + [
        f"n_least_{k}" for k in range(1, k_max + 1)
    ]


def _census_rows(m: dynamics.ExpMap, k_max: int, mem_budget: int):
    census, graph = _census_and_graph(m, k_max, mem_budget)
    yield {"p": m.p, "g": m.g, **_counts(census, k_max), "graph": graph}, False


def _census_columns(k_max: int) -> list[str]:
    return (
        ["p", "g"]
        + _count_columns(k_max)
        + ["components", "cyclic_points", "max_tail", "is_permutation", "cycles"]
    )


def _census_flat(row: dict) -> list:
    graph = row["graph"] or {}
    return (
        [row["p"], row["g"]]
        + row["n_dividing"]
        + row["n_least_period"]
        + [
            graph.get("components", ""),
            graph.get("cyclic_points", ""),
            graph.get("max_tail", ""),
            graph.get("is_permutation", ""),
            ";".join(map(str, graph.get("cycles", []))),
        ]
    )


def cmd_census(args) -> int:
    _require_prime(args.p)
    m = dynamics.ExpMap(args.p, args.g)
    _require_kmax(args.kmax)
    return _emit(args, _census_rows(m, args.kmax, args.mem_budget),
                 _census_columns(args.kmax), _census_flat)


# ---------------------------------------------------------- verify-bounds

def _bound_fields(report: bounds.BoundReport) -> dict:
    return {
        "bounds": {
            "thm1": report.thm1_value,
            "thm2": {"z": report.thm2_z, "value": report.thm2_value},
            "thm3": report.thm3_value,
        },
        "flags": {
            "thm1_applicable": report.thm1_applicable,
            "thm1": report.thm1_ok,
            "thm2": report.thm2_ok,
            "thm3": report.thm3_ok,
        },
        "notes": list(report.notes),
    }


_BOUND_CELL_COLUMNS = [
    "thm1_value", "thm1_applicable", "thm1_ok",
    "thm2_z", "thm2_value", "thm2_ok",
    "thm3_value", "thm3_ok", "notes",
]


def _bound_cells(row: dict) -> list:
    b, f = row["bounds"], row["flags"]
    return [
        b["thm1"], f["thm1_applicable"], f["thm1"],
        "" if b["thm2"]["z"] is None else b["thm2"]["z"],
        "" if b["thm2"]["value"] is None else b["thm2"]["value"],
        f["thm2"], b["thm3"], f["thm3"], ";".join(row["notes"]),
    ]


_BOUNDS_COLUMNS = ["p", "g", "n1", "n2", "n3"] + _BOUND_CELL_COLUMNS


def _bounds_flat(row: dict) -> list:
    return [row["p"], row["g"], row["n1"], row["n2"], row["n3"]] + _bound_cells(row)


def _bounds_task(task: tuple[int, int]) -> tuple[dict, bool]:
    p, g = task
    report = bounds.verify(dynamics.ExpMap(p, g))
    row = {"p": p, "g": report.g, "n1": report.n1, "n2": report.n2, "n3": report.n3,
           **_bound_fields(report)}
    return row, report.violated


def _run_tasks(tasks: list, worker_fn, workers: int):
    """Yield worker_fn(task) for the tasks in order, each as soon as it is done."""
    if workers <= 1 or len(tasks) <= 1:
        yield from map(worker_fn, tasks)
        return
    from multiprocessing import Pool
    # Both pool commands verify bounds, and bounds.thm3_bound imports
    # fractions: load it once here, so the forked workers inherit it.
    import fractions
    chunk = max(1, len(tasks) // (workers * 8))
    with Pool(workers) as pool:
        yield from pool.imap(worker_fn, tasks, chunksize=chunk)


def _range_tasks(args) -> list[tuple[int, int]]:
    if args.pmin > args.pmax:
        raise ValueError(f"empty prime range: pmin={args.pmin} > pmax={args.pmax}")
    tasks = []
    for p in primes_in_range(max(args.pmin, 3), args.pmax):
        for g in _select_gs(p, args):
            tasks.append((p, g))
    return tasks


def cmd_verify_bounds(args) -> int:
    tasks = _range_tasks(args)
    return _emit(args, _run_tasks(tasks, _bounds_task, args.workers),
                 _BOUNDS_COLUMNS, _bounds_flat)


# ----------------------------------------------------------------- sweep

_SWEEP_KMAX = 3


def _sweep_task(task: tuple[int, int, int, int]) -> tuple[dict, bool]:
    p, g, k_max, mem_budget = task
    m = dynamics.ExpMap(p, g)
    # bounds always need counts up to k = 3
    census, graph = _census_and_graph(m, max(3, k_max), mem_budget)
    report = bounds.verify(m, census=census)
    row = {"p": p, "g": m.g, **_counts(census, k_max), "graph": graph,
           **_bound_fields(report)}
    return row, report.violated


def _sweep_columns(k_max: int) -> list[str]:
    return _census_columns(k_max) + _BOUND_CELL_COLUMNS


def _sweep_flat(row: dict) -> list:
    return _census_flat(row) + _bound_cells(row)


def cmd_sweep(args) -> int:
    _require_kmax(args.kmax)
    tasks = [(p, g, args.kmax, args.mem_budget) for p, g in _range_tasks(args)]
    return _emit(args, _run_tasks(tasks, _sweep_task, args.workers),
                 _sweep_columns(args.kmax), _sweep_flat)


# ----------------------------------------------------------------- lemma

def _fact1_rows(args, prime_pool: list[int]):
    from . import lemmas
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.trials):
        p = rng.choice(prime_pool)
        g = rng.randint(1, p - 1)
        u = rng.randint(0, args.umax)
        if not lemmas.fact1_check(u, p, g):
            failures.append({"u": u, "p": p, "g": g})
    row = {
        "check": "fact1",
        "trials": args.trials,
        "seed": args.seed,
        "pmax": args.pmax,
        "umax": args.umax,
        "failures": failures,
    }
    yield row, bool(failures)


def cmd_lemma_fact1(args) -> int:
    prime_pool = primes_in_range(3, args.pmax)
    if not prime_pool or args.umax < 0:
        raise ValueError("lemma fact1 needs --pmax >= 3 and --umax >= 0")
    return _emit(args, _fact1_rows(args, prime_pool), ["check", "trials", "seed", "failures"],
                 lambda r: [r["check"], r["trials"], r["seed"], len(r["failures"])])


def _fact2_rows(g_values: list[int], pmax: int):
    from . import lemmas
    for g in g_values:
        checked = 0
        violations: list[dict] = []
        for p in primes_in_range(3, pmax):
            if g > p - 1:
                continue
            checked += p - 1
            for y in lemmas.fact2_violations(p, g):
                violations.append({"p": p, "y": y})
        row = {"check": "fact2", "g": g, "pmax": pmax, "checked": checked,
               "violations": violations}
        yield row, bool(violations)


def cmd_lemma_fact2(args) -> int:
    return _emit(args, _fact2_rows(args.g_list or [2], args.pmax),
                 ["check", "g", "pmax", "checked", "violations"],
                 lambda r: [r["check"], r["g"], r["pmax"], r["checked"], len(r["violations"])])


def _comb_rows(args):
    from . import lemmas
    rng = random.Random(args.seed)
    failures = []
    for i in range(args.random):
        inst = lemmas.random_comb_instance(rng, n_max=args.nmax, k=args.k)
        hypotheses_ok, bound_ok = lemmas.comb_verify(inst)
        if hypotheses_ok and not bound_ok:
            failures.append({"index": i, "n": inst.n,
                             "m": sorted(inst.m_set), "s": sorted(inst.s_set)})
    row = {
        "check": "comb",
        "instances": args.random,
        "nmax": args.nmax,
        "k": args.k,
        "seed": args.seed,
        "failures": failures,
    }
    yield row, bool(failures)


def cmd_lemma_comb(args) -> int:
    if args.nmax < 1 or args.k < 1:
        raise ValueError("lemma comb needs --nmax >= 1 and --k >= 1")
    return _emit(args, _comb_rows(args), ["check", "instances", "nmax", "k", "seed", "failures"],
                 lambda r: [r["check"], r["instances"], r["nmax"], r["k"], r["seed"],
                            len(r["failures"])])


def _thm3_row(report) -> tuple[dict, bool]:
    row = {
        "p": report.p,
        "g": report.g,
        "m_semantics": report.m_semantics,
        "m_size": len(report.m_set),
        "c_size": len(report.c_set),
        "s_index": sorted(report.s_index),
        "x_size": len(report.x_set),
        "s_size": len(report.s_set),
        "phi_total": report.phi_total,
        "phi_lands_outside_m": report.phi_lands_outside_m,
        "max_preimage": report.max_preimage,
        "key_claim_ok": report.key_claim_ok,
        "hypotheses_ok": report.hypotheses_ok,
        "bound_check": report.bound_check,
        "x_cardinality_ok": report.x_cardinality_ok,
        "s_cardinality_ok": report.s_cardinality_ok,
        "all_ok": report.all_ok,
    }
    return row, not report.all_ok


_THM3_COLUMNS = [
    "p", "g", "m_semantics", "m_size", "c_size", "x_size", "s_size",
    "phi_total", "phi_lands_outside_m", "max_preimage", "key_claim_ok",
    "hypotheses_ok", "bound_check", "x_cardinality_ok", "s_cardinality_ok", "all_ok",
]


def _thm3_flat(row: dict) -> list:
    return [row[c] for c in _THM3_COLUMNS]


def cmd_lemma_thm3(args) -> int:
    from . import lemmas
    if args.p is not None:
        _require_prime(args.p)
        candidates = [args.p]
    else:
        if args.pmin is None or args.pmax is None:
            raise ValueError("lemma thm3 needs --p or both --pmin and --pmax")
        if args.pmin > args.pmax:
            raise ValueError(f"empty prime range: pmin={args.pmin} > pmax={args.pmax}")
        candidates = primes_in_range(max(args.pmin, 3), args.pmax)
    # sweep mode only covers primes where g is a primitive root
    primes = [p for p in candidates if 1 <= args.g <= p - 1 and is_primitive_root(args.g, p)]
    if args.p is not None and not primes:
        raise ValueError(f"g={args.g} is not a primitive root mod {args.p}")
    rows = (_thm3_row(lemmas.thm3_verify(p, args.g, args.m_semantics)) for p in primes)
    return _emit(args, rows, _THM3_COLUMNS, _thm3_flat)


# -------------------------------------------------------------------- ec

def _ec_rows(args, m: ecdynamics.ECExpMap):
    census = ecdynamics.ec_census(m, args.kmax)
    row = {
        "p": args.p,
        "a": m.curve.a,
        "b": m.curve.b,
        "gx": args.gx,
        "gy": args.gy,
        "n": m.n,
        "hasse_ok": ecdynamics.hasse_ok(args.p, m.n),
        **_counts(census, args.kmax),
    }
    yield row, False


def cmd_ec(args) -> int:
    _require_kmax(args.kmax)
    curve = ecdynamics.CurveParams(args.p, args.a, args.b)
    m = ecdynamics.ECExpMap(curve, (args.gx, args.gy))
    head = ["p", "a", "b", "gx", "gy", "n", "hasse_ok"]
    return _emit(args, _ec_rows(args, m), head + _count_columns(args.kmax),
                 lambda r: [r[c] for c in head] + r["n_dividing"] + r["n_least_period"])


# ------------------------------------------------------------------- avg

def _avg_rows(p: int, k: int):
    per_g = (dynamics.fixed_point_counts_all_bases(p)[1:].tolist() if k == 1 else
             [dynamics.census_table(dynamics.ExpMap(p, g), k).n_dividing[k] for g in range(1, p)])
    total = sum(per_g)
    yield {"p": p, "k": k, "total": total, "mean": total / (p - 1), "per_g": per_g}, False


def cmd_avg(args) -> int:
    _require_prime(args.p)
    if args.k < 1:
        raise ValueError("k must be >= 1")
    return _emit(args, _avg_rows(args.p, args.k), ["p", "k", "total", "mean", "per_g"],
                 lambda r: [r["p"], r["k"], r["total"], r["mean"],
                            ";".join(map(str, r["per_g"]))])


# ---------------------------------------------------------------- parser

def _add_output_flags(sub) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="newline-delimited JSON (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV with a header row")
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")


def _add_range_flags(sub) -> None:
    sub.add_argument("--pmin", type=int, required=True)
    sub.add_argument("--pmax", type=int, required=True)
    sel = sub.add_mutually_exclusive_group()
    sel.add_argument("--g-all", action="store_true", help="all g in 1..p-1 (default)")
    sel.add_argument("--g-list", type=_parse_g_values, metavar="LIST",
                     help='g values, e.g. "2,3,5" or "2..13"')
    sel.add_argument("--primitive-roots-only", action="store_true")
    sub.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcycles",
        description="Censuses and bound verification for the map u -> g**u mod p.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("census", help="cycle census and graph summary for one (p, g)")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--g", type=int, required=True)
    sub.add_argument("--kmax", type=int, default=3)
    sub.add_argument("--mem-budget", type=int, default=dynamics.DEFAULT_MEM_BUDGET,
                     help="bytes allowed for the graph pass; above it the naive census runs")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_census)

    sub = subs.add_parser("verify-bounds", help="check the three bounds over a prime range")
    _add_range_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify_bounds)

    sub = subs.add_parser("sweep", help="full census + bounds report over a prime range")
    _add_range_flags(sub)
    sub.add_argument("--kmax", type=int, default=_SWEEP_KMAX)
    sub.add_argument("--mem-budget", type=int, default=dynamics.DEFAULT_MEM_BUDGET)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("lemma", help="lemma checkers and the 3-cycle proof harness")
    which = sub.add_subparsers(dest="which", required=True)

    w = which.add_parser("fact1", help="exponent-folding identity on random triples")
    w.add_argument("--trials", type=int, default=10**6)
    w.add_argument("--seed", type=int, default=DEFAULT_SEED)
    w.add_argument("--pmax", type=int, default=10**4)
    w.add_argument("--umax", type=int, default=10**7)
    _add_output_flags(w)
    w.set_defaults(func=cmd_lemma_fact1)

    w = which.add_parser("fact2", help="floor-jump implication, exhaustive over y")
    w.add_argument("--pmax", type=int, default=10**4)
    w.add_argument("--g", dest="g_list", type=_parse_g_values, metavar="LIST",
                   help='g values, e.g. "2..13"')
    _add_output_flags(w)
    w.set_defaults(func=cmd_lemma_fact2)

    w = which.add_parser("comb", help="randomized interval-lemma instances")
    w.add_argument("--random", type=int, default=1000)
    w.add_argument("--nmax", type=int, default=64)
    w.add_argument("--k", type=int, default=2)
    w.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(w)
    w.set_defaults(func=cmd_lemma_comb)

    w = which.add_parser("thm3", help="3-cycle proof harness on one prime or a range")
    w.add_argument("--p", type=int)
    w.add_argument("--pmin", type=int)
    w.add_argument("--pmax", type=int)
    w.add_argument("--g", type=int, required=True)
    w.add_argument("--m-semantics", choices=dynamics.M_SEMANTICS, default="least")
    _add_output_flags(w)
    w.set_defaults(func=cmd_lemma_thm3)

    sub = subs.add_parser("ec", help="curve order, Hasse check and analogue-map census")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--b", type=int, required=True)
    sub.add_argument("--gx", type=int, required=True)
    sub.add_argument("--gy", type=int, required=True)
    sub.add_argument("--kmax", type=int, default=3)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_ec)

    sub = subs.add_parser("avg", help="sum and mean of the k-census over all bases g")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_avg)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, dynamics.MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
