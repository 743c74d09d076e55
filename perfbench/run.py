"""Benchmark of toricode: one workload per process, checked against the paper.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the library is imported from ./src. The
process runs set-up (import and every field the workload uses), then whole
rounds of the workload's operations until another round would not fit in
--seconds (at least two rounds). Each operation is checked against `oracle`
after it is timed. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

* --trace 0: the end-to-end metrics setup_s, wall_s, op_p50_s, peak_rss_mb;
* --trace 1: the per-layer metrics. Rounds alternate untraced and traced;
  per-layer times are medians over the traced rounds and
  trace.overhead_pct compares traced with untraced rounds. The spans go to
  perfbench/out/.

Exit status 0 on a finished run, even if a check failed (then `correct` is
false); 2 on a usage error or when ./src/toricode is missing.
"""

import time

_T0 = time.perf_counter()  # before any other import: set-up starts here

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Every operation is timed at least twice, so one slow spell of the shared
# machine cannot set a run's figure alone; the trace needs one untraced and
# one traced round.
MIN_ROUNDS = 2


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_toricode():
    if not (SRC / "toricode" / "__init__.py").is_file():
        _fail(f"no toricode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricode
    from toricode import codes, formulas, gf, kernels, mindist, polytopes

    if Path(toricode.__file__).resolve().parent != SRC / "toricode":
        _fail(f"imported toricode from {toricode.__file__}, not {SRC}")
    return {"gf": gf, "polytopes": polytopes, "codes": codes,
            "kernels": kernels, "mindist": mindist, "formulas": formulas}


def _round(ops, tc, fields, checker):
    """Run every operation once, checking each after it is timed.

    Returns per-op wall and CPU seconds, the number of failed operations,
    the problems found and the sum of the work_count of every search result.
    """
    times, cpu, failed, problems, work = [], [], 0, [], 0
    for op in ops:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        out = workloads.run(op, tc, fields)
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        op_failed, op_problems = checker.check(op, out)
        failed += op_failed
        problems += [f"{op.name}: {p}" for p in op_problems]
        if isinstance(op, workloads.Search):
            work += out[1].work_count
        del out
    return times, cpu, failed, problems, work


def _measure(ops, tc, fields, seconds, tracer, checker):
    """Whole rounds until another would not fit in `seconds` (at least
    MIN_ROUNDS).

    With a tracer, rounds alternate untraced and traced, starting untraced.
    Returns the rounds as (traced, per-op wall s, per-op CPU s), the failed
    count, the problems found, and per traced round its layer metrics and
    spans.
    """
    start = time.perf_counter()
    rounds, failed, problems, layers, round_spans = [], 0, [], [], []
    longest = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        times, cpu, r_failed, r_problems, work = _round(ops, tc, fields, checker)
        if traced:
            tracer.uninstall()
            spans_, counts = tracer.take()
            layer = spans.aggregate(spans_, counts)
            layer["process.cpu_s"] = sum(cpu)
            if layer["kernels.messages"] != work:
                r_problems.append(
                    f"kernel messages {layer['kernels.messages']} != work_count sum {work}")
            layers.append(layer)
            round_spans.append(spans_)
        rounds.append((traced, times, cpu))
        failed += r_failed
        problems += r_problems
        longest = max(longest, time.perf_counter() - r0)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + longest > seconds:
            return rounds, failed, problems, layers, round_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tc = _import_toricode()
    tracer = spans.Tracer(tc) if args.trace else None
    if tracer:
        tracer.install()
    ops = workloads.make_ops(args.workload, args.seed)
    fields = {q: tc["gf"].make_field(*oracle.prime_power(q))
              for q in workloads.field_orders(ops)}
    if tracer:
        tracer.uninstall()
        setup_spans, _ = tracer.take()
    setup_s = time.perf_counter() - _T0

    rounds, failed, problems, layers, round_spans = _measure(
        ops, tc, fields, args.seconds, tracer, workloads.Checker(args.seed))

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}" + ("-trace" if tracer else "")
    if tracer:
        layer, layer_problems = spans.combine(layers)
        problems += layer_problems
        plain = statistics.median(sum(t) for tr, t, _ in rounds if not tr)
        with_spans = statistics.median(sum(t) for tr, t, _ in rounds if tr)
        layer["gf.make_field_s"] = sum(
            end - begin for span, begin, end, _ in setup_spans if span == "gf.make_field")
        layer["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in sorted(layer.items())}
        spans.write_spans(OUT / f"{name}.spans.jsonl", round_spans)
    else:
        per_op = [statistics.median(col) for col in zip(*(t for _, t, _ in rounds))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "rounds": len(rounds), "ops": [op.name for op in ops],
        "op_seconds": [t for _, t, _ in rounds],
        "op_cpu_seconds": [c for _, _, c in rounds], "problems": problems,
    }
    (OUT / f"{name}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": len(rounds) * len(ops), "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
