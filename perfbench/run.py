"""Layered benchmark for hatlab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|torus|search|reproduce \
        --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's operations until about S seconds of
operation time are measured, checks every output against the benchmark's
own computations, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced rounds and reports per-layer figures
from the traced rounds, per operation, plus the tracing overhead.  Spans
of a traced run are written to ``perfbench/out/``.

Times are reported at reference speed.  On a shared machine the speed of
fixed pure-Python work can change by a factor of 1.6 from one moment to the
next, in CPU time as much as in wall time.  So a fixed calibration loop
runs (three times, taking the median) before the first operation and after
every operation.  Each operation's wall time is scaled by CAL_REF_S over the
median calibration time within max(its duration, CAL_SPAN_S) of it, so a
short operation takes the speed of its moment and a long one that of the
stretch around it.  Runs also stop on scaled time, so a run does about the
same work whatever the speed.  The raw wall-clock figures are printed on
the summary line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9  # the main set-up plus fresh-process repeats; setup_s is their median
CAL_REF_S = 0.0008  # calibration-loop time that defines reference speed
CAL_SPAN_S = 0.05   # least reach of an operation's calibration window

PER_LAYER = [
    ("braid.normal_form.calls", "1/op"),
    ("braid.normal_form.s", "s/op"),
    ("braid.normal_form.letters", "letters/op"),
    ("braid.normal_form.repeat_calls", "1/op"),
    ("braid.equal.calls", "1/op"),
    ("braid.equal.s", "s/op"),
    ("braid.parse_braid.s", "s/op"),
    ("braid.braid_text.s", "s/op"),
    ("cobordism.to_torus_script.s", "s/op"),
    ("cobordism.comb_pure.s", "s/op"),
    ("cobordism.run_script.calls", "1/op"),
    ("cobordism.run_script.s", "s/op"),
    ("cobordism.run_script.self_s", "s/op"),
    ("cobordism.moves", "1/op"),
    ("cobordism.parse_script.s", "s/op"),
    ("cobordism.serialize_script.s", "s/op"),
    ("corpus.verify_corpus.s", "s/op"),
    ("corpus.scripts", "1/op"),
    ("db.load_db.s", "s/op"),
    ("bounds.t2_table.s", "s/op"),
    ("covers.cy_cover_test.s", "s/op"),
    ("curves.search.calls", "1/op"),
    ("curves.search.s", "s/op"),
    ("curves.search.refused", "1/op"),
    ("curves.solutions", "1/op"),
    ("curves.surviving", "1/op"),
    ("cli.import_s", "s/op"),
    ("cli.main_s", "s/op"),
    ("cli.process_s", "s/op"),
]


def calibrate_once() -> float:
    """Time a fixed piece of pure-Python work (tuples, a dict, integer ops)."""
    t = perf_counter()
    acc = 0
    d = {}
    for i in range(4000):
        tup = (i, i ^ 5, i & 7)
        d[tup[2]] = tup
        acc += tup[0] * tup[1] % 7
    return perf_counter() - t


def calibrate() -> float:
    """Median of three back-to-back timings: one sample is too noisy."""
    return statistics.median(calibrate_once() for _ in range(3))


def speed_factor(times, costs, t0, t1) -> float:
    """CAL_REF_S over the median calibration time near the span [t0, t1]."""
    reach = max(t1 - t0, CAL_SPAN_S)
    lo = bisect.bisect_left(times, t0 - reach)
    hi = bisect.bisect_right(times, t1 + reach)
    return CAL_REF_S / statistics.median(costs[lo:hi])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "torus", "search", "reproduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up repeats)")
    return ap.parse_args(argv)


def setup_probe(args) -> float:
    """One set-up in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hatlab", "__init__.py")):
        print("perfbench: src/hatlab not found; run from the root of a hatlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    before = calibrate()
    t0 = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.round(0)
    setup = perf_counter() - t0
    after = calibrate()
    setup *= 2 * CAL_REF_S / (before + after)
    if args.setup_only:
        print(repr(setup))
        return 0
    import hatlab

    if not os.path.abspath(hatlab.__file__).startswith(src + os.sep):
        print(f"perfbench: hatlab imported from {hatlab.__file__}, not {src}", file=sys.stderr)
        return 2
    setups = [setup] + [setup_probe(args) for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    correct = True
    reported: set = set()
    ops: list[tuple[str, float, float, bool, bool]] = []  # (id, start, end, traced, ok)
    cal_times, cal_costs = [perf_counter()], [calibrate()]
    measured = 0.0
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        for i, op in enumerate(wl.round(r)):
            op_id = f"{r}.{i}"
            if traced:
                tracer.op = op_id
            t = perf_counter()
            try:
                result, exc = wl.run(op, tracer if traced else None), None
            except Exception as e:  # judged below: the known fault or a wrong answer
                result, exc = None, e
            t_end = perf_counter()
            if tracer is not None:
                tracer.op = None
            cal_times.append(t_end)
            cal_costs.append(calibrate())
            attempted += 1
            measured += (t_end - t) * 2 * CAL_REF_S / (cal_costs[-2] + cal_costs[-1])
            ops.append((op_id, t, t_end, traced, exc is None))
            if exc is not None:
                failed += 1
                known = wl.expected_failure(op, exc)
                correct = correct and known
                msg = f"{'failed (known fault)' if known else 'ERROR'}: {op.label}: " \
                      f"{type(exc).__name__}: {exc}"
                if msg not in reported:
                    reported.add(msg)
                    print(msg)
                continue
            try:
                wl.check(op, result)
            except workloads.Mismatch as e:
                correct = False
                print(f"WRONG: {op.label}: {e}")
            result = None  # so peak memory never holds two results at once
        r += 1
        # Whole rounds only; stop at the boundary nearest the requested time.
        if measured * (1 + 0.5 / r) >= args.seconds and (tracer is None or r >= 2):
            break

    # (id, wall s, speed factor, traced, ok) for every operation
    ops = [(op_id, t1 - t0, speed_factor(cal_times, cal_costs, t0, t1), traced, ok)
           for op_id, t0, t1, traced, ok in ops]
    raw_ok = [dt for _, dt, _, traced, ok in ops if ok and not traced]
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
          f"{r} rounds, {sum(dt * f for _, dt, f, _, _ in ops):.3f} s of operations at "
          f"reference speed; raw wall-clock: {sum(op[1] for op in ops):.3f} s, "
          f"ops_per_s {len(raw_ok) / sum(raw_ok):.4g}, "
          f"op_p50_ms {1000 * statistics.median(raw_ok):.4g}")
    if tracer is None:
        metrics = end_to_end(setups, [dt * f for _, dt, f, _, ok in ops if ok],
                             sum(dt * f for _, dt, f, _, _ in ops), wl.peak_rss_kb())
    else:
        metrics = per_layer(tracer, ops)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(setups, latencies, busy_s, peak_kb):
    lat = sorted(latencies)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(lat) / busy_s, "unit": "op/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
                      "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(tracer, ops):
    from spans import layer_totals

    # A span's duration is scaled like the operation it belongs to.
    factor = {op_id: f for op_id, _, f, _, _ in ops}
    spans = [(op, name, 0.0, (t1 - t0) * factor[op], parent)
             for op, name, t0, t1, parent in tracer.spans]
    totals = layer_totals(spans, tracer.counts)
    for short in ("import", "main", "process"):
        totals[f"cli.{short}_s"] = totals.pop(f"cli.{short}.s", 0)
    times = {t: [dt * f for _, dt, f, traced, _ in ops if traced == t] for t in (False, True)}
    n = len(times[True])
    out = {name: {"value": totals.get(name, 0) / n, "unit": unit} for name, unit in PER_LAYER}
    overhead = statistics.mean(times[True]) / statistics.mean(times[False]) - 1
    out["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    out["trace.ops"] = {"value": n, "unit": "count"}
    return out


if __name__ == "__main__":
    sys.exit(main())
