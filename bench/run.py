#!/usr/bin/env python3
"""factormesh benchmark: run one workload, check every answer, print metrics.

    python3 bench/run.py --workload hamming-t0 --seed 0 --seconds 30 --trace 0

One process runs one workload (see workloads.py and README.md).  It first
runs the workload's fixed case list once with a span around every public
call (the traced pass, which also warms the process up), then repeats the
same cases in whole rounds without spans for up to --seconds seconds (the
untraced pass).  Every untraced case must reproduce its traced counterpart
exactly: stats text, beliefs file, image bytes and compiler outputs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the seed, the identity digest, the uncalibrated host times and
every failed case with its reason.  Spans go to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "cases_per_s": "1/s",
    "case_p50_s": "s",
    "setup_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "packets": "count",
    "energy_proxy": "count",
}

# span name -> per-layer metric of its self time, in seconds per case
LAYER_SPANS = {
    "apps.build": "apps.build_s",
    "mapper.lower": "mapper.lower_s",
    "mapper.cluster": "mapper.cluster_s",
    "mapper.place": "mapper.place_s",
    "mapper.emit": "mapper.emit_s",
    "image.dumps": "image.dumps_s",
    "image.parse": "image.parse_s",
    "machine.build": "machine.build_s",
    "machine.run": "machine.run_s",
    "machine.read": "machine.read_s",
    "golden.kernel": "golden.kernel_s",
    "apps.verify": "apps.verify_s",
}

PER_LAYER = dict.fromkeys(LAYER_SPANS.values(), "s")
PER_LAYER.update({
    "machine.events": "count",
    "machine.activations": "count",
    "machine.packets": "count",
    "machine.flush_packets": "count",
    "machine.hops": "count",
    "machine.peak_link_occupancy": "count",
    "machine.cycles": "cycles",
    "machine.quiescent_frac": "ratio",
    "machine.flush_share": "ratio",
    "machine.hops_per_packet": "ratio",
    "machine.belief_linf": "prob",
    "mapper.clusters": "count",
    "mapper.factors": "count",
    "mapper.aux_vars": "count",
    "mapper.wire_cost_initial": "count",
    "mapper.wire_cost_final": "count",
    "mapper.wire_cost_ratio": "ratio",
    "image.bytes": "bytes",
    "image.wires": "count",
    "golden.iterations": "count",
    "golden.converged_frac": "ratio",
    "bench.unaccounted_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.case_fail_frac": "ratio",
})


def _import_program():
    """Put the checkout's own sources first on the path; refuse to run
    against anything else."""
    if not (SRC / "factormesh" / "__init__.py").is_file():
        raise SystemExit("bench: no factormesh sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import factormesh
    if Path(factormesh.__file__).resolve().parent != SRC / "factormesh":
        raise SystemExit("bench: imported factormesh from %s, not %s"
                         % (factormesh.__file__, SRC))


def per_case_mean(untraced, field) -> dict:
    """Case index -> mean calibrated seconds of `field` over its rounds."""
    runs = {}
    for o in untraced:
        runs.setdefault(o.case, []).append(getattr(o, field) * o.scale)
    return {case: statistics.fmean(ts) for case, ts in runs.items()}


def _ratio(num, den) -> float:
    # 0 when nothing was timed, e.g. every case failed before its machine ran
    return num / den if den else 0.0


def end_to_end(traced, untraced) -> dict:
    return {
        "cases_per_s": len(untraced) / sum(o.total_s * o.scale for o in untraced),
        "case_p50_s": statistics.median(per_case_mean(untraced, "total_s").values()),
        "setup_s": statistics.median(per_case_mean(untraced, "setup_s").values()),
        "sim_events_per_s": _ratio(sum(traced[o.case].events for o in untraced),
                                   sum(o.run_s * o.scale for o in untraced)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": sum(o.counters.get("cycles", 0) for o in traced),
        "packets": sum(o.counters.get("packets", 0) for o in traced),
        "energy_proxy": sum(o.counters.get("activations", 0)
                            + 0.1 * o.counters.get("hops", 0) for o in traced),
    }


def per_layer(traced, untraced, case_self_times, failed, attempted) -> dict:
    n = len(traced)
    own = {}
    for (case, name), t in case_self_times.items():
        own[name] = own.get(name, 0.0) + t * traced[case].scale
    out = {metric: own.get(name, 0.0) / n for name, metric in LAYER_SPANS.items()}

    def total(key):
        return sum(o.counters.get(key, 0) for o in traced)

    def compiled(key):
        return sum(o.compiled.get(key, 0) for o in traced)

    packets = total("packets")
    cost0 = compiled("cost_initial")
    out.update({
        "machine.events": sum(o.events for o in traced),
        "machine.activations": total("activations"),
        "machine.packets": packets,
        "machine.flush_packets": total("flush_packets"),
        "machine.hops": total("hops"),
        "machine.peak_link_occupancy": max(o.counters.get("peak_link_occupancy", 0)
                                           for o in traced),
        "machine.cycles": total("cycles"),
        "machine.quiescent_frac": sum(bool(o.counters.get("quiescent"))
                                      for o in traced) / n,
        "machine.flush_share": _ratio(total("flush_packets"), packets),
        "machine.hops_per_packet": _ratio(total("hops"), packets),
        "machine.belief_linf": max(o.belief_linf for o in traced),
        "mapper.clusters": compiled("clusters"),
        "mapper.factors": compiled("factors"),
        "mapper.aux_vars": compiled("aux_vars"),
        "mapper.wire_cost_initial": cost0,
        "mapper.wire_cost_final": compiled("cost_final"),
        "mapper.wire_cost_ratio": _ratio(compiled("cost_final"), cost0),
        "image.bytes": compiled("image_bytes"),
        "image.wires": compiled("wires"),
        "golden.iterations": sum(o.golden_iterations for o in traced),
        "golden.converged_frac": sum(o.golden_converged for o in traced) / n,
    })
    # self times add up to the case time, so the case span's own share is
    # what no layer span covers
    out["bench.unaccounted_frac"] = own.get("case", 0.0) / sum(own.values())
    plain = per_case_mean(untraced, "total_s")
    out["bench.trace_overhead_frac"] = (
        sum(traced[c].total_s * traced[c].scale for c in plain)
        / sum(plain.values()) - 1.0)
    out["bench.case_fail_frac"] = failed / attempted
    return out


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(("%d %s %s\n" % (o.case, o.digest, o.image_digest)).encode("ascii"))
    return h.hexdigest()


def write_spans(path, spans):
    OUT.mkdir(exist_ok=True)
    rows = [{"name": s.name, "case": s.case, "start": s.start, "end": s.end,
             "parent": s.parent} for s in spans]
    with open(path, "w") as fh:
        json.dump(rows, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the untraced pass, spent in whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="print the per-layer metrics instead of end-to-end")
    ap.add_argument("--cases", type=int, default=None,
                    help="cases per round (default: the workload's own)")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import (WORKLOADS, NoTracer, Tracer, calibrate, run_round,
                           self_times)

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (have %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    cases = workload.cases(args.seed, args.cases or workload.default_cases)

    tracer = Tracer()
    traced, before = run_round(workload, cases, tracer, calibrate())

    # as many whole rounds as fit in --seconds, at least one, so every
    # statistic weighs each case the same
    untraced = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        outcomes, before = run_round(workload, cases, NoTracer(), before)
        untraced.extend(outcomes)
        now = perf_counter()
        if now + (now - round_start) > start + args.seconds:
            break

    for o in untraced:
        ref = traced[o.case]
        if not o.failure and not ref.failure and o.identity() != ref.identity():
            o.failure = "untraced run differs from the traced run"

    failures = [{"pass": name, "case": o.case, "reason": o.failure}
                for name, outcomes in (("traced", traced), ("untraced", untraced))
                for o in outcomes if o.failure]
    attempted = len(traced) + len(untraced)

    spans_path = OUT / ("spans-%s-seed%d.json" % (workload.name, args.seed))
    write_spans(spans_path, tracer.spans)

    if args.trace:
        values = per_layer(traced, untraced, self_times(tracer.spans),
                           len(failures), attempted)
        units = PER_LAYER
    else:
        values = end_to_end(traced, untraced)
        units = END_TO_END

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "cases": len(cases),
        "executions": len(untraced), "digest": digest(traced),
        "raw_case_p50_s": statistics.median(o.total_s for o in untraced),
        "raw_setup_s": statistics.median(o.setup_s for o in untraced),
        "host_scale_p50": statistics.median(o.scale for o in untraced),
        "failures": failures,
        "spans": str(spans_path.relative_to(HERE.parent))}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
