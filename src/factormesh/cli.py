"""Command-line front end.

Subcommands: compile (graph -> machine image), run (image -> stats/beliefs/
trace), golden (reference kernels on a graph file), verify (results vs a
benchmark manifest), stats (summarize a trace file).

Exit codes: 0 success, 1 verification failure, 2 input error, 3 mapping
error, 4 non-quiescence in a converging mode, 5 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import apps, golden, mapper
from .graph import (EPS_SOFT, GraphError, ParseError, expand_all, parse_uai,
                    parse_evidence, with_evidence)
from .image import ImageError, MODES, SUMPROD, MINSUM, GIBBS, dumps, parse_image
from .machine import Machine, MachineError
from .records import Records


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(0, "cannot read %s: %s" % (path, e.strerror))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _load_config(path):
    """{key: (value, line)} from a file of 'key value' lines."""
    rec = Records(_read(path), GraphError)
    cfg = {}
    for key, *value in rec:
        if not value:
            rec.fail("config lines are 'key value'")
        cfg[key.replace("-", "_")] = (" ".join(value), rec.line)
    return cfg


def _resolve(args, key, default, cast=str):
    """Flag > config file > hard default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_cfg", {})
    if key in cfg:
        text, line = cfg[key]
        try:
            return cast(text)
        except ValueError:
            raise ParseError(line, "config value for %s is not a %s"
                             % (key, cast.__name__))
    return default


def _parse_grid(text):
    try:
        r, c = text.lower().split("x")
        grid = (int(r), int(c))
    except ValueError:
        raise ParseError(0, "grid must look like 4x4")
    if grid[0] < 1 or grid[1] < 1:
        raise ParseError(0, "grid dimensions must be positive")
    return grid


def _load_graph(args):
    graph = parse_uai(_read(args.graph))
    if getattr(args, "evidence", None):
        graph = with_evidence(graph, parse_evidence(_read(args.evidence)))
    return graph


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args):
    graph = _load_graph(args)
    grid = _parse_grid(_resolve(args, "grid", "4x4"))
    mode = _resolve(args, "mode", SUMPROD)
    if mode not in MODES:
        raise ParseError(0, "mode must be one of %s" % "/".join(MODES))
    image, report = mapper.compile_graph(
        graph, mode, grid=grid,
        seed=_resolve(args, "seed", 0, int),
        thresh=_resolve(args, "thresh", None, int),
        epsilon=_resolve(args, "epsilon", None, float),
        epochs=_resolve(args, "epochs", 50, int))
    _write(args.out, dumps(image))
    print("clusters=%d" % report["clusters"])
    print("cost_initial=%d" % report["cost_initial"])
    print("cost_final=%d" % report["cost_final"])
    print("factors=%d" % report["factors"])
    print("aux_vars=%d" % report["aux_vars"])
    return 0


def cmd_run(args):
    image = parse_image(_read(args.image))
    machine = Machine(image, trace=bool(args.trace),
                      noise_lsbs=_resolve(args, "noise", 0, int))
    code = 0
    if image.mode == GIBBS:
        stats = machine.run_ticks(_resolve(args, "ticks", 1000, int))
    else:
        stats, quiescent = machine.run_until_quiescent(
            _resolve(args, "max_cycles", 100000, int))
        if not quiescent:
            code = 4
    beliefs, _assignment = machine.read_beliefs()
    sys.stdout.write(stats.text())
    if args.stats:
        _write(args.stats, stats.text())
    if args.beliefs:
        _write(args.beliefs, apps.write_results(beliefs))
    if args.trace:
        _write(args.trace, machine.trace_text())
    return code


def cmd_golden(args):
    graph = _load_graph(args)
    alg = args.alg
    seed = _resolve(args, "seed", 0, int)
    # hard constraints for the sum-domain kernels, log-finite for the rest
    eps_default = 0.0 if alg in ("exact", "map", "sumprod") else EPS_SOFT
    graph = expand_all(graph, _resolve(args, "epsilon", eps_default, float))
    as_dict = lambda seq: dict(enumerate(seq))
    if alg == "exact":
        out = apps.write_results(as_dict(golden.exact_marginals(graph)))
    elif alg == "map":
        out = apps.write_results(as_dict(golden.map_bruteforce(graph)))
    elif alg in ("sumprod", "minsum"):
        kernel = golden.sum_product if alg == "sumprod" else golden.min_sum
        state = kernel(
            graph,
            schedule=_resolve(args, "schedule", golden.FLOODING),
            damping=_resolve(args, "damping", 0.0, float),
            max_iters=_resolve(args, "max_iters", 100, int),
            tol=_resolve(args, "tol", 1e-6, float))
        out = apps.write_results(as_dict(state.beliefs if alg == "sumprod"
                                         else state.assignment))
    elif alg == "gibbs":
        res = golden.gibbs_sample(
            graph, seed=seed,
            burn_in=_resolve(args, "burn_in", 1000, int),
            sweeps=_resolve(args, "sweeps", 10000, int))
        out = apps.write_results(as_dict(res.marginals))
    else:
        raise ParseError(0, "unknown algorithm %r" % alg)
    if args.out:
        _write(args.out, out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_verify(args):
    benchmark = apps.parse_manifest(_read(args.manifest))
    results = apps.parse_results(_read(args.results))
    tol = _resolve(args, "tolerance", None, float)
    report = apps.verify(benchmark, results, tolerance=tol)
    sys.stdout.write(report.text())
    return 0 if report.passed else 1


def cmd_stats(args):
    rec = Records(_read(args.trace), GraphError, sep=",")
    rows = iter(rec)
    if next(rows, [""])[0] != "cycle":
        rec.fail("not a trace file (missing header)")
    deliver_queues = {}
    send_queues = {}
    per_cycle = {}
    for row in rows:
        if len(row) != 6:
            rec.fail("malformed trace row")
        cycle, r, c, vid, _detail = rec.ints(row[:3] + row[4:], 5, "trace row")
        if row[3] == "SEND":
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
            send_queues.setdefault(vid, []).append((r, c))
        elif row[3] == "DELIVER":
            deliver_queues.setdefault(vid, []).append((r, c))
    links = {}
    for vid, srcs in sorted(send_queues.items()):
        dsts = deliver_queues.get(vid, [])
        for (sr, sc), (dr, dc) in zip(srcs, dsts):
            r, c = sr, sc
            while c != dc:
                nc = c + (1 if dc > c else -1)
                links[((r, c), (r, nc))] = links.get(((r, c), (r, nc)), 0) + 1
                c = nc
            while r != dr:
                nr = r + (1 if dr > r else -1)
                links[((r, c), (nr, c))] = links.get(((r, c), (nr, c)), 0) + 1
                r = nr
    print("packets_by_cycle")
    for cycle in sorted(per_cycle):
        print("%d %d" % (cycle, per_cycle[cycle]))
    print("link_traffic")
    for (a, b), n in sorted(links.items()):
        print("(%d,%d)->(%d,%d) %d" % (a[0], a[1], b[0], b[1], n))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="factormesh",
                                description="factor graph machine toolchain")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="map a graph onto a machine image")
    c.add_argument("graph")
    c.add_argument("--evidence")
    c.add_argument("--out", required=True)
    c.add_argument("--mode", choices=MODES)
    c.add_argument("--grid")
    c.add_argument("--seed", type=int)
    c.add_argument("--thresh", type=int)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--epochs", type=int)
    c.add_argument("--config")
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="execute a machine image")
    r.add_argument("image")
    r.add_argument("--max-cycles", dest="max_cycles", type=int)
    r.add_argument("--ticks", type=int, help="GIBBS resample rounds per cell")
    r.add_argument("--noise", type=int)
    r.add_argument("--stats")
    r.add_argument("--beliefs")
    r.add_argument("--trace")
    r.add_argument("--config")
    r.set_defaults(func=cmd_run)

    g = sub.add_parser("golden", help="reference kernels on a graph file")
    g.add_argument("graph")
    g.add_argument("--evidence")
    g.add_argument("--alg", required=True,
                   choices=["exact", "map", "sumprod", "minsum", "gibbs"])
    g.add_argument("--schedule", choices=[golden.FLOODING, golden.SEQUENTIAL])
    g.add_argument("--damping", type=float)
    g.add_argument("--max-iters", dest="max_iters", type=int)
    g.add_argument("--tol", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--burn-in", dest="burn_in", type=int)
    g.add_argument("--sweeps", type=int)
    g.add_argument("--epsilon", type=float)
    g.add_argument("--out")
    g.add_argument("--config")
    g.set_defaults(func=cmd_golden)

    v = sub.add_parser("verify", help="check results against a manifest")
    v.add_argument("manifest")
    v.add_argument("results")
    v.add_argument("--tolerance", type=float)
    v.add_argument("--config")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="summarize a trace file")
    s.add_argument("trace")
    s.set_defaults(func=cmd_stats)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args._cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args)
    except golden.EnumerationBoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 5
    except mapper.MapperError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ParseError, GraphError, ImageError, MachineError,
            apps.HarnessError, golden.InferenceError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
