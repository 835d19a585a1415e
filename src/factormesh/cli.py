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
from .machine import Machine, MachineError, xy_links
from .records import Records, line_error


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise GraphError("cannot read %s: %s" % (path, e.strerror))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


SCHEDULES = (golden.FLOODING, golden.SEQUENTIAL)

# what a config file may not set: the subcommand, and the files it reads or writes
_NOT_SETTINGS = {"command", "func", "alg", "config", "graph", "evidence", "out",
                 "image", "stats", "beliefs", "trace", "manifest", "results"}


def _load_config(path, settings):
    """{key: (value, line)} from a file of 'key value' lines, each key one
    of `settings`, the options that the subcommand reads through `_resolve`."""
    rec = Records(_read(path), GraphError)
    cfg = {}
    for key, *value in rec:
        if not value:
            rec.fail("config lines are 'key value'")
        key = key.replace("-", "_")
        if key not in settings:
            rec.fail("unknown config key %r" % key)
        cfg[key] = (" ".join(value), rec.line)
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
            raise line_error(ParseError, line, "config value for %s is not a %s"
                             % (key, cast.__name__))
    return default


def _bad_value(args, key, message):
    """The error for a bad value `_resolve` returned: it names the config
    line if the value came from the config file."""
    cfg = getattr(args, "_cfg", {})
    if getattr(args, key, None) is None and key in cfg:
        return line_error(ParseError, cfg[key][1], message)
    return GraphError(message)


def _at_least(args, key, default, least=0):
    """An int setting that must be >= `least` when given."""
    value = _resolve(args, key, default, int)
    if value is not None and value < least:
        raise _bad_value(args, key, "%s must be >= %d, got %d" % (key, least, value))
    return value


def _parse_grid(args):
    try:
        r, c = _resolve(args, "grid", "4x4").lower().split("x")
        grid = (int(r), int(c))
    except ValueError:
        raise _bad_value(args, "grid", "grid must look like 4x4")
    if grid[0] < 1 or grid[1] < 1:
        raise _bad_value(args, "grid", "grid dimensions must be positive")
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
    grid = _parse_grid(args)
    mode = _resolve(args, "mode", SUMPROD)
    if mode not in MODES:
        raise _bad_value(args, "mode", "mode must be one of %s" % "/".join(MODES))
    image, report = mapper.compile_graph(
        graph, mode, grid=grid,
        seed=_resolve(args, "seed", 0, int),
        thresh=_at_least(args, "thresh", None),
        epsilon=_resolve(args, "epsilon", None, float),
        epochs=_at_least(args, "epochs", 50))
    _write(args.out, dumps(image))
    print("clusters=%d" % report["clusters"])
    print("cost_initial=%d" % report["cost_initial"])
    print("cost_final=%d" % report["cost_final"])
    print("factors=%d" % report["factors"])
    print("aux_vars=%d" % report["aux_vars"])
    return 0


def cmd_run(args):
    image = parse_image(_read(args.image))
    noise = _at_least(args, "noise", 0)
    if noise and image.mode == GIBBS:
        raise _bad_value(args, "noise", "a GIBBS machine takes no output noise, got %d" % noise)
    machine = Machine(image, trace=bool(args.trace), noise_lsbs=noise)
    # both budgets are checked whichever the image's mode reads
    ticks = _at_least(args, "ticks", 1000, 1)
    max_cycles = _at_least(args, "max_cycles", 100000)
    code = 0
    if image.mode == GIBBS:
        stats = machine.run_ticks(ticks)
    else:
        stats, quiescent = machine.run_until_quiescent(max_cycles)
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
    if stats.zero_total_draws:
        # a draw with no weight kept its value: the counts are not the model's
        print("error: zero_total_draws=%d" % stats.zero_total_draws, file=sys.stderr)
        code = 2
    return code


def cmd_golden(args):
    graph = _load_graph(args)
    alg = args.alg
    seed = _resolve(args, "seed", 0, int)
    # every setting is checked whichever --alg reads it
    schedule = _resolve(args, "schedule", golden.FLOODING)
    if schedule not in SCHEDULES:
        raise _bad_value(args, "schedule", "schedule must be one of %s" % "/".join(SCHEDULES))
    damping = _resolve(args, "damping", 0.0, float)
    if not 0 <= damping < 1:
        raise _bad_value(args, "damping", "damping must be in [0, 1), got %g" % damping)
    # zero iterations would print the start state as an answer
    max_iters = _at_least(args, "max_iters", 100, 1)
    tol = _resolve(args, "tol", 1e-6, float)
    burn_in = _at_least(args, "burn_in", 1000)
    sweeps = _at_least(args, "sweeps", 10000, 1)
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
        state = kernel(graph, schedule=schedule, damping=damping,
                       max_iters=max_iters, tol=tol)
        out = apps.write_results(as_dict(state.beliefs if alg == "sumprod"
                                         else state.assignment))
    else:                   # gibbs, the last of the parser's choices
        res = golden.gibbs_sample(graph, seed=seed, burn_in=burn_in, sweeps=sweeps)
        out = apps.write_results(as_dict(res.marginals))
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
        for src, dst in zip(srcs, deliver_queues.get(vid, [])):
            for link in xy_links(src, dst):
                links[link] = links.get(link, 0) + 1
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
    g.add_argument("--schedule", choices=SCHEDULES)
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
        args._cfg = (_load_config(args.config, set(vars(args)) - _NOT_SETTINGS)
                     if getattr(args, "config", None) else {})
        return args.func(args)
    except golden.EnumerationBoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 5
    except mapper.MapperError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (GraphError, ImageError, MachineError,
            apps.HarnessError, golden.InferenceError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
