"""Command-line front end.

Subcommands: compile (graph -> machine image), run (image -> stats/beliefs/
trace), golden (reference kernels on a graph file), verify (results vs a
benchmark manifest), stats (summarize a trace file).

Exit codes: 0 success, 1 verification failure, 2 input error, 3 mapping
error, 4 unquiesced run or unconverged golden, 5 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, namedtuple

from . import apps, golden, mapper
from .graph import GraphError, ParseError, parse_uai, parse_evidence, with_evidence
from .image import ImageError, MODES, SUMPROD, GIBBS, dumps, parse_image
from .machine import Machine, MachineError, xy_links
from .records import Records, integer, line_error, real


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as e:
        raise GraphError("cannot read %s: %s" % (path, e.strerror))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _grid(text):
    """A grid setting, 'RxC', as (rows, cols)."""
    try:
        rows, cols = map(integer, text.lower().split("x"))
    except ValueError:
        raise GraphError("grid must look like 4x4")
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    return rows, cols


# A subcommand setting: its flag and config key, the type that reads its
# text, its default, and its bound: each value is >= `least` (and < `below`
# if that is given), or is one of `choices`.
Setting = namedtuple("Setting", "name type default least below choices help",
                     defaults=(None,) * 5)

# each subcommand's settings, in the order they are checked; a config file
# may set these and nothing else
SETTINGS = {
    "compile": (Setting("grid", _grid, "4x4"),
                Setting("mode", str, SUMPROD, choices=MODES),
                Setting("seed", integer, 0),
                Setting("thresh", integer, least=0),
                Setting("epochs", integer, 50, least=0)),
    "run": (Setting("noise", integer, 0, least=0),
            Setting("ticks", integer, 1000, least=1, help="GIBBS resample rounds per cell"),
            Setting("max_cycles", integer, 100000, least=0)),
    "golden": (Setting("seed", integer, 0),
               Setting("schedule", str, golden.FLOODING,
                       choices=(golden.FLOODING, golden.SEQUENTIAL)),
               Setting("damping", real, 0.0, least=0, below=1),
               # zero iterations would print the start state as an answer
               Setting("max_iters", integer, 100, least=1),
               Setting("tol", real, 1e-6, least=0),
               Setting("burn_in", integer, 1000, least=0),
               Setting("sweeps", integer, 10000, least=1)),
    "verify": (Setting("tolerance", real, least=0),),
}


def _load_config(path, command):
    """{key: (value, line)} from a file of 'key value' lines, each key one
    of the subcommand's settings, given at most once."""
    names = {s.name for s in SETTINGS[command]}
    rec = Records(_read(path), GraphError)
    cfg = {}
    for key, *value in rec:
        if not value:
            rec.fail("config lines are 'key value'")
        key = key.replace("-", "_")
        if key not in names:
            rec.fail("unknown config key %r" % key)
        if key in cfg:
            rec.fail("config key %r given twice; the first is on line %d" % (key, cfg[key][1]))
        cfg[key] = (" ".join(value), rec.line)
    return cfg


def _bad_value(args, key, message):
    """The error for a bad setting: it names the config line if the value
    came from the config file."""
    if getattr(args, key, None) is None and key in args._cfg:
        return line_error(ParseError, args._cfg[key][1], message)
    return GraphError(message)


def _settings(args):
    """{name: value} of the subcommand's settings, checked in table order:
    each from its flag, else its config line, else its default."""
    out = {}
    for s in SETTINGS[args.command]:
        value = getattr(args, s.name, None)
        if value is None:
            value = args._cfg[s.name][0] if s.name in args._cfg else s.default
        if isinstance(value, str):      # text, which the setting's type reads
            try:
                value = s.type(value)
            except ValueError as e:     # a GraphError is the grid's own message
                raise _bad_value(args, s.name, str(e) if isinstance(e, GraphError) else
                                 "config value for %s is %s" % (s.name, e))
        # written so that NaN fails too
        if value is not None and s.least is not None and not (
                s.least <= value and (s.below is None or value < s.below)):
            bound = (">= %d" % s.least if s.below is None
                     else "in [%g, %g)" % (s.least, s.below))
            raise _bad_value(args, s.name, "%s must be %s, got %s" % (
                s.name, bound, value if s.type is integer else "%g" % value))
        if s.choices and value not in s.choices:
            raise _bad_value(args, s.name, "%s must be one of %s"
                             % (s.name, "/".join(s.choices)))
        out[s.name] = value
    return out


def _load_graph(args):
    graph = parse_uai(_read(args.graph))
    if getattr(args, "evidence", None):
        graph = with_evidence(graph, parse_evidence(_read(args.evidence), graph))
    return graph


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args):
    graph = _load_graph(args)
    image, report = mapper.compile_graph(graph, **_settings(args))
    _write(args.out, dumps(image))
    print("clusters=%d" % report["clusters"])
    print("cost_initial=%d" % report["cost_initial"])
    print("cost_final=%d" % report["cost_final"])
    print("factors=%d" % report["factors"])
    print("aux_vars=%d" % report["aux_vars"])
    return 0


def cmd_run(args):
    image = parse_image(_read(args.image))
    # both budgets are checked whichever the image's mode reads
    s = _settings(args)
    if s["noise"] and image.mode == GIBBS:
        raise _bad_value(args, "noise",
                         "a GIBBS machine takes no output noise, got %d" % s["noise"])
    machine = Machine(image, trace=bool(args.trace), noise_lsbs=s["noise"])
    code = 0
    if image.mode == GIBBS:
        stats = machine.run_ticks(s["ticks"])
    else:
        stats, quiescent = machine.run_until_quiescent(s["max_cycles"])
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
    # every setting is checked whichever --alg reads it
    s = _settings(args)
    state = None            # sumprod's or minsum's, which may not converge
    if alg == "exact":
        answer = golden.exact_marginals(graph)
    elif alg == "map":
        answer = golden.map_bruteforce(graph)
    elif alg in ("sumprod", "minsum"):
        kernel = golden.sum_product if alg == "sumprod" else golden.min_sum
        state = kernel(graph, schedule=s["schedule"], damping=s["damping"],
                       max_iters=s["max_iters"], tol=s["tol"])
        answer = state.beliefs if alg == "sumprod" else state.assignment
    else:                   # gibbs, the last of the parser's choices
        answer = golden.gibbs_sample(graph, seed=s["seed"], burn_in=s["burn_in"],
                                     sweeps=s["sweeps"]).marginals
    out = apps.write_results(dict(enumerate(answer)))
    if args.out:
        _write(args.out, out)
    else:
        sys.stdout.write(out)
    if state is not None and not state.converged:
        print("error: not converged after %d iterations" % s["max_iters"], file=sys.stderr)
        return 4
    return 0


def cmd_verify(args):
    benchmark = apps.parse_manifest(_read(args.manifest))
    results = apps.parse_results(_read(args.results))
    report = apps.verify(benchmark, results, **_settings(args))
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
    links = Counter()
    for vid, srcs in sorted(send_queues.items()):
        for src, dst in zip(srcs, deliver_queues.get(vid, [])):
            links.update(xy_links(src, dst))
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
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="execute a machine image")
    r.add_argument("image")
    r.add_argument("--stats")
    r.add_argument("--beliefs")
    r.add_argument("--trace")
    r.set_defaults(func=cmd_run)

    g = sub.add_parser("golden", help="reference kernels on a graph file")
    g.add_argument("graph")
    g.add_argument("--evidence")
    g.add_argument("--alg", required=True,
                   choices=["exact", "map", "sumprod", "minsum", "gibbs"])
    g.add_argument("--out")
    g.set_defaults(func=cmd_golden)

    v = sub.add_parser("verify", help="check results against a manifest")
    v.add_argument("manifest")
    v.add_argument("results")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="summarize a trace file")
    s.add_argument("trace")
    s.set_defaults(func=cmd_stats)

    for command, settings in SETTINGS.items():
        for setting in settings:
            # argparse reads numbers and names a bad one; a grid is read by
            # `_settings`, as a config line is, with the same errors
            sub.choices[command].add_argument(
                "--" + setting.name.replace("_", "-"), help=setting.help,
                type=None if setting.type is _grid else setting.type,
                choices=setting.choices)
        sub.choices[command].add_argument("--config")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args._cfg = (_load_config(args.config, args.command)
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
