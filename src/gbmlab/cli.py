"""Command-line front end.

Subcommands: gen, thresholds, table1, recover, recover-hd, recover-loc,
dense, phase, eval.  Every run writes machine-readable output (JSON or
CSV) that embeds the resolved configuration, the tool version and the
seed, so any artifact can be regenerated exactly.

Exit codes: 0 success, 1 usage error or bad input (unreadable file,
malformed value), 2 infeasible parameter regime.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import SCHEMA, __version__
from . import analysis, dense, generators, geometry, graph as graphio, recovery, rng, thresholds
from .graph import trim_heap as _trim_heap


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # a token that float() reads (-1e308, -inf), or that holds ":" before any "=" as no
        # option name does (a --points value -1:2), is a flag's value, not an option
        if ":" in arg_string.split("=", 1)[0]:
            return None
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            k = low - 1
        if k < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return k
    return parse


_positive, _seed = _at_least(1), _at_least(0)


def _jobs(text: str) -> int:
    """argparse type: a worker count from 1 to the usable cores."""
    k = _positive(text)
    if k > dense.THREADS:
        raise argparse.ArgumentTypeError(f"expected at most {dense.THREADS} (the usable cores), got {text!r}")
    return k


def _output(path: str):
    """The stream of one output, as a context: stdout for "-", else the file, closed after."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="\n")


def _emit_json(path: str, payload: dict) -> None:
    """Write the payload as JSON; a NaN or infinity in it writes nothing and raises RegimeError."""
    payload = {"schema": SCHEMA, "version": __version__, **payload}
    try:
        text = json.dumps(payload, indent=2, default=_jsonable, allow_nan=False)
    except ValueError as exc:
        raise thresholds.RegimeError(f"result is not finite ({exc})") from None
    with _output(path) as stream:
        stream.write(text + "\n")


def _jsonable(x):
    """The one converter of numpy values for JSON: scalars to Python numbers, arrays to lists."""
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _emit_csv(path: str, header: str, rows: np.ndarray, config: dict) -> None:
    with _output(path) as stream:
        stream.write(f"# schema={SCHEMA} version={__version__} params={json.dumps(config, default=_jsonable)}\n")
        stream.write(header + "\n")
        field = "%d" if rows.dtype.kind in "iu" else "%s"
        graphio._write_rows(stream, ",".join([field] * rows.shape[1]) + "\n", rows)


def _resolve_radii(args, n: int, t: int) -> tuple[float, float]:
    """Scaled (--a/--b) and raw (--rs/--rd) forms are mutually exclusive."""
    scaled = args.a is not None or args.b is not None
    raw = args.rs is not None or args.rd is not None
    if scaled and raw:
        raise _UsageError("give either --a/--b or --rs/--rd, not both")
    if scaled:
        if args.a is None or args.b is None:
            raise _UsageError("--a and --b must be given together")
        return (generators.radius_from_scale(args.a, n, t),
                generators.radius_from_scale(args.b, n, t))
    if args.rs is None or args.rd is None:
        raise _UsageError("radii required: --a/--b or --rs/--rd")
    return args.rs, args.rd


def _add_radii_flags(p: _Parser) -> None:
    p.add_argument("--a", type=_finite, default=None, help="scaled outer/same-cluster radius")
    p.add_argument("--b", type=_finite, default=None, help="scaled inner/cross-cluster radius")
    p.add_argument("--rs", type=_finite, default=None, help="raw outer/same-cluster radius")
    p.add_argument("--rd", type=_finite, default=None, help="raw inner/cross-cluster radius")


def build_parser() -> _Parser:
    p = _Parser(prog="gbm-lab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a block-model / annulus-graph instance")
    g.add_argument("--family", choices=["gbm", "rag"], default="gbm")
    g.add_argument("--n", type=_positive, required=True)
    g.add_argument("--t", type=_positive, default=1)
    _add_radii_flags(g)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", required=True, help="output path prefix")

    th = sub.add_parser("thresholds", help="print the 1-D threshold set as JSON")
    th.add_argument("--n", type=_positive, required=True)
    th.add_argument("--a", type=_finite, required=True)
    th.add_argument("--b", type=_finite, required=True)
    th.add_argument("--divergence-target", type=_finite, default=1.0)
    th.add_argument("--out", default="-")

    tb = sub.add_parser("table1", help="minimum recoverable a per b")
    tb.add_argument("--format", choices=["csv", "json"], default="csv")
    tb.add_argument("--out", default="-")

    rc = sub.add_parser("recover", help="triangle-count recovery on a 1-D instance")
    rc.add_argument("--in", dest="inp", required=True, help="graph file (from gen)")
    rc.add_argument("--a", type=_finite, required=True)
    rc.add_argument("--b", type=_finite, required=True)
    rc.add_argument("--divergence-target", type=_finite, default=None,
                    help="default: finite-size exponent 1 + 2 loglog n / log n")
    rc.add_argument("--decisions-csv", default=None, help="write per-edge u,v,count,kept")
    rc.add_argument("--out", default="-")

    rh = sub.add_parser("recover-hd", help="recovery on a sphere instance")
    rh.add_argument("--in", dest="inp", required=True)
    rh.add_argument("--t", type=_positive, required=True)
    _add_radii_flags(rh)
    rh.add_argument("--cs", type=_finite, default=1.0)
    rh.add_argument("--cd", type=_finite, default=1.0)
    rh.add_argument("--out", default="-")

    rl = sub.add_parser("recover-loc", help="location-aware recovery from embeddings")
    rl.add_argument("--in", dest="inp", required=True)
    rl.add_argument("--embeddings", required=True)
    _add_radii_flags(rl)
    rl.add_argument("--out", default="-")

    dn = sub.add_parser("dense", help="two-phase recovery over an edge-probe oracle")
    dn.add_argument("--n", type=_at_least(2), required=True)
    dn.add_argument("--t", type=_positive, default=2)
    _add_radii_flags(dn)
    dn.add_argument("--seed", type=_seed, default=0)
    dn.add_argument("--theta-s", type=_finite, default=0.93)
    dn.add_argument("--theta-d", type=_finite, default=1.0)
    dn.add_argument("--out", default="-")

    ph = sub.add_parser("phase", help="Monte-Carlo connectivity sweep, CSV per grid point")
    ph.add_argument("--n", type=_positive, required=True)
    ph.add_argument("--points", required=True,
                    help="comma-separated a:b pairs, e.g. 1.6:1.0,0.9:0.0")
    ph.add_argument("--trials", type=_positive, default=10)
    ph.add_argument("--seed", type=_seed, default=0)
    ph.add_argument("--family", choices=["rag1", "rag_t", "interval_union"], default="rag1")
    ph.add_argument("--t", type=_positive, default=1)
    ph.add_argument("--c", type=_finite, default=0.0,
                    help="short-band endpoint for the interval_union family")
    ph.add_argument("--jobs", type=_jobs, default=1)
    ph.add_argument("--format", choices=["csv", "json"], default="csv")
    ph.add_argument("--out", default="-")

    ev = sub.add_parser("eval", help="metrics from predicted and true label files")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", default="-")
    return p


def _cmd_gen(args) -> int:
    rs, rd = _resolve_radii(args, args.n, args.t)
    cfg = {"cmd": "gen", "family": args.family, "n": args.n, "t": args.t,
           "r_s": rs, "r_d": rd, "seed": args.seed}
    if args.family == "gbm":
        inst = (generators.gen_gbm1(args.n, rs, rd, args.seed) if args.t == 1
                else generators.gen_gbm_t(args.n, args.t, rs, rd, args.seed))
        g, emb, truth = inst.graph, inst.embeddings, inst.truth
    else:
        # for annulus graphs the radii act as the band [rd, rs]
        if args.t == 1:
            g, emb = generators.gen_rag1(args.n, rd, rs, args.seed)
        else:
            g, emb = generators.gen_rag_t(args.n, args.t, rd, rs, args.seed)
        truth = None
    graphio.write_graph(args.out + ".graph.txt", g, t=args.t)
    graphio.write_embeddings(args.out + ".embeddings.txt", emb)
    if truth is not None:
        graphio.write_labels(args.out + ".truth.txt", truth)
    _emit_json(args.out + ".meta.json", {"params": cfg, "n": g.n, "m": g.m})
    return 0


def _cmd_thresholds(args) -> int:
    ts = thresholds.thresholds_1d(args.n, args.a, args.b, args.divergence_target)
    _emit_json(args.out, {"params": {"cmd": "thresholds", "n": args.n, "a": args.a,
                                     "b": args.b, "divergence_target": args.divergence_target},
                          "thresholds": ts.to_dict()})
    return 0


def _cmd_table1(args) -> int:
    table = thresholds.min_a_table()
    if args.format == "json":
        _emit_json(args.out, {"params": {"cmd": "table1"},
                              "rows": [{"b": b, "min_a": a} for b, a in table]})
    else:
        rows = np.array([(b, f"{a:.2f}") for b, a in table], dtype=object)
        _emit_csv(args.out, "b,min_a", rows, {"cmd": "table1"})
    return 0


def _cmd_recover(args) -> int:
    g, _ = graphio.read_graph(args.inp)
    res = recovery.recover_gbm1(g, args.a, args.b,
                                divergence_target=args.divergence_target,
                                keep_decisions=args.decisions_csv is not None)
    if args.decisions_csv and res.decisions is not None:
        _emit_csv(args.decisions_csv, "u,v,count,kept",
                  res.decisions, {"cmd": "recover", "in": args.inp})
    _emit_json(args.out, {
        "params": {"cmd": "recover", "in": args.inp, "a": args.a, "b": args.b,
                   "divergence_target": res.thresholds.divergence_target},
        "thresholds": res.thresholds.to_dict(),
        "stats": res.stats,
        "labels": res.labels,
    })
    return 0


def _cmd_recover_hd(args) -> int:
    g, _ = graphio.read_graph(args.inp)
    t = args.t
    rs, rd = _resolve_radii(args, g.n, t)
    res = recovery.recover_gbm_hd(g, t, rs, rd, c_s=args.cs, c_d=args.cd)
    _emit_json(args.out, {
        "params": {"cmd": "recover-hd", "in": args.inp, "t": t, "r_s": rs, "r_d": rd,
                   "c_s": args.cs, "c_d": args.cd},
        "thresholds": res.thresholds.to_dict(),
        "stats": res.stats,
        "labels": res.labels,
    })
    return 0


def _cmd_recover_loc(args) -> int:
    g, _ = graphio.read_graph(args.inp)
    emb = graphio.read_embeddings(args.embeddings)
    rs, rd = _resolve_radii(args, g.n, 1)
    res = recovery.recover_with_locations(g, emb, rs, rd)
    _emit_json(args.out, {
        "params": {"cmd": "recover-loc", "in": args.inp, "r_s": rs, "r_d": rd},
        "status": res.status,
        "components_count": res.components_count,
        "constrained_pairs": res.constrained_pairs,
        "labels": res.labels,
    })
    return 0


def _cmd_dense(args) -> int:
    rs, rd = _resolve_radii(args, args.n, args.t)
    plan = thresholds.dense_plan(args.n, args.t, rs, rd, args.theta_s, args.theta_d)
    # the oracle answers from latent positions; no quadratic edge list is built
    emb = geometry.sample_sphere(rng.substream(args.seed), args.n, args.t)
    labels = np.zeros(args.n, np.int8)
    labels[args.n // 2:] = 1
    oracle = dense.GbmEdgeOracle(emb, labels, rs, rd)
    res = dense.dense_recover(oracle, args.n, args.t, rs, rd, plan, args.seed)
    total_pairs = args.n * (args.n - 1) // 2
    _emit_json(args.out, {
        "params": {"cmd": "dense", "n": args.n, "t": args.t, "r_s": rs, "r_d": rd,
                   "seed": args.seed, "theta_S": args.theta_s, "theta_D": args.theta_d},
        "plan": plan.to_dict(),
        "status": res.status,
        "queries_used": res.queries_used,
        "fraction_of_pairs": res.queries_used / total_pairs,
        "phase1_sizes": res.phase1_sizes,
        "ties": res.ties,
        "node_error_rate": analysis.node_error_rate(res.labels, labels),
        "labels": res.labels,
    })
    return 0


def _cmd_phase(args) -> int:
    pts = []
    for tok in args.points.split(","):
        ab = tok.split(":")
        if len(ab) != 2:
            raise ValueError(f"malformed point {tok!r} in --points; expected a:b")
        try:
            pts.append((_finite(ab[0]), _finite(ab[1])))
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"argument --points: {exc} in point {tok!r}") from None
    out = analysis.phase_sweep(args.n, pts, args.trials, args.seed,
                               family=args.family, t=args.t, c=args.c, jobs=args.jobs)
    cfg = {"cmd": "phase", "n": args.n, "trials": args.trials, "seed": args.seed,
           "family": args.family, "t": args.t, "c": args.c}
    if args.format == "json":
        _emit_json(args.out, {"params": cfg, "rows": [asdict(p) for p in out]})
    else:
        header = ",".join(f.name for f in fields(analysis.PhasePoint))
        _emit_csv(args.out, header, np.array([astuple(p) for p in out], dtype=object), cfg)
    return 0


def _cmd_eval(args) -> int:
    pred = graphio.read_labels(args.pred)
    truth = graphio.read_labels(args.truth)
    m = analysis.pair_f_score(pred, truth)
    _emit_json(args.out, {"params": {"cmd": "eval", "pred": args.pred, "truth": args.truth},
                          "metrics": m.to_dict()})
    return 0


_DISPATCH = {
    "gen": _cmd_gen, "thresholds": _cmd_thresholds, "table1": _cmd_table1,
    "recover": _cmd_recover, "recover-hd": _cmd_recover_hd, "recover-loc": _cmd_recover_loc,
    "dense": _cmd_dense, "phase": _cmd_phase, "eval": _cmd_eval,
}


def run(argv=None) -> int:
    """Run one command and return its exit code; the freed heap is trimmed after it."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except thresholds.RegimeError as exc:
        print(f"infeasible regime: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _trim_heap()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
