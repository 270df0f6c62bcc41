"""Command-line front end: graph generation, rate experiments, basis finding.

Every subcommand that produces a report prints JSON (rates as num/den
strings) to stdout or --out, and can mirror the rates to a CSV for plotting.
Enumeration is the default; --sample N switches to seeded Monte Carlo.
"""

import argparse
import csv
import json
import sys

from .basisfind import ClaimViolation, Constants, PreconditionError, find_basis
from .experiments import (
    _rat,
    connectivity_experiment,
    cyclefree_experiment,
    gen_graph,
    graph_summary,
    instance_label,
    load_graph,
    reweight_then_connectivity,
    sparsify_experiment,
    unique_cut_survival_experiment,
    unique_cycle_survival_experiment,
)
from .graph import _as_fraction
from .matroid import OracleSession
from .samplespace import SupportTooLargeError, build_space, dump_blocks, verify_independence


def _parse_params(text):
    """Comma-separated key=value pairs; a value is an int, or ints joined by
    ':' for an int list, e.g. lengths=3:4:5."""
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        try:
            ints = [int(x) for x in raw.split(":")]
        except ValueError:
            raise ValueError(
                f"parameter {key!r} must be an int or ints joined by ':', not {raw.strip()!r}"
            ) from None
        out[key] = ints if ":" in raw else ints[0]
    return out


def _graph_from_args(args):
    if getattr(args, "graph", None):
        return load_graph(args.graph), f"file:{args.graph}"
    if getattr(args, "family", None):
        params = _parse_params(args.params)
        seed = getattr(args, "gen_seed", 0)
        return gen_graph(args.family, params, seed=seed), instance_label(
            args.family, params, seed
        )
    raise ValueError("need --graph FILE or --family NAME")


def _space_from_args(m, args):
    return build_space(m, args.k, _as_fraction(args.delta, "delta"), args.marginal_L)


def _mode_kwargs(args):
    if args.sample is not None:
        return {"mode": "sample", "trials": args.sample, "seed": args.seed}
    return {"mode": "enumerate"}


def _constants_file(args, types) -> dict:
    """The --constants file as read: a JSON object whose keys are among
    those of types and whose values are of their key's types (never a bool)."""
    if args.constants is None:
        return {}
    with open(args.constants) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ValueError(f"--constants must hold a JSON object, not {type(blob).__name__}")
    unknown = set(blob) - set(types)
    if unknown:
        raise ValueError(f"unknown constants: {sorted(unknown)}")
    for key, value in blob.items():
        if isinstance(value, bool) or not isinstance(value, types[key]):
            names = " or ".join(t.__name__ for t in types[key])
            raise ValueError(f"constant {key!r} must be {names}, not {value!r}")
    return blob


def _emit(args, payload: str, rates=None):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")
    if getattr(args, "csv", None) and rates is not None:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["rate", "value"])
            for name in sorted(rates):
                w.writerow([name, rates[name]])


def _emit_report(args, report):
    blob = json.loads(report.to_json())
    _emit(args, json.dumps(blob, sort_keys=True, indent=2), rates=blob["rates"])


# -- subcommand bodies -------------------------------------------------------


def _cmd_gen(args):
    g, label = _graph_from_args(args)
    payload = g.to_json() if args.json else g.to_text()
    _emit(args, payload.removesuffix("\n"))
    summary = dict(graph_summary(g), generator=label)
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _parse_edges(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_experiment(args):
    """A rate experiment over a graph's edges; --edges names a target set."""
    g, label = _graph_from_args(args)
    space = _space_from_args(g.m, args)
    target = () if getattr(args, "edges", None) is None else (_parse_edges(args.edges),)
    report = args.experiment(
        g, *target, space, generator=label, budget=args.budget, **_mode_kwargs(args)
    )
    _emit_report(args, report)
    return 0


# (name, JSON types in a --constants file, parse, default) of each pipeline
# knob: an explicit flag wins over a --constants file, which wins over the default
_PIPELINE_KNOBS = (
    ("k", (int,), int, 2),
    ("epsilon", (int, float), float, 0.5),
    # a rate such as 1/4 or 0.25
    ("delta", (int, float, str), lambda x: float(_as_fraction(x, "delta")), 0.25),
    ("rate_scale", (int, float), float, 1.0),
    ("max_level", (int,), int, 20),
)


def _cmd_pipeline(args):
    g, label = _graph_from_args(args)
    knobs = _constants_file(args, {name: types for name, types, _, _ in _PIPELINE_KNOBS})
    given = vars(args)
    values = {
        name: parse(knobs.get(name, default) if given[name] is None else given[name])
        for name, _, parse, default in _PIPELINE_KNOBS
    }
    report = args.pipeline(
        g, generator=label, budget=args.budget, **values, **_mode_kwargs(args)
    )
    _emit_report(args, report)
    return 0


def _cmd_find_basis(args):
    g, label = _graph_from_args(args)
    base = Constants.desk().to_dict()
    # float knobs take any JSON number, int knobs only an int
    types = {name: (int, float) if isinstance(v, float) else (int,) for name, v in base.items()}
    constants = Constants(**{**base, **_constants_file(args, types)})
    session = OracleSession(g, args.kind)
    report = find_basis(
        session,
        constants=constants,
        mode="sample" if args.sample is not None else "enumerate",
        sample_count=args.sample if args.sample is not None else 1024,
        seed=args.seed,
    )
    blob = report.to_dict()
    blob["generator"] = label
    _emit(args, json.dumps(blob, sort_keys=True, indent=2))
    return 0


def _cmd_verify_space(args):
    space = _space_from_args(args.n, args)
    if args.dump:
        sys.stdout.writelines(dump_blocks(space, args.budget))
        return 0
    rep = verify_independence(space, k_check=args.k_check, budget=args.budget)
    blob = {
        "descriptor": space.descriptor(),
        "seed_bits": space.seed_bits,
        "max_tv": _rat(rep.max_tv),
        "worst_subset": list(rep.worst_subset),
        "subsets_tested": rep.subsets_tested,
        "certified_delta": _rat(space.params.delta),
        "ok": rep.max_tv <= space.params.delta,
    }
    _emit(args, json.dumps(blob, sort_keys=True, indent=2))
    return 0


# -- parser wiring -----------------------------------------------------------


def _add_graph_flags(p):
    p.add_argument("--graph", help="graph file (text or JSON)")
    p.add_argument("--family", help="generator family name")
    p.add_argument("--params", default="", help="k=v,... of ints (':' joins an int list)")
    p.add_argument("--gen-seed", type=int, default=0, help="generator seed")


def _add_space_flags(p):
    p.add_argument("--k", type=int, default=2, help="independence order")
    p.add_argument("--delta", default="0", help="near-uniformity slack, e.g. 1/8")
    p.add_argument("--marginal-L", type=int, default=1, dest="marginal_L",
                   help="AND groups of L bits for marginal 2^-L")


def _add_run_flags(p):
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="Monte Carlo with N seeded draws instead of enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="support size cap")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="also write rates as CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgewise", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and print it")
    _add_graph_flags(p)
    p.add_argument("--json", action="store_true", help="JSON instead of text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    experiments = (
        ("connectivity", "rate", connectivity_experiment),
        ("cyclefree", "rate", cyclefree_experiment),
        ("unique-cut", "survival", unique_cut_survival_experiment),
        ("unique-cycle", "survival", unique_cycle_survival_experiment),
    )
    for name, what, experiment in experiments:
        p = sub.add_parser(name, help=f"{name} {what} experiment")
        _add_graph_flags(p)
        _add_space_flags(p)
        _add_run_flags(p)
        if what == "survival":
            p.add_argument("--edges", required=True, help="target edge ids, comma-separated")
        p.set_defaults(fn=_cmd_experiment, experiment=experiment)

    for name, pipeline in (("sparsify", sparsify_experiment), ("reweight", reweight_then_connectivity)):
        p = sub.add_parser(name, help=f"{name} experiment")
        _add_graph_flags(p)
        _add_run_flags(p)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--delta", default=None, help="failure budget, e.g. 0.25")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--rate-scale", type=float, default=None, dest="rate_scale")
        p.add_argument("--max-level", type=int, default=None, dest="max_level")
        p.add_argument("--constants", default=None,
                       help="JSON file of default knobs; explicit flags win")
        p.set_defaults(fn=_cmd_pipeline, pipeline=pipeline)

    p = sub.add_parser("find-basis", help="derandomized basis finding")
    _add_graph_flags(p)
    p.add_argument("--kind", choices=("graphic", "cographic"), required=True)
    p.add_argument("--constants", default=None, help="JSON overrides for the desk profile")
    p.add_argument("--sample", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_find_basis)

    p = sub.add_parser("verify-space", help="measure a space's independence defect")
    p.add_argument("--n", type=int, required=True, help="coordinate count")
    _add_space_flags(p)
    p.add_argument("--k-check", type=int, default=None, dest="k_check")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--dump", action="store_true",
                   help="print support bitstrings instead of verifying")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify_space)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, PreconditionError, SupportTooLargeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ClaimViolation as exc:
        # a theorem-level guarantee failed at the scale it was run at
        sys.stderr.write(f"claim violated: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
