"""Command-line front end.

Subcommands map one-to-one onto library operations; instances are JSON files
(see README for the schemas), payload goes to stdout, diagnostics to stderr.

Exit codes: 0 success, 2 budget exhausted, 3 invalid input, schema or
usage, 4 metric/isometry violation detected, 5 differential or certificate
mismatch.
"""

import argparse
import json
import sys

from .actions import (
    GeneratedAction,
    OrbitBudget,
    find_escape,
    generator_from_json,
    orbit_stream,
    verify_isometry,
)
from .errors import BudgetExhaustedError, InvalidInputError, OrbitsepError
from .oracle import (
    INSTANCE_KINDS,
    InstanceSpec,
    SplitMix64,
    differential_check,
    random_instance,
    ratio_experiment,
    sample_point,
)
from .rationals import check_positive, format_rational, parse_rational
from .separation import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    compact_result_to_json,
    full_existence_step,
    separate_compact,
    separate_discrete,
    separate_points,
    separated_sequence,
)
from .spaces import greedy_epsilon_net, space_from_json, validate_metric

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3
EXIT_VIOLATION = 4
EXIT_MISMATCH = 5


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InvalidInputError(f"bad JSON in {path}: {exc}") from exc


def _require(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise InvalidInputError(f"{path}: missing required field {key!r}")
    return obj[key]


def _list(entries, what):
    if not isinstance(entries, list):
        raise InvalidInputError(f"{what} must be a JSON array, got {entries!r}")
    return entries


def _build_action(obj, path):
    space = space_from_json(_require(obj, "space", path))
    gens = _list(_require(obj, "generators", path), "generators")
    return GeneratedAction(space, [generator_from_json(g) for g in gens])


def _parse_points(space, entries):
    return [space.point_from_json(e) for e in _list(entries, "point list")]


def _parse_weighted(space, entries, key):
    out = []
    for e in _list(entries, "weighted point list"):
        if not isinstance(e, dict) or "point" not in e or key not in e:
            raise InvalidInputError(f"weighted entry must have 'point' and {key!r}")
        weight = check_positive(parse_rational(e[key]), key)
        out.append((space.point_from_json(e["point"]), weight))
    return out


def _budget(obj, args):
    """OrbitBudget from the instance's "budget", overridden by --budget-* flags."""
    spec = obj.get("budget", {})
    if not isinstance(spec, dict):
        raise InvalidInputError(f"budget must be a JSON object, got {spec!r}")
    flags = {"max_points": args.budget_points, "max_word_length": args.budget_len}
    fields = {k: spec[k] for k in flags if k in spec}
    fields.update((k, v) for k, v in flags.items() if v is not None)
    return OrbitBudget(**fields)


def _emit(payload, args, table_lines=None):
    if getattr(args, "format", "json") == "table" and table_lines is not None:
        print("\n".join(table_lines))
    else:
        print(json.dumps(payload))


def _word_str(word):
    return "[" + " ".join(str(s) for s in word) + "]"


def _cert_tables(space, cert, show_trace):
    lines = [
        f"word      {_word_str(cert.word)}",
        f"ratio     {format_rational(cert.ratio)}",
    ]
    for p, d in cert.achieved:
        lines.append(
            f"achieved  {json.dumps(space.point_to_json(p))} -> {format_rational(d)}"
        )
    if show_trace and cert.trace is not None:
        for depth, level in enumerate(cert.trace.levels()):
            lines.append(
                f"level {depth}: pivot {json.dumps(space.point_to_json(level.pivot))}"
                f" eps {format_rational(level.eps)} escape {_word_str(level.escape)}"
                f" |Q0| {len(level.q0)} restarts {level.restarts} case {level.case}"
            )
    return lines


def _run_check(action, weighted, q_points, args):
    stored = certificate_from_json(action.space, _load_json(args.check))
    problems = check_certificate(action, weighted, q_points, stored)
    if problems:
        _emit(
            {"status": "check-failed", "problems": problems},
            args,
            ["check FAILED"] + [f"  {p}" for p in problems],
        )
        return EXIT_MISMATCH
    _emit({"status": "check-ok"}, args, ["check ok"])
    return EXIT_OK


def _cmd_separate(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    weighted = _parse_weighted(action.space, _require(obj, "P", args.infile), "eps")
    q_points = _parse_points(action.space, _require(obj, "Q", args.infile))
    if args.check:
        return _run_check(action, weighted, q_points, args)
    cert = separate_points(action, weighted, q_points, _budget(obj, args))
    payload = certificate_to_json(action.space, cert)
    _emit(payload, args, _cert_tables(action.space, cert, args.trace))
    return EXIT_OK


def _cmd_discrete(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    points = _parse_points(action.space, _require(obj, "P", args.infile))
    q_points = _parse_points(action.space, _require(obj, "Q", args.infile))
    if args.check:
        weighted = [(p, parse_rational(1)) for p in points]
        return _run_check(action, weighted, q_points, args)
    cert = separate_discrete(action, points, q_points, _budget(obj, args))
    payload = certificate_to_json(action.space, cert)
    _emit(payload, args, _cert_tables(action.space, cert, args.trace))
    return EXIT_OK


def _cmd_compact(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    c_weighted = _parse_weighted(action.space, _require(obj, "C", args.infile), "delta")
    d_points = _parse_points(action.space, _require(obj, "D", args.infile))
    result = separate_compact(action, c_weighted, d_points, _budget(obj, args))
    payload = compact_result_to_json(action.space, result)
    lines = [
        f"epsilon   {format_rational(result.epsilon)}",
        f"|A| {len(result.net_a)}  |P| {len(result.net_p)}  |Q| {len(result.net_q)}",
    ] + _cert_tables(action.space, result.certificate, args.trace)
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_sequence(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    tuple_points = _parse_points(action.space, _require(obj, "tuple", args.infile))
    eps = parse_rational(_require(obj, "eps", args.infile))
    n = _require(obj, "n", args.infile)
    words = separated_sequence(action, tuple_points, eps, n, _budget(obj, args))
    space = action.space
    images = [
        [space.point_to_json(action.apply_word(w, t)) for t in tuple_points]
        for w in words
    ]
    payload = {"status": "ok", "words": [list(w) for w in words], "images": images}
    lines = [f"w{i}  {_word_str(w)}" for i, w in enumerate(words, 1)]
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_fullexist(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    anchors = _parse_points(action.space, _require(obj, "anchors", args.infile))
    obstacles = _parse_weighted(
        action.space, _require(obj, "obstacles", args.infile), "eps"
    )
    sigma, realization = full_existence_step(
        action, anchors, obstacles, _budget(obj, args)
    )
    space = action.space
    payload = {
        "status": "ok",
        "sigma": list(sigma),
        "realization": [space.point_to_json(p) for p in realization],
    }
    lines = [f"sigma        {_word_str(sigma)}"] + [
        f"realization  {json.dumps(space.point_to_json(p))}" for p in realization
    ]
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_escape(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    p = action.space.point_from_json(_require(obj, "p", args.infile))
    q_points = _parse_points(action.space, _require(obj, "Q", args.infile))
    eps = parse_rational(_require(obj, "eps", args.infile))
    word = find_escape(action, p, q_points, eps, _budget(obj, args))
    moved = action.apply_word(word, p)
    payload = {
        "status": "ok",
        "word": list(word),
        "point": action.space.point_to_json(moved),
    }
    lines = [f"word   {_word_str(word)}", f"point  {json.dumps(payload['point'])}"]
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_orbit(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    p = action.space.point_from_json(_require(obj, "p", args.infile))
    space = action.space
    entries = [
        [space.point_to_json(x), list(w)]
        for x, w in orbit_stream(action, p, _budget(obj, args))
    ]
    payload = {"status": "ok", "orbit": entries}
    lines = [f"{json.dumps(pt)}  {_word_str(w)}" for pt, w in entries]
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_net(args):
    obj = _load_json(args.infile)
    space = space_from_json(_require(obj, "space", args.infile))
    points = _parse_points(space, _require(obj, "P", args.infile))
    eps = parse_rational(_require(obj, "eps", args.infile))
    net = greedy_epsilon_net(space, points, eps)
    payload = {"status": "ok", "net": [space.point_to_json(p) for p in net]}
    _emit(payload, args, [json.dumps(space.point_to_json(p)) for p in net])
    return EXIT_OK


def _cmd_verify(args):
    obj = _load_json(args.infile)
    space = space_from_json(_require(obj, "space", args.infile))
    rng = SplitMix64(args.seed)
    triples = [
        (
            sample_point(space, rng),
            sample_point(space, rng),
            sample_point(space, rng),
        )
        for _ in range(args.samples)
    ]
    metric_violations = validate_metric(space, triples)
    isometry_violations = []
    if obj.get("generators"):
        action = _build_action(obj, args.infile)
        pairs = [
            (sample_point(space, rng), sample_point(space, rng))
            for _ in range(args.samples)
        ]
        isometry_violations = verify_isometry(action, pairs)
    ok = not metric_violations and not isometry_violations
    payload = {
        "status": "ok" if ok else "violations",
        "metric_violations": [v.to_json(space) for v in metric_violations],
        "isometry_violations": [v.to_json(space) for v in isometry_violations],
    }
    lines = [f"metric violations: {len(metric_violations)}"] + [
        f"  {v!r}" for v in metric_violations
    ]
    lines += [f"isometry violations: {len(isometry_violations)}"] + [
        f"  {v!r}" for v in isometry_violations
    ]
    _emit(payload, args, lines)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_oracle(args):
    obj = _load_json(args.infile)
    action = _build_action(obj, args.infile)
    weighted = _parse_weighted(action.space, _require(obj, "P", args.infile), "eps")
    q_points = _parse_points(action.space, _require(obj, "Q", args.infile))
    instance = InstanceSpec(
        kind=obj.get("kind", "file"),
        seed=obj.get("seed", 0),
        space=action.space,
        generators=action.generators,
        weighted_p=weighted,
        q_points=q_points,
        budget=_budget(obj, args),
    )
    certificate = None
    if args.certificate:
        certificate = certificate_from_json(action.space, _load_json(args.certificate))
    report = differential_check(
        instance, oracle_bound=args.bound, certificate=certificate
    )
    payload = report.to_json()
    lines = [f"status: {report.status}"] + [f"  {p}" for p in report.problems]
    _emit(payload, args, lines)
    if report.status == "budget-exhausted":
        return EXIT_BUDGET
    return EXIT_OK if report.status == "ok" else EXIT_MISMATCH


def _cmd_experiment(args):
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in INSTANCE_KINDS:
            raise InvalidInputError(f"unknown kind {kind!r}; have {INSTANCE_KINDS}")
        if kind == "compact1d":  # C and D, not the P and Q a row compares
            raise InvalidInputError("differential_check expects a P/Q instance")
    result = ratio_experiment(
        kinds, args.n, args.seed, budget=_budget({}, args), oracle_bound=args.bound
    )
    sys.stdout.write(result.csv_text)
    if result.min_ratio is not None:
        print(
            f"minimum certificate ratio: {format_rational(result.min_ratio)}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_instance(args):
    instance = random_instance(args.kind, args.seed)
    print(json.dumps(instance.to_json()))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which here means "unknown"
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="orbitsep",
        description="Constructive separation of finite sets under isometric "
        "group actions, with exact rational certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        """A subcommand reading --in; each flag is added only where it is read."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, metavar="PATH")
        if name not in ("net", "verify"):  # the others search orbits
            p.add_argument("--budget-points", type=int, default=None, metavar="N")
            p.add_argument("--budget-len", type=int, default=None, metavar="N")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if name in ("separate", "discrete", "compact"):  # certificate tables
            p.add_argument("--trace", action="store_true")
        p.set_defaults(func=func)
        return p

    p = add("separate", _cmd_separate, "separate a weighted set P from Q")
    p.add_argument("--check", metavar="CERT", help="re-verify a stored certificate")
    p = add("discrete", _cmd_discrete, "discrete-metric separation: g.P disjoint from Q")
    p.add_argument("--check", metavar="CERT")
    add("compact", _cmd_compact, "uniform-radius separation of C from D")
    add("sequence", _cmd_sequence, "place n copies of a tuple pairwise far apart")
    add("fullexist", _cmd_fullexist, "move obstacles off anchors, pull anchors back")
    add("escape", _cmd_escape, "first orbit word clearing Q by eps")
    add("orbit", _cmd_orbit, "dump the budgeted orbit of a point")
    add("net", _cmd_net, "greedy epsilon-net of a point list")
    p = add("verify", _cmd_verify, "check metric axioms and generator isometry")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = add("oracle", _cmd_oracle, "differential check against brute force")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--certificate", metavar="CERT", default=None)
    p = sub.add_parser("experiment", help="seeded ratio experiment, CSV on stdout")
    p.add_argument("--kinds", default="zd2")
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--budget-points", type=int, default=None)
    p.add_argument("--budget-len", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)
    p = sub.add_parser("instance", help="print a seeded random instance")
    p.add_argument("--kind", choices=INSTANCE_KINDS, default="zd2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_instance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(
            json.dumps(
                {
                    "status": "budget-exhausted",
                    "explored": exc.explored,
                    "detail": str(exc),
                    "partial_levels": exc.partial_levels,
                }
            )
        )
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:  # the solver recurses once per point of P
        print("unknown: instance too large for the recursion limit", file=sys.stderr)
        return EXIT_BUDGET
    except OrbitsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
