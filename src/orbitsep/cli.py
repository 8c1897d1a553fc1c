"""Command-line front end.

Subcommands map one-to-one onto library operations; instances are JSON files
(see README for the schemas), payload goes to stdout, diagnostics to stderr.
A subcommand exits with the code ``EXIT_FOR_STATUS`` gives its payload's
"status"; ``main`` gives the exit code of a failure that prints no payload.
"""

import argparse
import json
import re
import sys
from functools import cached_property, partial
from itertools import accumulate

from .actions import (
    GeneratedAction,
    OrbitBudget,
    find_escape,
    generator_from_json,
    orbit_stream,
    verify_isometry,
)
from .errors import (
    BudgetExhaustedError, InvalidInputError, NotIsometricError, OrbitsepError
)
from .oracle import (
    INSTANCE_KINDS,
    InstanceSpec,
    SplitMix64,
    differential_check,
    random_instance,
    ratio_experiment,
    sample_point,
)
from .rationals import check_int, check_positive, format_rational, parse_rational
from .separation import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    compact_result_to_json,
    discrete_weights,
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

# The exit code of every payload a subcommand prints, by its "status".
EXIT_FOR_STATUS = {
    "ok": EXIT_OK,
    "check-ok": EXIT_OK,
    "budget-exhausted": EXIT_BUDGET,
    "violations": EXIT_VIOLATION,
    "check-failed": EXIT_MISMATCH,
    "mismatch": EXIT_MISMATCH,
}


# Deeper documents are refused before decoding, so whether one decodes does
# not depend on how much of the interpreter's stack the caller already uses.
MAX_JSON_DEPTH = 256
_NOT_A_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[^][{}"]+')


def _json_depth(text):
    """The deepest nesting of arrays and objects; brackets in strings do not count."""
    brackets = _NOT_A_BRACKET.sub("", text)
    return max(accumulate(1 if b in "[{" else -1 for b in brackets), default=0)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if _json_depth(text) > MAX_JSON_DEPTH:
        raise InvalidInputError(
            f"bad JSON in {path}: nested deeper than {MAX_JSON_DEPTH} levels"
        )
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4300 digits
        raise InvalidInputError(f"bad JSON in {path}: {exc}") from exc


def _list(entries, what):
    if not isinstance(entries, list):
        raise InvalidInputError(f"{what} must be a JSON array, got {entries!r}")
    return entries


# Every top-level key an --in document may hold: the fields some subcommand
# reads, and the "kind" and "seed" that `instance` writes.
_INSTANCE_KEYS = frozenset(
    "space generators budget P Q p eps C D tuple n anchors obstacles kind seed".split()
)


class _Instance:
    """The --in document, read once; its space and action are built once each.

    A key outside ``_INSTANCE_KEYS`` is refused first, so a misspelt field
    is not silently dropped.  Fields are decoded when a subcommand asks for
    them, in the order it asks, so a malformed document reports its first
    bad field.
    """

    def __init__(self, path):
        self.path = path
        self.obj = _load_json(path)
        if isinstance(self.obj, dict):
            unknown = sorted(set(self.obj) - _INSTANCE_KEYS)
            if unknown:
                raise InvalidInputError(f"{path}: unknown field {unknown[0]!r}")
        self.space = space_from_json(self.field("space"))

    def field(self, key):
        if not isinstance(self.obj, dict) or key not in self.obj:
            raise InvalidInputError(f"{self.path}: missing required field {key!r}")
        return self.obj[key]

    @cached_property
    def action(self):
        gens = _list(self.field("generators"), "generators")
        return GeneratedAction(self.space, [generator_from_json(g) for g in gens])

    def point(self, key):
        return self.space.point_from_json(self.field(key))

    def points(self, key):
        entries = _list(self.field(key), "point list")
        return [self.space.point_from_json(e) for e in entries]

    def weighted(self, key, weight_key):
        out = []
        for e in _list(self.field(key), "weighted point list"):
            if not isinstance(e, dict) or "point" not in e or weight_key not in e:
                raise InvalidInputError(
                    f"weighted entry must have 'point' and {weight_key!r}"
                )
            weight = check_positive(parse_rational(e[weight_key]), weight_key)
            out.append((self.space.point_from_json(e["point"]), weight))
        return out

    def rational(self, key):
        return parse_rational(self.field(key))


def _budget(obj, args):
    """OrbitBudget from the instance's "budget", overridden by --budget-* flags."""
    spec = obj.get("budget", {})
    if not isinstance(spec, dict):
        raise InvalidInputError(f"budget must be a JSON object, got {spec!r}")
    flags = {"max_points": args.budget_points, "max_word_length": args.budget_len}
    fields = {k: spec[k] for k in flags if k in spec}
    fields.update((k, v) for k, v in flags.items() if v is not None)
    return OrbitBudget(**fields)


def _run(body, args):
    """One --in subcommand: ``body(instance, args)`` returns its payload and
    table lines; print one of them and exit with the code of its status."""
    payload, table_lines = body(_Instance(args.infile), args)
    print("\n".join(table_lines) if args.format == "table" else json.dumps(payload))
    return EXIT_FOR_STATUS[payload["status"]]


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
        for depth, level in enumerate(cert.trace):
            lines.append(
                f"level {depth}: pivot {json.dumps(space.point_to_json(level.pivot))}"
                f" eps {format_rational(level.eps)} escape {_word_str(level.escape)}"
                f" |Q0| {len(level.q0)} restarts {level.restarts} case {level.case}"
            )
    return lines


def _run_check(action, weighted, q_points, stored):
    problems = check_certificate(action, weighted, q_points, stored)
    if problems:
        payload = {"status": "check-failed", "problems": problems}
        return payload, ["check FAILED"] + [f"  {p}" for p in problems]
    return {"status": "check-ok"}, ["check ok"]


def _cmd_separate(doc, args):
    action = doc.action
    weighted = doc.weighted("P", "eps")
    q_points = doc.points("Q")
    if args.check:
        stored = certificate_from_json(doc.space, _load_json(args.check))
        return _run_check(action, weighted, q_points, stored)
    cert = separate_points(action, weighted, q_points, _budget(doc.obj, args))
    payload = certificate_to_json(doc.space, cert)
    return payload, _cert_tables(doc.space, cert, args.trace)


def _cmd_discrete(doc, args):
    action = doc.action
    points = doc.points("P")
    q_points = doc.points("Q")
    if args.check:  # a malformed certificate is reported before a refused metric
        stored = certificate_from_json(doc.space, _load_json(args.check))
        return _run_check(action, discrete_weights(doc.space, points), q_points, stored)
    cert = separate_discrete(action, points, q_points, _budget(doc.obj, args))
    payload = certificate_to_json(doc.space, cert)
    return payload, _cert_tables(doc.space, cert, args.trace)


def _cmd_compact(doc, args):
    result = separate_compact(
        doc.action, doc.weighted("C", "delta"), doc.points("D"), _budget(doc.obj, args)
    )
    lines = [
        f"epsilon   {format_rational(result.epsilon)}",
        f"|A| {len(result.net_a)}  |P| {len(result.net_p)}  |Q| {len(result.net_q)}",
    ] + _cert_tables(doc.space, result.certificate, args.trace)
    return compact_result_to_json(doc.space, result), lines


def _cmd_sequence(doc, args):
    action = doc.action
    tuple_points = doc.points("tuple")
    eps, n = doc.rational("eps"), doc.field("n")
    words = separated_sequence(action, tuple_points, eps, n, _budget(doc.obj, args))
    images = [
        [doc.space.point_to_json(x) for x in action.apply_word_all(w, tuple_points)]
        for w in words
    ]
    payload = {"status": "ok", "words": [list(w) for w in words], "images": images}
    return payload, [f"w{i}  {_word_str(w)}" for i, w in enumerate(words, 1)]


def _cmd_fullexist(doc, args):
    sigma, realization = full_existence_step(
        doc.action,
        doc.points("anchors"),
        doc.weighted("obstacles", "eps"),
        _budget(doc.obj, args),
    )
    realization = [doc.space.point_to_json(p) for p in realization]
    payload = {"status": "ok", "sigma": list(sigma), "realization": realization}
    lines = [f"sigma        {_word_str(sigma)}"] + [
        f"realization  {json.dumps(p)}" for p in realization
    ]
    return payload, lines


def _cmd_escape(doc, args):
    action = doc.action
    p = doc.point("p")
    word = find_escape(
        action, p, doc.points("Q"), doc.rational("eps"), _budget(doc.obj, args)
    )
    point = doc.space.point_to_json(action.apply_word(word, p))
    payload = {"status": "ok", "word": list(word), "point": point}
    return payload, [f"word   {_word_str(word)}", f"point  {json.dumps(point)}"]


def _cmd_orbit(doc, args):
    orbit = orbit_stream(doc.action, doc.point("p"), _budget(doc.obj, args))
    entries = [[doc.space.point_to_json(x), list(w)] for x, w in orbit]
    payload = {"status": "ok", "orbit": entries}
    return payload, [f"{json.dumps(pt)}  {_word_str(w)}" for pt, w in entries]


def _cmd_net(doc, args):
    net = greedy_epsilon_net(doc.space, doc.points("P"), doc.rational("eps"))
    net = [doc.space.point_to_json(p) for p in net]
    return {"status": "ok", "net": net}, [json.dumps(p) for p in net]


def _cmd_verify(doc, args):
    check_int(args.samples, "samples", 0)
    space = doc.space
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
    if "generators" in doc.obj:  # only a missing key means "metric only"
        pairs = [
            (sample_point(space, rng), sample_point(space, rng))
            for _ in range(args.samples)
        ]
        isometry_violations = verify_isometry(doc.action, pairs)
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
    return payload, lines


def _cmd_oracle(doc, args):
    action = doc.action
    instance = InstanceSpec(
        kind=doc.obj.get("kind", "file"),
        seed=doc.obj.get("seed", 0),
        space=doc.space,
        generators=action.generators,
        weighted_p=doc.weighted("P", "eps"),
        q_points=doc.points("Q"),
        budget=_budget(doc.obj, args),
    )
    certificate = None
    if args.certificate:
        certificate = certificate_from_json(doc.space, _load_json(args.certificate))
    report = differential_check(
        instance, oracle_bound=args.bound, certificate=certificate
    )
    lines = [f"status: {report.status}"] + [f"  {p}" for p in report.problems]
    return report.to_json(), lines


def _cmd_experiment(args):
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
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
        """A subcommand reading --in, run by ``_run``; each flag is added only
        where it is read."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, metavar="PATH")
        if name not in ("net", "verify"):  # the others search orbits
            p.add_argument("--budget-points", type=int, default=None, metavar="N")
            p.add_argument("--budget-len", type=int, default=None, metavar="N")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if name in ("separate", "discrete", "compact"):  # certificate tables
            p.add_argument("--trace", action="store_true")
        p.set_defaults(func=partial(_run, func))
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
    except NotIsometricError as exc:
        print(f"isometry violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OrbitsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("out of memory: the work asked for does not fit", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
