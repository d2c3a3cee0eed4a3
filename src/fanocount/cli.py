"""Command-line interface: every computation in the library, with
machine-readable output, a regression command over the full table of
published anchor values, and a sweep mode for grids of inputs.

Exit codes: 0 on success, 2 when the inputs fall outside a formula's regime
(a distinct code so scripted sweeps can tell "not applicable" from
"broken"), 1 on internal inconsistency, 141 (the shell's status for SIGPIPE)
when the reader of stdout closed it before the output was written.

All numeric output is rendered as exact decimal strings (or p/q for
non-integers); no value ever passes through floating point.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

# a route's module is imported when it runs (``_call``), and batch when a batch subcommand does
from .errors import DEFAULT_SEED, InconsistencyError, ProblemSpec, RegimeError

__all__ = ["CommandRequest", "ResultEnvelope", "main", "paper_check", "run", "sweep_rows"]

CSV_HEADER = "d,r,k,gamma,delta,value,method"


class Route(NamedTuple):
    """A --method entry: ``attr`` of the package module ``module``, looked up as it runs (so a
    wrapper installed there runs, and no subcommand loads a module it does not run), and each
    result it fills, unless None: (name, attribute path in its value or "" for it, provenance)."""

    method: str
    module: str
    attr: str
    fills: tuple[tuple[str, str, str], ...]
    seeded: bool = False     # the callable takes seed=
    advisory: bool = False   # no route: both runs it after the routes, with reference=


class Command(NamedTuple):
    """A subcommand: its routes take (d, r[, k]) of one degree if ``hypersurface``, else a spec."""

    help: str
    routes: tuple[Route, ...]   # in --method order, the default first
    notes: Callable = lambda *args: ()   # (*args, first route's value) -> results after theirs
    hypersurface: bool = False
    takes_k: bool = True


_CODIM, _IRREGULARITY, _PICARD = ("codimension-arithmetic", "irregularity-classification",
                                  "picard-classification")
_COMMANDS = {
    "planes": Command("degree of the locus of hypersurfaces containing a k-plane", (
        Route("dm", "extraction", "deg_planes_dm",
              (("deg", "", "vandermonde-coefficient-extraction"),)),
        Route("bott", "planes", "deg_planes_bott", (("deg", "", "fixed-point-residue-sum"),),
              seeded=True)),
        hypersurface=True),
    "ci-planes": Command(
        "degree of the containing-a-k-plane locus in a linear system on a complete intersection",
        (Route("extraction", "extraction", "deg_ci_planes",
               (("deg", "", "ci-coefficient-extraction"),)),),
        lambda spec, _: [("gamma", spec.gamma, _CODIM)]),
    "fano-degree": Command("Plucker degree of the Fano scheme", (
        Route("extraction", "extraction", "deg_fano",
              (("deg", "", "plucker-coefficient-extraction"),)),),
        lambda spec, _: [("gamma", spec.gamma, _CODIM), ("delta", spec.delta, _CODIM)]),
    "surface": Command("invariants of a Fano surface (delta = 2)", (
        Route("extraction", "invariants", "surface_invariants", (
            ("deg", "deg_f", "plucker-coefficient-extraction"),
            ("c2", "c2_integral", "schubert-c2-extraction"),
            ("A", "a_coeff", "tangent-chern-combination"),
            ("B", "b_coeff", "tangent-chern-combination"),
            ("e", "euler", "chern-number-combination"),
            ("K2", "k_delta", "canonical-self-intersection"),
            ("chi", "chi_o", "noether-quotient"), ("p_a", "p_a", "noether-quotient"),
            ("signature", "signature", "signature-formula"),
            ("c1_coeff", "c1_coeff", "canonical-class-multiple"))),),
        lambda _, report: [(f"{name}_{i}", getattr(c, name), "sym-power-chern-coeffs")
                           for i, c in enumerate(report.per_degree, start=1)
                           for name in ("alpha", "beta", "gamma")]),
    "irregularity": Command("irregularity classification", (
        Route("classification", "classification", "irregularity_classify", (
            ("case", "case.value", _IRREGULARITY), ("k", "k", _IRREGULARITY),
            ("note", "note", _IRREGULARITY))),)),
    "picard": Command("Picard number of the very general member", (
        Route("classification", "classification", "picard_number", (
            ("rho", "rho", _PICARD), ("components", "components", _PICARD),
            ("note", "note", _PICARD))),)),
    "conics": Command("degree of the locus of hypersurfaces containing a conic", (
        Route("bott", "conics", "deg_conics", (("deg", "", "twisted-fixed-point-sum"),),
              seeded=True),
        Route("closed", "conics", "deg_conics_closed", (
            ("closed_form", "value", "closed-form-eta(1,1,1)"),
            ("closed_matches_fixed_point", "consistent", "cross-method-comparison"),
            ("closed_to_fixed_point_ratio", "ratio", "cross-method-comparison")),
            seeded=True, advisory=True)),
        lambda d, r, _: [("halved", True, "two-conics-on-general-quartic")]
        * import_module(".conics", __package__).ConicProblem(d, r).two_conics,
        hypersurface=True, takes_k=False),
}

# sweep target -> the method column of its rows: its default route's, which computes them
_SWEEP_TARGETS = {name: _COMMANDS[name].routes[0].method for name in ("planes", "fano-degree")}

# batch subcommand -> (help, {flag: (int, str or the choices, default, help)}), where a
# default of None marks a required flag; the sweep also takes its target
_BATCH_COMMANDS = {
    "paper-check": ("run the full table of published anchor values", {}),
    "sweep": ("grid sweep, CSV on stdout", {
        "d": (str, None, "degrees: comma list of ints, lo..hi ranges, or a+b multidegrees"),
        "r": (str, None, "r values: comma list or lo..hi"),
        "k": (str, None, "k values: comma list or lo..hi")}),
}

# (exception class, envelope status, stderr label, exit code); the first match wins
_FAILURES = ((RegimeError, "regime-error", "regime error", 2),
             (ValueError, "regime-error", "parameter error", 2),
             (InconsistencyError, "inconsistency", "internal inconsistency", 1))


def format_exact(value) -> str:
    """Exact decimal string for ints, p/q for non-integer rationals,
    true/false for flags."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with each inner quote doubled, only when it
    holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# json.dumps's short escapes; any other character outside ' '..'~' is written as \uXXXX
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}


def _json_char(c: str) -> str:
    n = ord(c)
    if n > 0xFFFF:   # a surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return _JSON_ESCAPES.get(c) or (c if " " <= c <= "~" else f"\\u{n:04x}")


def _json(value) -> str:
    """A str, or a dict of str keys and such values, byte for byte as ``json.dumps(value,
    sort_keys=True, separators=(",", ":"))`` writes it, without loading ``json``."""
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json(k)}:{_json(v)}" for k, v in sorted(value.items())) + "}"
    if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
        value = "".join(map(_json_char, value))
    return f'"{value}"'


class CommandRequest(NamedTuple):
    subcommand: str
    degrees: tuple[int, ...] = ()
    r: int = 0
    k: int = 0
    method: str | None = None      # None: the subcommand's default
    format: str = "table"
    seed: int = DEFAULT_SEED


class ResultEnvelope:
    """Inputs echo, named exact results with provenance, and a status."""

    __slots__ = ("inputs", "results", "status")

    def __init__(self, inputs: dict[str, str], status: str = "ok"):
        self.inputs = inputs
        self.results: dict[str, dict[str, str]] = {}
        self.status = status

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.inputs, self.results, self.status) \
            == (other.inputs, other.results, other.status)

    def __repr__(self) -> str:
        return (f"ResultEnvelope(inputs={self.inputs!r}, results={self.results!r}, "
                f"status={self.status!r})")

    def put(self, name: str, value, provenance: str) -> None:
        self.results[name] = {"value": format_exact(value), "provenance": provenance}

    def to_json(self) -> str:
        return _json({"inputs": self.inputs, "results": self.results, "status": self.status})

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            lines = ["name,value,provenance"]
            lines += [",".join(map(_csv_field, (name, entry["value"], entry["provenance"])))
                      for name, entry in self.results.items()]
            return "\n".join(lines)
        width = max((len(n) for n in self.results), default=0)
        lines = [f"{name:<{width}}  {entry['value']}    [{entry['provenance']}]"
                 for name, entry in self.results.items()]
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


def _methods(command: Command) -> tuple[str, ...]:   # every entry, and both if there are two
    return (*(entry.method for entry in command.routes), "both") if command.routes[1:] else ()


def _echo_inputs(request: CommandRequest) -> dict[str, str]:
    command = _COMMANDS[request.subcommand]
    echo = {"subcommand": request.subcommand, "format": request.format, "seed": str(request.seed),
            "d": ",".join(map(str, request.degrees)), "r": str(request.r), "k": str(request.k),
            "method": request.method}
    unused = {"d": not request.degrees, "k": not command.takes_k, "method": not _methods(command)}
    return {name: text for name, text in echo.items() if not unused.get(name)}


def _call(entry: Route, args: tuple, seed: int, **keywords) -> tuple[object, list[tuple]]:
    """``entry``'s value at ``args``, and the (name, value, provenance) of each result it fills."""
    value = getattr(import_module(f".{entry.module}", __package__), entry.attr)(
        *args, **keywords, **({"seed": seed} if entry.seeded else {}))
    return value, [(name, got, provenance) for name, path, provenance in entry.fills
                   if (got := attrgetter(path)(value) if path else value) is not None]


def run(request: CommandRequest) -> ResultEnvelope:
    """Run one envelope subcommand by the entry its method names.  ``both`` runs every route,
    and they must agree: on their values, or on refusing with one regime code."""
    sub = request.subcommand
    if sub not in _COMMANDS:
        raise ValueError(f"unknown subcommand {sub!r}")
    command, choices = _COMMANDS[sub], _methods(_COMMANDS[sub])
    method = request.method or (choices[0] if choices else None)
    if method is not None and method not in choices:
        raise ValueError(f"{sub} takes a method from {choices}, got {method!r}")
    # the echo shows the method that runs
    envelope = ResultEnvelope(inputs=_echo_inputs(request._replace(method=method)))
    if command.hypersurface and len(request.degrees) != 1:
        raise RegimeError("hypersurface-only",
                          f"{sub} takes a single degree, got {request.degrees}")
    args = ((request.degrees[0], request.r, request.k)[:2 + command.takes_k]
            if command.hypersurface else (ProblemSpec(request.degrees, request.r, request.k),))
    entries = [entry for entry in command.routes if method in ("both", None, entry.method)]
    routes = [entry for entry in entries if not entry.advisory]
    outcomes = []   # each route's value and results, or its refusal
    for route in routes:
        try:
            outcomes.append((*_call(route, args, request.seed), None))
        except RegimeError as exc:
            outcomes.append((None, [], exc))
    verdicts = [f"refuses ({exc.code})" if exc else "gives " + ", ".join(
        format_exact(value) for _, value, _ in found) for _, found, exc in outcomes]
    if len(set(verdicts)) > 1:
        at = " ".join(f"{n}={envelope.inputs[n]}" for n in "drk" if n in envelope.inputs)
        raise InconsistencyError(f"{sub} routes disagree at {at}: " + ", ".join(
            f"{route.method} {verdict}" for route, verdict in zip(routes, verdicts)))
    if outcomes and outcomes[0][2]:
        raise outcomes[0][2]   # every route refused, with the same code
    results = [(f"{name}_{route.method}" if routes[1:] else name, *result)
               for route, (_, found, _) in zip(routes, outcomes) for name, *result in found]
    results += [("equal", True, "cross-method-comparison")] * len(routes[1:2])
    first = outcomes[0][0] if outcomes else None   # read by the notes and the advisory entries
    results += command.notes(*args, first) if outcomes else []
    for entry in (entry for entry in entries if entry.advisory):
        results += _call(entry, args, request.seed, reference=first)[1]
    for result in results:
        envelope.put(*result)
    return envelope


def _flags(sub: str) -> dict[str, tuple]:
    """A subcommand's flags in usage order, in the form of ``_BATCH_COMMANDS``."""
    if sub not in _COMMANDS:
        return _BATCH_COMMANDS[sub][1]
    methods = _methods(_COMMANDS[sub])
    return {"d": (str, None, "degree, or comma-separated degrees for complete intersections"),
            "r": (int, None, "ambient projective dimension"),
            **({"k": (int, None, "plane dimension")} if _COMMANDS[sub].takes_k else {}),
            **({"method": (methods, methods[0], f"route (default {methods[0]})")} if methods
               else {}),
            "format": (("table", "json", "csv"), "table", "output format (default table)"),
            "seed": (int, DEFAULT_SEED, f"seed of the weight draws (default {DEFAULT_SEED})")}


def _help(sub: str | None) -> str:
    """What -h prints for ``fanocount`` or for a subcommand; its first line is the usage."""
    if sub is None:
        words = ["SUBCOMMAND ..."]
        rows = [(name, entry[0]) for name, entry in [*_COMMANDS.items(), *_BATCH_COMMANDS.items()]]
    else:
        target = "{" + ",".join(_SWEEP_TARGETS) + "}"
        words, rows = ([target], [(target, "what each row counts")]) if sub == "sweep" else ([], [])
        for name, (kind, default, text) in _flags(sub).items():
            word = f"--{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                                   else name.upper())
            words.append(word if default is None else f"[{word}]")
            rows.append((word, text))
    usage = " ".join(["usage: fanocount", *filter(None, [sub]), "[-h]", *words])
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    return "\n".join([usage, "", *(f"  {left:<{width}}  {text}" for left, text in rows)])


def _parse(argv: Sequence[str]) -> tuple[str, dict]:
    """The subcommand and its flags' values by name, defaults filled in (the sweep's target as
    ``target``).  Takes ``--flag value``, ``--flag=value``, a flag's unique prefix, the target
    anywhere, the last of a repeated flag, and the token after a flag as its value, also when it
    starts with '-'.  Prints the help and exits 0 on -h, prints a usage error and exits 2."""
    sub, flags, values, unknown, tokens = None, {}, {}, [], iter(argv)

    def refuse(message: str) -> SystemExit:
        print(_help(sub).split("\n")[0], f"fanocount: error: {message}", sep="\n", file=sys.stderr)
        return SystemExit(2)

    def take(label: str, kind, value):
        if kind is int:
            try:
                return int(value)
            except ValueError:
                raise refuse(f"argument {label}: invalid int value: {value!r}") from None
        if kind is not str and value not in kind:
            raise refuse(f"argument {label}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
        return value

    for token in tokens:
        prefix, eq, value = token[2:].partition("=")
        names = [n for n in (*flags, "help") if n.startswith(prefix)] \
            if token.startswith("--") and prefix else []
        name = prefix if prefix in names else names[0] if len(names) == 1 else None
        if token == "-h" or name == "help" and not eq:
            print(_help(sub))
            raise SystemExit(0)
        if name in flags:
            value = value if eq else next(tokens, None)
            if value is None:
                raise refuse(f"argument --{name}: expected one argument")
            values[name] = take(f"--{name}", flags[name][0], value)
        elif token.startswith("-") and not (token[1:].replace(".", "", 1).isdecimal()
                                            and token[-1] != "."):   # -5, -.5, -1.5 are no flags
            unknown.append(token)   # also --help=x: help takes no value
        elif sub is None:
            sub = take("subcommand", [*_COMMANDS, *_BATCH_COMMANDS], token)
            flags = _flags(sub)
        elif sub == "sweep" and "target" not in values:
            values["target"] = take("target", list(_SWEEP_TARGETS), token)
        else:
            unknown.append(token)
    if sub is None:
        raise refuse("the following arguments are required: subcommand")
    missing = ["target"] * (sub == "sweep" and "target" not in values) + [
        f"--{name}" for name, flag in flags.items() if flag[1] is None and name not in values]
    if missing:
        raise refuse(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise refuse(f"unrecognized arguments: {' '.join(unknown)}")
    return sub, {**{name: default for name, (_, default, _) in flags.items()}, **values}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            return _dispatch(*_parse(sys.argv[1:] if argv is None else argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141   # the shell's status for a process killed by SIGPIPE


def _dispatch(sub: str, values: dict) -> int:
    # batch is called through its namespace, so a wrapper installed there is the one that runs
    if sub == "paper-check":
        from . import batch
        return 0 if batch.paper_check() else 1

    request = None   # set once the inputs parse; a failure then prints an empty envelope
    try:
        if sub == "sweep":
            from . import batch
            degree_items = batch._parse_items(values["d"], "degrees")
            r_values, k_values = ([n for (n,) in batch._parse_items(values[name], f"{name} values")]
                                  for name in ("r", "k"))
            print(CSV_HEADER)
            for row in batch.sweep_rows(values["target"], degree_items, r_values, k_values,
                                        skip_log=lambda msg: print(msg, file=sys.stderr)):
                print(row)
            return 0
        text = values.pop("d")
        try:
            degrees = tuple(int(chunk) for chunk in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse degrees {text!r}: {exc}") from None
        request = CommandRequest(sub, degrees, **values)
        envelope = run(request)
    except (ValueError, InconsistencyError) as exc:
        status, label, code = next(f[1:] for f in _FAILURES if isinstance(exc, f[0]))
        if request is not None:
            print(ResultEnvelope(_echo_inputs(request), status=status).render(request.format))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    print(envelope.render(request.format))
    return 0


def __getattr__(name: str):
    # the batch subcommands' entry points, loaded on first use like the package's names
    if name in ("paper_check", "sweep_rows"):
        from . import batch
        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    raise SystemExit(main())
