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
from typing import NamedTuple, Sequence

# the extraction route runs the default methods; planes (the fixed-point route),
# invariants, conics and batch are imported where a subcommand needs them, so the
# other subcommands start without compiling them
from . import extraction
from .errors import InconsistencyError, RegimeError
from .extraction import DEFAULT_SEED, ProblemSpec

__all__ = ["CommandRequest", "ResultEnvelope", "main", "paper_check", "run", "sweep_rows"]

CSV_HEADER = "d,r,k,gamma,delta,value,method"

# envelope subcommand -> (help, --method choices with the default first, takes --k)
_COMMANDS = {
    "planes": ("degree of the locus of hypersurfaces containing a k-plane",
               ("dm", "bott", "both"), True),
    "ci-planes": ("degree of the containing-a-k-plane locus in a linear system on a complete "
                  "intersection", (), True),
    "fano-degree": ("Plucker degree of the Fano scheme", (), True),
    "surface": ("invariants of a Fano surface (delta = 2)", (), True),
    "irregularity": ("irregularity classification", (), True),
    "picard": ("Picard number of the very general member", (), True),
    "conics": ("degree of the locus of hypersurfaces containing a conic",
               ("bott", "closed", "both"), False),
}

# batch subcommand -> (help, {flag: (int, str or the choices, default, help)}), where a
# default of None marks a required flag; the sweep also takes its target
_BATCH_COMMANDS = {
    "paper-check": ("run the full table of published anchor values", {}),
    "sweep": ("grid sweep, CSV on stdout", {
        "d": (str, None, "degrees: comma list of ints, lo..hi ranges, or a+b multidegrees"),
        "r": (str, None, "r values: comma list or lo..hi"),
        "k": (str, None, "k values: comma list or lo..hi")}),
}

# sweep target -> the method column of its rows, which run's default method computes
_SWEEP_TARGETS = {"planes": "dm", "fano-degree": "extraction"}

# (result name, InvariantReport attribute, provenance, paper-check label or None),
# in the order of the surface envelope
_SURFACE_FIELDS = (
    ("deg", "deg_f", "plucker-coefficient-extraction", "deg"),
    ("c2", "c2_integral", "schubert-c2-extraction", "c2 integral"),
    ("A", "a_coeff", "tangent-chern-combination", "A"),
    ("B", "b_coeff", "tangent-chern-combination", "B"),
    ("e", "euler", "chern-number-combination", "e"),
    ("K2", "k_delta", "canonical-self-intersection", "K^2"),
    ("chi", "chi_o", "noether-quotient", "chi(O)"),
    ("p_a", "p_a", "noether-quotient", None),
    ("signature", "signature", "signature-formula", None),
    ("c1_coeff", "c1_coeff", "canonical-class-multiple", None),
)

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


def _echo_inputs(request: CommandRequest) -> dict[str, str]:
    _, methods, takes_k = _COMMANDS[request.subcommand]
    echo = {"subcommand": request.subcommand, "format": request.format,
            "seed": str(request.seed)}
    if request.degrees:
        echo["d"] = ",".join(str(d) for d in request.degrees)
    echo["r"] = str(request.r)
    if takes_k:
        echo["k"] = str(request.k)
    if methods:
        echo["method"] = request.method
    return echo


def _spec_for(request: CommandRequest) -> ProblemSpec:
    return ProblemSpec(degrees=request.degrees, r=request.r, k=request.k)


def run(request: CommandRequest) -> ResultEnvelope:
    """Dispatch one envelope-producing subcommand."""
    sub = request.subcommand
    if sub not in _COMMANDS:
        raise ValueError(f"unknown subcommand {sub!r}")
    choices = _COMMANDS[sub][1]
    method = request.method or (choices[0] if choices else None)
    if method is not None and method not in choices:
        raise ValueError(f"{sub} takes a method from {choices}, got {method!r}")
    # the echo shows the method that runs
    envelope = ResultEnvelope(inputs=_echo_inputs(request._replace(method=method)))
    if sub in ("planes", "conics") and len(request.degrees) != 1:
        raise RegimeError("hypersurface-only",
                          f"{sub} takes a single degree, got {request.degrees}")

    if sub == "planes":
        d, r, k = request.degrees[0], request.r, request.k
        if method in ("dm", "both"):
            envelope.put("deg_dm" if method == "both" else "deg",
                         extraction.deg_planes_dm(d, r, k),
                         "vandermonde-coefficient-extraction")
        if method in ("bott", "both"):
            from . import planes
            weights = planes.TorusWeights.random(r, request.seed)
            envelope.put("deg_bott" if method == "both" else "deg",
                         planes.deg_planes_bott(d, r, k, weights),
                         "fixed-point-residue-sum")
        if method == "both":
            dm, bott = (envelope.results[name]["value"] for name in ("deg_dm", "deg_bott"))
            if dm != bott:
                raise InconsistencyError(f"planes routes disagree at d={d} r={r} k={k}: "
                                         f"dm gives {dm}, bott gives {bott}")
            envelope.put("equal", True, "cross-method-comparison")

    elif sub == "ci-planes":
        spec = _spec_for(request)
        envelope.put("deg", extraction.deg_ci_planes(spec), "ci-coefficient-extraction")
        envelope.put("gamma", spec.gamma, "codimension-arithmetic")

    elif sub == "fano-degree":
        spec = _spec_for(request)
        envelope.put("deg", extraction.deg_fano(spec), "plucker-coefficient-extraction")
        envelope.put("gamma", spec.gamma, "codimension-arithmetic")
        envelope.put("delta", spec.delta, "codimension-arithmetic")

    elif sub == "surface":
        from . import invariants
        report = invariants.surface_invariants(_spec_for(request))
        for name, attr, provenance, _ in _SURFACE_FIELDS:
            envelope.put(name, getattr(report, attr), provenance)
        for i, c in enumerate(report.per_degree, start=1):
            envelope.put(f"alpha_{i}", c.alpha, "sym-power-chern-coeffs")
            envelope.put(f"beta_{i}", c.beta, "sym-power-chern-coeffs")
            envelope.put(f"gamma_{i}", c.gamma, "sym-power-chern-coeffs")

    elif sub == "irregularity":
        from . import invariants
        result = invariants.irregularity_classify(_spec_for(request))
        envelope.put("case", result.case.value, "irregularity-classification")
        if result.k is not None:
            envelope.put("k", result.k, "irregularity-classification")
        envelope.put("note", result.note, "irregularity-classification")

    elif sub == "picard":
        from . import invariants
        info = invariants.picard_number(_spec_for(request))
        envelope.put("rho", info.rho, "picard-classification")
        envelope.put("components", info.components, "picard-classification")
        envelope.put("note", info.note, "picard-classification")

    elif sub == "conics":
        from . import conics
        d, r = request.degrees[0], request.r
        # the comparison carries the validated fixed-point value, so "both"
        # runs the fixed-point sums once
        comparison = (conics.deg_conics_closed(d, r, seed=request.seed)
                      if method in ("closed", "both") else None)
        if method in ("bott", "both"):
            deg = (conics.deg_conics(d, r, seed=request.seed) if comparison is None
                   else comparison.fixed_point_value)
            envelope.put("deg", deg, "twisted-fixed-point-sum")
            if conics.ConicProblem(d, r).two_conics:
                envelope.put("halved", True, "two-conics-on-general-quartic")
        if comparison is not None:
            envelope.put("closed_form", comparison.value, "closed-form-eta(1,1,1)")
            envelope.put("closed_matches_fixed_point", comparison.consistent,
                         "cross-method-comparison")
            envelope.put("closed_to_fixed_point_ratio", comparison.ratio,
                         "cross-method-comparison")

    return envelope


def _flags(sub: str) -> dict[str, tuple]:
    """A subcommand's flags in usage order, in the form of ``_BATCH_COMMANDS``."""
    if sub not in _COMMANDS:
        return _BATCH_COMMANDS[sub][1]
    _, methods, takes_k = _COMMANDS[sub]
    return {"d": (str, None, "degree, or comma-separated degrees for complete intersections"),
            "r": (int, None, "ambient projective dimension"),
            **({"k": (int, None, "plane dimension")} if takes_k else {}),
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
            degree_items = batch._parse_items(values["d"], multidegree=True)
            r_values, k_values = ([n for (n,) in batch._parse_items(text, multidegree=False)]
                                  for text in (values["r"], values["k"]))
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
