"""Command-line front end.

Single-shot subcommands over the library plus a line-oriented batch format.
Exit codes: 0 when every query was decided, 2 when something came back
inconclusive, 1 on errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ultraseq import corpus, genfun, gennum, growth, temperate
from ultraseq.gennum import AssocKind, NotModerate, PowerXFamily, null_predicate
from ultraseq.genfun import (
    FunctionSpace,
    TestFunction,
    bump,
    const_fn,
    pairing,
    seq_scale,
    square_seq,
    standard_mollifier,
    weak_assoc_fun,
)
from ultraseq.spaces import (
    ClassificationReport,
    NumberSpace,
    SeqRep,
    UltranormValue,
    _exp,
    colombeau_space,
    infra_space,
    ultranorm,
)
from ultraseq.weights import (
    Mode,
    WeightSeq,
    catalog,
    expdecay_scale,
    power_scale,
    scale_to_weights,
    single_family,
    verify_scale_axioms,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument parsing helpers


def _family_space(fam) -> NumberSpace:
    return NumberSpace(family=fam, mode=fam.default_mode)


# space name -> the space; `weight:EXPR` names a single-weight space too
_SPACES = {
    "colombeau": colombeau_space,
    "infra": infra_space,
    "egorov": lambda: _family_space(catalog("egorov")),
    "ultra": lambda: _family_space(catalog("ultra")),
    "scale-power": lambda: _family_space(scale_to_weights(power_scale())),
    "scale-expdecay": lambda: _family_space(scale_to_weights(expdecay_scale())),
}
_MODES = " or ".join(m.value for m in Mode)


def parse_mode(text: str | None) -> Mode | None:
    """The membership mode; None keeps the space's own."""
    if text is None:
        return None
    try:
        return Mode(text)
    except ValueError:
        raise CliError(f"unknown mode {text!r}; use {_MODES}") from None


def parse_space(text: str, mode: Mode | None = None) -> NumberSpace:
    t = text.strip()
    if t.startswith("weight:"):
        expr_text = t[len("weight:"):]
        try:
            w = WeightSeq(label=expr_text, expr=growth.parse(expr_text))
        except (growth.ParseError, ValueError) as e:
            raise CliError(f"bad weight expression {expr_text!r}: {e}") from None
        sp = NumberSpace(family=single_family(w, f"weight({expr_text})"), mode=Mode.STANDARD)
    elif t in _SPACES:
        sp = _SPACES[t]()
    else:
        raise CliError(f"unknown space {text!r}; use {', '.join(_SPACES)}, or weight:EXPR")
    if mode is not None and mode is not sp.mode:
        sp = NumberSpace(family=sp.family, mode=mode, m_max=sp.m_max)
    return sp


# association kind name -> (constructor, whether it is written NAME:S with a
# threshold S); help and errors list them in this order, all but the alias s-dual
_KINDS = {
    "weak": (AssocKind.weak, False),
    "strong": (AssocKind.strong, True),
    "weak-s": (AssocKind.weak_s, True),
    "dual": (AssocKind.s_dual, True),
    "power-x": (lambda: AssocKind.custom(null_predicate, PowerXFamily(), "null limit"), False),
    "s-dual": (AssocKind.s_dual, True),
}
_KINDS_SHOWN = [f"{name}:S" if takes_s else name for name, (_, takes_s) in _KINDS.items() if name != "s-dual"]


def parse_kind(text: str) -> AssocKind:
    name, colon, stext = text.strip().partition(":")
    make, takes_s = _KINDS.get(name, (None, False))
    if make is None or bool(colon) != takes_s:
        raise CliError(
            f"unknown association kind {text!r}; use {', '.join(_KINDS_SHOWN[:-1])}, or {_KINDS_SHOWN[-1]}"
        )
    if not takes_s:
        return make()
    try:
        return make(stext)  # ValueError unless stext is a finite float
    except ValueError:
        raise CliError(f"bad threshold in kind {text!r}") from None


def parse_expr(text: str, label: str | None = None) -> SeqRep:
    """The one expression parser of the command line and batch files;
    `label` names the sequence in output and errors (default: the text)."""
    name = label or repr(text)
    try:
        expr = growth.parse(text)
    except growth.ParseError as e:
        raise CliError(f"cannot parse {name}: {e}") from None
    return SeqRep.symbolic(expr, label=label or text)


# scalar map name -> (constructor, the letters of its parameters); a map with
# parameters is written NAME:P1:P2..., e.g. power:2 or affine:1:0.5
_SCALAR_MAPS = {
    "identity": (temperate.identity_map, ()),
    "exp": (temperate.exp_map, ()),
    "expm1": (temperate.expm1_map, ()),
    "log1p": (temperate.log1p_map, ()),
    "power": (temperate.power_map, ("K",)),
    "affine": (temperate.affine_map, ("A", "B")),
}
_SEQ_MAPS = {"square": temperate.square_map, "derivative": temperate.derivative_map, "exp-seq": temperate.exp_seq_map}
# the certificate each role of a scalar map asks for; sequence maps take role temperate
_SCALAR_ROLES = {"moderate": temperate.check_moderate, "compatible": temperate.check_compatible}
_SCALES = {"power": power_scale, "expdecay": expdecay_scale}
_LEVELS_SHOWN = 4  # weight levels `convert-scale` prints


def _written(name: str) -> str:
    return ":".join((name, *_SCALAR_MAPS[name][1]))


def parse_scalar_map(name: str) -> temperate.ScalarMap | None:
    head, colon, rest = name.strip().partition(":")
    make, letters = _SCALAR_MAPS.get(head, (None, ()))
    if make is None or bool(colon) != bool(letters):
        return None
    values = rest.split(":") if colon else []
    if len(values) != len(letters):
        raise CliError(f"{head} maps are written {_written(head)}, got {name!r}")
    try:
        return make(*map(float, values))
    except ValueError as e:
        raise CliError(f"bad {head} map {name!r}: {e}") from None


def parse_seq_map(name: str) -> temperate.SeqMap | None:
    make = _SEQ_MAPS.get(name.strip())
    return None if make is None else make()


# ---------------------------------------------------------------------------
# results as text: the library returns values and verdicts, printed here


def _fmt_point(log_value: float) -> str:
    if log_value == math.inf:
        return "divergent"
    if log_value == -math.inf:
        return "0"
    x = _exp(log_value)
    if x == 0.0 or x == math.inf:
        # magnitude representable only in the log domain
        return f"exp({log_value:.9g})"
    return f"{x:.9g}"


def format_value(v: UltranormValue, with_band: bool = False) -> str:
    s = _fmt_point(v.log_value)
    if with_band and not v.exact and v.band_log is not None:
        lo, hi = v.band_log
        s += f" in [{_fmt_point(lo)}, {_fmt_point(hi)}]"
        if not v.stable:
            s += " (unstable)"
    return s


def norm_text(v: UltranormValue) -> str:
    if v.exact:
        if v.log_value == -math.inf:
            return "exact 0"
        if v.log_value == math.inf:
            return "exact divergent"
        if v.log_value == 0.0:
            return "exact 1"
        return f"exact e^{v.log_value:.9g} = {format_value(v)}"
    tag = "estimated" if v.stable else "estimated, unstable"
    return f"{format_value(v, with_band=True)} ({tag})"


def _witness_text(witness: dict) -> str:
    return ", ".join(f"{k}={_fmt(v)}" for k, v in witness.items())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, UltranormValue):
        return format_value(v, with_band=True)
    return str(v)


def _classification_lines(report: ClassificationReport) -> list[str]:
    """Every level's norms, the levels probed and the verdict, indented."""
    lines = [
        f"  m={m} channel={key}: norm={format_value(v, with_band=True)}"
        + (" (growth law)" if v.witness.startswith(genfun._LAW) else "" if v.exact else " (estimated)")
        for (m, key), v in report.channel_norms.items()
    ]
    levels = report.m_probed
    if len(levels) > 1:  # an indexed family: every space the CLI builds probes 16 levels
        lines.append(f"  levels probed: m={levels[0]}..{levels[-1]} (membership verified up to m_max)")
    lines.append(f"  verdict: {report.verdict}")
    return lines


# ---------------------------------------------------------------------------
# command handlers: each returns (lines, exit code); single-shot commands
# and batch queries both call them with parsed sequences


def cmd_norm(rep: SeqRep, space: NumberSpace) -> tuple[list[str], int]:
    if not space.family.single:
        raise CliError(
            f"norm needs a single-weight space, and {space.family.name} is an indexed family; "
            "classify gives its norm at every level"
        )
    w = space.single_weight()
    v = ultranorm(rep, w)
    lines = [f"norm({rep.label}) under {w.label}: {norm_text(v)}"]
    if v.witness:
        lines.append(f"  witness: {v.witness}")
    code = EXIT_OK if (v.exact or v.stable) else EXIT_INCONCLUSIVE
    return lines, code


def cmd_classify(rep: SeqRep, space: NumberSpace) -> tuple[list[str], int]:
    report = space.classify(rep)
    lines = [f"classify({rep.label}) in {space.name}:", *_classification_lines(report)]
    return lines, EXIT_OK if report.conclusive else EXIT_INCONCLUSIVE


def cmd_assoc(
    a_rep: SeqRep,
    b_rep: SeqRep,
    kind: AssocKind,
    space: NumberSpace,
    difference: SeqRep | None = None,
) -> tuple[list[str], int]:
    a = gennum.make(a_rep, space)
    b = gennum.make(b_rep, space)
    verdict = gennum.associate(a, b, kind, difference=difference)
    lines = [f"assoc({a_rep.label}, {b_rep.label}) {kind.describe()}: {verdict.holds}"]
    if verdict.boundary:
        lines.append("  boundary: ultranorm sits exactly on the threshold")
    witness = dict(verdict.witness)
    if "log_threshold" in witness:  # the threshold e^-s as text, then its log
        witness["threshold"], witness["log_threshold"] = f"e^-{kind.s:g}", witness.pop("log_threshold")
    if witness:
        lines.append(f"  witness: {_witness_text(witness)}")
    if verdict.notes:
        lines.append(f"  notes: {verdict.notes}")
    code = EXIT_OK if verdict.holds in ("yes", "no") else EXIT_INCONCLUSIVE
    return lines, code


def cmd_convert_scale(scale_name: str) -> tuple[list[str], int]:
    scale = _SCALES[scale_name]()
    fam = scale_to_weights(scale)
    lines = [f"scale {scale.name} -> weight family {fam.name} ({fam.direction.value})"]
    for m in range(fam.m_start, fam.m_start + _LEVELS_SHOWN):
        w = fam.member(m)
        desc = growth.format_expr(w.expr) if w.is_symbolic else "(numeric)"
        lines.append(f"  m={m}: r = {desc}")
    report = verify_scale_axioms(scale)
    lines.append(
        f"scale axioms: ordered={report.ordered} reciprocal={report.reciprocal_ok} "
        f"square-absorption={ {k: v for k, v in report.square_witness.items()} }"
    )
    lines.append(f"  axioms hold: {report.holds}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return lines, EXIT_OK


def cmd_check_map(name: str, space: NumberSpace, role: str | None) -> tuple[list[str], int]:
    scalar = parse_scalar_map(name)
    seq = parse_seq_map(name) if scalar is None else None
    if scalar is None and seq is None:
        raise CliError(
            f"unknown map {name!r}; scalar maps: {', '.join(map(_written, _SCALAR_MAPS))}; "
            f"sequence maps: {', '.join(_SEQ_MAPS)}"
        )
    fam = space.family
    if scalar is not None:
        check = _SCALAR_ROLES.get("moderate" if role is None else role)
        if check is None:
            raise CliError(f"scalar maps take role {' or '.join(_SCALAR_ROLES)}")
        cert = check(scalar, fam)
        lines = [
            f"map {scalar.label} as {cert.role} over {fam.name} (case {cert.case}): {cert.status}"
            + (" [exact]" if cert.exact else "")
        ]
        if cert.pairs:
            shown = ", ".join(f"({m},{M})" for m, M in cert.pairs[:6])
            lines.append(f"  level pairs: {shown}" + (" ..." if len(cert.pairs) > 6 else ""))
        if cert.value_bound is not None:
            lines.append(f"  value bound factor: {cert.value_bound:.9g}")
        if cert.witness:
            lines.append(f"  witness: {_witness_text(cert.witness)}")
        lines.append(f"  {cert.notes}")
        code = EXIT_OK if cert.status in ("certified", "refuted") else EXIT_INCONCLUSIVE
        return lines, code

    if role not in (None, "temperate"):
        raise CliError("sequence maps take role temperate")
    report = temperate.check_temperate(seq, fam)
    lines = [f"map {seq.name} over {fam.name}: {report.status}"]
    for cert, tag in (
        (report.g_alpha_cert, "growth bound"),
        (report.g_beta_cert, "difference growth factor"),
        (report.h_beta_cert, "difference vanishing factor"),
    ):
        lines.append(f"  {tag} {cert.map_label}: {cert.status}" + (" [exact]" if cert.exact else ""))
        if cert.witness:
            lines.append(f"    witness: {_witness_text(cert.witness)}")
    lines.append(
        f"  corpus spot checks: {report.alpha_checked} growth, {report.beta_checked} difference"
    )
    if report.witness:
        lines.append(f"  witness: {_witness_text(report.witness)}")
    if report.notes:
        lines.append(f"  {report.notes}")
    code = EXIT_OK if report.status in ("certified", "refuted") else EXIT_INCONCLUSIVE
    return lines, code


def cmd_extend(map_name: str, func_name: str, space: NumberSpace) -> tuple[list[str], int]:
    seq_map = parse_seq_map(map_name)
    if seq_map is None:
        raise CliError(f"unknown sequence map {map_name!r}; use one of {', '.join(_SEQ_MAPS)}")
    try:
        f = corpus.named_function(func_name)
    except KeyError as e:
        raise CliError(e.args[0]) from None
    fspace = FunctionSpace(space, nu_max=2)
    try:
        element = genfun.make_element(f, fspace)
    except NotModerate as e:
        raise CliError(f"input rejected: {e}") from None
    out = temperate.extend(seq_map, element)
    lines = [f"extend({map_name}, {func_name}) in {fspace.name}:", f"  output: {out.seq.label}"]
    lines.extend(_classification_lines(out.report))
    return lines, EXIT_OK if out.report.conclusive else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# delta walkthrough


def _fit_slope(ns: Sequence[int], logs: Sequence[float]) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.asarray(logs, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(slope)


def cmd_demo_delta() -> tuple[list[str], int]:
    space = colombeau_space()
    lines = ["delta walkthrough (colombeau space)"]
    ok = True

    moll = standard_mollifier()
    delta = moll.sequence()
    delta_sq = square_seq(delta, label="delta^2")

    lines.append("1. seminorm growth p_nu(delta_n), slope of log p vs log n:")
    ns = [16, 32, 64, 128, 256, 512, 1024]
    p_delta = genfun._seminorm_table(delta)  # shared with the classification below
    for nu in range(4):
        logs = [math.log(v) for v in p_delta(ns, nu)]
        slope = _fit_slope(ns, logs)
        want = nu + 1
        good = abs(slope - want) <= 0.05 * want
        ok = ok and good
        lines.append(f"   nu={nu}: slope={slope:.9g} (target {want}, within 5%: {good})")

    lines.append("2. classification:")
    for label, seq, p in (("delta", delta, p_delta), ("delta^2", delta_sq, genfun._seminorm_table(delta_sq))):
        rep = genfun._classify_table(p, seq.label, nu_max=2, space=space)
        good = rep.verdict == "moderate"
        ok = ok and good
        lines.append(f"   {label}: {rep.verdict}")

    lines.append("3. delta pairing recovers the point value:")
    psi = TestFunction(bump(0.0, 1.0))
    val = pairing(delta, 256, psi)
    target = float(psi(np.asarray([0.0]))[0])
    err = abs(val - target)
    good = err <= 1e-3
    ok = ok and good
    lines.append(f"   <delta_256, psi> = {val:.9g}, psi(0) = {target:.9g}, err = {err:.3g}")

    lines.append("4. delta^2 pairings grow linearly in n:")
    pair_ns = [64, 128, 256, 512, 1024]
    logs = [math.log(abs(v)) for v in pairing(delta_sq, pair_ns, psi)]
    slope = _fit_slope(pair_ns, logs)
    good = abs(slope - 1.0) <= 0.1
    ok = ok and good
    lines.append(f"   slope of log <delta_n^2, psi> vs log n = {slope:.9g} (target 1.0 +- 0.1)")

    lines.append("5. weak association through the test set:")
    phi_sq_mass = genfun._quad(lambda x: moll.profile(x) ** 2, *moll.profile.support)
    candidates = [
        ("0", const_fn(0.0)),
        ("delta", delta),
        (f"{phi_sq_mass:.6g}*delta", seq_scale(phi_sq_mass, delta)),
    ]
    weak = AssocKind.weak()
    for label, cand in candidates:
        verdict = weak_assoc_fun(delta_sq, cand, weak)
        good = verdict.holds == "no"
        ok = ok and good
        lines.append(f"   delta^2 ~ {label}: {verdict.holds}")
    scaled = seq_scale(growth.parse("n^-1"), delta_sq, label="n^-1 delta^2")
    verdict = weak_assoc_fun(scaled, seq_scale(phi_sq_mass, delta), weak)
    good = verdict.holds == "yes"
    ok = ok and good
    lines.append(
        f"   n^-1 delta^2 ~ {phi_sq_mass:.6g}*delta: {verdict.holds} "
        f"(integral of the squared profile = {phi_sq_mass:.9g})"
    )

    lines.append(f"walkthrough verdicts all as expected: {ok}")
    return lines, EXIT_OK if ok else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# batch files


# the keys a batch [space] section takes
_SPACE_KEYS = ("family", "mode")


def _at_line(path: str, line: int | None, fn: Callable, *args):
    """fn(*args), its errors prefixed with their position in the batch file."""
    try:
        return fn(*args)
    except _ERRORS as e:
        raise CliError(f"{path}:{line}: {e}") from None


def _parse_batch(
    path: str,
) -> tuple[dict[str, tuple[str, int]], dict[str, SeqRep], list[tuple[int, list[str], dict]]]:
    """The [space] options as key -> (value, line), the named sequences and
    the queries as (line, positional words, options)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None

    space_opts: dict[str, tuple[str, int]] = {}
    sequences: dict[str, SeqRep] = {}
    defined: dict[str, int] = {}  # sequence name -> line of its definition
    queries: list[tuple[int, list[str], dict]] = []
    section = None
    for idx, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in ("space", "sequences", "queries"):
                raise CliError(f"{path}:{idx}: unknown section [{section}]")
            continue
        if section == "space":
            if "=" not in text:
                raise CliError(f"{path}:{idx}: expected key = value")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _SPACE_KEYS:
                raise CliError(f"{path}:{idx}: unknown [space] key {key!r} (it takes {', '.join(_SPACE_KEYS)})")
            if key in space_opts:
                raise CliError(f"{path}:{idx}: [space] key {key!r} is given twice")
            space_opts[key] = (value.strip(), idx)
        elif section == "sequences":
            if "=" not in text:
                raise CliError(f"{path}:{idx}: expected name = expression")
            name, _, expr_text = text.partition("=")
            name = name.strip()
            if len(name.split()) != 1:  # a query could not name it
                raise CliError(f"{path}:{idx}: a sequence name is one word, got {name!r}")
            if name in defined:
                raise CliError(f"{path}:{idx}: sequence {name!r} is already defined on line {defined[name]}")
            defined[name] = idx
            sequences[name] = _at_line(path, idx, parse_expr, expr_text.strip(), name)
        elif section == "queries":
            words = text.split()
            options: dict[str, str] = {}
            for key, _, value in (w.partition("=") for w in words if "=" in w):
                if key in options:
                    raise CliError(f"{path}:{idx}: option {key!r} is given twice")
                options[key] = value
            queries.append((idx, [w for w in words if "=" not in w], options))
        else:
            raise CliError(f"{path}:{idx}: content before any [section]")
    return space_opts, sequences, queries


def _resolve(name: str, sequences: dict[str, SeqRep]) -> SeqRep:
    if name not in sequences:
        raise CliError(f"unknown sequence {name!r}")
    return sequences[name]


def _batch_query(
    words: list[str], opts: dict, sequences: dict[str, SeqRep], space: NumberSpace
) -> tuple[list[str], int]:
    if not words:
        raise CliError("empty query")
    cmd = _BATCH_COMMANDS.get(words[0])
    if cmd is not None:
        takes = [o.name for o in cmd.options]
        unknown = [key for key in opts if key not in takes]
        if unknown:
            raise CliError(f"unknown option {unknown[0]!r} for {cmd.batch} (it takes {', '.join(takes) or 'none'})")
    if cmd is None or len(words) - 1 != len(cmd.args):
        raise CliError(f"cannot understand query {' '.join(words)!r}")
    missing = [o.name for o in cmd.options if o.required and o.name not in opts]
    if missing:
        raise CliError(f"{cmd.batch} needs {missing[0]}=...")
    named = dict(zip((a.name for a in cmd.args), words[1:]))
    return _call(cmd, named | opts, lambda: space, lambda name: _resolve(name, sequences))


def cmd_batch(path: str) -> tuple[list[str], int]:
    space_opts, sequences, queries = _parse_batch(path)
    family, family_line = space_opts.get("family", ("colombeau", None))
    mode, mode_line = space_opts.get("mode", (None, None))
    mode = _at_line(path, mode_line, parse_mode, mode)
    space = _at_line(path, family_line, parse_space, family, mode)
    lines: list[str] = [f"space: {space.name}"]
    worst = EXIT_OK
    for idx, words, opts in queries:
        sub, code = _at_line(path, idx, _batch_query, words, opts, sequences, space)
        lines.append(f"-- line {idx}")
        lines.extend(sub)
        worst = max(worst, code)
    return lines, worst


# ---------------------------------------------------------------------------
# the command table: the command line and batch files read the same entry


@dataclass(frozen=True)
class Param:
    """A positional or an option of a command.  `convert` turns its word
    into the handler's argument (None passes the word on); parse_expr marks
    a sequence, which a batch file names from its [sequences] section."""

    name: str
    convert: Callable[[str], object] | None = None
    help: str | None = None
    required: bool = False
    choices: Sequence[str] | None = None


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    handler: Callable[..., tuple[list[str], int]]
    args: tuple[Param, ...] = ()
    options: tuple[Param, ...] = ()
    space: bool = False  # --space/--mode on the command line, [space] in a batch file
    batch: str | None = None  # its query word in batch files; None: command line only


_COMMANDS = {cmd.name: cmd for cmd in (
    Command("norm", "ultranorm of one expression", cmd_norm, (Param("expr", parse_expr),), space=True, batch="norm"),
    Command("classify", "moderate/negligible classification", cmd_classify, (Param("expr", parse_expr),),
            space=True, batch="classify"),
    Command("assoc", "association between two expressions", cmd_assoc, (Param("a", parse_expr), Param("b", parse_expr)),
            (Param("kind", parse_kind, ", ".join(_KINDS_SHOWN), required=True),
             Param("difference", parse_expr, "explicit |a - b| expression")), space=True, batch="assoc"),
    Command("convert-scale", "weights induced by a decay scale", cmd_convert_scale,
            (Param("scale", choices=tuple(_SCALES)),)),
    Command("check-map", "moderate/compatible/temperate certificates", cmd_check_map, (Param("name"),),
            (Param("role", choices=(*_SCALAR_ROLES, "temperate")),), space=True, batch="check"),
    Command("extend", "apply a certified map to a named function sequence", cmd_extend,
            (Param("map"), Param("func")), space=True, batch="extend"),
    Command("demo", "guided walkthroughs", lambda topic: cmd_demo_delta(), (Param("topic", choices=("delta",)),)),
    Command("batch", "run a query file", cmd_batch, (Param("file"),)),
)}
_BATCH_COMMANDS = {cmd.batch: cmd for cmd in _COMMANDS.values() if cmd.batch}

# what a command may raise on bad input; main and cmd_batch report it
_ERRORS = (CliError, ValueError, temperate.ExtensionError)


def _call(
    cmd: Command,
    words: dict[str, str | None],
    space: Callable[[], NumberSpace],
    sequence: Callable[[str], SeqRep] = parse_expr,
) -> tuple[list[str], int]:
    """Convert the words of a command and call its handler: positionals in
    order, options and the space by name.  `sequence` reads a sequence word."""

    def convert(param: Param, word: str | None):
        if word is None or param.convert is None:
            return word
        return (sequence if param.convert is parse_expr else param.convert)(word)

    args = [convert(a, words[a.name]) for a in cmd.args]
    kwargs = {o.name: convert(o, words.get(o.name)) for o in cmd.options}
    if cmd.space:
        kwargs["space"] = space()
    return cmd.handler(*args, **kwargs)


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="ultraseq",
        description="Sequence-space calculus: ultranorms, classification, association",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS.values():
        s = sub.add_parser(cmd.name, help=cmd.help)
        for a in cmd.args:
            s.add_argument(a.name, choices=a.choices, help=a.help)
        for o in cmd.options:
            s.add_argument(f"--{o.name}", required=o.required, choices=o.choices, help=o.help)
        if cmd.space:
            s.add_argument("--space", default="colombeau", help="space name (default colombeau)")
            s.add_argument("--mode", default=None, help=f"{_MODES} (default per space)")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        lines, code = _call(
            _COMMANDS[args.command], vars(args), lambda: parse_space(args.space, parse_mode(args.mode))
        )
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
