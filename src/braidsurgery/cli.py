"""Command-line front end.

Each ``cmd_*`` is a payload builder: it returns its payload dict and
writes nothing (streaming ``enumerate`` also returns its iterator of
diagram lines, and ``theta`` over all tuples gives its ``entries`` and
``theta_groups`` as generators of text made from per-tuple templates).
``_run`` is the one writer: it parses the argv (``argv.parse_argv``
walks it through the grammar's table, which is built at import), runs
the ``cmd_*`` named by the subcommand, adds the envelope (``schema``,
``subcommand`` and ``inputs_echo``, the parsed arguments) and passes it
to :func:`emit`, which writes canonical JSON (sorted keys, rationals as
``p/q`` strings) or ``--table`` lines.
Identical inputs produce byte-identical output.

Parsing runs inside the same error boundary, so any argv gives JSON on
stdout, with an ``error`` object exactly when the exit code is nonzero.
Exit codes: 0 success, 2 parse or usage error (including a ``cfrac``
value past :data:`MAX_CFRAC_TERMS` coefficients, ``CFracError``, and
``limits`` past ``limits.MAX_LEVELS`` levels or ``limits.MAX_SLICES``
basic slices, ``LimitsError``), 3 hypothesis violation, 4 numeric
precondition failure, exhausted handle-reduction budget, a
``theta`` sweep over more than ``legendrian.MAX_THETA_TUPLES`` tuples, an
expansion past ``surgery.MAX_COMPONENTS`` components, unknot menus past
``legendrian.MAX_MENU_PICKS`` unknots, or an output integer too long for
Python to print (``DigitLimitExceeded``); any exception that is not one of
the library's own errors is a bug, reported as ``InternalError`` with
exit 4.  The one output that is not JSON is ``--help``/``-h``: usage
text on stdout with exit 0.  A stdout closed by its reader ends the
command quietly with exit 0.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

from . import braid as braid_mod
from . import cfrac as cfrac_mod
from . import legendrian, limits, surgery
from .argv import UsageError, parse_argv
from .braid import BraidError, ReductionBudgetExceeded
from .cfrac import CFracError, SlopeVector
from .legendrian import (
    HypothesisError,
    LegendrianError,
    MenuBudgetExceeded,
    TupleBudgetExceeded,
)
from .limits import CoeffStream, LimitsError, SignTuple
from .surgery import ComponentBudgetExceeded, SingularityError, SurgeryError

SCHEMA = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4

# Most decimal digits of a parsed rational's numerator, denominator or
# exponent; Python refuses to print an integer over 4,300 digits.
MAX_DIGITS = 1_000

# Most coefficients ``cfrac`` expands; a value (N-1)/N has N-1 of them.
MAX_CFRAC_TERMS = 10_000

# Parsed arguments that are not inputs of the command.
_NOT_ECHOED = ("subcommand", "table")


class DigitLimitExceeded(RuntimeError):
    """An output integer has more digits than Python converts to text."""

    def __str__(self):
        limit = sys.get_int_max_str_digits()
        return f"an output integer is over Python's {limit}-digit limit"


def parse_rational(text: str) -> Fraction:
    """``p/q``, ``n+p/q``, an integer or a decimal such as ``1e-3``, with at
    most ``MAX_DIGITS`` digits in its exponent, numerator and denominator."""
    text = text.strip()
    try:
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError(f"a power of ten over {MAX_DIGITS} digits")
        value = sum(map(Fraction, re.split(r"(?<=\d)\+", text, maxsplit=1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise CFracError(f"cannot parse {text!r}: {exc}") from None
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise CFracError(
            f"{text!r} has a numerator or denominator over {MAX_DIGITS} digits"
        )
    return value


def parse_slope(text: str) -> Fraction:
    """A positive slope: ``p/q``, ``n+p/q``, or a plain integer."""
    value = parse_rational(text)
    if value <= 0:
        raise CFracError(
            f"slope {text!r} is not positive; only positive surgeries expand"
        )
    return value


def parse_slopes(text: str) -> SlopeVector:
    return SlopeVector(tuple(parse_slope(part) for part in text.split(",")))


def parse_int_list(text: str, error=LimitsError) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise error(f"cannot parse integer list {text!r}: {exc}") from None


def frac_str(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # over the interpreter's digit limit
        raise DigitLimitExceeded from None


def jsonify(value):
    """The ``json.dumps`` hook: a Fraction as its ``p/q`` string, and a
    generator of JSON text (see :func:`emit`) as the data it reads as."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, GeneratorType):
        return json.loads("".join(value))
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def emit(data: dict, table: bool = False, lines=None) -> None:
    """Write ``data`` as ``json.dumps(data, sort_keys=True, indent=2,
    default=jsonify)`` would (see :func:`_indented`), as ``key = value``
    lines with ``table``, or as a compact line before the streamed
    ``lines``, one ``write`` each.  A generator value of ``data`` is the
    indent-2 text of its top-level key's value, written block by block in
    its place.  Nothing is written if an integer of ``data`` is too long to
    print: that raises :class:`DigitLimitExceeded`.
    """
    try:
        if table:
            text = "\n".join(_table_lines(data, ""))
        elif lines is None:
            text = _indented(data, "\n")
        else:
            text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=jsonify)
    except ValueError:  # over the interpreter's digit limit
        raise DigitLimitExceeded from None
    # Each generator value is written at its NUL (JSON text holds none,
    # ``_quote`` escapes it); ``lines`` follow the end.
    streams = [v for _, v in sorted(data.items()) if type(v) is GeneratorType]
    write = sys.stdout.write
    for text, blocks in zip(f"{text}\n".split("\0"), [*streams, lines or ()]):
        write(text)
        for block in blocks:
            write(block)


# The JSON text of a scalar, by its exact type; a generator's is a NUL
# that emit replaces with the generator's text.
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get}
_SCALARS[type(None)] = {None: "null"}.get
_SCALARS[GeneratorType] = "\0".format


def _indented(value, pad: str) -> str:
    """``value`` as indent-2 JSON with sorted string keys, its lines
    continued by ``pad`` (a newline and the indent of ``value``)."""
    encode = _SCALARS.get(type(value))
    if encode:
        return encode(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_indented(v, inner)}" for k, v in sorted(value.items())]
        body = f",{inner}".join(items)
        return f"{{{inner}{body}{pad}}}" if value else "{}"
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        encode = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(encode, value) if encode else [_indented(v, inner) for v in value]
        body = f",{inner}".join(items)
        return f"[{inner}{body}{pad}]" if value else "[]"
    return _indented(jsonify(value), pad)


def _table_lines(data, prefix: str):
    if isinstance(data, dict):
        for key in sorted(data):
            yield from _table_lines(data[key], f"{prefix}.{key}" if prefix else key)
    else:
        yield f"{prefix} = {json.dumps(data, sort_keys=True, default=jsonify)}"


def cmd_analyze(args) -> dict:
    word = braid_mod.parse_braid(args.braid)
    parts = braid_mod.permutation(word)
    stats = braid_mod.crossing_stats(word)
    report = braid_mod.check_hypothesis(word, args.assert_hyperbolic, stats)
    floor = {str(d): v for d, v in braid_mod.dehornoy_floors(word).items()}
    return {
        "braid": {
            "canonical": braid_mod.format_braid(word),
            "strands": word.strands,
            "length": len(word),
            "c_plus": word.c_plus,
            "c_minus": word.c_minus,
            "exponent_sum": word.exponent_sum,
        },
        "components": {
            "permutation": parts.permutation,
            "component_of": parts.component_of,
            "cycle_type": parts.cycle_type,
            "count": parts.num_components,
            "is_knot": parts.is_knot,
        },
        "crossing_stats": {
            "per_component": stats.per_component,
            "inter_negative": stats.inter_negative,
            "d_minus": stats.d_minus,
            "linking": stats.linking,
            "axis_linking": stats.axis_linking,
        },
        "hypothesis": vars(report),
        "dehornoy_floor_at_least": floor,
    }


def cmd_cfrac(args) -> dict:
    value = parse_rational(args.value)
    if 0 < value < 1:
        target = Fraction(-value.denominator, value.numerator)
    elif value < -1:
        target = value
    else:
        raise CFracError(f"{args.value!r} is neither below -1 nor a slope in (0, 1)")
    if cfrac_mod.neg_cfrac_length(target, MAX_CFRAC_TERMS) > MAX_CFRAC_TERMS:
        raise CFracError(
            f"{args.value!r} expands to over {MAX_CFRAC_TERMS} coefficients,"
            f" cap {MAX_CFRAC_TERMS}"
        )
    expansion = cfrac_mod.neg_cfrac(target)
    # In lowest terms already, and no longer than the target's MAX_DIGITS.
    pairs = cfrac_mod.convergent_pairs(expansion.coeffs, len(expansion.coeffs) - 1)
    return {
        "expanded": target,
        "coeffs": expansion.coeffs,
        "phi": cfrac_mod.phi(expansion),
        "convergents": [f"{p}/{q}" for p, q in pairs],
    }


def cmd_surgery(args) -> dict:
    word = braid_mod.parse_braid(args.braid)
    slopes = parse_slopes(args.slopes)
    rational = surgery.rational_surgery(word, slopes)
    expand = surgery.expand_general if args.general else surgery.slam_dunk_expand
    expanded = expand(rational)
    return {
        "rational_diagram": surgery.diagram_to_dict(rational),
        "expanded_diagram": surgery.diagram_to_dict(expanded),
        "linking_matrix": surgery.linking_matrix(expanded),
        "homology": vars(surgery.homology(expanded)),
    }


def cmd_enumerate(args):
    word = braid_mod.parse_braid(args.braid)
    slopes = parse_slopes(args.slopes)
    enum = legendrian.enumerate_weinstein(word, slopes)
    payload = {"count": enum.count, "menu_sizes": [len(menu) for menu in enum.menus]}
    if args.isom_order is not None:
        payload["non_contactomorphic_lower_bound"] = (
            legendrian.contactomorphism_lower_bound(enum.count, args.isom_order)
        )
    if args.count_only:
        return payload
    return payload, enum.json_lines()


def cmd_theta(args) -> dict:
    word = braid_mod.parse_braid(args.braid)
    slopes = parse_slopes(args.slope)
    enum = legendrian.enumerate_weinstein(word, slopes)
    if args.tuple is not None:
        diagram = enum.diagram_for(parse_int_list(args.tuple, LegendrianError))
        return {
            "rotation_tuple": diagram.rotation_tuple,
            "theta_report": vars(legendrian.theta(diagram)),
        }
    # The text of every value exists before anything is written.  Entries
    # and pick lists are indent-2 templates filled by %: the texts of a
    # value once per form, then the picks and rots of each row.
    rows, values = enum.theta_sweep(frac_str)
    slots = ["%%d"] * len(enum.menus)
    shape = {"c1_squared": "%s", "rotation_tuple": slots, "theta": "%s", "tuple": slots}
    entry = _indented(shape, "\n    ").replace('"%%d"', "%%d")
    entries = {form: entry % texts[:2] for form, texts in values.items()}
    picks = _indented(slots, "\n        ").replace('"%%d"', "%d")
    group = '{\n      "theta": "%s",\n      "tuples": [\n        %s\n      ]\n    }'
    return {
        "count": enum.count,
        "entries": _blocks(entries[form] % (rots + ks) for ks, rots, form in rows),
        "theta_groups": _blocks(
            group % (theta, ",\n        ".join(map(picks.__mod__, tuples)))
            for _, theta, tuples in values.values()
        ),
    }


def _blocks(items):
    """The indent-2 text of a top-level JSON array of the texts ``items``
    (at least one), in blocks of ``_BLOCK`` items."""
    items, sep = iter(items), "[\n    "
    while block := list(itertools.islice(items, _BLOCK)):
        yield sep + ",\n    ".join(block)
        sep = ",\n    "
    yield "\n  ]"


_BLOCK = 1024


def cmd_limits(args) -> dict:
    prefix = parse_int_list(args.coeffs) if args.coeffs else ()
    cycle = parse_int_list(args.cycle) if args.cycle else ()
    stream = CoeffStream(prefix, cycle)
    tail, pattern = _parse_tail(args.tail)
    tuple_prefix = parse_int_list(args.tuple_prefix) if args.tuple_prefix else ()
    sign_tuple = SignTuple(tuple_prefix, tail, pattern)
    n = args.levels
    blocks = limits.block_decomposition(stream, sign_tuple, n)
    data = {
        "coeffs": stream.coeffs(n),
        "sign_tuple": limits.sign_tuple_to_dict(sign_tuple),
        "tuple": sign_tuple.values(stream, n),
        "menus": [stream.menu_size(i) for i in range(n + 1)],
        "blocks": blocks.blocks,
        "normal_form": limits.shuffle_normal_form(blocks),
        "end_slopes": limits.end_slopes(stream, n),
    }
    if stream.is_infinite:
        data["sign"] = limits.sign_of(stream, sign_tuple)
    if args.braid is not None:
        word = braid_mod.parse_braid(args.braid)
        data["truncation_consistency"] = limits.truncation_consistency(
            word, stream, sign_tuple, n
        )
    return data


def _parse_tail(text: str) -> tuple[str, tuple[int, ...]]:
    if text in (limits.TAIL_ONES, limits.TAIL_MAX):
        return text, ()
    if text.startswith("periodic:"):
        return limits.TAIL_PERIODIC, parse_int_list(text[len("periodic:") :])
    raise LimitsError(f"unknown tail {text!r}; use ones, max or periodic:<list>")


def cmd_family(args) -> dict:
    if args.kind == "example420":
        if args.k is None:
            raise BraidError("example420 needs -k")
        return {"braid": braid_mod.format_braid(braid_mod.example_braid(args.k))}
    if args.kind == "power":
        word = _family_braid(args)
        if args.k is None:
            raise BraidError("power needs -k")
        return {"braid": braid_mod.format_braid(braid_mod.power(word, args.k))}
    if args.kind == "delta2l":
        word = _family_braid(args)
        if args.ell is None:
            raise BraidError("delta2l needs --ell")
        twisted = braid_mod.delta_squared_times(word, args.ell)
        return {"braid": braid_mod.format_braid(twisted)}
    if args.k is None or args.ell is None:  # lspace, the last of the choices
        raise BraidError("lspace needs -k and --ell")
    word = _family_braid(args, default_tour=True)
    diagram, report, additivity, axis_report, next_report = (
        surgery.lspace_family_diagram(word, args.k, args.ell)
    )
    return {
        "braid": braid_mod.format_braid(word),
        "diagram": surgery.diagram_to_dict(diagram),
        "h1_orders": {
            "axis_pair": axis_report.h1_order,
            "this_level": report.h1_order,
            "next_level": next_report.h1_order,
        },
        "additivity": additivity,
    }


def _family_braid(args, default_tour: bool = False) -> braid_mod.BraidWord:
    if args.braid is not None:
        return braid_mod.parse_braid(args.braid)
    if default_tour:
        strands = args.strands or 3
        braid_mod.check_strands(strands)
        return braid_mod.BraidWord(strands, tuple(range(1, strands)))
    raise BraidError(f"{args.kind} needs --braid")


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): a clean exit.  Point
        # the descriptor at devnull so the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


def _run(argv) -> int:
    """Parse, run and write one command: the envelope and its payload, or
    one ``error`` object.  The command is looked up by name on every call,
    so a ``cmd_*`` patched and restored between calls is seen as it is."""
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if type(args) is str:  # the help text
            sys.stdout.write(args)
            return EXIT_OK
        result = globals()["cmd_" + args.subcommand](args)
        payload, lines = result if isinstance(result, tuple) else (result, None)
        echo = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
        payload.update(schema=SCHEMA, subcommand=args.subcommand, inputs_echo=echo)
        emit(payload, args.table, lines)
        return EXIT_OK
    except (
        SingularityError,
        ReductionBudgetExceeded,
        TupleBudgetExceeded,
        ComponentBudgetExceeded,
        MenuBudgetExceeded,
        DigitLimitExceeded,
    ) as exc:
        code, kind, message = EXIT_NUMERIC, type(exc).__name__, str(exc)
    except HypothesisError as exc:
        code, kind, message = EXIT_HYPOTHESIS, type(exc).__name__, str(exc)
    except (
        UsageError,
        BraidError,
        CFracError,
        LimitsError,
        LegendrianError,
        SurgeryError,
    ) as exc:
        code, kind, message = EXIT_PARSE, type(exc).__name__, str(exc)
    except BrokenPipeError:
        raise
    except Exception as exc:
        # A bug, not bad input: still one JSON error object, never a traceback.
        code, kind = EXIT_NUMERIC, "InternalError"
        message = f"{type(exc).__name__}: {exc}"
    emit({"schema": SCHEMA, "error": {"code": code, "type": kind, "message": message}})
    return code


if __name__ == "__main__":
    sys.exit(main())
