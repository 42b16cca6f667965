"""Command-line front end.

Each ``cmd_*`` is a payload builder: it returns its payload dict and
writes nothing (streaming ``enumerate`` also returns its iterator of
blocks of diagram lines).  A callable at any depth of a payload is a
stream: called with the pad at its place (see :func:`_layout`), it gives
the value's texts.  ``theta`` over all tuples gives its ``entries`` and
``theta_groups`` so, and ``surgery`` its ``linking_matrix`` (a text per
row) and each diagram's ``components`` (one block).  A builder runs every
check that can raise before it returns, so a stream only formats, and
its integers, whose digits the parser caps at ``MAX_DIGITS``, never meet
the interpreter's limit on printing one.
``_run`` is the one writer: it parses the argv (``argv.parse_argv``
walks it through the grammar's table, which is built at import), runs
the ``cmd_*`` named by the subcommand, adds the envelope (``schema``,
``subcommand`` and ``inputs_echo``, the parsed arguments) and passes it
to :func:`emit`, which writes canonical JSON (sorted keys, rationals as
``p/q`` strings) or ``--table`` lines, both from one encoder.
Identical inputs produce byte-identical output.
``limits`` and ``families`` each serve one subcommand, and
``cmd_limits`` and ``cmd_family`` import them when they run, so a process
of the pipeline's subcommands never compiles them.

Parsing runs inside the same error boundary, so any argv gives JSON on
stdout, with an ``error`` object exactly when the exit code is nonzero.
The exit code is 0 on success and otherwise the ``code`` of the library
error (see :mod:`braidsurgery.errors`), whose ``budget``, ``cap`` and
``needed`` join the ``error`` object when it was raised at a cap; any
other exception is a bug, reported as ``InternalError`` with exit 4.  The
one output that is not JSON is ``--help``/``-h``: usage text on stdout
with exit 0.  A stdout closed by its reader ends the command quietly with
exit 0.

:func:`main` runs one command and returns its exit code; library code
calls it.  ``python -m braidsurgery.cli`` and the ``braidsurgery`` console
script run :func:`entry`, which adds what only a process about to exit
needs: a stdout closed by its reader is pointed at devnull, and
``gc.freeze()`` lets the garbage collections of interpreter shutdown skip
every object still alive (8k to 13k after a ``surgery`` command), so the
process ends several ms sooner.  Atexit handlers and the interpreter's own
flush of the std streams still run.  ``main`` never freezes.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import braid as braid_mod
from . import cfrac as cfrac_mod
from . import legendrian, surgery
from .argv import parse_argv
from .cfrac import SlopeVector
# The exit codes stay importable from here: callers compare with them.
from .errors import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERIC,
    EXIT_PARSE,
    BraidError,
    BraidsurgeryError,
    CFracError,
    DigitLimitExceeded,
    LegendrianError,
    LimitsError,
)

SCHEMA = 1

EXIT_OK = 0

# Most decimal digits of a parsed rational's numerator, denominator or
# exponent; Python refuses to print an integer over 4,300 digits.
MAX_DIGITS = 1_000

# Most coefficients ``cfrac`` expands; a value (N-1)/N has N-1 of them.
MAX_CFRAC_TERMS = 10_000

# Parsed arguments that are not inputs of the command.
_NOT_ECHOED = ("subcommand", "table")


def parse_rational(text: str) -> Fraction:
    """``p/q``, ``n+p/q``, an integer or a decimal such as ``1e-3``, with at
    most ``MAX_DIGITS`` digits in its exponent, numerator and denominator."""
    text = text.strip()
    try:
        _, e, exponent = text.lower().partition("e")
        power = abs(int(exponent)) if e else 0
        if power <= MAX_DIGITS:
            value = sum(map(Fraction, _split_whole(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise CFracError(f"cannot parse {text!r}: {exc}") from None
    if power > MAX_DIGITS:
        raise CFracError(
            f"cannot parse {text!r}: a power of ten over {MAX_DIGITS} digits",
            budget="MAX_DIGITS",
            cap=MAX_DIGITS,
            needed=power,
        )
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        # A lower bound: the value may have more digits than Python prints.
        raise CFracError(
            f"{text!r} has a numerator or denominator over {MAX_DIGITS} digits",
            budget="MAX_DIGITS",
            cap=MAX_DIGITS,
            needed=MAX_DIGITS + 1,
        )
    return value


def _split_whole(text: str) -> list[str]:
    """``text`` split at its first ``+`` after a decimal character, as
    ``re.split(r"(?<=\\d)\\+", text, maxsplit=1)`` splits it: ``n+p/q``
    into ``n`` and ``p/q``, while an exponent's sign (``1e+5``) stays."""
    at = text.find("+", 1)
    while at > 0 and not text[at - 1].isdecimal():
        at = text.find("+", at + 1)
    return [text[:at], text[at + 1 :]] if at > 0 else [text]


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
    """The ``json.dumps`` hook, and :func:`_indented`'s for a type it does
    not encode: a Fraction as its ``p/q`` string."""
    if isinstance(value, Fraction):
        return frac_str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def emit(data: dict, table: bool = False, lines=None) -> None:
    """Write ``data`` as ``json.dumps(data, sort_keys=True, indent=2,
    default=jsonify)`` would (see :func:`_indented`), as ``key = value``
    lines with ``table`` (see :func:`_table_lines`), or as a compact line
    before the streamed ``lines``.  Each stream of ``data`` (a callable at
    any depth) is called with the pad at its place, and the texts it gives
    are written item by item there.  Nothing is written if an integer of
    ``data`` is too long to print: that raises :class:`DigitLimitExceeded`.
    A stream cannot meet that limit once the head is out: theta's values
    are texts before ``emit`` runs, and every entry of a linking matrix has
    at most ``MAX_DIGITS`` digits (framings come from parsed slopes, and
    every other entry is a linking number of the braid).

    The text before the first stream or line goes out in one ``write``
    of its own; what follows it is joined into writes of at least
    ``_WRITE_SIZE`` characters (the last may be shorter), each of them at
    most one item past that size.
    """
    streams = []
    try:
        if table:
            text = "\n".join(_table_lines(data, "", streams))
        elif lines is None:
            text = _indented(data, "\n", streams)
        else:
            text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=jsonify)
    except ValueError:  # over the interpreter's digit limit
        raise DigitLimitExceeded from None
    # Each stream is written at its NUL (JSON text holds none, ``_quote``
    # escapes it); ``lines`` follow the end.  The newline goes on in place
    # (``text`` is the one reference), so a text with no NUL is not copied.
    text += "\n"
    head, *texts = text.split("\0")
    write = sys.stdout.write
    write(head)
    chunk, size = [], 0
    for items, text in zip([*streams, lines or ()], [*texts, ""]):
        for item in itertools.chain(items, [text]):
            chunk.append(item)
            size += len(item)
            if size >= _WRITE_SIZE:
                write("".join(chunk))
                chunk, size = [], 0
    if size:
        write("".join(chunk))


# Characters of one ``write`` of streamed output.  Under an unbuffered
# stdout (``python -u``) each write is a system call.
_WRITE_SIZE = 65_536


# The JSON text of a scalar, by its exact type.
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get}
_SCALARS[type(None)] = {None: "null"}.get


def _layout(pad: str) -> tuple[str, str]:
    """The text after the opening bracket of a JSON array or object whose
    closing bracket follows ``pad``, and the text between its items: a
    line indented 2 more for a ``pad`` of a newline and an indent, and one
    line as ``json.dumps`` writes it for an empty ``pad``."""
    if pad:
        inner = pad + "  "
        return inner, "," + inner
    return "", ", "


def _indented(value, pad: str, streams: list) -> str:
    """``value`` as JSON with sorted string keys: its lines continued by
    ``pad`` (a newline and its indent), or one line if ``pad`` is empty.  A
    stream is a NUL; its texts at ``pad`` join ``streams`` in text order."""
    encode = _SCALARS.get(type(value))
    if encode:
        return encode(value)
    inner, sep = _layout(pad)
    if isinstance(value, dict):
        items = [
            f"{_quote(k)}: {_indented(v, inner, streams)}"
            for k, v in sorted(value.items())
        ]
        return f"{{{inner}{sep.join(items)}{pad}}}" if value else "{}"
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        encode = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(encode, value) if encode else [_indented(v, inner, streams) for v in value]
        return f"[{inner}{sep.join(items)}{pad}]" if value else "[]"
    if callable(value):
        streams.append(value(pad))
        return "\0"
    return _indented(jsonify(value), pad, streams)


def _table_lines(data, prefix: str, streams: list):
    if isinstance(data, dict):
        for key in sorted(data):
            path = f"{prefix}.{key}" if prefix else key
            yield from _table_lines(data[key], path, streams)
    else:
        yield f"{prefix} = " + _indented(data, "", streams)


def cmd_analyze(args) -> dict:
    word = braid_mod.parse_braid(args.braid)
    parts = braid_mod.permutation(word)
    stats = braid_mod.crossing_stats(word, parts)
    report = braid_mod.check_hypothesis(word, args.assert_hyperbolic, stats)
    floor = {str(d): v for d, v in braid_mod.dehornoy_floors(word).items()}
    return {
        "braid": {
            "canonical": braid_mod.format_braid(word),
            "strands": word.strands,
            "length": len(word),
            "c_plus": stats.c_plus,
            "c_minus": stats.c_minus,
            "exponent_sum": stats.c_plus - stats.c_minus,
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
    length = cfrac_mod.neg_cfrac_length(target, MAX_CFRAC_TERMS)
    if length > MAX_CFRAC_TERMS:
        raise CFracError(
            f"{args.value!r} expands to over {MAX_CFRAC_TERMS} coefficients,"
            f" cap {MAX_CFRAC_TERMS}",
            budget="MAX_CFRAC_TERMS",
            cap=MAX_CFRAC_TERMS,
            needed=length,
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
    text = braid_mod.format_braid(word)
    return {
        "rational_diagram": _diagram(text, rational),
        "expanded_diagram": _diagram(text, expanded),
        # Checked integral here, before anything is written.
        "linking_matrix": functools.partial(_matrix_rows, surgery.linking_rows(expanded)),
        "homology": vars(surgery.homology(expanded)),
    }


# The keys of a component of a ``surgery`` diagram, each with the slot of
# its value's text: a quoted ``%s`` for a text, ``%%s`` for an int or None.
_COMPONENT = {"component": "%%s", "depth": "%%s", "framing": "%s", "kind": "%s", "parent": "%%s"}


def _diagram(braid: str, diagram: surgery.SurgeryDiagram) -> dict:
    """:func:`surgery.diagram_to_dict` of ``diagram``, given the text of its
    braid, with its ``components`` as a stream: a template of
    :data:`_COMPONENT` at its place, filled in per component."""
    values = [
        (c.component, c.depth, surgery.framing_str(c.framing), c.kind, c.parent)
        for c in diagram.components
    ]

    def components(pad):
        entry = _indented(_COMPONENT, _layout(pad)[0], []).replace('"%%s"', "%s")
        # A missing index prints as None, and no kind, framing or index has
        # that text otherwise.
        return _blocks([(entry % v).replace("None", "null") for v in values], pad)

    return {"braid": braid, "components": components}


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
    # Each block reaches the write size, so emit writes it as it is.
    return payload, enum.json_blocks(_WRITE_SIZE)


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
    # The text of every value exists before anything is written.  Each form
    # has an entry template with its c1^2 and theta texts, and a %s slot for
    # each of its two lists.  A list text is one str.join of a text per menu
    # (see _list_levels), from itertools.product, so a tuple's entry runs no
    # bytecode of ours.
    ids, values = enum.theta_sweep(frac_str)
    rots = [list(map(str, menu)) for menu in enum.menus]
    picks = [list(map(str, range(1, len(menu) + 1))) for menu in enum.menus]

    def entries(pad):
        at = _layout(pad)[0]
        shape = {"c1_squared": "%s", "rotation_tuple": "%%s", "theta": "%s", "tuple": "%%s"}
        entry = _indented(shape, at, []).replace('"%%s"', "%%s")
        templates = [entry % texts[:2] for texts in values]
        rot_lists, pick_lists = (
            map("".join, itertools.product(*_list_levels(texts, _layout(at)[0])))
            for texts in (rots, picks)
        )
        items = map(str.__mod__, map(templates.__getitem__, ids), zip(rot_lists, pick_lists))
        return _blocks(items, pad)

    def theta_groups(pad):
        at = _layout(pad)[0]
        group = _indented({"theta": "%s", "tuples": ["%%s"]}, at, []).replace('"%%s"', "%s")
        # A group's pick list of the tuple at i in tuples(): the text of the
        # head menus' picks at i // size, then the tail menus' at i % size.
        # The tail is the last menu and those before it while its product
        # squared is at most count, so each side holds about sqrt(count) texts.
        pick_pad, sep = _layout(_layout(at)[0])
        levels = _list_levels(picks, pick_pad)
        cut, size = len(levels) - 1, len(levels[-1])
        while cut and (size * len(levels[cut - 1])) ** 2 <= enum.count:
            cut -= 1
            size *= len(levels[cut])
        heads, tails = (
            list(map("".join, itertools.product(*part)))
            for part in (levels[:cut], levels[cut:])
        )

        def tuples(indices):
            lists = map(
                str.__add__,
                map(heads.__getitem__, map(size.__rfloordiv__, indices)),
                map(tails.__getitem__, map(size.__rmod__, indices)),
            )
            return sep.join(lists)

        return _blocks((group % (theta, tuples(indices)) for _, theta, indices in values), pad)

    return {"count": enum.count, "entries": entries, "theta_groups": theta_groups}


def _list_levels(columns, pad: str) -> list[list[str]]:
    """One list of texts per list of ``columns`` (the texts of one menu's
    picks; every slope is positive, so there is at least one menu), such
    that ``"".join`` of one text of each is the JSON list of those picks at
    ``pad`` (see :func:`_layout`): the first texts open the list, each is
    led by its separator, and the last close it."""
    inner, sep = _layout(pad)
    leads = ["[" + inner] + [sep] * (len(columns) - 1)
    levels = [[lead + text for text in texts] for lead, texts in zip(leads, columns)]
    levels[-1] = [text + pad + "]" for text in levels[-1]]
    return levels


def _blocks(items, pad: str):
    """The text of a JSON array at ``pad`` of the texts ``items`` (at least
    one), in blocks of ``_BLOCK`` items."""
    inner, sep = _layout(pad)
    items, lead = iter(items), "[" + inner
    while block := list(itertools.islice(items, _BLOCK)):
        yield lead + sep.join(block)
        lead = sep
    yield pad + "]"


_BLOCK = 1024


def _matrix_rows(rows, pad: str):
    """The text of a square matrix at ``pad`` from its sparse rows (at least
    one, as :func:`surgery.linking_rows` gives them): one text per row,
    then the closing bracket.  A row's cells start as ``"0"``, its nonzero
    entries are set by ``repr``, and the row is one ``str.join``."""
    inner, sep = _layout(pad)
    at, comma = _layout(inner)
    zeros, lead = ["0"] * len(rows), "[" + inner
    for row in rows:
        cells = zeros.copy()
        for j, x in row.items():
            cells[j] = repr(x)
        yield f"{lead}[{at}{comma.join(cells)}{inner}]"
        lead = sep
    yield pad + "]"


def cmd_limits(args) -> dict:
    from . import limits

    prefix = parse_int_list(args.coeffs) if args.coeffs else ()
    cycle = parse_int_list(args.cycle) if args.cycle else ()
    stream = limits.CoeffStream(prefix, cycle)
    tail, pattern = _parse_tail(args.tail)
    tuple_prefix = parse_int_list(args.tuple_prefix) if args.tuple_prefix else ()
    sign_tuple = limits.SignTuple(tuple_prefix, tail, pattern)
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
    from . import limits

    if text in (limits.TAIL_ONES, limits.TAIL_MAX):
        return text, ()
    if text.startswith("periodic:"):
        return limits.TAIL_PERIODIC, parse_int_list(text[len("periodic:") :])
    raise LimitsError(f"unknown tail {text!r}; use ones, max or periodic:<list>")


def cmd_family(args) -> dict:
    from . import families

    if args.kind == "example420":
        if args.k is None:
            raise BraidError("example420 needs -k")
        return {"braid": braid_mod.format_braid(families.example_braid(args.k))}
    if args.kind == "power":
        word = _family_braid(args)
        if args.k is None:
            raise BraidError("power needs -k")
        return {"braid": braid_mod.format_braid(braid_mod.power(word, args.k))}
    if args.kind == "delta2l":
        word = _family_braid(args)
        if args.ell is None:
            raise BraidError("delta2l needs --ell")
        twisted = families.delta_squared_times(word, args.ell)
        return {"braid": braid_mod.format_braid(twisted)}
    if args.k is None or args.ell is None:  # lspace, the last of the choices
        raise BraidError("lspace needs -k and --ell")
    word = _family_braid(args, default_tour=True)
    diagram, report, additivity, axis_report, next_report = (
        families.lspace_family_diagram(word, args.k, args.ell)
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
        strands = 3 if args.strands is None else args.strands
        braid_mod.check_strands(strands)
        return braid_mod.BraidWord(strands, tuple(range(1, strands)))
    raise BraidError(f"{args.kind} needs --braid")


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early (``| head``)
        return EXIT_OK
    return code


def entry() -> int:
    """The process entry of ``python -m braidsurgery.cli`` and of the
    ``braidsurgery`` console script: :func:`main`, a last flush of stdout,
    then ``gc.freeze()``, so that the collections of interpreter shutdown
    skip every object still alive.  ``main`` never freezes: in a long-lived
    caller a freeze would keep every later cycle for good."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed reader is a clean exit.  Point the descriptor at devnull
        # so that the flush at interpreter exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
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
    except BraidsurgeryError as exc:
        error = {"code": exc.code, "type": type(exc).__name__, "message": str(exc)}
        if exc.budget is not None:
            error.update(budget=exc.budget, cap=exc.cap, needed=exc.needed)
    except BrokenPipeError:
        raise
    except Exception as exc:
        # A bug, not bad input: still one JSON error object, never a traceback.
        error = {
            "code": EXIT_NUMERIC,
            "type": "InternalError",
            "message": f"{type(exc).__name__}: {exc}",
        }
    emit({"schema": SCHEMA, "error": error})
    return error["code"]


if __name__ == "__main__":
    sys.exit(entry())
