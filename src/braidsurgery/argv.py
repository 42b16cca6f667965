"""The command-line grammar as one table, and the walk that reads argv by it.

:data:`GRAMMAR` is plain data built at import: every subcommand with its
help line and its arguments.  :func:`parse_argv` walks an argv through it
as ``argparse`` would through the equivalent parser: positionals and
options in any order, ``--name value`` and ``--name=value``, ``-k 5`` and
``-k5``, a unique prefix of a long option, ``--`` to end the options, a
negative number such as ``-101`` or ``-.5`` as a value, and the last of
a repeated option.  It returns the same namespace (the subcommand, then
each argument's dest and default), the help text asked for by
``-h``/``--help``, or raises :class:`UsageError` with argparse's message.

Where argparse releases differ, or argparse has a corner this grammar
does not need, the walk keeps one plain rule: the first ``--`` is dropped
wherever it stands and every token after it is a value; a token that
starts as a negative number (``-7/2``, ``-1e5``) is a value, as in later
argparse releases; and ``-h`` with text glued to it is an error, as any
flag given a value is.
"""

from __future__ import annotations

import re
from types import SimpleNamespace


class UsageError(ValueError):
    """The argv does not fit the command-line grammar."""


# Each subcommand's help line, then its arguments in order, each
# ``(names, kind, default, help)``.  A name that is not a flag names a
# positional; the last name gives the dest, as in argparse.  Kind is bool
# for a flag, int or str for a value, or the tuple of a value's choices; the
# default ``...`` marks a required argument, which reads None until given.
_BRAID = ("braid",), str, ..., ""
_TABLE = ("--table",), bool, False, "key = value lines instead of JSON"
GRAMMAR = {
    "analyze": (
        "crossing statistics and hypothesis checks",
        _BRAID,
        (("--assert-hyperbolic",), bool, False, ""),
        _TABLE,
    ),
    "cfrac": (
        "negative continued fraction expansion",
        (("value",), str, ..., "rational below -1, or a slope in (0, 1)"),
        _TABLE,
    ),
    "surgery": (
        "expand a rational surgery to integral form",
        _BRAID,
        (("--slopes",), str, ..., "comma-separated positive slopes"),
        (("--general",), bool, False, "chain form for 1/n too"),
        _TABLE,
    ),
    "enumerate": (
        "count and stream decorated diagrams",
        _BRAID,
        (("--slopes",), str, ..., ""),
        (("--count-only",), bool, False, ""),
        (("--isom-order",), int, None, ""),
        _TABLE,
    ),
    "theta": (
        "plane-field invariant of decorated diagrams",
        _BRAID,
        (("--slope",), str, ..., "slope, or comma list for links"),
        (("--tuple",), str, None, "comma-separated 1-based menu picks"),
        _TABLE,
    ),
    "limits": (
        "block model of the limiting end",
        (("--coeffs",), str, None, "comma-separated prefix, all <= -2"),
        (("--cycle",), str, None, "periodic continuation"),
        (("--tuple-prefix",), str, None, ""),
        (("--tail",), str, "ones", "ones | max | periodic:<list>"),
        (("-n", "--levels"), int, 0, ""),
        (("--braid",), str, None, ""),
        _TABLE,
    ),
    "family": (
        "braid and diagram generators",
        (("kind",), ("delta2l", "power", "example420", "lspace"), ..., ""),
        (("--braid",), str, None, ""),
        (("-k",), int, None, ""),
        (("-l", "--ell"), int, None, ""),
        (("--strands",), int, None, ""),
        _TABLE,
    ),
}
# The top level: its one positional is the subcommand, which takes every
# token after it.  Every level also has -h/--help.
_COMMAND = ("subcommand",), tuple(GRAMMAR), ..., ""
_TOP = "Braid closures, surgery diagrams, and Legendrian enumeration", _COMMAND
_HELP = ("-h", "--help"), bool, False, "show this help message and exit"
# What later argparse releases read as a negative number, and so as a value.
_NUMBER = re.compile(r"-\.?\d")


def parse_argv(argv) -> SimpleNamespace | str:
    """The namespace of ``argv``, or the help text that it asks for."""
    values, extras = {}, []
    text = _walk("braidsurgery", _TOP, list(argv), values, extras)
    if text is None and extras:
        raise UsageError(f"braidsurgery: unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values) if text is None else text


def _walk(prog, level, tokens, values, extras):
    """argparse's walk over one parser's tokens: each option with its value,
    in order; the positional at the first value token; the rest to
    ``extras``.  The subcommand walks every token after it as its own
    parser.  Returns the help text of a ``-h``."""
    args = level[1:]
    positional = next((arg for arg in args if arg[0][0][0] != "-"), None)
    flags = {name: arg for arg in (_HELP, *args) for name in arg[0] if name[0] == "-"}
    values.update((_dest(arg), None if arg[2] is ... else arg[2]) for arg in args)
    # Each token reads as a value (None), as the first ``--``, after which
    # every token is a value, or as an option ``(argument or None, text)``.
    marks = []
    for token in tokens:
        if token == "--":
            marks += ["--"] + [None] * (len(tokens) - len(marks) - 1)
            break
        marks.append(_read(prog, token, flags))
    seen, i = {None}, 0  # None stands for no positional
    while i < len(tokens):
        mark = marks[i]
        if type(mark) is tuple and mark[0]:
            arg, text = mark
            if arg[1] is bool and text is not None:
                _fail(prog, arg, f"ignored explicit argument {text!r}")
            if arg[1] is not bool and text is None:
                if i + 1 == len(tokens) or marks[i + 1] is not None:
                    _fail(prog, arg, "expected one argument")
                i += 1
                text = tokens[i]
            if arg is _HELP:
                return _help(prog, level)
            seen.add(arg)
            values[_dest(arg)] = _value(prog, arg, text)
        elif mark is None and positional not in seen:
            seen.add(positional)
            name = values[_dest(positional)] = _value(prog, positional, tokens[i])
            if positional is _COMMAND:
                command = f"braidsurgery {name}"
                return _walk(command, GRAMMAR[name], tokens[i + 1 :], values, extras)
        elif mark != "--":
            extras.append(tokens[i])
        i += 1
    missing = [arg for arg in args if arg[2] is ... and arg not in seen]
    if missing:
        names = ", ".join("/".join(arg[0]) for arg in missing)
        raise UsageError(f"{prog}: the following arguments are required: {names}")
    return None


def _read(prog, token, flags):
    """What argparse reads ``token`` as: None for a value, else an option
    ``(argument, attached text or None)``, whose argument is None for a
    flag this parser does not have."""
    if token[:1] != "-":
        return None
    if token in flags:
        return flags[token], None
    if len(token) == 1:
        return None
    flag, equals, text = token.partition("=")
    if equals and flag in flags:
        return flags[flag], text
    if token[1] == "-":  # a unique prefix of a long flag
        text = text if equals else None
        found = [(name, text) for name in flags if name.startswith(flag)]
    else:  # ``-k5``
        found = [(token[:2], token[2:])] if token[:2] in flags else []
    if len(found) > 1:
        names = ", ".join(name for name, _ in found)
        raise UsageError(f"{prog}: ambiguous option: {token} could match {names}")
    if found:
        return flags[found[0][0]], found[0][1]
    if _NUMBER.match(token) or " " in token:
        return None
    return None, None


def _dest(arg) -> str:
    return arg[0][-1].lstrip("-").replace("-", "_")


def _value(prog, arg, text):
    """``text`` as the value of ``arg`` (a flag reads True), checked as
    argparse checks it."""
    kind = arg[1]
    if kind is bool:
        return True
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(prog, arg, f"invalid int value: {text!r}")
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        _fail(prog, arg, f"invalid choice: {text!r} (choose from {choices})")
    return text


def _fail(prog, arg, message):
    raise UsageError(f"{prog}: argument {'/'.join(arg[0])}: {message}")


def _help(prog, level) -> str:
    """The ``--help`` text of one parser, made from its table entry."""
    about, *args = level
    usage, rows = [prog, "[-h]"], [(", ".join(_HELP[0]), _HELP[3])]
    for arg in args:
        names, kind, default, text = arg
        if type(kind) is tuple:
            form = "{%s}" % ",".join(kind)
        elif names[0][0] != "-":
            form = names[0]
        else:
            meta = "" if kind is bool else " " + _dest(arg).upper()
            usage.append(names[0] + meta if default is ... else f"[{names[0]}{meta}]")
            rows.append((", ".join(names) + meta, text))
            continue
        usage.append(form)
        rows.append((form, text))
    if args[0] is _COMMAND:
        usage.append("...")
        rows[1:] = [(name, entry[0]) for name, entry in GRAMMAR.items()]
    width = max(len(form) for form, _ in rows)
    lines = "".join(f"\n  {form:<{width}}  {text}".rstrip() for form, text in rows)
    return f"usage: {' '.join(usage)}\n\n{about}\n\narguments:{lines}\n"
