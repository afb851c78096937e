"""Command and word splitting for tclish.

Tcl parsing happens in two stages: a script is split into commands
(separated by newlines and semicolons outside of any nesting), and each
command is split into raw words (whitespace separated, respecting ``{}``,
``""`` and ``[]`` nesting).  Substitution of ``$``, ``[]`` and backslashes
inside words happens later, at evaluation time, because command
substitution needs a live interpreter.

The splitters here preserve the raw text of each word including its outer
braces/quotes; :mod:`repro.core.tclish.interp` decides how to substitute
based on that first character.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.core.tclish.errors import TclError


def split_commands(script: str) -> List[str]:
    """Split a script into command strings.

    Separators are newlines and semicolons at nesting depth zero.  Comments
    (``#`` where a command would start) run to the end of the line.  Empty
    commands are dropped.
    """
    return [text for text, _offset in split_commands_spanned(script)]


def split_commands_spanned(script: str) -> List[Tuple[str, int]]:
    """Split a script into ``(command, offset)`` pairs.

    ``offset`` is the index in ``script`` of the command's first character,
    so static analysis (:mod:`repro.core.tclish.lint`) can map every
    command back to a line and column.  Each command text is a contiguous
    substring of the source starting at its offset (only trailing
    whitespace is stripped).
    """
    commands: List[Tuple[str, int]] = []
    current: List[str] = []
    start_offset = 0
    depth_brace = 0
    depth_bracket = 0
    in_quote = False
    i = 0
    n = len(script)
    at_command_start = True

    while i < n:
        ch = script[i]
        if at_command_start and ch in " \t":
            i += 1
            continue
        if at_command_start and ch == "#" and depth_brace == 0 and depth_bracket == 0:
            while i < n and script[i] != "\n":
                i += 1
            continue
        if at_command_start:
            start_offset = i
        at_command_start = False

        if ch == "\\" and i + 1 < n:
            current.append(script[i:i + 2])
            i += 2
            continue
        if in_quote:
            if ch == '"':
                in_quote = False
            current.append(ch)
            i += 1
            continue
        if ch == '"' and depth_brace == 0:
            in_quote = True
            current.append(ch)
            i += 1
            continue
        if ch == "{":
            depth_brace += 1
        elif ch == "}":
            depth_brace -= 1
            if depth_brace < 0:
                raise TclError("unbalanced close brace")
        elif ch == "[" and depth_brace == 0:
            depth_bracket += 1
        elif ch == "]" and depth_brace == 0:
            depth_bracket -= 1
            if depth_bracket < 0:
                raise TclError("unbalanced close bracket")

        if ch in "\n;" and depth_brace == 0 and depth_bracket == 0:
            text = "".join(current).strip()
            if text:
                commands.append((text, start_offset))
            current = []
            at_command_start = True
            i += 1
            continue

        current.append(ch)
        i += 1

    if in_quote:
        raise TclError("unterminated quote")
    if depth_brace != 0:
        raise TclError("unbalanced open brace")
    if depth_bracket != 0:
        raise TclError("unbalanced open bracket")
    text = "".join(current).strip()
    if text:
        commands.append((text, start_offset))
    return commands


def split_words(command: str) -> List[str]:
    """Split one command into raw words.

    Words keep their outer ``{}`` or ``""`` delimiters so the evaluator can
    tell braced (no substitution) from quoted/bare (substitution) words.
    """
    return [text for text, _offset in split_words_spanned(command)]


def split_words_spanned(command: str) -> List[Tuple[str, int]]:
    """Split one command into ``(raw_word, offset)`` pairs.

    ``offset`` is the index of the word's first character within
    ``command``; the lint walker adds the command's own offset to recover
    absolute source positions.
    """
    words: List[Tuple[str, int]] = []
    i = 0
    n = len(command)
    while i < n:
        while i < n and command[i] in " \t\n":
            i += 1
        if i >= n:
            break
        start = i
        ch = command[i]
        if ch == "{":
            depth = 0
            while i < n:
                if command[i] == "\\" and i + 1 < n:
                    i += 2
                    continue
                if command[i] == "{":
                    depth += 1
                elif command[i] == "}":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            else:
                raise TclError("unmatched open brace in word")
            if depth != 0:
                raise TclError("unmatched open brace in word")
            words.append((command[start:i], start))
        elif ch == '"':
            i += 1
            while i < n:
                if command[i] == "\\" and i + 1 < n:
                    i += 2
                    continue
                if command[i] == '"':
                    i += 1
                    break
                if command[i] == "[":
                    i = _skip_bracket(command, i)
                    continue
                i += 1
            else:
                raise TclError("unterminated quoted word")
            words.append((command[start:i], start))
        else:
            while i < n and command[i] not in " \t\n":
                if command[i] == "\\" and i + 1 < n:
                    i += 2
                    continue
                if command[i] == "[":
                    i = _skip_bracket(command, i)
                    continue
                if command[i] == "{":
                    i = _skip_brace(command, i)
                    continue
                i += 1
            words.append((command[start:i], start))
    return words


def _skip_bracket(text: str, i: int) -> int:
    """Given ``text[i] == '['``, return index just past the matching ']'."""
    depth = 0
    n = len(text)
    while i < n:
        if text[i] == "\\" and i + 1 < n:
            i += 2
            continue
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise TclError("unmatched open bracket")


def _skip_brace(text: str, i: int) -> int:
    """Given ``text[i] == '{'``, return index just past the matching '}'."""
    depth = 0
    n = len(text)
    while i < n:
        if text[i] == "\\" and i + 1 < n:
            i += 2
            continue
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise TclError("unmatched open brace")


def strip_braces(word: str) -> str:
    """Remove one level of outer braces or quotes from a raw word."""
    if len(word) >= 2 and word[0] == "{" and word[-1] == "}":
        return word[1:-1]
    if len(word) >= 2 and word[0] == '"' and word[-1] == '"':
        return word[1:-1]
    return word


#: the word separators split_words recognises, as a regex for the fast path
_PLAIN_SEP = re.compile(r"[ \t\n]+")


def parse_list(text: str) -> List[str]:
    """Split a Tcl list string into elements.

    Lists with no quoting constructs -- the overwhelmingly common case in
    filter scripts -- split on whitespace directly instead of walking the
    lexer character by character.
    """
    if "{" not in text and '"' not in text and "\\" not in text \
            and "[" not in text:
        stripped = text.strip(" \t\n")
        return _PLAIN_SEP.split(stripped) if stripped else []
    return [strip_braces(word) for word in split_words(text)]
