"""Source-position-aware parse layer for the analyzer.

The runtime compiler (:mod:`repro.core.tclish.compiler`) deliberately
forgets where in the source each command came from -- execution doesn't
need it.  Lint does, so this module re-runs the *same lexer* in its
spanned form (:func:`~repro.core.tclish.lexer.split_commands_spanned` /
``split_words_spanned``) and wraps the results in small node objects that
carry absolute offsets, resolved to ``(line, col)`` through a
:class:`LineMap` over the original source.

Word classification reuses :func:`repro.core.tclish.compiler.analyze_word`
so lint sees words exactly as the execution engine does (literal, direct
variable read, or substitution segments), and the reads and nested
scripts of a substitution come from the interpreter's own scanner
(:func:`~repro.core.tclish.compiler.scan_substitution`), offsets
included.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.tclish import compiler
from repro.core.tclish.compiler import (
    LITERAL,
    SEG_CMD,
    SEG_VAR,
    SEGMENTS,
    VARREF,
    CompiledWord,
)
from repro.core.tclish.lexer import split_commands_spanned, split_words_spanned


class LineMap:
    """Maps absolute source offsets to 1-based (line, col) pairs."""

    def __init__(self, source: str):
        self._starts = [0]
        for i, ch in enumerate(source):
            if ch == "\n":
                self._starts.append(i + 1)

    def position(self, offset: int) -> Tuple[int, int]:
        line = bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1


@dataclass
class WordNode:
    """One raw word with its absolute offset and compiled classification."""

    raw: str
    offset: int
    compiled: CompiledWord

    @property
    def is_literal(self) -> bool:
        return self.compiled.kind == LITERAL

    @property
    def literal(self) -> Optional[str]:
        """The word's constant value, or None when it needs substitution."""
        return self.compiled.text if self.compiled.kind == LITERAL else None

    def braced_body(self) -> Optional[Tuple[str, int]]:
        """For a ``{...}`` word: the body text and its absolute offset."""
        if len(self.raw) >= 2 and self.raw[0] == "{" and self.raw[-1] == "}":
            return self.raw[1:-1], self.offset + 1
        return None

    def variable_reads(self) -> List[Tuple[str, int]]:
        """``$name`` reads this word performs, with absolute offsets."""
        if self.compiled.kind == VARREF:
            return [(self.compiled.text, self.offset)]
        return self._segments(SEG_VAR)

    def nested_scripts(self) -> List[Tuple[str, int]]:
        """``[script]`` substitutions this word triggers, with offsets."""
        return self._segments(SEG_CMD)

    def _segments(self, code: int) -> List[Tuple[str, int]]:
        if self.compiled.kind != SEGMENTS:
            return []
        text, base = self.raw, self.offset
        if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
            text, base = text[1:-1], base + 1
        return segments_at(text, base, code)


@dataclass
class CommandNode:
    """One command: positioned words, first word is the command name."""

    words: List[WordNode]
    offset: int

    @property
    def name(self) -> Optional[str]:
        """The command name when it is a compile-time constant."""
        return self.words[0].literal

    @property
    def args(self) -> List[WordNode]:
        return self.words[1:]


def parse_script(source: str, base_offset: int = 0) -> List[CommandNode]:
    """Parse a script (or nested body) into positioned command nodes.

    ``base_offset`` shifts all positions so nested braced bodies report
    absolute offsets into the outermost source.  Raises
    :class:`~repro.core.tclish.errors.TclError` on lexical errors exactly
    as evaluation would.
    """
    nodes: List[CommandNode] = []
    for text, cmd_offset in split_commands_spanned(source):
        words = []
        for raw, word_offset in split_words_spanned(text):
            words.append(WordNode(
                raw=raw,
                offset=base_offset + cmd_offset + word_offset,
                compiled=compiler.analyze_word(raw)))
        if words:
            nodes.append(CommandNode(words=words,
                                     offset=base_offset + cmd_offset))
    return nodes


def segments_at(text: str, base_offset: int,
                code: int) -> List[Tuple[str, int]]:
    """The ``SEG_VAR`` reads or ``SEG_CMD`` nested scripts (``code``) of a
    substitution string, at absolute offsets.

    Nested ``[script]`` regions are one segment each -- their own reads
    are reported when the nested script itself is analyzed.  Raises
    :class:`~repro.core.tclish.errors.TclError` exactly as substitution
    at runtime would.
    """
    return [(payload, base_offset + offset)
            for kind, payload, offset in compiler.scan_substitution(text)
            if kind == code]
