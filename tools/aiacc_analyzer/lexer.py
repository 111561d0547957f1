"""Lexical utilities shared by the aiacc-analyzer frontends.

Everything here operates on plain text and is careful about the C++
lexical grammar the repo actually uses: //, /* */ comments, ordinary
string/char literals with escapes, and raw string literals
(R"delim( ... )delim") — the last being exactly what regex-based lints
historically mishandled.
"""

from __future__ import annotations

import re

# Keywords that look like calls to a naive `ident (` scanner.
NOT_A_CALL = frozenset(
    """if for while switch return sizeof alignof alignas decltype
    static_cast dynamic_cast const_cast reinterpret_cast new delete
    throw catch noexcept assert defined co_await co_yield co_return
    """.split()
)

RAW_STRING_OPEN = re.compile(r'R"([^()\\ \t\n]{0,16})\(')


def strip_comments_and_strings(text: str, blank_strings: bool = True) -> str:
    """Blank out comments (always) and string/char literal *contents*
    (when `blank_strings`), preserving line structure so offsets map 1:1
    onto the original text. Raw string literals R"d( ... )d" are handled:
    their contents never leak into "code" state (a `//` or an unbalanced
    brace inside a raw string must not derail structural scanning).
    """
    out = list(text)

    def blank(i: int, j: int) -> None:
        for k in range(i, j):
            if out[k] != "\n":
                out[k] = " "

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            blank(i, j)
            i = j
        elif c == "R" and nxt == '"':
            m = RAW_STRING_OPEN.match(text, i)
            if m is None:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, m.end())
            j = n if j == -1 else j + len(close)
            if blank_strings:
                # Keep the opening/closing quotes so downstream scanners
                # still see "a string was here".
                blank(i + 1, j - 1)
                out[i + 1] = '"'
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            if blank_strings:
                blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def match_delim(text: str, i: int) -> int:
    """Index of the delimiter matching text[i] (one of ([{); text must be
    pre-stripped so literals cannot confuse the count. Returns len(text)
    when unbalanced."""
    opener = text[i]
    closer = {"(": ")", "[": "]", "{": "}"}[opener]
    depth = 0
    for j in range(i, len(text)):
        c = text[j]
        if c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def line_of(text: str, pos: int) -> int:
    """1-based line number of `pos` in `text`."""
    return text.count("\n", 0, pos) + 1


def skip_ws_back(text: str, i: int) -> int:
    """Greatest j <= i such that text[j] is non-whitespace (or -1)."""
    while i >= 0 and text[i].isspace():
        i -= 1
    return i


IDENT = re.compile(r"[A-Za-z_]\w*")


def ident_ending_at(text: str, i: int) -> str:
    """The identifier whose last character is text[i] ('' if none)."""
    j = i
    while j >= 0 and (text[j].isalnum() or text[j] == "_"):
        j -= 1
    word = text[j + 1 : i + 1]
    return word if word and not word[0].isdigit() else ""
