"""Source model shared by every srsr_analyze pass.

The unit of analysis is a SourceFile: raw lines, scrubbed lines (string
and char literals emptied, comments removed — with line structure
preserved so every finding carries a real line number), and the comment
channel per line (where the annotation grammar lives). A Context wraps
the repository: the file set (driven by build/compile_commands.json
when present, a plain walk of src/ otherwise), lazy per-file function
extraction, and the waiver table.

Annotation grammar (all inside comments):

    // srsr-analyze: allow(<pass>[, <pass>...]): <reason>
        waives findings of the named pass(es) on this line — or on the
        next code line when the comment stands alone. The reason is
        mandatory; a waiver without one is itself a violation.
    // pairs-with: <tag>
        names the acquire/release counterpart of an atomic operation
        (atomics pass).
    // srsr:hot [<label>]  ...  // srsr:endhot
        fences a hot region (hotloop pass).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

CPP_EXTS = (".cpp", ".hpp")

RE_WAIVER = re.compile(
    r"srsr-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(?::\s*(.*))?")

CPP_KEYWORDS = frozenset("""
    alignas alignof and asm auto bool break case catch char class const
    consteval constexpr constinit continue decltype default delete do
    double else enum explicit export extern false float for friend goto
    if inline int long mutable namespace new noexcept not operator or
    private protected public register requires return short signed
    sizeof static static_assert struct switch template this throw true
    try typedef typeid typename union unsigned using virtual void
    volatile wchar_t while co_await co_return co_yield final override
""".split())


def scrub(text: str):
    """Removes comments and blanks string/char literal contents, keeping
    the line structure intact. Returns (scrubbed_text, comments) where
    comments maps 1-based line number -> concatenated comment text on
    that line."""
    out: list[str] = []
    comments: dict[int, str] = {}
    i, n = 0, len(text)
    line = 1

    def note(lineno: int, s: str) -> None:
        comments[lineno] = (comments.get(lineno, "") + " " + s).strip()

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note(line, text[i + 2:j].strip())
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            body = text[i + 2:(n if j == -1 else j)]
            for k, part in enumerate(body.split("\n")):
                stripped = part.strip().lstrip("*").strip()
                if stripped:
                    note(line + k, stripped)
            out.append("\n" * text.count("\n", i, end))
            line += text.count("\n", i, end)
            i = end
            continue
        if c in "\"'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^()\\ ]*)\(', text[i - 1:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    end = n if j == -1 else j + len(closer)
                    out.append('"' + '"')
                    line += text.count("\n", i, end)
                    out.append("\n" * text.count("\n", i, end))
                    i = end
                    continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote + quote)
            i = j + 1 if j < n and text[j] == quote else j
            continue
        if c == "\n":
            line += 1
        out.append(c)
        i += 1
    return "".join(out), comments


@dataclasses.dataclass
class FuncDef:
    """A lexically-extracted function definition."""
    simple: str          # unqualified name (last :: component)
    qual: str            # name as written, e.g. RecomputePipeline::submit
    line: int            # 1-based line of the opening parenthesis
    body: str            # scrubbed body text (between { and })
    body_line: int       # 1-based line of the opening brace
    body_span: tuple[int, int]  # scrubbed offsets of { and }

    def calls(self) -> set[str]:
        names = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", self.body))
        return names - CPP_KEYWORDS


class SourceFile:
    def __init__(self, repo: str, path: str):
        self.path = path
        self.rel = os.path.relpath(path, repo).replace(os.sep, "/")
        parts = self.rel.split("/")
        self.module = parts[1] if parts[0] == "src" and len(parts) > 2 else ""
        with open(path, encoding="utf-8") as f:
            self.text = f.read()
        self.scrubbed, self.comments = scrub(self.text)
        self.raw_lines = self.text.splitlines()
        self.lines = self.scrubbed.splitlines()
        self._funcs: list[FuncDef] | None = None
        self._waivers: dict[int, set[str]] | None = None
        self.bad_waivers: list[int] = []

    # -- waivers ---------------------------------------------------------

    def waivers(self) -> dict[int, set[str]]:
        """Line -> set of waived pass names. A waiver on a comment-only
        line also covers the next code line."""
        if self._waivers is not None:
            return self._waivers
        table: dict[int, set[str]] = {}
        for lineno, comment in sorted(self.comments.items()):
            m = RE_WAIVER.search(comment)
            if not m:
                continue
            if not (m.group(2) or "").strip():
                self.bad_waivers.append(lineno)
                continue
            passes = {p.strip() for p in m.group(1).split(",")}
            table.setdefault(lineno, set()).update(passes)
            code = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
            if not code.strip():
                # Standalone comment: cover the next code line, skipping
                # over blank lines and the rest of a multi-line comment.
                nxt = lineno + 1
                while (nxt <= len(self.lines)
                       and not self.lines[nxt - 1].strip()
                       and self.raw_lines[nxt - 1].strip()):
                    nxt += 1
                table.setdefault(nxt, set()).update(passes)
        self._waivers = table
        return table

    def waived(self, lineno: int, pass_name: str) -> bool:
        return pass_name in self.waivers().get(lineno, set())

    # -- function extraction --------------------------------------------

    def functions(self) -> list[FuncDef]:
        if self._funcs is None:
            self._funcs = extract_functions(self.scrubbed)
        return self._funcs


def _identifier_before(text: str, pos: int):
    """Walks back from text[pos] (exclusive) over a possibly-qualified
    identifier. Returns (qualified_name, start_index) or (None, pos)."""
    j = pos
    while j > 0 and text[j - 1] in " \t\n":
        j -= 1
    end = j
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_~"):
        j -= 1
    if j == end:
        return None, pos
    name = text[j:end]
    while j >= 2 and text[j - 2:j] == "::":
        j -= 2
        k = j
        while k > 0 and (text[k - 1].isalnum() or text[k - 1] in "_~"):
            k -= 1
        if k == j:
            break
        name = text[k:j] + "::" + name
        j = k
    return name, j


def _blank_preprocessor(scrubbed: str) -> str:
    """Blanks preprocessor directives (with `\\` continuations) so a
    function-like macro body is never misread as a definition. Every
    offset into the text is kept."""
    out = []
    cont = False
    for line in scrubbed.split("\n"):
        strip = line.lstrip()
        if cont or strip.startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


_SPECIFIERS = ("const", "noexcept", "override", "final", "mutable", "try")


def _ends_with_specifier(scrubbed: str, last: int) -> bool:
    """True when the identifier ending at scrubbed[last] is a function
    specifier keyword (so a following `{` opens the body)."""
    k = last
    while k >= 0 and (scrubbed[k].isalnum() or scrubbed[k] == "_"):
        k -= 1
    return scrubbed[k + 1:last + 1] in _SPECIFIERS


def extract_functions(scrubbed: str) -> list[FuncDef]:
    """Finds function definitions lexically: an identifier, a balanced
    parenthesis group, then (past cv/ref/noexcept/trailing-return/ctor
    init-list) an opening brace. Bodies are skipped after extraction so
    calls inside one function are never misread as definitions."""
    scrubbed = _blank_preprocessor(scrubbed)
    funcs: list[FuncDef] = []
    n = len(scrubbed)
    i = 0
    while i < n:
        op = scrubbed.find("(", i)
        if op == -1:
            break
        name, _start = _identifier_before(scrubbed, op)
        if not name or name.split("::")[-1] in CPP_KEYWORDS:
            i = op + 1
            continue
        # Balance the parameter list.
        depth, j = 1, op + 1
        while j < n and depth:
            if scrubbed[j] == "(":
                depth += 1
            elif scrubbed[j] == ")":
                depth -= 1
            j += 1
        if depth:
            break
        # Scan for the body `{` before any top-level `;` or `=`. A ctor
        # init-list (after a top-level `:`) may contain parens and
        # member brace-inits; a brace-init's `{` follows an identifier,
        # the body's `{` follows `)`, `}`, or a specifier keyword.
        k = j
        brace = -1
        pdepth = 0
        seen_colon = False
        while k < n:
            c = scrubbed[k]
            if c == "(":
                pdepth += 1
            elif c == ")":
                pdepth = max(0, pdepth - 1)
            elif c == "<":
                pdepth += 1
            elif c == ">":
                pdepth = max(0, pdepth - 1)
            elif pdepth == 0:
                if c == "{":
                    prev = k - 1
                    while prev >= 0 and scrubbed[prev] in " \t\n":
                        prev -= 1
                    prev_c = scrubbed[prev] if prev >= 0 else ""
                    if seen_colon and (prev_c.isalnum() or prev_c == "_") \
                            and not _ends_with_specifier(scrubbed, prev):
                        # member brace-init `y_{2}` — skip the group
                        d2, k2 = 1, k + 1
                        while k2 < n and d2:
                            if scrubbed[k2] == "{":
                                d2 += 1
                            elif scrubbed[k2] == "}":
                                d2 -= 1
                            k2 += 1
                        k = k2
                        continue
                    brace = k
                    break
                if c == ";" or c == "=":
                    break
                if c == ":" and scrubbed[k + 1:k + 2] != ":" and \
                        scrubbed[k - 1:k] != ":":
                    seen_colon = True
            k += 1
        if brace == -1:
            i = op + 1
            continue
        # Balance the body.
        depth, j2 = 1, brace + 1
        while j2 < n and depth:
            if scrubbed[j2] == "{":
                depth += 1
            elif scrubbed[j2] == "}":
                depth -= 1
            j2 += 1
        line = scrubbed.count("\n", 0, op) + 1
        body_line = scrubbed.count("\n", 0, brace) + 1
        funcs.append(FuncDef(
            simple=name.split("::")[-1],
            qual=name,
            line=line,
            body=scrubbed[brace + 1:j2 - 1],
            body_line=body_line,
            body_span=(brace, j2 - 1),
        ))
        i = j2
    return funcs


@dataclasses.dataclass
class Violation:
    rel: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class PassResult:
    name: str
    violations: list[Violation]
    summary: dict = dataclasses.field(default_factory=dict)
    checked_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class Context:
    """The repository as the passes see it."""

    def __init__(self, repo: str, compile_commands: str | None = None):
        self.repo = os.path.abspath(repo)
        self.compile_commands_path = compile_commands or os.path.join(
            self.repo, "build", "compile_commands.json")
        self._files: dict[str, SourceFile] = {}
        self._src_list: list[str] | None = None

    # -- file enumeration ------------------------------------------------

    def compile_commands(self) -> list[dict]:
        try:
            with open(self.compile_commands_path, encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return []

    def src_files(self) -> list[str]:
        """Every .cpp/.hpp under src/. Translation units come from
        compile_commands.json when available (so the set analyzed is
        exactly the set built); headers and any unbuilt sources are
        picked up by the walk either way."""
        if self._src_list is not None:
            return self._src_list
        found: set[str] = set()
        for entry in self.compile_commands():
            path = os.path.normpath(os.path.join(
                entry.get("directory", ""), entry.get("file", "")))
            rel = os.path.relpath(path, self.repo)
            if rel.startswith("src" + os.sep) and path.endswith(CPP_EXTS) \
                    and os.path.exists(path):
                found.add(path)
        src_root = os.path.join(self.repo, "src")
        for dirpath, _dirs, files in os.walk(src_root):
            for fn in files:
                if fn.endswith(CPP_EXTS):
                    found.add(os.path.join(dirpath, fn))
        self._src_list = sorted(found)
        return self._src_list

    def file(self, path: str) -> SourceFile:
        if path not in self._files:
            self._files[path] = SourceFile(self.repo, path)
        return self._files[path]

    def sources(self):
        for path in self.src_files():
            yield self.file(path)

    def modules(self) -> list[str]:
        return sorted({f.module for f in self.sources() if f.module})

    def waiver_violations(self, pass_name: str) -> list[Violation]:
        """Reasonless waivers surface through whichever pass runs first
        on the file; reported under the calling pass's name."""
        out = []
        for sf in self.sources():
            sf.waivers()
            for lineno in sf.bad_waivers:
                out.append(Violation(
                    sf.rel, lineno, pass_name,
                    "srsr-analyze waiver without a reason — write "
                    "`// srsr-analyze: allow(<pass>): <why this is ok>`"))
        return out
