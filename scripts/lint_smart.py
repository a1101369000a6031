#!/usr/bin/env python3
"""Project lint for the SMART tree (registered as a CTest test).

Rules
-----
naked-new      `new` expressions are banned outside common/arena.hh —
               allocation goes through containers, smart pointers, or
               the arena.  (Placement new counts: it is still manual
               lifetime management.)
naked-delete   `delete` expressions are banned outside common/arena.hh
               (`= delete;` declarations are fine).
endl           `std::endl` is banned: it is a flush, and the logging
               layer already guarantees line-atomic writes.  Use '\\n'.
memory-order   Every non-seq_cst std::memory_order use must carry a
               `// memory_order:` rationale comment on the same line or
               within the preceding RATIONALE_WINDOW lines — relaxed
               atomics without a written pairing argument are how the
               PR 8 join race happened.
std-mutex      `std::mutex` members/locals are banned in src/ outside
               common/threadsafety.hh: use the capability-annotated
               smart::Mutex/LockGuard so clang -Wthread-safety can see
               the lock.  (std::condition_variable still waits on the
               wrapped mutex via LockGuard.)
tsa-escape     `SMART_NO_THREAD_SAFETY_ANALYSIS` needs an adjacent
               `// tsa:` justification — blanket escapes defeat the
               analysis.
raw-unit-double
               Raw `double` declarations whose camelCase name carries a
               unit suffix (Ps, Ns, Ghz, J, Pj, W, Um2) are banned in
               src/ outside common/units.hh and the byte-exact
               request-key serializer (accel/hash.cc): use the typed
               quantities (smart::Picoseconds, smart::Joules, ...) so a
               unit mix-up is a compile error.
               Densities and report-only figure-scale fields take a
               `lint-allow(raw-unit-double)` with the reason.
doc-ref        A comment in src/, bench/ or examples/ that names a `*.md`
               file must name one that exists (relative to the repo
               root or to the commenting file), so prose never points
               a reader at a document that is not there.
knob-table     The data members of `struct ServiceConfig`
               (src/serve/service.hh) and of `struct QueueConfig`
               (src/serve/queue.hh, as `queue.<field>`) must match the
               rows of README.md's "ServiceConfig knobs" table exactly,
               so a knob is never added or removed without its
               documentation row.  Not suppressible.

Suppressions
------------
A violation is waived by a `// lint-allow(<rule>): <reason>` comment on
the same line or within the preceding SUPPRESS_WINDOW lines (block
comments directly above the site).  The reason is mandatory prose; the
lint only checks the tag, reviewers check the reason.

Exit status: 0 clean, 1 violations, 2 usage/internal error.
`--self-test` checks the rules against tests/lint_fixtures/ instead of
linting the tree.
"""

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# How far above a site a lint-allow(...) block comment may start.
SUPPRESS_WINDOW = 8
# How far above a non-seq_cst atomic its memory_order: rationale may be.
RATIONALE_WINDOW = 20

# Files the naked-new/naked-delete rules skip entirely: the arena IS
# the allocator, and the TSA header defines the Mutex wrapper itself.
ARENA_FILES = {"src/common/arena.hh"}
MUTEX_ALLOWED_FILES = {"src/common/threadsafety.hh"}
# The typed-unit vocabulary itself plus the byte-exact request-key
# serializer, where quantities are unwrapped to raw doubles on purpose.
UNIT_BOUNDARY_FILES = {
    "src/common/units.hh",
    "src/accel/hash.cc",
}

NEW_RE = re.compile(r"\bnew\b\s*(\(|[A-Za-z_:<]|\[)")
DELETE_RE = re.compile(r"\bdelete\b\s*(\[\s*\])?\s*[\w(:*&]")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
ENDL_RE = re.compile(r"\bstd\s*::\s*endl\b")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order_(\w+)\b|\bmemory_order\s*::\s*(\w+)\b")
STD_MUTEX_RE = re.compile(r"\bstd\s*::\s*(recursive_)?mutex\b")
TSA_ESCAPE_RE = re.compile(r"\bSMART_NO_THREAD_SAFETY_ANALYSIS\b")
# camelCase identifier ending in a unit suffix, declared as a raw
# double (field, parameter, local, or function return). snake_case
# names (time_ps) and figure-scale suffixes (Mw, Nj, Mm2) don't match.
UNIT_DOUBLE_RE = re.compile(
    r"\bdouble\s+([a-z]\w*(?:Ps|Ns|Ghz|J|Pj|W|Um2))\b")
RATIONALE_RE = re.compile(r"//.*\bmemory_order:")
# A markdown file name (optionally with a directory part) in a comment.
DOC_REF_RE = re.compile(r"[\w./-]*\w\.md\b")
TSA_REASON_RE = re.compile(r"//\s*tsa:")
ALLOW_RE = re.compile(r"//\s*lint-allow\((?P<rule>[a-z-]+)\)\s*:\s*\S")

# knob-table: the config headers, the README, and the table's title.
KNOB_HEADERS = ("src/serve/service.hh", "src/serve/queue.hh")
KNOB_README = "README.md"
KNOB_TABLE_TITLE = "**ServiceConfig knobs.**"
KNOB_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def strip_code(text, keep_comments=False):
    """Blank out comments and string/char literals, preserving line
    structure, so the rules only see code.  (Suppressions and rationale
    comments are read from the RAW lines instead.)  With keep_comments
    the roles flip: only comment text survives."""
    def emit(ch, in_comment):
        # Newlines always survive, so line numbers stay aligned.
        return ch if ch == "\n" or in_comment == keep_comments else " "

    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: skip to the matching delimiter verbatim.
                if out and out[-1] == "R":
                    m = re.match(r'R"([^()\s\\]{0,16})\(', text[i - 1 :])
                    if m:
                        delim = ")" + m.group(1) + '"'
                        end = text.find(delim, i)
                        end = n if end < 0 else end + len(delim)
                        out.append(
                            "".join(ch if ch == "\n" else " " for ch in text[i:end])
                        )
                        i = end
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(emit(c, False))
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            out.append(emit(c, True))
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(emit(c, True))
            i += 1
        else:  # string / char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


def suppressed(raw_lines, lineno, rule):
    """True when a lint-allow(rule) comment covers 1-based lineno."""
    lo = max(0, lineno - 1 - SUPPRESS_WINDOW)
    for raw in raw_lines[lo:lineno]:
        m = ALLOW_RE.search(raw)
        if m and m.group("rule") == rule:
            return True
    return False


def lint_file(path, rel, violations, repo):
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_code(raw).splitlines()
    in_src = rel.startswith("src/")

    def report(lineno, rule, msg):
        if not suppressed(raw_lines, lineno, rule):
            violations.append((rel, lineno, rule, msg))

    comment_lines = strip_code(raw, keep_comments=True).splitlines()
    for lineno, comment in enumerate(comment_lines, 1):
        for m in DOC_REF_RE.finditer(comment):
            doc = m.group(0)
            if not ((repo / doc).is_file() or
                    (repo / rel).parent.joinpath(doc).is_file()):
                report(lineno, "doc-ref",
                       f"comment names `{doc}`, which is not in the "
                       "repository — state the point inline or cite a "
                       "document that exists")

    for idx, code in enumerate(code_lines):
        lineno = idx + 1

        if rel not in ARENA_FILES and in_src:
            if NEW_RE.search(code):
                report(lineno, "naked-new",
                       "naked `new` outside common/arena.hh — use a "
                       "container, smart pointer, or the arena")
            if DELETE_RE.search(code) and not DELETED_FN_RE.search(code):
                report(lineno, "naked-delete",
                       "naked `delete` outside common/arena.hh")

        if ENDL_RE.search(code):
            report(lineno, "endl",
                   "std::endl flushes per call — use '\\n' (logging is "
                   "already line-atomic)")

        if in_src:
            for m in MEMORY_ORDER_RE.finditer(code):
                order = m.group(1) or m.group(2)
                if order == "seq_cst":
                    continue
                lo = max(0, idx - RATIONALE_WINDOW)
                window = raw_lines[lo : idx + 1]
                if not any(RATIONALE_RE.search(r) for r in window):
                    report(lineno, "memory-order",
                           f"memory_order_{order} without a nearby "
                           "`// memory_order:` rationale comment")

        if in_src and rel not in MUTEX_ALLOWED_FILES:
            if STD_MUTEX_RE.search(code):
                report(lineno, "std-mutex",
                       "std::mutex in src/ — use smart::Mutex/LockGuard "
                       "(common/threadsafety.hh) so -Wthread-safety "
                       "sees the lock")

        if in_src and rel not in UNIT_BOUNDARY_FILES:
            for m in UNIT_DOUBLE_RE.finditer(code):
                report(lineno, "raw-unit-double",
                       f"raw double `{m.group(1)}` carries a unit "
                       "suffix — use the typed quantity from "
                       "common/units.hh (or lint-allow with a reason "
                       "for densities/report-only fields)")

        if rel not in MUTEX_ALLOWED_FILES and TSA_ESCAPE_RE.search(code):
            lo = max(0, idx - SUPPRESS_WINDOW)
            window = raw_lines[lo : idx + 1]
            if not any(TSA_REASON_RE.search(r) for r in window):
                report(lineno, "tsa-escape",
                       "SMART_NO_THREAD_SAFETY_ANALYSIS without an "
                       "adjacent `// tsa:` justification")


def skip_group(code, i):
    """Index just past the bracket group that opens at code[i]."""
    depth = 0
    for j in range(i, len(code)):
        if code[j] in "([{":
            depth += 1
        elif code[j] in ")]}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def struct_fields(code, name):
    """[(field, type, 1-based line)] of the data members of `struct
    name` in comment-stripped code, or None when the struct is absent.
    Member functions, nested types and aliases are skipped."""
    m = re.search(r"\bstruct\s+" + name + r"\s*\{", code)
    if not m:
        return None
    fields = []
    i = start = m.end()
    while i < len(code) and code[i] != "}":
        c = code[i]
        if c in "([{":
            body = c == "{" and "(" in code[start:i]
            i = skip_group(code, i)
            if body:  # member function definition: no `;` follows
                start = i
            continue
        i += 1
        if c != ";":
            continue
        decl = code[start : i - 1]
        start = i
        head = re.split(r"[={]", decl, maxsplit=1)[0]
        ident = re.search(r"(\w+)\s*$", head)
        if ("(" in head or not ident or re.match(
                r"\s*(using|typedef|static|friend|enum|struct|class)\b",
                decl)):
            continue
        pos = i - 1 - len(decl) + ident.start(1)
        fields.append((ident.group(1), head[: ident.start(1)].strip(),
                       code.count("\n", 0, pos) + 1))
    return fields


def knob_table_rows(readme):
    """[(knob, 1-based line)] of the table under KNOB_TABLE_TITLE, or
    None when the title is absent."""
    lines = readme.splitlines()
    titles = [i for i, line in enumerate(lines)
              if line.strip() == KNOB_TABLE_TITLE]
    if not titles:
        return None
    i = titles[0] + 1
    while i < len(lines) and not lines[i].strip():
        i += 1
    rows = []
    while i < len(lines) and lines[i].startswith("|"):
        m = KNOB_ROW_RE.match(lines[i])
        if m:
            rows.append((m.group(1), i + 1))
        i += 1
    return rows


def check_knob_table(headers, readme, violations):
    """knob-table: ServiceConfig (+ QueueConfig as queue.*) fields vs
    the README rows. headers and readme are (rel, text) pairs."""
    found = {}
    for rel, text in headers:
        code = strip_code(text)
        for name in ("ServiceConfig", "QueueConfig"):
            fields = struct_fields(code, name)
            if name not in found and fields is not None:
                found[name] = (rel, fields)
    for name in ("ServiceConfig", "QueueConfig"):
        if name not in found:
            violations.append((headers[0][0], 1, "knob-table",
                               f"struct {name} not found"))
            return
    readme_rel, readme_text = readme
    rows = knob_table_rows(readme_text)
    if rows is None:
        violations.append((readme_rel, 1, "knob-table",
                           f"no {KNOB_TABLE_TITLE} table"))
        return

    knobs = {}  # knob -> (rel, line)
    svc_rel, svc_fields = found["ServiceConfig"]
    queue_rel, queue_fields = found["QueueConfig"]
    for field, ftype, line in svc_fields:
        if re.search(r"\bQueueConfig$", ftype):
            for qfield, _, qline in queue_fields:
                knobs[f"{field}.{qfield}"] = (queue_rel, qline)
        else:
            knobs[field] = (svc_rel, line)
    documented = {}
    for knob, line in rows:
        if knob in documented:
            violations.append((readme_rel, line, "knob-table",
                               f"duplicate row for `{knob}`"))
        documented.setdefault(knob, line)
    for knob, (rel, line) in knobs.items():
        if knob not in documented:
            violations.append((rel, line, "knob-table",
                               f"knob `{knob}` has no row in "
                               f"{readme_rel}'s knob table"))
    for knob, line in documented.items():
        if knob not in knobs:
            violations.append((readme_rel, line, "knob-table",
                               f"row for `{knob}`, which is not a "
                               "ServiceConfig knob"))


def read_pair(repo, rel):
    """(rel, text) of a repository file, or None when it is missing."""
    path = repo / rel
    if not path.is_file():
        return None
    return rel, path.read_text(encoding="utf-8", errors="replace")


def iter_targets(repo):
    """(path, repo-relative) pairs the lint covers: all of src/, plus
    bench/ and examples/ (the endl rule applies there too)."""
    for top in ("src", "bench", "examples"):
        root = repo / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".cc", ".hh", ".cpp", ".hpp", ".h"):
                yield path, path.relative_to(repo).as_posix()


def run_lint(repo):
    violations = []
    count = 0
    for path, rel in iter_targets(repo):
        count += 1
        lint_file(path, rel, violations, repo)
    if count == 0:
        print("lint_smart: no files found — wrong --repo?", file=sys.stderr)
        return 2
    headers = [read_pair(repo, rel) for rel in KNOB_HEADERS]
    readme = read_pair(repo, KNOB_README)
    if None in headers or readme is None:
        print("lint_smart: knob-table inputs missing", file=sys.stderr)
        return 2
    check_knob_table(headers, readme, violations)
    for rel, lineno, rule, msg in violations:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"lint_smart: {len(violations)} violation(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"lint_smart: OK ({count} files)")
    return 0


def run_self_test(repo):
    """Check each rule fires on the bad fixture and stays quiet on the
    good one (which exercises every suppression/rationale form)."""
    fixtures = repo / "tests" / "lint_fixtures"
    bad = fixtures / "bad_fixture.cc"
    good = fixtures / "good_fixture.cc"
    for f in (bad, good):
        if not f.is_file():
            print(f"lint_smart --self-test: missing fixture {f}",
                  file=sys.stderr)
            return 2

    violations = []
    # Fixtures are linted as if they lived in src/.
    lint_file(bad, "src/lint_fixtures/bad_fixture.cc", violations, repo)
    found = {rule for (_, _, rule, _) in violations}
    expected = {"naked-new", "naked-delete", "endl", "memory-order",
                "std-mutex", "tsa-escape", "raw-unit-double", "doc-ref"}
    missing = expected - found
    if missing:
        print(f"lint_smart --self-test: rules did not fire on the bad "
              f"fixture: {sorted(missing)}", file=sys.stderr)
        return 1

    violations = []
    lint_file(good, "src/lint_fixtures/good_fixture.cc", violations, repo)
    if violations:
        for rel, lineno, rule, msg in violations:
            print(f"{rel}:{lineno}: [{rule}] {msg}")
        print("lint_smart --self-test: good fixture must lint clean",
              file=sys.stderr)
        return 1

    # knob-table: the bad pair must report a knob with no row AND a
    # row with no knob; the good pair must match exactly.
    for case in ("bad", "good"):
        pair = [fixtures / f"knob_table_{case}.{ext}" for ext in ("hh", "md")]
        missing = [f for f in pair if not f.is_file()]
        if missing:
            print(f"lint_smart --self-test: missing fixture {missing[0]}",
                  file=sys.stderr)
            return 2
        violations = []
        check_knob_table(
            [(f"tests/lint_fixtures/{pair[0].name}", pair[0].read_text())],
            (f"tests/lint_fixtures/{pair[1].name}", pair[1].read_text()),
            violations)
        msgs = [msg for (_, _, _, msg) in violations]
        if case == "good" and msgs:
            for rel, lineno, rule, msg in violations:
                print(f"{rel}:{lineno}: [{rule}] {msg}")
            print("lint_smart --self-test: good knob table must lint "
                  "clean", file=sys.stderr)
            return 1
        if case == "bad" and not (
                any("has no row" in m for m in msgs)
                and any("not a ServiceConfig knob" in m for m in msgs)):
            print("lint_smart --self-test: knob-table did not report both "
                  f"an undocumented knob and a stale row: {msgs}",
                  file=sys.stderr)
            return 1

    print("lint_smart --self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=pathlib.Path, default=REPO,
                    help="repository root (default: script's parent)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the fixtures instead of the tree")
    args = ap.parse_args()
    repo = args.repo.resolve()
    if args.self_test:
        return run_self_test(repo)
    return run_lint(repo)


if __name__ == "__main__":
    sys.exit(main())
