#!/usr/bin/env python3
"""Lint: mpisim::WaitUntil is the only poll-until-done loop in the tree.

Scans the C++ sources under src/, bench/, examples/ and tests/ (src/mpisim/
excepted: the substrate owns the one loop) and fails on

  * any std::this_thread::yield -- a hand-written poll loop, and
  * any empty-body poll loop, `while (!...) {}` or `while (!...);`.

Both shapes spin without an abort check or a deadline, so a failed peer
leaves them hanging instead of raising AbortedError or a DeadlockError
with the wait graph. Call mpisim::WaitUntil(poll, what) instead.

Usage:
    lint_waits.py [REPO_ROOT]     # self-test, then scan; exit 1 on findings
    lint_waits.py --self-test     # self-test only

The self-test runs first on every invocation: it checks that the loop
shapes this lint exists to keep out are still detected.
"""
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "examples", "tests")
EXEMPT_DIR = os.path.join("src", "mpisim")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

YIELD = re.compile(r"\bthis_thread\s*::\s*yield\b")
WHILE = re.compile(r"\bwhile\s*\(")


def strip_comments(text):
    """Blanks out comments and string/char literals, keeping newlines so
    offsets still map to the original line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"' or (c == "'" and not (i and text[i - 1].isalnum())):
            # A quote right after a digit is a digit separator (30'000).
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * max(0, j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def close_paren(text, open_at):
    """Index just past the parenthesis matching text[open_at] == '('."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def findings(text):
    """(line, message) for every forbidden wait shape in `text`."""
    code = strip_comments(text)
    found = []

    def line_of(pos):
        return code.count("\n", 0, pos) + 1

    for m in YIELD.finditer(code):
        found.append((line_of(m.start()),
                      "std::this_thread::yield poll loop; use "
                      "mpisim::WaitUntil"))
    for m in WHILE.finditer(code):
        end = close_paren(code, m.end() - 1)
        cond = code[m.end():end - 1].strip()
        if not cond.startswith("!"):
            continue
        # `} while (!x);` closes a do-while; its body is not empty.
        if code[:m.start()].rstrip().endswith("}"):
            continue
        if re.match(r"\s*(\{\s*\}|;)", code[end:]):
            found.append((line_of(m.start()),
                          "empty-body poll loop; use mpisim::WaitUntil"))
    return found


# Shapes that must be flagged (each a loop this lint replaced) and shapes
# that must not be.
BAD = [
    "void WaitPoll(Poll& p) {\n  while (!p()) std::this_thread::yield();\n}",
    "while (!poll()) {\n}",
    "while (!gather()) {}",
    "while (!mpisim::Test(r)) ;",
    "while (!got) {\n  got = tr->IprobeAny(7, &st);\n"
    "  if (!got) std::this_thread::yield();\n}",
    "for (bool done = false; !done;) {\n  done = poll();\n"
    "  if (!done) std::this_thread :: yield();\n}",
]
GOOD = [
    "mpisim::WaitUntil(poll, \"what\");",
    "while (!events_.empty()) {\n  Pop();\n}",
    "do {\n  x = Next();\n} while (!x);",
    "// while (!poll()) {}\n/* std::this_thread::yield(); */",
    "const char* s = \"while (!p()) {}\";",
]


def self_test():
    ok = True
    for snippet in BAD:
        if not findings(snippet):
            print("lint_waits self-test: not flagged:\n" + snippet)
            ok = False
    for snippet in GOOD:
        if findings(snippet):
            print("lint_waits self-test: wrongly flagged:\n" + snippet)
            ok = False
    return ok


def scan(root):
    bad = 0
    for top in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            rel_dir = os.path.relpath(dirpath, root)
            if rel_dir == EXEMPT_DIR or rel_dir.startswith(EXEMPT_DIR + os.sep):
                continue
            for name in sorted(files):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for line, msg in findings(text):
                    print("%s:%d: %s" % (os.path.relpath(path, root), line, msg))
                    bad += 1
    return bad


def main(argv):
    if not self_test():
        return 1
    if argv[1:] == ["--self-test"]:
        print("lint_waits: self-test passed")
        return 0
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    bad = scan(root)
    if bad:
        print("lint_waits: %d forbidden wait loop%s" % (bad, "" if bad == 1 else "s"))
        return 1
    print("lint_waits: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
