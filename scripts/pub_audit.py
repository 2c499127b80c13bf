#!/usr/bin/env python3
"""List every `pub fn` of a library crate that nothing outside the crate names.

A `pub` item of a library crate is exempt from rustc's `dead_code` lint, so a
function that only its own crate calls, or that nothing calls at all, stays
invisible unless it is narrowed to `pub(crate)`. This script finds them.

For each library crate under `crates/` (every crate except `cli` and `bench`,
which are audited by rustc because they are binaries) it lists each
`pub fn` / `pub const fn` / `pub unsafe fn` in `src/` whose name occurs as a
whole word in no tracked `.rs` file outside that crate's `src/`. Other crates
(including `cli` and `bench`), the crate's own `tests/` and `benches/`, the
root `tests/`, `examples/`, the facade `src/lib.rs` and the `benchmark/`
harness all count as users; `vendor/` does not. Functions inside a
`#[cfg(test)]` module or inside a non-`pub` inline module are skipped.

Usage: python3 scripts/pub_audit.py
Prints one `path:line: name` per finding and exits 1 if there is any;
prints nothing and exits 0 otherwise.
"""

import os
import re
import subprocess
import sys

UNAUDITED = {"cli", "bench"}

PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:async\s+)?(?:unsafe\s+)?fn\s+(\w+)")
INLINE_MOD = re.compile(r"(\bpub(?:\s*\([^)]*\))?\s+)?\bmod\s+\w+\s*\{")
CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\([^\]]*\btest\b")
WORD = re.compile(r"\w+")


def strip(src):
    """Blank comments and the insides of string and char literals.

    Newlines are kept so offsets map to the same lines, and braces inside
    literals or comments no longer count when matching blocks.
    """
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:]) and re.match(r"[^\w]|b", src[i - 1 : i] or " "):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            start = i + 2 + len(hashes)
            end = src.find('"' + hashes, start)
            end = n if end < 0 else end
            blank(start, end)
            i = end + 1 + len(hashes)
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'); anything else is a lifetime.
            m = re.match(r"'(\\'|\\[^']*|[^\\'])'", src[i:])
            if m:
                blank(i + 1, i + len(m.group(0)) - 1)
                i += len(m.group(0))
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def matching_brace(code, open_at):
    depth = 0
    for k in range(open_at, len(code)):
        if code[k] == "{":
            depth += 1
        elif code[k] == "}":
            depth -= 1
            if depth == 0:
                return k
    return len(code)


def skipped_spans(code):
    """Spans of `#[cfg(test)]` modules and non-`pub` inline modules."""
    spans = []
    for m in INLINE_MOD.finditer(code):
        vis = (m.group(1) or "").strip()
        prefix_start = max(code.rfind(c, 0, m.start()) for c in ";{}") + 1
        attrs = code[prefix_start : m.start()]
        if vis != "pub" or CFG_TEST.search(attrs):
            spans.append((m.start(), matching_brace(code, m.end() - 1)))
    return spans


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = subprocess.run(
        ["git", "ls-files", "*.rs"], cwd=root, check=True, capture_output=True, text=True
    ).stdout.split()
    files = [f for f in files if not f.startswith("vendor/")]
    words = {}
    for f in files:
        with open(os.path.join(root, f), encoding="utf-8") as fh:
            words[f] = set(WORD.findall(fh.read()))

    crates = sorted(
        d
        for d in os.listdir(os.path.join(root, "crates"))
        if d not in UNAUDITED and os.path.exists(os.path.join(root, "crates", d, "src", "lib.rs"))
    )
    findings = []
    for crate in crates:
        src_dir = f"crates/{crate}/src/"
        outside = set()
        for f, ws in words.items():
            if not f.startswith(src_dir):
                outside |= ws
        for f in files:
            if not f.startswith(src_dir):
                continue
            with open(os.path.join(root, f), encoding="utf-8") as fh:
                code = strip(fh.read())
            spans = skipped_spans(code)
            for m in PUB_FN.finditer(code):
                if any(a <= m.start() <= b for a, b in spans):
                    continue
                name = m.group(1)
                if name not in outside:
                    line = code.count("\n", 0, m.start()) + 1
                    findings.append(f"{f}:{line}: {name}")
    for finding in findings:
        print(finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
