#!/usr/bin/env python3
"""The public surface of the library crates, and what of it no one uses.

Lists every `pub` item (fn, struct, enum, const, trait, type, static) and
every named `pub` field declared outside the tests of a library crate under
`crates/`, and checks that some other crate uses it. An item is used when
its name appears, outside comments, in another crate's `src`, any
integration test or example, the `iba` binary, the facade (`src/`,
`tests/`, `examples/`) or `perfbench/src`. A type, trait or const is also
used when the signature of a used item of its crate names it: rustc
requires it to be as public as that signature (`private_interfaces`).

An item no other crate uses should be `pub(crate)`, where rustc's
`dead_code` lint can see it. The script fails on any such item missing
from ALLOW below, and on an ALLOW entry that is no longer needed. It prints
the count of `pub` items per crate beside its non-test line count (the
lines before a file's first column-0 `#[cfg(test)]`, CI's counting rule).

Run from anywhere: `python3 .github/pub_surface.py`.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# An item as the script prints it (`crate::Name`, `crate::Owner::method`,
# `crate::Owner.field`) -> why it stays `pub` with no other crate using it.
ALLOW = {}

DECL = re.compile(
    r"^(\s*)pub\s+(?:(?:const|async|unsafe)\s+)*"
    r"(fn|struct|enum|const|trait|type|static)\s+([A-Za-z_]\w*)"
)
FIELD = re.compile(r"^\s*pub\s+([a-z_]\w*)\s*:")
OWNER = re.compile(r"^(?:pub(?:\([a-z]+\))?\s+)?(?:struct|enum|trait)\s+([A-Za-z_]\w*)")
IMPL = re.compile(r"^impl(?:<.*?>)?\s+(?:[\w:<>, ]+\s+for\s+)?([A-Za-z_]\w*)")
COMMENT = re.compile(r"(^|\s)//.*$")
IDENT = re.compile(r"[A-Za-z_]\w*")
# Kinds a signature can name, and so keep public.
NAMEABLE = {"struct", "enum", "trait", "type", "const"}


def nontest(path):
    """The lines of `path` before its first column-0 `#[cfg(test)]`."""
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        out.append(COMMENT.sub("", line))
    return out


def rs_files(*dirs):
    for d in dirs:
        if d.is_dir():
            yield from sorted(d.rglob("*.rs"))


def signature(lines, i, kind, indent):
    """The text of the declaration at `lines[i]` a user of it sees: a
    fn's signature, an enum's variants, a field's type, a whole line."""
    if kind == "enum":
        end = next((j for j in range(i, len(lines)) if lines[j] == indent + "}"), i)
        return " ".join(lines[i : end + 1])
    text = ""
    for line in lines[i:]:
        text += " " + line
        if kind != "fn" or "{" in line or line.rstrip().endswith(";"):
            break
    return text.split("{")[0] if kind == "fn" else text


def declarations(crate_src):
    """(key, name, kind, file:line, identifiers of the signature) of every
    `pub` item and named field under `crate_src`, binaries excluded."""
    for path in rs_files(crate_src):
        if "bin" in path.relative_to(crate_src).parts:
            continue
        lines = nontest(path)
        where = path.relative_to(ROOT)
        owner = None
        for i, line in enumerate(lines):
            m = IMPL.match(line) or OWNER.match(line)
            if m:
                owner = m.group(1)
            m = DECL.match(line)
            if m:
                indent, kind, name = m.groups()
                key = f"{owner}::{name}" if kind == "fn" and indent and owner else name
                sig = signature(lines, i, kind, indent)
            elif (m := FIELD.match(line)) and owner:
                kind, name = "field", m.group(1)
                key, sig = f"{owner}.{name}", line.split(":", 1)[1]
            else:
                continue
            yield key, name, kind, f"{where}:{i + 1}", set(IDENT.findall(sig))


def identifiers(path):
    return set(IDENT.findall("\n".join(COMMENT.sub("", l) for l in path.read_text().splitlines())))


def main():
    crates = sorted(p.parent.parent for p in ROOT.glob("crates/*/src/lib.rs"))
    dirs = [ROOT / "src", ROOT / "tests", ROOT / "examples", ROOT / "perfbench/src"]
    for c in crates:
        dirs += [c / "src", c / "tests", c / "examples"]
    users = {path: identifiers(path) for path in rs_files(*dirs)}

    unused, report = [], []
    for c in crates:
        own, bin_dir = c / "src", c / "src" / "bin"
        named = set()
        for path, idents in users.items():
            if own not in path.parents or bin_dir in path.parents:
                named |= idents
        decls = list(declarations(own))
        used = [name in named for _, name, _, _, _ in decls]
        # A used item's signature keeps what it names public.
        while True:
            seen = set().union(*(d[4] for d, u in zip(decls, used) if u))
            grown = [u or (d[2] in NAMEABLE and d[1] in seen) for d, u in zip(decls, used)]
            if grown == used:
                break
            used = grown
        unused += [(f"{c.name}::{key}", kind, at) for (key, _, kind, at, _), u in zip(decls, used) if not u]
        fields = sum(d[2] == "field" for d in decls)
        lines = sum(len(nontest(p)) for p in rs_files(own))
        report.append(
            f"{c.name:12} {len(decls) - fields:4} pub items {fields:4} pub fields {lines:6} non-test lines"
        )

    print("\n".join(report))
    keys = {k for k, _, _ in unused}
    bad = [f"{at}: {k} ({kind})" for k, kind, at in unused if k not in ALLOW]
    stale = sorted(k for k in ALLOW if k not in keys)
    for k in sorted(keys & ALLOW.keys()):
        print(f"allowed: {k}: {ALLOW[k]}")
    if bad:
        print(f"{len(bad)} pub item(s) no other crate uses; make them pub(crate) or delete them:")
        print("\n".join(f"  {b}" for b in bad))
    if stale:
        print("ALLOW entries no longer needed; remove them:")
        print("\n".join(f"  {k}" for k in stale))
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
