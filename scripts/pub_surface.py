#!/usr/bin/env python3
"""Lists the library functions that are `pub` but used only inside their crate.

For each `pub fn` / `pub const fn` declared under `crates/<name>/src/`
(every crate but `crates/bench`, the harness at the top of the tree), the
script looks for the function's name, as a whole word, in every `.rs` file
outside that crate's `src/`:

- the other crates' `src/` directories,
- every `crates/*/tests/` directory (the crate's own included),
- the root `tests/` and `examples/` directories,
- `perfbench/src/`.

A function whose name appears in none of them has no user outside its crate,
so it should be `pub(crate)` (and then `dead_code` can see whether the crate
itself still needs it). The scan is a word match, so a name mentioned in a
comment counts as a use, and a common method name such as `new` is never
listed; it errs towards listing too little.

Prints one `crate path:line name` line per function and exits 1 when there
is at least one. Run it from anywhere inside the repository:

    python3 scripts/pub_surface.py
"""

import os
import re
import subprocess
import sys

PUB_FN = re.compile(r"^\s*pub (?:const )?fn ([A-Za-z_][A-Za-z0-9_]*)")
HARNESS = "bench"


def rust_files(root):
    """Every `.rs` file under `root`, or none if it does not exist."""
    found = []
    for dirpath, _, names in os.walk(root):
        found.extend(os.path.join(dirpath, n) for n in names if n.endswith(".rs"))
    return sorted(found)


def main():
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    os.chdir(top)
    crates = sorted(d for d in os.listdir("crates") if os.path.isdir(os.path.join("crates", d)))
    src = {c: rust_files(os.path.join("crates", c, "src")) for c in crates}
    shared = []
    for c in crates:
        shared += rust_files(os.path.join("crates", c, "tests"))
    for d in ("tests", "examples", os.path.join("perfbench", "src")):
        shared += rust_files(d)

    words = {}

    def words_of(path):
        if path not in words:
            with open(path, encoding="utf-8") as f:
                words[path] = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", f.read()))
        return words[path]

    unused = []
    for c in crates:
        if c == HARNESS:
            continue
        outside = shared + [p for o in crates if o != c for p in src[o]]
        for path in src[c]:
            with open(path, encoding="utf-8") as f:
                for number, line in enumerate(f, 1):
                    m = PUB_FN.match(line)
                    if m and not any(m.group(1) in words_of(p) for p in outside):
                        unused.append(f"{c} {path}:{number} {m.group(1)}")
    for line in unused:
        print(line)
    print(f"{len(unused)} pub fns with no user outside their crate")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
