#!/usr/bin/env python3
"""Prints the two Rust line counts the ROADMAP tracks.

1. `tracked`: lines of every git-tracked `.rs` file outside `perfbench/`.
2. `non-test`: the same files without their test code, where test code is
   every file under a `tests/` directory and every trailing
   `#[cfg(test)] mod name { ... }` block (a test module that runs to the
   end of its file). A `#[cfg(test)]` item elsewhere in a file, such as
   `#[cfg(test)] mod builder;`, does not end the count.

Run it from anywhere inside the repository:

    python3 scripts/loc.py
"""

import re
import subprocess
import sys

TEST_MOD = re.compile(r"^(pub(\([a-z]+\))? )?mod \w+ \{$")


def tracked_rust_files():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--", "*.rs"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return [p for p in out.split("\0") if p and not p.startswith("perfbench/")]


def non_test_len(lines):
    """Line count of `lines` once trailing `#[cfg(test)]` modules are cut."""
    end = len(lines)
    while True:
        while end > 0 and not lines[end - 1].strip():
            end -= 1
        # A top-level block closes with `}` in column 0, so the trailing
        # module is the last `#[cfg(test)]` + `mod name {` pair whose first
        # column-0 `}` is the last non-blank line.
        cut = None
        for i in range(end - 1):
            if lines[i].rstrip() != "#[cfg(test)]" or not TEST_MOD.match(lines[i + 1].rstrip()):
                continue
            close = next(j for j in range(i + 2, end + 1) if j == end or lines[j].rstrip() == "}")
            if close == end - 1:
                cut = i
        if cut is None:
            return end
        end = cut


def main():
    files = tracked_rust_files()
    tracked = non_test = 0
    for path in files:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        tracked += len(lines)
        if path.startswith("tests/") or "/tests/" in path:
            continue
        non_test += non_test_len(lines)
    print(f"tracked .rs lines outside perfbench/: {tracked}")
    print(f"non-test lines: {non_test}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
