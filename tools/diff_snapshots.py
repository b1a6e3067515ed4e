"""Compare two ``snapshot_outputs.py`` trees field by field.

    python3 tools/diff_snapshots.py BEFORE AFTER

Every file of the two trees is paired by its relative path. A CSV file is
compared cell by cell under its header column; an ``audit.txt`` line is
split into its numbers and the text around them, and each number is filed
under a column named by the line's label and the word before the number
(``rear-end gap: t=``, ``oracle: cost=``, ``step: 'tf':``). Two numbers
differ when their values do; everything else must be equal as text.

Prints, per file type and column, how many numeric fields differ, the
largest absolute difference, and how many fields are equal in value but
not in text (a zero that lost its sign, ``1e-3`` for ``0.001``), then the
files holding each such column's text-only differences, then every
non-numeric difference (a file on one side only, a different line count,
header, text or verdict). Exits 1 on any non-numeric difference or any
numeric difference above 1e-9, the "same behaviour" bound of ROADMAP.md,
else 0; a text-only difference of a number alone does not fail.
"""
from __future__ import annotations

import math
import os
import re
import sys
from collections import defaultdict

SAME_BOUND = 1e-9
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    r"|(?<![\w.])[-+]?(?:nan|inf)(?!\w)")
VERDICT = re.compile(r"^\[[^\]]*\]\s*")


def _files(root):
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _split(line):
    """(text pieces, numbers): the line is pieces[0] num[0] pieces[1] ..."""
    pieces, numbers, at = [], [], 0
    for m in NUMBER.finditer(line):
        pieces.append(line[at:m.start()])
        numbers.append(m.group())
        at = m.end()
    pieces.append(line[at:])
    return pieces, numbers


def _label(line):
    """Text of an audit line before its first number or colon, less the verdict."""
    body = VERDICT.sub("", line)
    m = NUMBER.search(body)
    head = body[:m.start()] if m else body
    return head.split(":", 1)[0].strip()


class Diff:
    def __init__(self):
        self.fields = defaultdict(int)      # (file type, column) -> numeric fields
        self.differ = defaultdict(int)      # (file type, column) -> fields that differ
        self.worst = defaultdict(float)     # (file type, column) -> largest |difference|
        self.retext = defaultdict(set)      # (file type, column) -> files with a field
        self.retexts = defaultdict(int)     # equal in value, not in text, and how many
        self.text = []                      # non-numeric differences

    def number(self, path, kind, column, a, b):
        key = (kind, column)
        self.fields[key] += 1
        x, y = float(a), float(b)
        if a == b:
            return
        if x == y or (math.isnan(x) and math.isnan(y)):
            self.retext[key].add(path)
            self.retexts[key] += 1
            return
        self.differ[key] += 1
        d = abs(x - y)
        self.worst[key] = max(self.worst[key], d if not math.isnan(d) else math.inf)

    def csv(self, path, kind, old, new):
        if len(old) != len(new):
            self.text.append(f"{path}: {len(old)} lines -> {len(new)} lines")
        if old[:1] != new[:1]:
            self.text.append(f"{path}: header {old[:1]} -> {new[:1]}")
            return
        header = old[0].split(",")
        for row, (lo, ln) in enumerate(zip(old[1:], new[1:]), start=2):
            a, b = lo.split(","), ln.split(",")
            if len(a) != len(b):
                self.text.append(f"{path}:{row}: {lo!r} -> {ln!r}")
                continue
            for col, x, y in zip(header, a, b):
                if NUMBER.fullmatch(x) and NUMBER.fullmatch(y):
                    self.number(path, kind, col, x, y)
                elif x != y:
                    self.text.append(f"{path}:{row} {col}: {x!r} -> {y!r}")

    def lines(self, path, kind, old, new):
        if len(old) != len(new):
            self.text.append(f"{path}: {len(old)} lines -> {len(new)} lines")
        for row, (lo, ln) in enumerate(zip(old, new), start=1):
            (ta, na), (tb, nb) = _split(lo), _split(ln)
            if ta != tb:
                self.text.append(f"{path}:{row}: {lo!r} -> {ln!r}")
                continue
            label = _label(lo)
            for before, x, y in zip(ta, na, nb):
                word = before.split()[-1] if before.split() else ""
                self.number(path, kind, f"{label}: {word}", x, y)

    def report(self):
        bad = bool(self.text)
        print(f"{'file type':<18}{'column':<44}{'differ':>16}  max |diff|  other text")
        for key in sorted(self.fields):
            kind, column = key
            worst = self.worst[key]
            bad |= worst > SAME_BOUND
            print(f"{kind:<18}{column[:43]:<44}{self.differ[key]:>7d}/{self.fields[key]:<8d}"
                  f"  {worst:.3e}  {self.retexts[key]:>9d}")
        for key in sorted(self.retext):
            print(f"same value, other text  {key[0]} {key[1]}: "
                  + ", ".join(sorted(self.retext[key])))
        for line in self.text:
            print("text  " + line)
        largest = max(self.worst.values(), default=0.0)
        print(f"{'DIFFERENT' if bad else 'SAME'}: {len(self.text)} non-numeric differences, "
              f"largest numeric difference {largest:.3e} (bound {SAME_BOUND:g}), "
              f"{sum(self.retexts.values())} numbers equal in value but not in text")
        return 1 if bad else 0


def compare(before, after):
    diff = Diff()
    old_files, new_files = _files(before), _files(after)
    for rel in sorted(old_files ^ new_files):
        diff.text.append(f"{rel}: only in {before if rel in old_files else after}")
    for rel in sorted(old_files & new_files):
        with open(os.path.join(before, rel), encoding="utf-8") as fh:
            old = fh.read().splitlines()
        with open(os.path.join(after, rel), encoding="utf-8") as fh:
            new = fh.read().splitlines()
        kind = os.path.basename(rel)
        (diff.csv if kind.endswith(".csv") else diff.lines)(rel, kind, old, new)
    return diff


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv):
        print("usage: python3 tools/diff_snapshots.py BEFORE AFTER", file=sys.stderr)
        return 2
    return compare(*argv).report()


if __name__ == "__main__":
    sys.exit(main())
