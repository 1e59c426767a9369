#!/usr/bin/env python3
"""Folds rockfs_sampler profiles into per-frame shares.

    python3 bench/profile/fold.py PROFILE... [--root REGEX] [--top N]

Symbolizes every sampled address with `nm` (the nearest text symbol at or
below it, demangled; return addresses are looked up one byte back, inside
their call) and prints, for each frame, its inclusive share (samples with
the frame anywhere on the stack) and its leaf share (samples taken in the
frame itself), largest inclusive share first, with the sample counts.
Several profiles (say, one per seed) fold into one table. With --root only
the samples whose stack holds a frame matching REGEX count, and only the
frames from the leaf up to the outermost match: --root 'Recover::op' gives
the shares of one workload's measured op. Frames outside the main
executable carry their library's name.
"""
import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys


def parse(path):
    """Returns (mappings, samples): mappings as (start, end, offset, path)
    for file-backed mappings, samples as lists of addresses, leaf first."""
    mappings, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("M "):
                fields = line[2:].split(None, 5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    mappings.append((start, end, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("S"):
                samples.append([int(x, 16) for x in line[1:].split()])
    return mappings, samples


def load_segments(path):
    """The PT_LOAD segments of a 64-bit little-endian ELF file, as
    (file offset, vaddr, size in file); empty when it is not one."""
    try:
        with open(path, "rb") as f:
            header = f.read(64)
            if header[:4] != b"\x7fELF" or header[4] != 2 or header[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", header, 32)
            phentsize, phnum = struct.unpack_from("<HH", header, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def text_symbols(path):
    """Sorted (address, size, name) of the text symbols `nm` finds in `path`,
    from its symbol table or, for a stripped library, its dynamic one."""
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only"] + extra + [path],
                                 capture_output=True, text=True, check=False).stdout
        except OSError:
            sys.exit("fold.py: nm not found")
        symbols = []
        for line in out.splitlines():
            m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiI]) (.*)", line)
            if m:
                symbols.append((int(m.group(1), 16), int(m.group(2) or "0", 16), m.group(4)))
        if symbols:
            return symbols
    return []


class Symbolizer:
    """Names the addresses of one profiled process; `files` caches each
    file's segments and symbols across processes."""

    def __init__(self, mappings, files):
        self.mappings = sorted(mappings)
        self.starts = [m[0] for m in self.mappings]
        # The main executable is the file mapped lowest.
        self.main_path = self.mappings[0][3] if self.mappings else ""
        self.files = files
        self.names = {}

    def file(self, path):
        if path not in self.files:
            symbols = text_symbols(path)
            self.files[path] = (load_segments(path), symbols, [s[0] for s in symbols])
        return self.files[path]

    def name(self, address):
        if address not in self.names:
            self.names[address] = self.lookup(address)
        return self.names[address]

    def lookup(self, address):
        i = bisect.bisect_right(self.starts, address) - 1
        if i < 0 or address >= self.mappings[i][1]:
            return "[unmapped]"
        start, _, offset, path = self.mappings[i]
        module = "" if path == self.main_path else " (%s)" % os.path.basename(path)
        segments, symbols, addresses = self.file(path)
        file_offset = address - start + offset
        vaddr = next((file_offset - seg_off + seg_vaddr
                      for seg_off, seg_vaddr, size in segments
                      if seg_off <= file_offset < seg_off + size), None)
        j = bisect.bisect_right(addresses, vaddr) - 1 if vaddr is not None else -1
        if j < 0 or (symbols[j][1] and vaddr >= symbols[j][0] + symbols[j][1]):
            return "[%s]" % os.path.basename(path)
        return symbols[j][2] + module


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profiles", nargs="+", metavar="PROFILE")
    parser.add_argument("--root", help="regex of the frame whose callees are shared out")
    parser.add_argument("--top", type=int, default=40, help="frames to print (default 40)")
    args = parser.parse_args()

    root = re.compile(args.root) if args.root else None
    inclusive, leaf = collections.Counter(), collections.Counter()
    total = counted = 0
    files = {}
    for profile in args.profiles:
        mappings, samples = parse(profile)
        symbolizer = Symbolizer(mappings, files)
        total += len(samples)
        for sample in samples:
            # Return addresses point past their call; look them up inside it.
            frames = ([symbolizer.name(sample[0])] +
                      [symbolizer.name(a - 1) for a in sample[1:]])
            if root:
                outermost = max((i for i, f in enumerate(frames) if root.search(f)),
                                default=None)
                if outermost is None:
                    continue
                frames = frames[:outermost + 1]
            counted += 1
            leaf[frames[0]] += 1
            inclusive.update(set(frames))

    label = " under %r" % args.root if args.root else ""
    print("%d profile(s): %d samples, %d%s" % (len(args.profiles), total, counted, label))
    if not counted:
        return 1
    print("%7s %7s %7s %7s  %s" % ("incl", "incl%", "leaf", "leaf%", "frame"))
    ranked = sorted(inclusive, key=lambda f: (-inclusive[f], -leaf[f], f))
    for f in ranked[:args.top]:
        print("%7d %7.1f %7d %7.1f  %s" % (inclusive[f], 100.0 * inclusive[f] / counted,
                                         leaf[f], 100.0 * leaf[f] / counted, f))
    return 0


if __name__ == "__main__":
    sys.exit(main())
