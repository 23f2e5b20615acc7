#!/usr/bin/env python3
"""kspdg_lint: repo-invariant linter for the kspdg tree (blocking in CI).

Five rules, each encoding an invariant the compiler cannot (or does not)
check on its own:

  nodiscard      Status / Result are declared [[nodiscard]] at class scope
                 (src/core/status.h), the asynchronous submit APIs carry an
                 explicit [[nodiscard]], and no call site discards a
                 Submit / SubmitTo / SubmitBatch return as a bare statement.
                 The sanctioned opt-out at a call site is `(void)expr;`.

  raw-primitives Outside src/core/ nobody names std::mutex,
                 std::shared_mutex, std::condition_variable or std::thread
                 directly: first-party code goes through the annotated
                 core wrappers (core/mutex.h, core/epoch_lock.h,
                 core/thread_pool.h) so thread-safety analysis and the
                 runtime lock-order checker see every acquisition.

  analysis-escape
                 Outside src/core/ no function turns Clang's thread-safety
                 analysis off with the escape macro of
                 core/thread_annotations.h: a lock contract the analysis
                 cannot follow belongs in an annotated core wrapper, so
                 every acquisition elsewhere stays checked.

  wire-symmetry  Every message struct in src/rpc/wire.cc encodes and
                 decodes the same field sequence: the per-kind counts of
                 WireWriter ops (U8/U32/U64/F64/Str) in X::Encode must
                 equal the per-kind counts of WireReader ops in X::Decode,
                 helper pairs (EncodeFoo/DecodeFoo) included. A field
                 added to one side but not the other is exactly the bug
                 that truncates or misparses every subsequent field.

  metric-names   Metric name literals handed to the registry
                 (GetCounter / GetGauge / GetHistogram / Add*Callback)
                 are snake_case, and counter names end in `_total`.

Suppression: append `// kspdg-lint: allow(<rule>)` on the offending line
or the line directly above it. <rule> is one of: nodiscard, raw-mutex,
raw-thread, analysis-escape, wire-symmetry, metric-names.

Usage: tools/kspdg_lint.py [--root DIR]
Exits 0 when the tree is clean, 1 when any finding survives suppression.
"""

import argparse
import os
import re
import sys

# --- shared helpers ---------------------------------------------------------

ALLOW_RE = re.compile(r"kspdg-lint:\s*allow\(([a-z-]+)\)")


def iter_source_files(root, subdirs, exts=(".h", ".cc")):
    """Yields repo-relative paths of first-party sources under `subdirs`."""
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            # The lint self-test fixtures are deliberate violations.
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(filenames):
                if name.endswith(exts):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root)


def read_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read().splitlines()


def suppressed(lines, lineno, rule):
    """True if line `lineno` (1-based) or the one above allows `rule`."""
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            m = ALLOW_RE.search(lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


def strip_comments(line):
    """Drops a // line comment (good enough: no multi-line strings here)."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


class Findings:
    def __init__(self):
        self.items = []

    def add(self, rel, lineno, rule, message):
        self.items.append((rel, lineno, rule, message))

    def report(self, out=sys.stdout):
        for rel, lineno, rule, message in sorted(self.items):
            print(f"{rel}:{lineno}: [{rule}] {message}", file=out)


# --- rule: raw-primitives ---------------------------------------------------

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|thread|jthread)\b"
)


def check_raw_primitives(root, findings):
    for rel in iter_source_files(root, ("src", "tools")):
        norm = rel.replace(os.sep, "/")
        if norm.startswith("src/core/"):
            continue  # the wrappers themselves live here
        lines = read_lines(root, rel)
        for lineno, line in enumerate(lines, start=1):
            for m in RAW_PRIMITIVE_RE.finditer(strip_comments(line)):
                # std::thread::hardware_concurrency() is a free query, not
                # a spawned thread; keep it legal.
                if line[m.end() : m.end() + 2] == "::":
                    continue
                kind = m.group(1)
                rule = "raw-thread" if kind in ("thread", "jthread") else "raw-mutex"
                if suppressed(lines, lineno, rule):
                    continue
                findings.add(
                    rel,
                    lineno,
                    rule,
                    f"std::{kind} outside src/core/ — use the annotated "
                    "core wrappers (core/mutex.h, core/thread_pool.h)",
                )


# --- rule: analysis-escape -------------------------------------------------

# Spelled in two pieces so that grepping src/ and tools/ for the macro finds
# only its definition.
ANALYSIS_ESCAPE_RE = re.compile(r"\b" + "NO_THREAD_SAFETY" + r"_ANALYSIS\b")


def check_analysis_escape(root, findings):
    for rel in iter_source_files(root, ("src", "tools")):
        if rel.replace(os.sep, "/").startswith("src/core/"):
            continue  # the macro and the wrappers that may need it live here
        lines = read_lines(root, rel)
        for lineno, line in enumerate(lines, start=1):
            if not ANALYSIS_ESCAPE_RE.search(strip_comments(line)):
                continue
            if suppressed(lines, lineno, "analysis-escape"):
                continue
            findings.add(
                rel,
                lineno,
                "analysis-escape",
                "thread-safety analysis turned off outside src/core/ — "
                "express the contract with REQUIRES/ACQUIRE annotations or "
                "an annotated core wrapper",
            )


# --- rule: nodiscard --------------------------------------------------------

# Async submit declarations that must be explicitly [[nodiscard]] even
# though their class-level return types may not be.
SUBMIT_DECL_RE = re.compile(
    r"\b(?:static\s+|virtual\s+)*(BatchTicket|SubmitOutcome|bool)\s+"
    r"(Submit(?:To|Batch)?)\s*\("
)

# A bare statement whose value is a discarded Submit-family call:
# starts with a receiver chain, ends in the call. `(void)` casts,
# assignments and returns do not match the anchor.
SUBMIT_DISCARD_RE = re.compile(r"^\s*(?:\w+(?:\.|->|::))+Submit(?:To|Batch)?\s*\(")


def check_nodiscard(root, findings):
    status_h = os.path.join("src", "core", "status.h")
    if os.path.exists(os.path.join(root, status_h)):
        text = "\n".join(read_lines(root, status_h))
        for cls in ("Status", "Result"):
            if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls + r"\b", text):
                findings.add(
                    status_h,
                    1,
                    "nodiscard",
                    f"class {cls} must be declared `class [[nodiscard]] {cls}`",
                )

    for rel in iter_source_files(root, ("src",), exts=(".h",)):
        lines = read_lines(root, rel)
        text = "\n".join(lines)
        for m in SUBMIT_DECL_RE.finditer(text):
            ret, name = m.group(1), m.group(2)
            if ret == "bool" and name != "Submit":
                continue
            # Walk back to the start of this declaration (previous ; { or })
            # and demand the attribute inside it.
            start = max(text.rfind(c, 0, m.start()) for c in ";{}")
            decl_prefix = text[start + 1 : m.start()]
            if "[[nodiscard]]" in decl_prefix:
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            if suppressed(lines, lineno, "nodiscard"):
                continue
            findings.add(
                rel,
                lineno,
                "nodiscard",
                f"declaration `{ret} {name}(...)` must be [[nodiscard]]: "
                "dropping the ticket/outcome silently loses the batch",
            )

    for rel in iter_source_files(root, ("src", "tools", "tests"), exts=(".cc",)):
        lines = read_lines(root, rel)
        for lineno, line in enumerate(lines, start=1):
            if SUBMIT_DISCARD_RE.match(strip_comments(line)):
                if suppressed(lines, lineno, "nodiscard"):
                    continue
                findings.add(
                    rel,
                    lineno,
                    "nodiscard",
                    "discarded Submit/SubmitTo/SubmitBatch result — bind the "
                    "ticket/outcome or opt out explicitly with `(void)`",
                )


# --- rule: wire-symmetry ----------------------------------------------------

ENCODE_METHOD_RE = re.compile(r"std::string\s+(\w+)::Encode\s*\(\s*\)\s*const\s*\{")
DECODE_METHOD_RE = re.compile(r"Status\s+(\w+)::Decode\s*\(")
ENCODE_HELPER_RE = re.compile(r"\bvoid\s+Encode(\w+)\s*\(")
DECODE_HELPER_RE = re.compile(r"\bStatus\s+Decode(\w+)\s*\(")
WIRE_OP_RE = re.compile(r"\b[wr](?:\.|->)(U8|U32|U64|F64|Str)\s*\(")


def _body_after(text, open_brace):
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return text[open_brace:]


def _op_counts(body, helper_re):
    counts = {}
    for m in WIRE_OP_RE.finditer(body):
        counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    for m in helper_re.finditer(body):
        key = "helper:" + m.group(1)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _collect_entities(text, def_re, helper_call_re, skip_name=None):
    """Maps entity name -> (line, op-count dict) for each matching body."""
    entities = {}
    for m in def_re.finditer(text):
        name = m.group(1)
        if name == skip_name:
            continue
        brace = text.find("{", m.end() - 1)
        if brace < 0:
            continue
        body = _body_after(text, brace)
        # Helper calls inside the body (EncodePaths(...)), excluding the
        # entity's own definition line.
        counts = _op_counts(body, helper_call_re)
        lineno = text.count("\n", 0, m.start()) + 1
        entities[name] = (lineno, counts)
    return entities


def check_wire_symmetry(root, findings):
    wire_cc = os.path.join("src", "rpc", "wire.cc")
    if not os.path.exists(os.path.join(root, wire_cc)):
        return
    lines = read_lines(root, wire_cc)
    text = "\n".join(lines)

    helper_call_enc = re.compile(r"\bEncode(\w+)\s*\(")
    helper_call_dec = re.compile(r"\bDecode(\w+)\s*\(")

    encoders = _collect_entities(text, ENCODE_METHOD_RE, helper_call_enc)
    decoders = _collect_entities(text, DECODE_METHOD_RE, helper_call_dec)
    for m in ENCODE_HELPER_RE.finditer(text):
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        body = _body_after(text, brace)
        encoders["helper " + m.group(1)] = (
            text.count("\n", 0, m.start()) + 1,
            _op_counts(body, helper_call_enc),
        )
    for m in DECODE_HELPER_RE.finditer(text):
        brace = text.find("{", m.end())
        if brace < 0:
            continue
        body = _body_after(text, brace)
        decoders["helper " + m.group(1)] = (
            text.count("\n", 0, m.start()) + 1,
            _op_counts(body, helper_call_dec),
        )

    for name, (lineno, enc_counts) in sorted(encoders.items()):
        if suppressed(lines, lineno, "wire-symmetry"):
            continue
        if name not in decoders:
            findings.add(
                wire_cc,
                lineno,
                "wire-symmetry",
                f"{name}::Encode has no matching Decode",
            )
            continue
        dec_lineno, dec_counts = decoders[name]
        for op in sorted(set(enc_counts) | set(dec_counts)):
            wrote = enc_counts.get(op, 0)
            read = dec_counts.get(op, 0)
            if wrote != read:
                findings.add(
                    wire_cc,
                    dec_lineno,
                    "wire-symmetry",
                    f"{name}: Encode emits {wrote}x {op} but Decode "
                    f"consumes {read}x — writer and reader disagree on "
                    "the field sequence",
                )
    for name, (lineno, _counts) in sorted(decoders.items()):
        if name not in encoders and not suppressed(lines, lineno, "wire-symmetry"):
            findings.add(
                wire_cc,
                lineno,
                "wire-symmetry",
                f"{name}::Decode has no matching Encode",
            )


# --- rule: metric-names -----------------------------------------------------

METRIC_CALL_RE = re.compile(
    r"\b(GetCounter|GetGauge|GetHistogram|AddCounterCallback|AddGaugeCallback)"
    r'\s*\(\s*"([^"]*)"'
)
SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*[a-z0-9]$")


def check_metric_names(root, findings):
    for rel in iter_source_files(root, ("src", "tools")):
        lines = read_lines(root, rel)
        text = "\n".join(lines)
        for m in METRIC_CALL_RE.finditer(text):
            api, name = m.group(1), m.group(2)
            lineno = text.count("\n", 0, m.start()) + 1
            if suppressed(lines, lineno, "metric-names"):
                continue
            if not SNAKE_RE.match(name):
                findings.add(
                    rel,
                    lineno,
                    "metric-names",
                    f'metric name "{name}" is not snake_case',
                )
            elif api in ("GetCounter", "AddCounterCallback") and not name.endswith(
                "_total"
            ):
                findings.add(
                    rel,
                    lineno,
                    "metric-names",
                    f'counter "{name}" must end in "_total" '
                    "(monotonic-counter naming convention)",
                )


# --- main -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--root",
        default=default_root,
        help="tree to lint (default: the repo this script lives in)",
    )
    args = parser.parse_args(argv)

    findings = Findings()
    check_raw_primitives(args.root, findings)
    check_analysis_escape(args.root, findings)
    check_nodiscard(args.root, findings)
    check_wire_symmetry(args.root, findings)
    check_metric_names(args.root, findings)

    if findings.items:
        findings.report()
        print(f"kspdg_lint: {len(findings.items)} finding(s)", file=sys.stderr)
        return 1
    print("kspdg_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
