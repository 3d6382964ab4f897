#!/usr/bin/env python3
"""Docs lint: keep the markdown honest.

Checks, over every tracked *.md file in the repo:
  1. Intra-repo markdown links ([text](path) and [text](path#anchor)) must
     point at files that exist. External links (scheme://) and pure
     anchors (#...) are skipped.
  2. docs/OPERATIONS.md and src/obs/metric_names.h must agree:
       - every metric declared in the header appears in OPERATIONS.md;
       - every metric-shaped token in OPERATIONS.md (a backticked
         `<known-subsystem>.<name>`) is declared in the header.
     The header is the single source of truth; prefixes are derived from
     it, so new subsystems need no lint changes.
  3. docs/SCALING.md and the `serving.*` metric family must agree the same
     way: the operator guide documents every serving metric, and every
     backticked serving.* token in it is a declared metric — the skew/
     fan-out diagnosis recipes there must never drift from the registry.
  4. Every `SET <name> =` in README.md, DESIGN.md, docs/*.md and the shell
     help (examples/recdb_shell.cpp) names an option RecDB::ExecuteSet
     accepts — read from its `stmt.option == "..."` comparisons in
     src/api/recdb.cc — so a retired option cannot linger in the docs.
  5. Every metric declared in src/obs/metric_names.h is recorded
     (`Counter::kX`, `Gauge::kX` or `Histogram::kX`) by some source file
     under src/ other than the header, so a metric whose last recording
     site is deleted cannot linger as a documented, always-zero name.
  6. Every backticked `RecDB::X`, `ResultSet::X`, `RecDBOptions::X`,
     `Session::X` or `ShardedRecDB::X` names a member declared in that
     class's body in its header (src/api/recdb.h, src/api/session.h,
     src/serving/sharded_recdb.h), so a deleted API member cannot stay
     documented. CHANGES.md is exempt: it records each change as it landed.

Exit status 0 = clean, 1 = findings (printed one per line).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRIC_HEADER = REPO / "src" / "obs" / "metric_names.h"
OPERATIONS = REPO / "docs" / "OPERATIONS.md"
SCALING = REPO / "docs" / "SCALING.md"
RECDB_CC = REPO / "src" / "api" / "recdb.cc"
SHELL = REPO / "examples" / "recdb_shell.cpp"
API_HEADERS = {
    "RecDB": REPO / "src" / "api" / "recdb.h",
    "ResultSet": REPO / "src" / "api" / "recdb.h",
    "RecDBOptions": REPO / "src" / "api" / "recdb.h",
    "Session": REPO / "src" / "api" / "session.h",
    "ShardedRecDB": REPO / "src" / "serving" / "sharded_recdb.h",
}
# The change log names members as they were when each change landed.
HISTORY_FILES = {"CHANGES.md"}

# Directories that hold generated or third-party content.
SKIP_DIRS = {"build", "build-native", ".git"}
# Harvested reference material (paper abstracts, retrieved snippets): not
# authored here, may cite assets that were never vendored.
SKIP_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
METRIC_DECL = re.compile(r'X\(k\w+,\s*"([a-z0-9_.]+)"')
METRIC_ENUM = re.compile(r"X\((k\w+),")
METRIC_RECORD = re.compile(r"\b(?:Counter|Gauge|Histogram)::(k\w+)\b")
BACKTICKED = re.compile(r"`([a-z0-9_]+\.[a-z0-9_.]+)`")
SET_ACCEPTED = re.compile(r'stmt\.option == "([a-z_]+)"')
# `SET <name> =`, but not the SQL `UPDATE <table> SET <column> =`.
SET_MENTION = re.compile(r"(?<!\w)(UPDATE\s+\w+\s+)?SET\s+(\w+)\s*=")
BACKTICK_SPAN = re.compile(r"`([^`\n]+)`")
API_MEMBER = re.compile(r"\b(" + "|".join(API_HEADERS) + r")::(\w+)")
# A declared name: an identifier followed by what opens or ends a member
# declaration (function, data member, initializer, nested type, array).
DECLARED_NAME = re.compile(r"\b(\w+)\s*[(;={\[]")


def markdown_files():
    for path in sorted(REPO.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(REPO).parts):
            continue
        if path.name in SKIP_FILES:
            continue
        yield path


def check_links(errors):
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        # Strip fenced code blocks: their bracket/paren text is not a link.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith(("#", "mailto:")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md.parent / target_path).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO)
                errors.append(f"{rel}: broken link -> {target}")


def check_metric_names(errors):
    if not METRIC_HEADER.exists():
        errors.append(f"missing {METRIC_HEADER.relative_to(REPO)}")
        return
    if not OPERATIONS.exists():
        errors.append(f"missing {OPERATIONS.relative_to(REPO)}")
        return
    declared = set(METRIC_DECL.findall(METRIC_HEADER.read_text("utf-8")))
    if not declared:
        errors.append("no metric declarations parsed from metric_names.h")
        return
    ops_text = OPERATIONS.read_text("utf-8")

    for name in sorted(declared):
        if f"`{name}`" not in ops_text:
            errors.append(
                f"docs/OPERATIONS.md: metric `{name}` (declared in "
                "src/obs/metric_names.h) is undocumented"
            )

    # Any backticked token under a subsystem prefix the header knows about
    # must itself be a declared metric — catches renames and typos.
    prefixes = {name.split(".", 1)[0] for name in declared}
    for token in set(BACKTICKED.findall(ops_text)):
        if token.split(".", 1)[0] in prefixes and token not in declared:
            errors.append(
                f"docs/OPERATIONS.md: `{token}` does not exist in "
                "src/obs/metric_names.h"
            )


def check_serving_docs(errors):
    """docs/SCALING.md <-> serving.* metric drift, both directions."""
    if not METRIC_HEADER.exists():
        return  # already reported by check_metric_names
    if not SCALING.exists():
        errors.append(f"missing {SCALING.relative_to(REPO)}")
        return
    declared = set(METRIC_DECL.findall(METRIC_HEADER.read_text("utf-8")))
    serving = {name for name in declared if name.startswith("serving.")}
    if not serving:
        errors.append("no serving.* metrics parsed from metric_names.h")
        return
    scaling_text = SCALING.read_text("utf-8")

    for name in sorted(serving):
        if f"`{name}`" not in scaling_text:
            errors.append(
                f"docs/SCALING.md: serving metric `{name}` (declared in "
                "src/obs/metric_names.h) is undocumented"
            )
    for token in set(BACKTICKED.findall(scaling_text)):
        if token.startswith("serving.") and token not in declared:
            errors.append(
                f"docs/SCALING.md: `{token}` does not exist in "
                "src/obs/metric_names.h"
            )


def check_set_options(errors):
    """Documented `SET <name> =` statements <-> RecDB::ExecuteSet."""
    accepted = set(SET_ACCEPTED.findall(RECDB_CC.read_text("utf-8")))
    if not accepted:
        errors.append("no SET options parsed from src/api/recdb.cc")
        return
    docs = [REPO / "README.md", REPO / "DESIGN.md", SHELL]
    docs += sorted((REPO / "docs").glob("*.md"))
    for doc in docs:
        for lineno, line in enumerate(doc.read_text("utf-8").splitlines(), 1):
            for update, name in SET_MENTION.findall(line):
                if not update and name not in accepted:
                    errors.append(
                        f"{doc.relative_to(REPO)}:{lineno}: `SET {name}` is "
                        "not an option RecDB::ExecuteSet accepts"
                    )


def check_metrics_recorded(errors):
    """Every declared metric is recorded somewhere under src/."""
    if not METRIC_HEADER.exists():
        return  # already reported by check_metric_names
    declared = METRIC_ENUM.findall(METRIC_HEADER.read_text("utf-8"))
    recorded = set()
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in {".h", ".cc"} or path == METRIC_HEADER:
            continue
        recorded.update(METRIC_RECORD.findall(path.read_text("utf-8")))
    for enum_id in declared:
        if enum_id not in recorded:
            errors.append(
                f"src/obs/metric_names.h: metric {enum_id} is declared but "
                "no file under src/ records it"
            )


def class_members(cls, header):
    """Names declared in the body of `class cls {...}` / `struct cls {...}`
    in `header`, comments stripped; None when no body is found."""
    text = re.sub(r"//[^\n]*", "", header.read_text("utf-8"))
    match = re.search(r"\b(?:class|struct)\s+" + cls + r"\b[^;{]*\{", text)
    if not match:
        return None
    depth = 0
    for i in range(match.end() - 1, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return set(DECLARED_NAME.findall(text[match.end():i]))
    return None


def check_api_members(errors):
    """Backticked `Class::member` mentions <-> the class's header."""
    members = {}
    for cls, header in API_HEADERS.items():
        members[cls] = class_members(cls, header)
        if members[cls] is None:
            errors.append(
                f"{header.relative_to(REPO)}: no declaration of {cls} parsed")
            return
    for md in markdown_files():
        if md.name in HISTORY_FILES:
            continue
        text = md.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in BACKTICK_SPAN.findall(line):
                for cls, member in API_MEMBER.findall(span):
                    if member not in members[cls]:
                        errors.append(
                            f"{md.relative_to(REPO)}:{lineno}: `{cls}::"
                            f"{member}` is not declared in "
                            f"{API_HEADERS[cls].relative_to(REPO)}")


def main():
    errors = []
    check_links(errors)
    check_metric_names(errors)
    check_serving_docs(errors)
    check_set_options(errors)
    check_metrics_recorded(errors)
    check_api_members(errors)
    for e in errors:
        print(e)
    if errors:
        print(f"docs-lint: {len(errors)} finding(s)")
        return 1
    print("docs-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
