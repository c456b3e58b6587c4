#!/usr/bin/env python3
"""Repo-specific concurrency invariant lints.

Checks invariants that neither clang thread-safety analysis nor clang-tidy
can express, because they are about *which* code runs where, not about lock
balance:

  fsync-under-pool-mutex   No durable-I/O call (Wal::EnsureDurable,
                           Pager::Sync, fsync/fdatasync/pwrite) while the
                           buffer-pool mutex is held: every write-back runs
                           through the write queue with the mutex released,
                           so foreground faults never serialize behind
                           another page's fsync. The rule admits no
                           exceptions — `lint:allow` markers are ignored, so
                           a synchronous write-back under the mutex cannot
                           come back annotated.

  gate-on-reactor-thread   No statement-mutex acquisition in code that runs
                           on the reactor thread (the epoll loop and the
                           ReactorHandler callbacks). A wedged statement must
                           never wedge accept/read/write for every connection
                           — that is the whole point of the dispatcher
                           handoff.

  statement-lock-site      statement_mutex() is named under src/ only by the
                           code that owns statement serialization:
                           sql/executor.cc, engine/, and
                           persist/checkpoint_daemon.cc (which only
                           try_locks). Callers such as the server session go
                           through sql::Executor and never lock it.

  sql-reads-epoch          Nothing under src/sql/ or src/server/ calls the
                           engine-API view reads (LabelOf/MembersOf/CountOf)
                           or reaches the live core view through view():
                           every SQL read of a view answers from its pinned
                           epoch (Executor::ExecSelectView), so a second,
                           lock-taking read path cannot come back unnoticed.

  reads-through-epochs     No file under src/ outside src/core/ calls a core
                           view's read path (SingleEntityRead, AllMembers,
                           AllMembersCount) through `view_->` or
                           `view()->`: SQL reads and the engine-API reads
                           (ManagedView::LabelOf/MembersOf/CountOf) answer
                           from epochs, so a second, live read path cannot
                           come back unnoticed. Like the pool-mutex fsync
                           rule it admits no `lint:allow` exceptions.

  engine-builds-no-core-view
                           No file under src/ outside src/core/ calls
                           core::MakeView or names ClassificationView: the
                           engine keeps each view's model, trainer and epoch
                           store itself, and the five core:: architectures
                           stay the paper-figure library behind ViewHarness.
                           Like the pool-mutex fsync rule it admits no
                           `lint:allow` exceptions.

  unconsumed-epoch-pin     Every EpochManager::Pin() result must be bound
                           (the SnapshotPin RAII holder is the unpin). A
                           discarded temporary unpins immediately and the
                           "protected" scan races reclaim.

  escape-hatch-budget      At most {BUDGET} NO_THREAD_SAFETY_ANALYSIS uses
                           repo-wide (outside the macro definition), each
                           with an adjacent comment stating the runtime
                           invariant that replaces the static check.

  unexplained-void-status  Every `(void)` discard of a Status-returning call
                           must carry a comment (same line or the lines just
                           above) saying why dropping the status is correct.

A finding of any rule but those three can be suppressed with
`// lint:allow <rule-name>` on the same line or the line above, which is
itself the documentation.

Exit status 0 = clean, 1 = findings (printed as file:line: message).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUDGET = 10

findings = []


def allowed(lines, idx, rule):
    for i in (idx, idx - 1):
        if 0 <= i < len(lines) and f"lint:allow {rule}" in lines[i]:
            return True
    return False


def report(path, idx, rule, msg):
    findings.append(f"{path.relative_to(ROOT)}:{idx + 1}: [{rule}] {msg}")


def has_adjacent_comment(lines, idx):
    """A substantive comment on the same line or within the 4 lines above."""
    line = lines[idx]
    if re.search(r"//\s*\S", line.split("NO_THREAD_SAFETY_ANALYSIS")[-1]):
        return True
    for i in range(max(0, idx - 4), idx):
        if re.search(r"^\s*(//|///)\s*\S", lines[i]):
            return True
    return False


def function_bodies(text):
    """Yields (name, start_line_idx, body_lines) for top-level-ish function
    definitions. Brace-counting heuristic — good enough for this codebase's
    clang-format style (definition signature ends with `{` on its own or the
    signature line)."""
    lines = text.splitlines()
    i = 0
    sig_re = re.compile(r"^[\w:&<>,\*\s\[\]]+\s(\w+(?:::\w+)*)\s*\(")
    while i < len(lines):
        m = sig_re.match(lines[i])
        # Find the opening brace of the definition (same line or a later
        # signature-continuation line before any ';').
        if m and not lines[i].lstrip().startswith(("//", "#", "*")):
            j = i
            depth_opened = False
            while j < len(lines) and j < i + 6:
                if ";" in lines[j].split("//")[0] and "{" not in lines[j]:
                    break  # declaration, not definition
                if "{" in lines[j]:
                    depth_opened = True
                    break
                j += 1
            if depth_opened:
                depth = 0
                k = j
                body = []
                while k < len(lines):
                    code = lines[k].split("//")[0]
                    depth += code.count("{") - code.count("}")
                    body.append((k, lines[k]))
                    if depth <= 0 and k > j:
                        break
                    k += 1
                yield m.group(1), i, body
                i = k + 1
                continue
        i += 1


DURABLE_RE = re.compile(
    r"EnsureDurable\s*\(|->Sync\s*\(|\bfsync\s*\(|\bfdatasync\s*\(|\bpwrite\s*\("
)


ANNOTATION_NAMES = {
    "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "GUARDED_BY", "PT_GUARDED_BY",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "ASSERT_CAPABILITY", "CAPABILITY",
}


def requires_mu_functions(header_text):
    """Names of functions declared with REQUIRES(mu_): for each such line,
    walk back to the nearest declaration line and take its function name."""
    out = set()
    lines = header_text.splitlines()
    for i, ln in enumerate(lines):
        if "REQUIRES(mu_)" not in ln:
            continue
        for j in range(i, max(-1, i - 4), -1):
            hit = None
            for m in re.finditer(r"(\w+)\s*\(", lines[j]):
                if m.group(1) not in ANNOTATION_NAMES:
                    hit = m.group(1)
                    break
            if hit:
                out.add(hit)
                break
    return out


def check_fsync_under_pool_mutex():
    header = (SRC / "storage" / "buffer_pool.h").read_text()
    # Functions annotated REQUIRES(mu_) start with the pool mutex held.
    requires = requires_mu_functions(header)
    for fname in ("buffer_pool.cc", "bg_writer.cc"):
        path = SRC / "storage" / fname
        text = path.read_text()
        lines = text.splitlines()
        for name, _, body in function_bodies(text):
            short = name.split("::")[-1]
            depth = 1 if short in requires else 0
            for idx, line in body:
                code = line.split("//")[0]
                if re.search(r"MutexLock\s+\w+\((?:pool_->)?mu_\)", code):
                    depth += 1
                if re.search(r"(?:\w+|mu_)\.Lock\(\)", code):
                    depth += 1
                if re.search(r"(?:\w+|mu_)\.Unlock\(\)", code):
                    depth -= 1
                if depth > 0 and DURABLE_RE.search(code):
                    report(
                        path, idx, "fsync-under-pool-mutex",
                        f"durable I/O in {short} while the pool mutex is held",
                    )
                # Scope exit of a MutexLock isn't tracked; conservative and
                # fine here — these two files release explicitly around I/O.


GATE_RE = re.compile(r"statement_mutex\s*\(\)")
REACTOR_HANDLERS = {"OnConnect", "OnFrame", "OnDisconnect"}


def check_gate_on_reactor_thread():
    path = SRC / "rpc" / "reactor.cc"
    lines = path.read_text().splitlines()
    for idx, line in enumerate(lines):
        if GATE_RE.search(line.split("//")[0]):
            if not allowed(lines, idx, "gate-on-reactor-thread"):
                report(path, idx, "gate-on-reactor-thread",
                       "statement mutex on the reactor thread")
    for fname in ("server.cc", "session.cc"):
        path = SRC / "server" / fname
        text = path.read_text()
        lines = text.splitlines()
        for name, _, body in function_bodies(text):
            short = name.split("::")[-1]
            # StatsFrame is documented to run on the reactor thread.
            if short not in REACTOR_HANDLERS and short != "StatsFrame":
                continue
            for idx, line in body:
                if GATE_RE.search(line.split("//")[0]):
                    if not allowed(lines, idx, "gate-on-reactor-thread"):
                        report(
                            path, idx, "gate-on-reactor-thread",
                            f"{short} runs on the reactor thread but takes "
                            "the statement mutex",
                        )


STATEMENT_LOCK_SITES = ("sql/executor.cc", "engine/",
                        "persist/checkpoint_daemon.cc")


def check_statement_lock_site():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(STATEMENT_LOCK_SITES):
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if GATE_RE.search(line.split("//")[0]):
                if not allowed(lines, idx, "statement-lock-site"):
                    report(path, idx, "statement-lock-site",
                           "statement_mutex() outside the executor, engine "
                           "and checkpoint daemon — run the statement "
                           "through sql::Executor instead")


LIVE_VIEW_READ_RE = re.compile(
    r"\b(?:LabelOf|MembersOf|CountOf)\s*\(|(?:->|\.)view\s*\(\)")


def check_sql_reads_epoch():
    for layer in ("sql", "server"):
        root = SRC / layer
        for path in sorted(root.rglob("*.cc")) + sorted(root.rglob("*.h")):
            lines = path.read_text().splitlines()
            for idx, line in enumerate(lines):
                if LIVE_VIEW_READ_RE.search(line.split("//")[0]):
                    if not allowed(lines, idx, "sql-reads-epoch"):
                        report(path, idx, "sql-reads-epoch",
                               "live view read in the SQL/serving layer — "
                               "answer from the view's pinned epoch "
                               "(Executor::ExecSelectView)")


CORE_VIEW_READ_RE = re.compile(
    r"\b(?:view_|view\(\))\s*->\s*"
    r"(?:SingleEntityRead|AllMembers|AllMembersCount)\s*\(")


def check_reads_through_epochs():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        if path.relative_to(SRC).parts[0] == "core":
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if CORE_VIEW_READ_RE.search(line.split("//")[0]):
                report(path, idx, "reads-through-epochs",
                       "core view read outside src/core/ — answer from an "
                       "epoch (ManagedView::ReadEpoch or a SnapshotPin)")


CORE_VIEW_BUILD_RE = re.compile(r"\bMakeView\s*\(|\bClassificationView\b")


def check_engine_builds_no_core_view():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        if path.relative_to(SRC).parts[0] == "core":
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if CORE_VIEW_BUILD_RE.search(line.split("//")[0]):
                report(path, idx, "engine-builds-no-core-view",
                       "core view built or named outside src/core/ — keep "
                       "the view's model, trainer and epoch store in "
                       "engine::ManagedView")


PIN_BARE_RE = re.compile(r"^\s*[\w\.\->\(\)]*\bPin\(\)\s*;")


def check_unconsumed_epoch_pin():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            code = line.split("//")[0]
            if PIN_BARE_RE.match(code):
                if not allowed(lines, idx, "unconsumed-epoch-pin"):
                    report(path, idx, "unconsumed-epoch-pin",
                           "Pin() result discarded — bind it to a "
                           "SnapshotPin so the unpin is scoped")


def check_escape_hatch_budget():
    uses = []
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        if path.name == "thread_annotations.h":
            continue
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if "NO_THREAD_SAFETY_ANALYSIS" in line:
                uses.append((path, idx))
                if not has_adjacent_comment(lines, idx):
                    report(path, idx, "escape-hatch-budget",
                           "NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                           "comment stating the runtime invariant")
    if len(uses) > BUDGET:
        path, idx = uses[-1]
        report(path, idx, "escape-hatch-budget",
               f"{len(uses)} NO_THREAD_SAFETY_ANALYSIS uses repo-wide "
               f"(budget {BUDGET}) — fix the locking instead")


VOID_STATUS_RE = re.compile(r"\(void\)\s*[\w\.\->:]+\(")


def check_unexplained_void_status():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if VOID_STATUS_RE.search(line.split("//")[0]):
                explained = "//" in line or any(
                    re.search(r"^\s*(//|///)\s*\S", lines[i])
                    for i in range(max(0, idx - 3), idx)
                )
                if not explained and not allowed(
                        lines, idx, "unexplained-void-status"):
                    report(path, idx, "unexplained-void-status",
                           "(void)-discarded call without a justification "
                           "comment")


def main():
    check_fsync_under_pool_mutex()
    check_gate_on_reactor_thread()
    check_statement_lock_site()
    check_sql_reads_epoch()
    check_reads_through_epochs()
    check_engine_builds_no_core_view()
    check_unconsumed_epoch_pin()
    check_escape_hatch_budget()
    check_unexplained_void_status()
    if findings:
        for f in findings:
            print(f)
        print(f"\n{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
