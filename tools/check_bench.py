#!/usr/bin/env python3
"""Gate CI on the *shape* of the paper's figures.

Reads the JSONL a bench binary wrote with --json (schema
"heterolab-bench-v1", one flat object per row) and checks it against a
baseline file from bench/baselines/.  Baselines express shape invariants
with tolerances — "lagrange stays near-flat to 343 ranks", "the mixed
placement-group assembly costs ~4.4x at the same speed" — rather than exact
numbers, so harmless model tweaks do not trip the gate but a regression in
the reproduced qualitative result does.

The same machinery gates bench_kernels (baseline kernels.json): there the
fields are host wall-time speedups of the fast kernels over the reference
kernels plus modeled FLOP/byte intensities, with generous minimums so the
gate survives machine-to-machine variance (see docs/kernels.md).

Usage:
    tools/check_bench.py --baseline bench/baselines/fig4.json RESULTS.jsonl
    tools/check_bench.py --schema svc ANSWERS.jsonl
    tools/check_bench.py --trajectory BENCH_21.json BENCH_25.json ...

`--trajectory` checks the committed perf trajectory: BENCH_<pr>.json files
at the repository root, given oldest first. Each holds perfbench's
end-to-end metrics per workload as {"unit", "parent", "change"}, each side
a {"median", "q1", "q3"} over alternating parent/change runs. Every file
must list every workload and end-to-end metric of BENCHMARK.json, with its
unit. A change median worse than the previous file's change median by more
than the metric's relative bound fails; the first file is held to its own
parent median instead.

`--schema svc` validates a heterolab-svc-v1 response stream instead (the
advisory daemon's stdout): schema tag and known record type on every line,
per-type required keys, non-decreasing response ids (each request is
answered before the next is read), frontier/ranked seq numbering, and the
final "bye" record.
--baseline is optional in svc mode; when given, its checks run over the
response records too.

`--schema rebroker` validates a heterolab-rebroker-v1 decision trail (the
closed-loop controller's JSONL ledger): schema tag and known record type
(sample/decision/storm/migration) on every line, per-type required keys,
virtual timestamps non-decreasing within each run label, decision actions
restricted to stay/migrate, and migration records naming distinct source
and target platforms plus the checkpoint step they resumed from.

`--schema grid` validates a heterolab-grid-v1 grid-benchmark report
(docs/grid_benchmark.md): record order (header, cells, capability,
frontier, summary), per-type required keys, strictly increasing cell ids,
launched/failed field contracts, the stochastic-flag classification, and
the *cross-cell* invariants the paper's claims reduce to — a balanced
skew projection never models slower than its unbalanced twin, frontier
points reference launched calm cells with matching time/cost and are
mutually non-dominated, and capability/summary tallies match the cell
records they summarize.  `--against OTHER.jsonl` additionally compares two
reports of the same matrix: calm (non-stochastic) cells must be
byte-identical, and with --expect-stochastic-drift every stochastic cell
launched in both runs must differ (the seed-perturbation gate).
--baseline is optional in grid mode; when given, its checks run over the
report records too.

Cross-record check types (usable from any baseline):
    {"type": "count", "match": {...}, "min": 1, "max": 10}
    {"type": "forall", "match": {...}, "field": "total_s",
     "min": 0.0, "max": 100.0}     # every matching record; empty set
                                   # fails unless "allow_empty": true

Baseline format (JSON):
    {
      "bench": "fig4_rd_weak_scaling",   # expected "bench" field
      "min_records": 40,                 # at least this many rows
      "checks": [
        # a numeric field of one record, by expectation or bounds:
        {"type": "value", "match": {"platform": "lagrange", "procs": 343},
         "field": "total_s", "expect": 9.42, "rel_tol": 0.10},
        {"type": "value", "match": {...}, "field": "mix_spot_hosts",
         "min": 1, "max": 45},
        # "allow_null": true skips the bounds when the cell is null (a
        # non-finite value the serializer degraded rather than aborting):
        {"type": "value", "match": {...}, "field": "total_s",
         "min": 0.1, "allow_null": true},
        # the field must be null (a launch-failure cell):
        {"type": "null", "match": {"platform": "puma", "procs": 216},
         "field": "total_s"},
        # ratio of two (record, field) picks, bounded:
        {"type": "ratio",
         "num": {"match": {"platform": "lagrange", "procs": 343},
                 "field": "total_s"},
         "den": {"match": {"platform": "lagrange", "procs": 1},
                 "field": "total_s"},
         "min": 1.0, "max": 2.0, "note": "IB keeps weak scaling flat"}
      ]
    }

Every check may carry a "note" explaining which claim of the paper it pins.
Exit status: 0 when everything holds, 1 with a FAIL line per violation.
"""

import argparse
import json
import os
import sys

SCHEMA = "heterolab-bench-v1"

# The benchmark contract --trajectory holds BENCH files to.
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")
SVC_SCHEMA = "heterolab-svc-v1"

# Required keys per svc record type, beyond the universal schema/type/id.
SVC_REQUIRED = {
    "decision": ["ok", "objective", "candidates", "feasible", "rejected",
                 "frontier"],
    "ranked": ["seq", "candidate", "effective_s", "cost_usd", "score"],
    "frontier": ["seq", "candidate", "time_s", "cost_usd"],
    "pong": [],
    "error": ["reason"],
    "throttled": ["client", "reason", "need_tokens", "have_tokens"],
    "rebroker": ["action", "target", "target_ranks", "stay_finish_s",
                 "move_finish_s", "stay_cost_usd", "move_cost_usd",
                 "reason"],
    "bye": ["served"],
}

GRID_SCHEMA = "heterolab-grid-v1"

# Required keys per grid record type, beyond the universal schema/type.
GRID_REQUIRED = {
    "header": ["matrix", "matrix_seed", "iterations", "cardinality",
               "cells", "sampled", "axes"],
    "cell": ["cell", "label", "platform", "ranks", "app_pair",
             "resolution", "fault", "skewlb", "objective", "rep",
             "stochastic", "seed", "launched"],
    "capability": ["platform", "cells", "launched", "failed",
                   "max_launched_ranks", "reasons"],
    "frontier": ["app_pair", "seq", "cell", "platform", "ranks", "time_s",
                 "cost_usd"],
    "summary": ["cells", "launched", "failed", "stochastic_cells",
                "calm_cells", "unique_experiments", "frontier_points"],
}

# Record-type order of a grid report stream.
GRID_ORDER = ["header", "cell", "capability", "frontier", "summary"]

REBROKER_SCHEMA = "heterolab-rebroker-v1"

# Required keys per rebroker trail record type, beyond schema/type.
REBROKER_REQUIRED = {
    "sample": ["run", "attempt", "platform", "ranks", "step",
               "virtual_time_s", "step_s", "drift", "storm_rate"],
    "decision": ["run", "attempt", "platform", "ranks", "step",
                 "virtual_time_s", "action", "stay_finish_s",
                 "move_finish_s", "stay_cost_usd", "move_cost_usd",
                 "reason"],
    "storm": ["run", "attempt", "platform", "ranks", "step",
              "virtual_time_s"],
    "migration": ["run", "attempt", "from_platform", "to_platform",
                  "from_ranks", "to_ranks", "checkpoint_step",
                  "queue_wait_s", "virtual_time_s"],
}


def load_jsonl_raw(path):
    """Parses a JSONL file into (record, raw_line) pairs.

    The raw line (stripped of the newline) backs the byte-identity
    comparisons of grid mode's --against.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                pairs.append((json.loads(line), line))
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{line_no}: invalid JSON: {err}")
    return pairs


def load_jsonl(path):
    return [record for record, _ in load_jsonl_raw(path)]


def matches(record, match):
    return all(record.get(key) == value for key, value in match.items())


def pick(records, match, context):
    found = [r for r in records if matches(r, match)]
    if not found:
        raise CheckFailure(f"{context}: no record matches {match}")
    if len(found) > 1:
        raise CheckFailure(
            f"{context}: {len(found)} records match {match}; "
            "baseline match keys must identify exactly one row")
    return found[0]


def numeric(record, field, context):
    value = record.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CheckFailure(
            f"{context}: field '{field}' is {value!r}, expected a number")
    return float(value)


class CheckFailure(Exception):
    pass


def describe(check):
    note = check.get("note")
    kind = check.get("type", "?")
    target = check.get("match") or {
        "num": check.get("num", {}).get("match"),
        "den": check.get("den", {}).get("match"),
    }
    base = f"{kind} {check.get('field', '')} {target}"
    return f"{base} ({note})" if note else base


def run_check(check, records):
    kind = check.get("type")
    context = describe(check)
    if kind == "value":
        record = pick(records, check["match"], context)
        if check.get("allow_null") and record.get(check["field"]) is None:
            return f"{context}: null (allowed)"
        value = numeric(record, check["field"], context)
        if "expect" in check:
            expect = float(check["expect"])
            rel_tol = float(check.get("rel_tol", 0.05))
            abs_tol = float(check.get("abs_tol", 0.0))
            allowed = max(abs(expect) * rel_tol, abs_tol)
            if abs(value - expect) > allowed:
                raise CheckFailure(
                    f"{context}: {value:g} deviates from {expect:g} "
                    f"by more than {allowed:g}")
        if "min" in check and value < float(check["min"]):
            raise CheckFailure(
                f"{context}: {value:g} < minimum {check['min']:g}")
        if "max" in check and value > float(check["max"]):
            raise CheckFailure(
                f"{context}: {value:g} > maximum {check['max']:g}")
        return f"{context}: {value:g}"
    if kind == "null":
        record = pick(records, check["match"], context)
        value = record.get(check["field"], "<absent>")
        if value is not None:
            raise CheckFailure(
                f"{context}: expected null (launch failure), got {value!r}")
        return f"{context}: null as expected"
    if kind == "ratio":
        num_rec = pick(records, check["num"]["match"], context)
        den_rec = pick(records, check["den"]["match"], context)
        num = numeric(num_rec, check["num"]["field"], context)
        den = numeric(den_rec, check["den"]["field"], context)
        if den == 0.0:
            raise CheckFailure(f"{context}: denominator is zero")
        ratio = num / den
        if "min" in check and ratio < float(check["min"]):
            raise CheckFailure(
                f"{context}: ratio {ratio:g} < minimum {check['min']:g}")
        if "max" in check and ratio > float(check["max"]):
            raise CheckFailure(
                f"{context}: ratio {ratio:g} > maximum {check['max']:g}")
        return f"{context}: ratio {ratio:g}"
    if kind == "count":
        found = [r for r in records if matches(r, check["match"])]
        if "min" in check and len(found) < int(check["min"]):
            raise CheckFailure(
                f"{context}: {len(found)} matching records "
                f"< minimum {int(check['min'])}")
        if "max" in check and len(found) > int(check["max"]):
            raise CheckFailure(
                f"{context}: {len(found)} matching records "
                f"> maximum {int(check['max'])}")
        return f"{context}: {len(found)} records"
    if kind == "forall":
        found = [r for r in records if matches(r, check["match"])]
        if not found and not check.get("allow_empty"):
            raise CheckFailure(
                f"{context}: no record matches (a vacuous forall hides "
                "regressions; add \"allow_empty\": true to permit)")
        for record in found:
            if check.get("allow_null") and record.get(check["field"]) is None:
                continue
            value = numeric(record, check["field"], context)
            if "min" in check and value < float(check["min"]):
                raise CheckFailure(
                    f"{context}: {value:g} < minimum {check['min']:g} "
                    f"in {record.get('label') or record}")
            if "max" in check and value > float(check["max"]):
                raise CheckFailure(
                    f"{context}: {value:g} > maximum {check['max']:g} "
                    f"in {record.get('label') or record}")
        return f"{context}: holds over {len(found)} records"
    raise CheckFailure(f"unknown check type: {kind!r}")


def validate_svc_stream(records):
    """Structural checks on a heterolab-svc-v1 response stream.

    Returns a list of failure strings (empty when the stream is valid).
    """
    failures = []
    last_id = None
    frontier_seq = {}  # id -> next expected frontier seq
    ranked_seq = {}    # id -> next expected ranked seq
    for index, record in enumerate(records, 1):
        where = f"record {index}"
        if record.get("schema") != SVC_SCHEMA:
            failures.append(
                f"{where}: schema {record.get('schema')!r}, "
                f"expected {SVC_SCHEMA!r}")
            continue
        rtype = record.get("type")
        if rtype not in SVC_REQUIRED:
            failures.append(f"{where}: unknown record type {rtype!r}")
            continue
        for key in SVC_REQUIRED[rtype]:
            if key not in record:
                failures.append(
                    f"{where}: {rtype} record missing key {key!r}")
        if rtype == "bye":
            if index != len(records):
                failures.append(
                    f"{where}: bye record before end of stream")
            continue
        if "id" not in record:
            failures.append(f"{where}: {rtype} record missing key 'id'")
            continue
        rid = record["id"]
        if rid is None:
            if rtype != "error":
                failures.append(
                    f"{where}: null id on a {rtype} record (only error "
                    "records for unparseable lines may carry null)")
            continue
        if not isinstance(rid, int) or isinstance(rid, bool):
            failures.append(f"{where}: id {rid!r} is not an integer")
            continue
        # Requests are answered strictly in arrival order, so ids never
        # decrease (equal is fine: one request, many records).
        if last_id is not None and rid < last_id:
            failures.append(
                f"{where}: id {rid} after id {last_id} — response ids "
                "must be non-decreasing")
        last_id = rid
        if rtype == "decision":
            frontier_seq[rid] = 0
            ranked_seq[rid] = 1  # seq 0 is the winner, inline in decision
            if record.get("ok") is True:
                for key in ("winner", "effective_s", "cost_usd", "score"):
                    if key not in record:
                        failures.append(
                            f"{where}: ok decision missing key {key!r}")
            elif record.get("ok") is False:
                if "reason" not in record:
                    failures.append(
                        f"{where}: not-ok decision missing key 'reason'")
        elif rtype in ("frontier", "ranked"):
            seqs = frontier_seq if rtype == "frontier" else ranked_seq
            if rid not in seqs:
                failures.append(
                    f"{where}: {rtype} record for id {rid} without a "
                    "preceding decision record")
            elif record.get("seq") != seqs[rid]:
                failures.append(
                    f"{where}: {rtype} seq {record.get('seq')!r} for id "
                    f"{rid}, expected {seqs[rid]}")
            else:
                seqs[rid] += 1
    if records and records[-1].get("type") != "bye":
        failures.append("stream does not end with a bye record")
    return failures


def validate_rebroker_stream(records):
    """Structural checks on a heterolab-rebroker-v1 decision trail.

    Returns a list of failure strings (empty when the trail is valid).
    """
    failures = []
    last_time = {}  # run label -> last virtual_time_s seen
    for index, record in enumerate(records, 1):
        where = f"record {index}"
        if record.get("schema") != REBROKER_SCHEMA:
            failures.append(
                f"{where}: schema {record.get('schema')!r}, "
                f"expected {REBROKER_SCHEMA!r}")
            continue
        rtype = record.get("type")
        if rtype not in REBROKER_REQUIRED:
            failures.append(f"{where}: unknown record type {rtype!r}")
            continue
        missing = [key for key in REBROKER_REQUIRED[rtype]
                   if key not in record]
        for key in missing:
            failures.append(f"{where}: {rtype} record missing key {key!r}")
        if missing:
            continue
        run = record["run"]
        stamp = record["virtual_time_s"]
        if not isinstance(stamp, (int, float)) or isinstance(stamp, bool):
            failures.append(
                f"{where}: virtual_time_s {stamp!r} is not a number")
            continue
        # The trail replays one virtual clock per run: within a run label,
        # timestamps never go backwards (equal is fine: a migration record
        # and the next attempt's first sample share an instant).
        if run in last_time and stamp < last_time[run]:
            failures.append(
                f"{where}: virtual_time_s {stamp:g} after "
                f"{last_time[run]:g} in run {run!r} — the virtual clock "
                "must be non-decreasing")
        last_time[run] = stamp
        if rtype == "decision":
            if record["action"] not in ("stay", "migrate"):
                failures.append(
                    f"{where}: decision action {record['action']!r}, "
                    "expected 'stay' or 'migrate'")
        elif rtype == "migration":
            if record["from_platform"] == record["to_platform"]:
                failures.append(
                    f"{where}: migration from and to the same platform "
                    f"{record['from_platform']!r}")
            step = record["checkpoint_step"]
            if not isinstance(step, (int, float)) or step < 1:
                failures.append(
                    f"{where}: migration checkpoint_step {step!r} must "
                    "be >= 1 (a migration resumes completed work)")
    return failures


def grid_twin_key(record):
    """Groups the skew/skew-balanced twin cells: every axis but skewlb."""
    return (record.get("platform"), record.get("ranks"),
            record.get("app_pair"), record.get("resolution"),
            record.get("fault"), record.get("objective"), record.get("rep"))


def validate_grid_report(records):
    """Structural and cross-cell checks on a heterolab-grid-v1 report.

    Returns a list of failure strings (empty when the report is valid).
    """
    failures = []
    if not records:
        return ["no records"]

    # Per-record shape and the header/cells/capability/frontier/summary
    # stream order.
    stage = 0
    counts = {rtype: 0 for rtype in GRID_ORDER}
    for index, record in enumerate(records, 1):
        where = f"record {index}"
        if record.get("schema") != GRID_SCHEMA:
            failures.append(
                f"{where}: schema {record.get('schema')!r}, "
                f"expected {GRID_SCHEMA!r}")
            continue
        rtype = record.get("type")
        if rtype not in GRID_REQUIRED:
            failures.append(f"{where}: unknown record type {rtype!r}")
            continue
        counts[rtype] += 1
        order = GRID_ORDER.index(rtype)
        if order < stage:
            failures.append(
                f"{where}: {rtype} record after a {GRID_ORDER[stage]} "
                "record — order is header, cells, capability, frontier, "
                "summary")
        stage = max(stage, order)
        for key in GRID_REQUIRED[rtype]:
            if key not in record:
                failures.append(f"{where}: {rtype} record missing {key!r}")
    if counts["header"] != 1 or records[0].get("type") != "header":
        failures.append("report must start with exactly one header record")
        return failures  # everything below keys off the header
    if counts["summary"] != 1 or records[-1].get("type") != "summary":
        failures.append("report must end with exactly one summary record")

    header = records[0]
    cells = [r for r in records if r.get("type") == "cell"]
    if header.get("cells") != len(cells):
        failures.append(
            f"header claims {header.get('cells')!r} cells, report carries "
            f"{len(cells)}")

    # Cell contracts: strictly increasing ids, launched/failed field
    # shapes, and the stochastic classification (matrix-seed-dependent iff
    # spot-mix, faults, or skew are in play).
    last_id = None
    by_id = {}
    for record in cells:
        cid = record.get("cell")
        where = f"cell {cid}"
        if not isinstance(cid, int) or isinstance(cid, bool):
            failures.append(f"cell id {cid!r} is not an integer")
            continue
        if last_id is not None and cid <= last_id:
            failures.append(
                f"{where}: id after {last_id} — cell ids must be strictly "
                "increasing (duplicates would alias --against comparisons)")
        last_id = cid
        by_id[cid] = record
        calm = (record.get("platform") != "ec2-spot"
                and record.get("fault") == "calm"
                and record.get("skewlb") == "calm")
        if record.get("stochastic") is not (not calm):
            failures.append(
                f"{where}: stochastic={record.get('stochastic')!r} "
                "contradicts the axes (stochastic iff spot-mix platform, "
                "faults, or skew)")
        launched = record.get("launched")
        if launched is True:
            for field in ("queue_wait_s", "total_s", "cost_usd", "score",
                          "run_s", "effective_s", "skew_imbalance"):
                value = record.get(field)
                if not isinstance(value, (int, float)) or isinstance(
                        value, bool):
                    failures.append(
                        f"{where}: launched cell field '{field}' is "
                        f"{value!r}, expected a number")
            total = record.get("total_s")
            if isinstance(total, (int, float)) and total <= 0:
                failures.append(
                    f"{where}: launched cell total_s {total:g} must be "
                    "positive")
        elif launched is False:
            if not record.get("failure_reason"):
                failures.append(
                    f"{where}: failed cell without a failure_reason")
            for field in ("total_s", "cost_usd", "score"):
                if record.get(field, "<absent>") is not None:
                    failures.append(
                        f"{where}: failed cell field '{field}' must be "
                        f"null, got {record.get(field, '<absent>')!r}")
        else:
            failures.append(f"{where}: launched is {launched!r}, "
                            "expected true or false")

    # Balanced <= unbalanced: the same skew lottery projected under
    # perfect capacity balancing must never model slower than the
    # bulk-synchronous worst-rank wait.
    twins = {}
    for record in cells:
        if (record.get("skewlb") in ("skew", "skew-balanced")
                and record.get("launched") is True):
            twins.setdefault(grid_twin_key(record), {})[
                record["skewlb"]] = record
    for pair in twins.values():
        if "skew" not in pair or "skew-balanced" not in pair:
            continue
        unbal = pair["skew"].get("total_s")
        bal = pair["skew-balanced"].get("total_s")
        if (isinstance(unbal, (int, float)) and isinstance(bal, (int, float))
                and bal > unbal * (1 + 1e-9)):
            failures.append(
                f"cell {pair['skew-balanced'].get('cell')}: balanced "
                f"modeled time {bal:g} exceeds its unbalanced twin's "
                f"{unbal:g} (cell {pair['skew'].get('cell')})")

    # Capability tallies must match the cell records they summarize.
    tally = {}
    for record in cells:
        t = tally.setdefault(record.get("platform"), [0, 0])
        t[0] += 1
        t[1] += 1 if record.get("launched") is True else 0
    seen_platforms = set()
    for record in (r for r in records if r.get("type") == "capability"):
        platform = record.get("platform")
        seen_platforms.add(platform)
        total, launched = tally.get(platform, [0, 0])
        if record.get("cells") != total:
            failures.append(
                f"capability {platform}: claims {record.get('cells')!r} "
                f"cells, cell records say {total}")
        if record.get("launched") != launched:
            failures.append(
                f"capability {platform}: claims {record.get('launched')!r} "
                f"launched, cell records say {launched}")
        if record.get("failed") != total - launched:
            failures.append(
                f"capability {platform}: failed "
                f"{record.get('failed')!r} != cells - launched "
                f"({total - launched})")
    missing = set(tally) - seen_platforms
    if missing:
        failures.append(
            f"platforms with cells but no capability record: "
            f"{sorted(missing)}")

    # Frontier: dense seq per app pair, every point backed by a launched
    # calm cell with identical time/cost, and mutual non-domination.
    frontier = [r for r in records if r.get("type") == "frontier"]
    groups = {}
    for record in frontier:
        groups.setdefault(record.get("app_pair"), []).append(record)
    for pair_name, points in groups.items():
        for expected_seq, record in enumerate(points):
            where = f"frontier {pair_name}/{record.get('seq')!r}"
            if record.get("seq") != expected_seq:
                failures.append(
                    f"{where}: expected seq {expected_seq} (dense, "
                    "in order)")
            cell = by_id.get(record.get("cell"))
            if cell is None:
                failures.append(
                    f"{where}: references unknown cell "
                    f"{record.get('cell')!r}")
                continue
            if (cell.get("launched") is not True
                    or cell.get("fault") != "calm"
                    or cell.get("skewlb") != "calm"):
                failures.append(
                    f"{where}: cell {record.get('cell')} is not a "
                    "launched calm cell")
            if cell.get("app_pair") != pair_name:
                failures.append(
                    f"{where}: cell {record.get('cell')} belongs to "
                    f"app pair {cell.get('app_pair')!r}")
            if (record.get("time_s") != cell.get("total_s")
                    or record.get("cost_usd") != cell.get("cost_usd")):
                failures.append(
                    f"{where}: time/cost do not match cell "
                    f"{record.get('cell')}'s total_s/cost_usd")
        for a in points:
            for b in points:
                if a is b:
                    continue
                try:
                    dominated = (b["time_s"] <= a["time_s"]
                                 and b["cost_usd"] <= a["cost_usd"]
                                 and (b["time_s"] < a["time_s"]
                                      or b["cost_usd"] < a["cost_usd"]))
                except (KeyError, TypeError):
                    continue  # shape failures already reported
                if dominated:
                    failures.append(
                        f"frontier {pair_name}: point for cell "
                        f"{a.get('cell')} is dominated by cell "
                        f"{b.get('cell')} — frontier members must be "
                        "mutually non-dominated")

    # Summary tallies.
    summary = records[-1]
    if summary.get("type") == "summary":
        launched = sum(1 for r in cells if r.get("launched") is True)
        stochastic = sum(1 for r in cells if r.get("stochastic") is True)
        expected = {
            "cells": len(cells),
            "launched": launched,
            "failed": len(cells) - launched,
            "stochastic_cells": stochastic,
            "calm_cells": len(cells) - stochastic,
            "frontier_points": len(frontier),
        }
        for key, value in expected.items():
            if summary.get(key) != value:
                failures.append(
                    f"summary {key} = {summary.get(key)!r}, cell records "
                    f"say {value}")
    return failures


def compare_grid_reports(pairs, against_pairs, expect_drift):
    """Differential gate between two reports of the same matrix.

    Calm cells must be byte-identical (re-run / resume / re-seed
    stability); with expect_drift, stochastic cells launched in both runs
    must differ (the seed-perturbation gate).
    """
    failures = []

    def cell_lines(ps):
        return {rec.get("cell"): (rec, line)
                for rec, line in ps if rec.get("type") == "cell"}

    ours = cell_lines(pairs)
    theirs = cell_lines(against_pairs)
    shared = [cid for cid in ours if cid in theirs]
    if not shared:
        return ["--against: the reports share no cell ids"]
    calm_checked = 0
    for cid in shared:
        rec, line = ours[cid]
        other_rec, other_line = theirs[cid]
        if rec.get("stochastic") is False:
            calm_checked += 1
            if line != other_line:
                failures.append(
                    f"cell {cid}: calm cell drifted between the reports — "
                    "calm cells must be byte-identical across re-runs, "
                    "resumes, and matrix re-seeds")
        elif (expect_drift and rec.get("launched") is True
              and other_rec.get("launched") is True):
            if line == other_line:
                failures.append(
                    f"cell {cid}: stochastic cell byte-identical across "
                    "perturbed matrix seeds — its seed did not move")
    if calm_checked == 0:
        failures.append("--against: no calm cells shared between the "
                        "reports (nothing to pin)")
    return failures


def check_trajectory(paths, benchmark_path):
    """Failures of a BENCH_<pr>.json sequence (oldest first) against the
    workloads, end-to-end metrics and bounds of BENCHMARK.json."""
    with open(benchmark_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []
    previous = None  # (path, file) of the last readable file
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                bench = json.load(handle)
        except (OSError, ValueError) as err:
            failures.append(f"{path}: unreadable: {err}")
            continue
        for workload in workloads:
            rows = bench.get("workloads", {}).get(workload, {})
            rows = rows.get("metrics", {}) if isinstance(rows, dict) else {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                where = f"{path}: {workload} {name}"
                row = rows.get(name)
                try:
                    if row["unit"] != metric["unit"]:
                        failures.append(f"{where}: unit {row['unit']!r}, "
                                        f"BENCHMARK.json has "
                                        f"{metric['unit']!r}")
                    sides = {side: [float(row[side][q])
                                    for q in ("q1", "median", "q3")]
                             for side in ("parent", "change")}
                    if previous:
                        against = previous[0]
                        base = float(previous[1]["workloads"][workload]
                                     ["metrics"][name]["change"]["median"])
                    else:
                        against, base = "its parent", sides["parent"][1]
                except (KeyError, TypeError, ValueError):
                    failures.append(f"{where}: missing, or without unit "
                                    "and parent/change median, q1 and q3")
                    continue
                change = sides["change"][1]
                bound = float(metric["bound"])
                worse = (change > base * (1 + bound)
                         if metric["better"] == "lower"
                         else change < base * (1 - bound))
                if worse:
                    failures.append(
                        f"{where}: change median {change:g} {metric['unit']} "
                        f"is worse than {base:g} ({against}) by more than "
                        f"{bound:.0%}")
        previous = (path, bench)
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Check bench JSONL output against a baseline.")
    parser.add_argument("results", nargs="?",
                        help="JSONL written by a bench's --json")
    parser.add_argument("--baseline",
                        help="baseline JSON from bench/baselines/ "
                             "(required with --schema bench)")
    parser.add_argument("--schema", choices=["bench", "svc", "rebroker",
                                             "grid"],
                        default="bench",
                        help="bench: heterolab-bench-v1 rows gated by a "
                             "baseline; svc: a heterolab-svc-v1 response "
                             "stream's structural contract; rebroker: a "
                             "heterolab-rebroker-v1 decision trail's "
                             "structural contract; grid: a "
                             "heterolab-grid-v1 matrix report's cross-cell "
                             "invariants")
    parser.add_argument("--against", metavar="OTHER.jsonl",
                        help="(grid only) second report of the same matrix: "
                             "calm cells must be byte-identical")
    parser.add_argument("--expect-stochastic-drift", action="store_true",
                        help="(grid --against only) additionally require "
                             "every stochastic cell launched in both "
                             "reports to differ (seed-perturbation gate)")
    parser.add_argument("--trajectory", nargs="+", metavar="BENCH.json",
                        help="check committed BENCH_<pr>.json files, oldest "
                             "first, against BENCHMARK.json's bounds")
    args = parser.parse_args()

    if args.trajectory:
        failures = check_trajectory(args.trajectory, BENCHMARK)
        for failure in failures:
            print(f"FAIL [trajectory]: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"PASS [trajectory]: {len(args.trajectory)} file(s) within "
              "BENCHMARK.json's bounds")
        return 0
    if not args.results:
        parser.error("RESULTS is required unless --trajectory is given")

    if args.schema != "grid" and (args.against
                                  or args.expect_stochastic_drift):
        parser.error("--against/--expect-stochastic-drift apply to "
                     "--schema grid only")
    if args.expect_stochastic_drift and not args.against:
        parser.error("--expect-stochastic-drift needs --against")

    pairs = load_jsonl_raw(args.results)
    records = [record for record, _ in pairs]

    if args.schema == "grid":
        failures = validate_grid_report(records)
        if args.against:
            failures.extend(compare_grid_reports(
                pairs, load_jsonl_raw(args.against),
                args.expect_stochastic_drift))
        passed = 0
        if args.baseline:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            for check in baseline.get("checks", []):
                try:
                    message = run_check(check, records)
                except CheckFailure as err:
                    failures.append(str(err))
                except KeyError as err:
                    failures.append(
                        f"{describe(check)}: baseline missing key {err}")
                else:
                    passed += 1
                    print(f"  ok: {message}")
        if failures:
            for failure in failures[:25]:
                print(f"FAIL [grid]: {failure}", file=sys.stderr)
            if len(failures) > 25:
                print(f"FAIL [grid]: ... and {len(failures) - 25} more",
                      file=sys.stderr)
            return 1
        cells = sum(1 for r in records if r.get("type") == "cell")
        print(f"PASS [grid]: {cells} cells, {passed} baseline checks, "
              "matrix invariants hold")
        return 0

    if args.schema == "rebroker":
        failures = []
        if not records:
            failures.append(f"{args.results}: no records")
        failures.extend(validate_rebroker_stream(records))
        if failures:
            for failure in failures[:25]:
                print(f"FAIL [rebroker]: {failure}", file=sys.stderr)
            if len(failures) > 25:
                print(f"FAIL [rebroker]: ... and {len(failures) - 25} more",
                      file=sys.stderr)
            return 1
        print(f"PASS [rebroker]: {len(records)} records, "
              "trail contract holds")
        return 0

    if args.schema == "svc":
        failures = []
        if not records:
            failures.append(f"{args.results}: no records")
        failures.extend(validate_svc_stream(records))
        if args.baseline:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            for check in baseline.get("checks", []):
                try:
                    message = run_check(check, records)
                except CheckFailure as err:
                    failures.append(str(err))
                except KeyError as err:
                    failures.append(
                        f"{describe(check)}: baseline missing key {err}")
                else:
                    print(f"  ok: {message}")
        if failures:
            for failure in failures[:25]:
                print(f"FAIL [svc]: {failure}", file=sys.stderr)
            if len(failures) > 25:
                print(f"FAIL [svc]: ... and {len(failures) - 25} more",
                      file=sys.stderr)
            return 1
        print(f"PASS [svc]: {len(records)} records, "
              "stream contract holds")
        return 0

    if not args.baseline:
        parser.error("--baseline is required with --schema bench")
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures = []
    if not records:
        failures.append(f"{args.results}: no records")
    for record in records:
        if record.get("schema") != SCHEMA:
            failures.append(
                f"record has schema {record.get('schema')!r}, "
                f"expected {SCHEMA!r}: {record}")
            break
    expected_bench = baseline.get("bench")
    if expected_bench and records:
        benches = {r.get("bench") for r in records}
        if benches != {expected_bench}:
            failures.append(
                f"records carry bench field(s) {sorted(benches)}, "
                f"baseline expects {expected_bench!r}")
    min_records = int(baseline.get("min_records", 1))
    if len(records) < min_records:
        failures.append(
            f"only {len(records)} records, baseline requires "
            f">= {min_records}")

    passed = 0
    for check in baseline.get("checks", []):
        try:
            message = run_check(check, records)
        except CheckFailure as err:
            failures.append(str(err))
        except KeyError as err:
            failures.append(f"{describe(check)}: baseline missing key {err}")
        else:
            passed += 1
            print(f"  ok: {message}")

    name = expected_bench or args.results
    if failures:
        for failure in failures:
            print(f"FAIL [{name}]: {failure}", file=sys.stderr)
        return 1
    print(f"PASS [{name}]: {passed} checks over {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
