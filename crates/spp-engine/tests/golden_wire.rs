//! Exact-bytes fixtures for every wire document the engine writes.
//!
//! The roundtrip tests only check `serialize ∘ parse ∘ serialize ==
//! serialize`, which a consistent layout change would pass while
//! orphaning every cache directory and shard report on disk. These pin
//! the bytes themselves: one fixed value per document, including the
//! empty-`cells` row array and the optional `improved_from` field. The
//! two cell rows (one with characters that need escaping) are pinned
//! inside the shard, merged and completion documents.

use std::path::PathBuf;

use spp_core::InstanceDigest;
use spp_engine::cache::{entry_to_json, CacheKey, CachedCell};
use spp_engine::sharding::{CellRow, MergedReport, ShardReport};
use spp_engine::work::{
    complete_to_json, grant_to_json, status_to_json, LeaseGrant, WorkLease, WorkStatus,
};
use spp_engine::{CellStatus, SolveConfig};

fn golden(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "document drifted from its golden bytes; actual:\n<<<\n{actual}>>>\nexpected:\n<<<\n{expected}>>>"
    );
}

fn rows() -> Vec<CellRow> {
    vec![
        CellRow {
            job: 4,
            label: "deep-chain-00".into(),
            solver: "nfdh".into(),
            status: CellStatus::Solved,
            makespan: 2.5,
            combined_lb: 1.0 / 3.0,
        },
        CellRow {
            job: 5,
            label: "odd \"label\"\\tab\t".into(),
            solver: "aptas".into(),
            status: CellStatus::Unsupported,
            makespan: 0.0,
            combined_lb: 0.0,
        },
    ]
}

fn config() -> SolveConfig {
    SolveConfig {
        epsilon: 0.25,
        budget_ms: 250,
        improve_seed: 12345678901234567891,
        improve_streams: 4,
        improve_envelope: true,
        ..SolveConfig::default()
    }
}

#[test]
fn cache_entry_bytes() {
    let key = CacheKey {
        digest: InstanceDigest::of_canonical_json("golden"),
        solver: "nfdh".into(),
        config_sig: SolveConfig::default().signature(),
    };
    let cell = CachedCell {
        status: CellStatus::Solved,
        makespan: 1.75,
        combined_lb: 0.1,
        improved_from: None,
    };
    golden(
        &entry_to_json(&key, &cell),
        r#"{
  "format": "spp-cache-entry",
  "version": 1,
  "instance": "fnv1a:2b72c88efe37d9c4",
  "solver": "nfdh",
  "config": "epsilon=1.00000000000000000e0 k=8 shelf_r=6.21999999999999997e-1 strict=false validate=true budget_ms=0 improve_seed=0 improve_streams=1 improve_envelope=false",
  "status": "solved",
  "makespan": 1.75000000000000000e0,
  "lb": 1.00000000000000006e-1
}
"#,
    );
    let improved = CachedCell {
        improved_from: Some(2.5),
        ..cell
    };
    golden(
        &entry_to_json(&key, &improved),
        r#"{
  "format": "spp-cache-entry",
  "version": 1,
  "instance": "fnv1a:2b72c88efe37d9c4",
  "solver": "nfdh",
  "config": "epsilon=1.00000000000000000e0 k=8 shelf_r=6.21999999999999997e-1 strict=false validate=true budget_ms=0 improve_seed=0 improve_streams=1 improve_envelope=false",
  "status": "solved",
  "improved_from": 2.50000000000000000e0,
  "makespan": 1.75000000000000000e0,
  "lb": 1.00000000000000006e-1
}
"#,
    );
}

#[test]
fn shard_report_bytes() {
    let report = ShardReport {
        shard: 1,
        shards: 4,
        solvers: vec!["nfdh".into(), "aptas".into()],
        inputs: vec!["suite/a.json".into(), "suite/b \"q\".json".into()],
        plan_fp: "0123456789abcdef".into(),
        config_sig: SolveConfig::default().signature(),
        cells: rows(),
        runtime: None,
    };
    golden(
        &report.to_json(),
        r#"{
  "format": "spp-shard-report",
  "version": 1,
  "shard": 1,
  "shards": 4,
  "solvers": ["nfdh", "aptas"],
  "inputs": ["suite/a.json", "suite/b \"q\".json"],
  "plan": "0123456789abcdef",
  "config": "epsilon=1.00000000000000000e0 k=8 shelf_r=6.21999999999999997e-1 strict=false validate=true budget_ms=0 improve_seed=0 improve_streams=1 improve_envelope=false",
  "cells": [
    {"job": 4, "label": "deep-chain-00", "solver": "nfdh", "status": "solved", "makespan": 2.50000000000000000e0, "lb": 3.33333333333333315e-1},
    {"job": 5, "label": "odd \"label\"\\tab\t", "solver": "aptas", "status": "unsupported", "makespan": 0.00000000000000000e0, "lb": 0.00000000000000000e0}
  ]
}
"#,
    );
    let empty = ShardReport {
        shard: 3,
        inputs: vec![],
        cells: vec![],
        ..report
    };
    golden(
        &empty.to_json(),
        r#"{
  "format": "spp-shard-report",
  "version": 1,
  "shard": 3,
  "shards": 4,
  "solvers": ["nfdh", "aptas"],
  "inputs": [],
  "plan": "0123456789abcdef",
  "config": "epsilon=1.00000000000000000e0 k=8 shelf_r=6.21999999999999997e-1 strict=false validate=true budget_ms=0 improve_seed=0 improve_streams=1 improve_envelope=false",
  "cells": []
}
"#,
    );
}

#[test]
fn merged_report_bytes() {
    let merged = MergedReport {
        solvers: vec!["nfdh".into(), "aptas".into()],
        cells: rows(),
    };
    golden(
        &merged.to_json(),
        r#"{
  "format": "spp-merged-report",
  "version": 1,
  "solvers": ["nfdh", "aptas"],
  "cells": [
    {"job": 4, "label": "deep-chain-00", "solver": "nfdh", "status": "solved", "makespan": 2.50000000000000000e0, "lb": 3.33333333333333315e-1},
    {"job": 5, "label": "odd \"label\"\\tab\t", "solver": "aptas", "status": "unsupported", "makespan": 0.00000000000000000e0, "lb": 0.00000000000000000e0}
  ]
}
"#,
    );
    let empty = MergedReport {
        solvers: vec![],
        cells: vec![],
    };
    golden(
        &empty.to_json(),
        r#"{
  "format": "spp-merged-report",
  "version": 1,
  "solvers": [],
  "cells": []
}
"#,
    );
}

#[test]
fn work_lease_bytes() {
    let lease = WorkLease {
        id: 7,
        index: 2,
        start: 4,
        paths: vec![PathBuf::from("suite/a.json"), PathBuf::from("suite/b.json")],
        solvers: vec!["nfdh".into(), "aptas".into()],
        config: config(),
    };
    golden(
        &grant_to_json(&LeaseGrant::Work(lease.clone()), Some(60)),
        r#"{
  "format": "spp-work-lease",
  "version": 1,
  "grant": "work",
  "lease": 7,
  "index": 2,
  "start": 4,
  "paths": ["suite/a.json", "suite/b.json"],
  "solvers": ["nfdh", "aptas"],
  "epsilon": 2.50000000000000000e-1,
  "k": 8,
  "shelf_r": 6.21999999999999997e-1,
  "strict": false,
  "validate": true,
  "budget_ms": 250,
  "improve_seed": 12345678901234567891,
  "improve_streams": 4,
  "improve_envelope": true,
  "deadline_secs": 60
}
"#,
    );
    golden(
        &grant_to_json(&LeaseGrant::Work(lease), None),
        r#"{
  "format": "spp-work-lease",
  "version": 1,
  "grant": "work",
  "lease": 7,
  "index": 2,
  "start": 4,
  "paths": ["suite/a.json", "suite/b.json"],
  "solvers": ["nfdh", "aptas"],
  "epsilon": 2.50000000000000000e-1,
  "k": 8,
  "shelf_r": 6.21999999999999997e-1,
  "strict": false,
  "validate": true,
  "budget_ms": 250,
  "improve_seed": 12345678901234567891,
  "improve_streams": 4,
  "improve_envelope": true,
  "deadline_secs": 0
}
"#,
    );
    golden(
        &grant_to_json(&LeaseGrant::Wait, Some(60)),
        r#"{
  "format": "spp-work-lease",
  "version": 1,
  "grant": "wait"
}
"#,
    );
    golden(
        &grant_to_json(&LeaseGrant::Done, None),
        r#"{
  "format": "spp-work-lease",
  "version": 1,
  "grant": "done"
}
"#,
    );
}

#[test]
fn work_complete_bytes() {
    golden(
        &complete_to_json(7, 4, &rows()),
        r#"{
  "format": "spp-work-complete",
  "version": 1,
  "lease": 7,
  "start": 4,
  "cells": [
    {"job": 4, "label": "deep-chain-00", "solver": "nfdh", "status": "solved", "makespan": 2.50000000000000000e0, "lb": 3.33333333333333315e-1},
    {"job": 5, "label": "odd \"label\"\\tab\t", "solver": "aptas", "status": "unsupported", "makespan": 0.00000000000000000e0, "lb": 0.00000000000000000e0}
  ]
}
"#,
    );
    golden(
        &complete_to_json(1, 0, &[]),
        r#"{
  "format": "spp-work-complete",
  "version": 1,
  "lease": 1,
  "start": 0,
  "cells": []
}
"#,
    );
}

#[test]
fn work_status_bytes() {
    let status = WorkStatus {
        jobs: 9,
        chunks: 5,
        completed_chunks: 3,
        pending: 1,
        outstanding: 1,
        leases: 6,
        requeued: 2,
        duplicates: 1,
        done: false,
    };
    golden(
        &status_to_json(&status),
        r#"{
  "format": "spp-work-status",
  "version": 1,
  "jobs": 9,
  "chunks": 5,
  "completed_chunks": 3,
  "pending": 1,
  "outstanding": 1,
  "leases": 6,
  "requeued": 2,
  "duplicates": 1,
  "done": false
}
"#,
    );
}
