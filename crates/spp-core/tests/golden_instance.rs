//! Exact-bytes fixtures for the canonical `spp-instance` document.
//!
//! Instance digests are FNV-1a over these bytes, so any layout drift —
//! even one every roundtrip test would accept — silently orphans every
//! cache directory on disk. The digest literal pins the README's
//! two-item example end to end.

use spp_core::json::InstanceFile;
use spp_core::{InstanceDigest, Item};

fn golden(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "document drifted from its golden bytes; actual:\n<<<\n{actual}>>>\nexpected:\n<<<\n{expected}>>>"
    );
}

/// The example instance of the README's "Instance files" section.
fn readme_example() -> InstanceFile {
    InstanceFile::new(
        vec![
            Item::with_release(0, 0.5, 1.0, 0.0),
            Item::with_release(1, 0.25, 2.0, 1.5),
        ],
        vec![(0, 1)],
    )
}

#[test]
fn readme_example_bytes_and_digest() {
    let text = readme_example().to_json();
    golden(
        &text,
        r#"{
  "format": "spp-instance",
  "version": 1,
  "items": [
    {"id": 0, "w": 5.00000000000000000e-1, "h": 1.00000000000000000e0, "release": 0.00000000000000000e0},
    {"id": 1, "w": 2.50000000000000000e-1, "h": 2.00000000000000000e0, "release": 1.50000000000000000e0}
  ],
  "edges": [
    [0, 1]
  ]
}
"#,
    );
    golden(
        &InstanceDigest::of_canonical_json(&text).hex(),
        "dd74659b15f5873f",
    );
}

#[test]
fn empty_instance_bytes() {
    golden(
        &InstanceFile::new(vec![], vec![]).to_json(),
        r#"{
  "format": "spp-instance",
  "version": 1,
  "items": [],
  "edges": []
}
"#,
    );
}
