//! Two-process round trip of the `spp serve` front end — the acceptance
//! criterion of the service work, asserted as a test rather than only a
//! CI smoke job:
//!
//! * `spp serve --cache-dir D` in one process plus
//!   `spp batch --cache-url http://127.0.0.1:<port>` in another produces
//!   stdout **byte-identical** to a local `--cache-dir` execution of the
//!   same workload;
//! * a warm rerun through the HTTP cache performs **zero** solver
//!   invocations (every cell a hit, nothing written).

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn spp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spp"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_serve_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A real `spp serve` child process. The server prints
/// `listening on http://host:port` as its first stdout line (port 0 =
/// kernel-chosen), which is the only startup synchronization needed.
struct ServerProc {
    child: Child,
    url: String,
}

impl ServerProc {
    fn start(cache_dir: &Path) -> ServerProc {
        let mut child = spp()
            .args([
                "serve",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "4",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spp serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("server stdout"))
            .read_line(&mut line)
            .expect("read server banner");
        let url = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        ServerProc { child, url }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct RunOutput {
    stdout: String,
    stderr: String,
}

fn run_batch(suite: &Path, cache_flag: &str, cache_value: &str) -> RunOutput {
    let out = spp()
        .args([
            "batch",
            "--input-dir",
            suite.to_str().unwrap(),
            "--algos",
            "nfdh,ffdh,greedy",
            "--cells",
            cache_flag,
            cache_value,
        ])
        .output()
        .expect("spawn spp batch");
    assert!(
        out.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    RunOutput {
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr: String::from_utf8(out.stderr).unwrap(),
    }
}

#[test]
fn two_process_round_trip_is_byte_identical_and_warm_runs_solve_nothing() {
    let suite = tmp("suite");
    strip_packing::gen::suite::write_suite(&suite, 17, 12, 8).unwrap();
    let server_cache = tmp("server_cache");
    let local_cache = tmp("local_cache");

    // Reference: the same workload through a local --cache-dir.
    let local = run_batch(&suite, "--cache-dir", local_cache.to_str().unwrap());

    let server = ServerProc::start(&server_cache);
    let cold = run_batch(&suite, "--cache-url", &server.url);
    assert_eq!(
        cold.stdout, local.stdout,
        "HTTP-cached run diverged from local --cache-dir run"
    );
    assert!(
        cold.stderr.contains("cache: 0 hits, 24 misses, 24 written"),
        "cold stderr: {}",
        cold.stderr
    );

    // Warm rerun: byte-identical output, zero solver invocations — every
    // cell is an HTTP hit, nothing is recomputed or rewritten.
    let warm = run_batch(&suite, "--cache-url", &server.url);
    assert_eq!(warm.stdout, cold.stdout);
    assert!(
        warm.stderr.contains("cache: 24 hits, 0 misses, 0 written"),
        "warm stderr: {}",
        warm.stderr
    );

    // The server's directory is interchangeable with a local cache: a
    // third process resumes from it directly, also solving nothing.
    let resumed = run_batch(&suite, "--cache-dir", server_cache.to_str().unwrap());
    assert_eq!(resumed.stdout, cold.stdout);
    assert!(
        resumed
            .stderr
            .contains("cache: 24 hits, 0 misses, 0 written"),
        "resume stderr: {}",
        resumed.stderr
    );

    // /stats, straight off the live server: 24 GET misses (cold), 24
    // PUTs, 24 GET hits (warm), zero error-class responses.
    let authority = server.url.strip_prefix("http://").unwrap();
    let stats = strip_packing::serve::http::roundtrip(
        authority,
        "GET",
        "/stats",
        "",
        None,
        strip_packing::serve::http::Policy::Close,
    )
    .unwrap();
    assert_eq!(stats.status, 200);
    for needle in [
        "\"cache_get_hits\": 24",
        "\"cache_get_misses\": 24",
        "\"cache_puts\": 24",
        "\"entries\": 24",
        "\"errors\": 0",
        "\"corrupt\": 0",
    ] {
        assert!(
            stats.body.contains(needle),
            "missing {needle}: {}",
            stats.body
        );
    }
    // And a malformed request is a structured 400, not a hang or a 500.
    let bad = strip_packing::serve::http::roundtrip(
        authority,
        "POST",
        "/solve?solver=nfdh",
        "garbage",
        None,
        strip_packing::serve::http::Policy::Close,
    )
    .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("spp-serve-error"), "{}", bad.body);

    drop(server);
    for d in [suite, server_cache, local_cache] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn conflicting_cache_flags_are_rejected() {
    let suite = tmp("flags_suite");
    strip_packing::gen::suite::write_suite(&suite, 1, 8, 2).unwrap();
    let out = spp()
        .args([
            "batch",
            "--input-dir",
            suite.to_str().unwrap(),
            "--cache-dir",
            "/tmp/x",
            "--cache-url",
            "http://127.0.0.1:1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    // A syntactically bad URL is refused up front, not degraded to
    // an uncached run.
    let out = spp()
        .args([
            "batch",
            "--input-dir",
            suite.to_str().unwrap(),
            "--cache-url",
            "ftp://127.0.0.1:1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&suite);
}
