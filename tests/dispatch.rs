//! Multi-process round trip of the pull-based dispatcher — the
//! acceptance criterion of the distributed-execution work, asserted as a
//! test rather than only a CI smoke job:
//!
//! * `spp dispatch` in one process plus a fleet of `spp work` pullers in
//!   others produces a merged report **byte-identical** to a
//!   single-process `spp batch` over the same inputs;
//! * a worker killed mid-run (the `--abandon-after` chaos hook: it exits
//!   without completing a lease it holds) loses nothing — the lease is
//!   requeued at its deadline, picked up by a surviving worker, and no
//!   cell is lost or double-counted;
//! * the requeue is observable: `/work/status` reports it.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn spp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spp"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_dispatch_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ALGOS: &str = "nfdh,ffdh,greedy";

/// A real `spp dispatch` child process. Like `spp serve`, it prints
/// `listening on http://host:port` as its first stdout line (port 0 =
/// kernel-chosen) — the only startup synchronization needed.
struct DispatcherProc {
    child: Child,
    url: String,
}

impl DispatcherProc {
    fn start(suite: &Path, lease_timeout_secs: &str) -> DispatcherProc {
        let mut child = spp()
            .args([
                "dispatch",
                "--input-dir",
                suite.to_str().unwrap(),
                "--algos",
                ALGOS,
                "--addr",
                "127.0.0.1:0",
                "--lease-files",
                "1",
                "--lease-timeout",
                lease_timeout_secs,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spp dispatch");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("dispatcher stdout"))
            .read_line(&mut line)
            .expect("read dispatcher banner");
        let url = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        DispatcherProc { child, url }
    }

    fn authority(&self) -> &str {
        self.url.strip_prefix("http://").unwrap()
    }
}

impl Drop for DispatcherProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_worker(url: &str, extra: &[&str]) -> std::process::Output {
    spp()
        .args(["work", "--dispatcher-url", url, "--poll-ms", "50"])
        .args(extra)
        .output()
        .expect("spawn spp work")
}

#[test]
fn dispatched_fleet_with_a_killed_worker_matches_single_process_byte_for_byte() {
    let suite = tmp("suite");
    strip_packing::gen::suite::write_suite(&suite, 29, 10, 10).unwrap();

    // Reference: single-process spp batch over the same inputs.
    let single = spp()
        .args([
            "batch",
            "--input-dir",
            suite.to_str().unwrap(),
            "--algos",
            ALGOS,
            "--cells",
        ])
        .output()
        .unwrap();
    assert!(single.status.success());
    let single_stdout = String::from_utf8(single.stdout).unwrap();

    // 1-second lease timeout so the killed worker's chunk requeues fast.
    let dispatcher = DispatcherProc::start(&suite, "1");

    // Worker A dies mid-run: it completes its first lease, then exits
    // without completing its second — exactly what kill -9 between
    // lease and completion looks like to the dispatcher, made
    // deterministic by the chaos hook.
    let doomed = run_worker(&dispatcher.url, &["--abandon-after", "2"]);
    assert_eq!(doomed.status.code(), Some(3), "chaos hook exit code");

    // Two surviving workers drain the queue, including the requeued
    // chunk once its lease expires.
    let survivors: Vec<std::thread::JoinHandle<std::process::Output>> = (0..2)
        .map(|_| {
            let url = dispatcher.url.clone();
            std::thread::spawn(move || run_worker(&url, &[]))
        })
        .collect();
    for s in survivors {
        let out = s.join().unwrap();
        assert!(
            out.status.success(),
            "worker failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The thin batch client collects the merged report: byte-identical
    // stdout — no cell lost to the kill, none double-counted.
    let awaited = spp()
        .args(["batch", "--dispatcher-url", &dispatcher.url, "--cells"])
        .output()
        .unwrap();
    assert!(
        awaited.status.success(),
        "{}",
        String::from_utf8_lossy(&awaited.stderr)
    );
    assert_eq!(
        String::from_utf8(awaited.stdout).unwrap(),
        single_stdout,
        "dispatched run diverged from single-process spp batch"
    );

    // The kill left its trace: at least one lease was requeued, and the
    // queue reports itself done.
    let status = strip_packing::serve::http::roundtrip(
        dispatcher.authority(),
        "GET",
        "/work/status",
        "",
        None,
        strip_packing::serve::http::Policy::Close,
    )
    .unwrap();
    assert_eq!(status.status, 200);
    assert!(status.body.contains("\"done\": true"), "{}", status.body);
    assert!(
        !status.body.contains("\"requeued\": 0"),
        "expected a nonzero requeue counter: {}",
        status.body
    );

    // /stats exposes the same story without logs: uptime, per-endpoint
    // counters (lease/complete included), queue progress.
    let stats = strip_packing::serve::http::roundtrip(
        dispatcher.authority(),
        "GET",
        "/stats",
        "",
        None,
        strip_packing::serve::http::Policy::Close,
    )
    .unwrap();
    assert_eq!(stats.status, 200);
    for needle in ["\"uptime_secs\":", "\"work_lease\":", "\"work_complete\":"] {
        assert!(
            stats.body.contains(needle),
            "missing {needle}: {}",
            stats.body
        );
    }

    drop(dispatcher);
    let _ = std::fs::remove_dir_all(&suite);
}

#[test]
fn dispatch_rejects_conflicting_batch_flags() {
    // --dispatcher-url is a thin client: flags the dispatcher owns are
    // refused instead of silently ignored.
    let out = spp()
        .args([
            "batch",
            "--dispatcher-url",
            "http://127.0.0.1:1",
            "--input-dir",
            "/tmp/x",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--input-dir"), "{stderr}");

    // A syntactically bad dispatcher URL is refused up front.
    let out = spp()
        .args(["work", "--dispatcher-url", "ftp://127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
