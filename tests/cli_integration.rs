//! The `wave-lts` binary fails loudly on a failed output write: a
//! `simulate --trace-out` into a directory that does not exist must exit
//! non-zero, for the in-process ranks and for worker processes alike.

use std::process::Command;

fn simulate_with_unwritable_trace(transport: &str) -> std::process::Output {
    let trace = std::env::temp_dir()
        .join(format!("wave-lts-missing-dir-{}", std::process::id()))
        .join("t.json");
    assert!(!trace.parent().is_some_and(|d| d.exists()));
    Command::new(env!("CARGO_BIN_EXE_wave-lts"))
        .args([
            "simulate",
            "--mesh",
            "trench",
            "--elements",
            "600",
            "--steps",
            "2",
            "--ranks",
            "2",
            "--order",
            "2",
            "--transport",
            transport,
            "--trace-out",
        ])
        .arg(&trace)
        .output()
        .expect("wave-lts runs")
}

#[test]
fn unwritable_trace_out_exits_nonzero_in_process() {
    let out = simulate_with_unwritable_trace("channel");
    assert!(!out.status.success(), "{:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write"));
}

#[cfg(unix)]
#[test]
fn unwritable_trace_out_exits_nonzero_with_worker_processes() {
    let out = simulate_with_unwritable_trace("process");
    assert!(!out.status.success(), "{:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write"));
}
